r"""Periodic frequency lattice, spectral fields, and Fourier multipliers.

Conventions used throughout the package:

* the spatial domain is the periodic box [0, box_length)^dim sampled on a
  uniform grid with points_per_axis nodes per axis;
* lattice frequencies are xi_k = 2*pi*k/box_length with k in
  [-points/2, points/2), stored in FFT order;
* transforms are unitary (norm="ortho"), so plain coefficient l2 sums match
  physical l2 sums, and all norms carry the lattice measure weight
  cell_volume = (box_length/points)**dim;
* the bracket <xi>_m = sqrt(m**2 + |xi|**2) requires m > 0;
* every multiplier built here vanishes on Nyquist modes (the unpaired
  k = -points/2 bins), which keeps odd-frequency artifacts out of the
  dynamics.  Fields drawn from the samplers in this module carry no Nyquist
  content, so multiplier identities are exact on them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


class DyadicIndex(int):
    """Dyadic scale label: 0 (the low block) or an exact power of two."""

    def __new__(cls, value):
        v = int(value)
        if v != value:
            raise ValueError(f"dyadic index must be integral, got {value!r}")
        if v != 0 and (v < 1 or v & (v - 1)):
            raise ValueError(f"dyadic index must be 0 or a power of two, got {v}")
        return super().__new__(cls, v)


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the periodic computational box."""

    dim: int
    box_length: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")
        n = self.points_per_axis
        if n < 8 or n & (n - 1):
            raise ValueError("points_per_axis must be a power of two >= 8")

    @property
    def cell_volume(self) -> float:
        return (self.box_length / self.points_per_axis) ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim


class FrequencyLattice:
    """Frequency-space view of a GridSpec, with cached |xi|^2 and masks."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n = spec.points_per_axis
        axis = 2.0 * np.pi * np.fft.fftfreq(n, d=spec.box_length / n)
        self.axis_frequencies = axis
        mesh = np.meshgrid(*([axis] * spec.dim), indexing="ij", sparse=True)
        self.k2 = sum(m * m for m in mesh)
        nyq = np.zeros(n, dtype=bool)
        nyq[n // 2] = True
        kept = np.abs(axis) <= (2.0 / 3.0) * (np.pi * n / spec.box_length) + 1e-12
        mask = np.zeros(spec.shape, dtype=bool)
        keep = np.ones(spec.shape, dtype=bool)
        for d in range(spec.dim):
            shape = [1] * spec.dim
            shape[d] = n
            mask |= nyq.reshape(shape)
            keep &= kept.reshape(shape)
        self.nyquist_mask = mask
        # sharp 2/3 rule as 0/1 weights: |xi_axis| <= (2/3) * Nyquist on every axis
        self.dealias_mask = keep.astype(float)

    @property
    def cell_volume(self) -> float:
        return self.spec.cell_volume

    @property
    def xi_norm(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @property
    def max_frequency(self) -> float:
        """Largest radial |xi| on the lattice (excluding Nyquist bins)."""
        return float(np.sqrt(self.k2[~self.nyquist_mask].max()))

    def bracket(self, mass: float) -> np.ndarray:
        if not mass > 0:
            raise ValueError(f"mass must be positive, got {mass}")
        return np.sqrt(mass * mass + self.k2)

    def __eq__(self, other):
        return isinstance(other, FrequencyLattice) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex Fourier coefficients on a FrequencyLattice (FFT order)."""

    lattice: FrequencyLattice
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.lattice.spec.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match "
                f"grid shape {self.lattice.spec.shape}"
            )

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.lattice, np.asarray(coeffs, dtype=complex))


def physical_coordinates(spec: GridSpec) -> list:
    """Meshgrid of physical node coordinates in [0, box_length)."""
    x = np.arange(spec.points_per_axis) * (spec.box_length / spec.points_per_axis)
    return np.meshgrid(*([x] * spec.dim), indexing="ij")


def forward_transform(lattice: FrequencyLattice, values: np.ndarray) -> SpectralField:
    """Physical grid values -> spectral coefficients (unitary FFT)."""
    values = np.asarray(values)
    if values.shape != lattice.spec.shape:
        raise ValueError(f"value shape {values.shape} != grid {lattice.spec.shape}")
    return SpectralField(lattice, np.fft.fftn(values.astype(complex), norm="ortho"))


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Spectral coefficients -> physical grid values (unitary inverse FFT)."""
    return np.fft.ifftn(f.coeffs, norm="ortho")


# ---------------------------------------------------------------------------
# smooth dyadic cutoffs


def bump_profile(t: np.ndarray) -> np.ndarray:
    """Radial cutoff chi: identically 1 on |t| <= 1, smooth decay to 0 at |t| = 2.

    The transition uses exp(1 - 1/(1 - s**8)) with s = |t| - 1, which keeps
    seven vanishing derivatives at the plateau edge.  The exact plateau is what
    makes dyadic annulus supports sharp: psi(t) = chi(t) - chi(2t) vanishes
    identically outside 1/2 <= |t| <= 2.
    """
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        s8 = (t[mid] - 1.0) ** 8
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - s8))
    return out


def annulus_profile(t: np.ndarray) -> np.ndarray:
    """psi(t) = chi(t) - chi(2t), supported on 1/2 <= |t| <= 2."""
    return bump_profile(t) - bump_profile(2.0 * np.asarray(t, dtype=float))


def dyadic_scales(lattice: FrequencyLattice) -> list:
    """All dyadic indices active on the lattice: 0, 1, 2, ..., up to Nyquist."""
    ximax = lattice.max_frequency
    scales = [DyadicIndex(0)]
    n = 1
    while n / 2.0 <= ximax:
        scales.append(DyadicIndex(n))
        n *= 2
    return scales


def lp_weights(lattice: FrequencyLattice, index) -> np.ndarray:
    """Littlewood-Paley multiplier for one dyadic block.

    Block N >= 1 carries psi(|xi|/N); block 0 carries the exact complement
    1 - sum_{N>=1} psi_N so the full family sums to one on the lattice.
    """
    index = DyadicIndex(index)
    r = lattice.xi_norm
    if index == 0:
        w = np.ones_like(r)
        for scale in dyadic_scales(lattice)[1:]:
            w -= annulus_profile(r / float(scale))
    else:
        w = annulus_profile(r / float(index))
    w[lattice.nyquist_mask] = 0.0
    return w


# ---------------------------------------------------------------------------
# multipliers


def free_propagate(f: SpectralField, t: float, mass: float, sign: int) -> SpectralField:
    """Half-wave propagator exp(sign * i * t * <xi>_m); unitary off Nyquist."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    phase = np.exp(1j * sign * t * f.lattice.bracket(mass))
    phase[f.lattice.nyquist_mask] = 0.0
    return f.with_coeffs(f.coeffs * phase)


def sobolev_norm(f: SpectralField, s: float, mass: float = 1.0) -> float:
    """H^s norm (sum_xi <xi>_m^{2s} |f(xi)|^2)^{1/2} with lattice measure."""
    w = f.lattice.bracket(mass) ** (2.0 * s)
    total = np.sum(w * np.abs(f.coeffs) ** 2)
    return float(np.sqrt(f.lattice.cell_volume * total))


def l2_norm(f: SpectralField) -> float:
    return float(np.sqrt(f.lattice.cell_volume) * np.linalg.norm(f.coeffs))


def gaussian_bump(
    lattice: FrequencyLattice,
    amplitude: float = 1.0,
    width: float = 1.0,
    center=None,
) -> SpectralField:
    """Smooth real bump amplitude*exp(-|x-c|^2/width^2), Nyquist-free.

    Default center is the middle of the box, keeping the bump far from the
    periodic seam for the usual box sizes.
    """
    spec = lattice.spec
    if center is None:
        center = (spec.box_length / 2.0,) * spec.dim
    xs = physical_coordinates(spec)
    r2 = sum((x - c) ** 2 for x, c in zip(xs, center))
    f = forward_transform(lattice, amplitude * np.exp(-r2 / width**2))
    c = f.coeffs.copy()
    c[lattice.nyquist_mask] = 0.0
    return SpectralField(lattice, c)


def random_field(
    lattice: FrequencyLattice,
    rng: np.random.Generator,
    decay: float = 0.0,
    mass: float = 1.0,
) -> SpectralField:
    """Random complex field, iid modes damped by <xi>^-decay, Nyquist-free."""
    shape = lattice.spec.shape
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    if decay:
        c = c * lattice.bracket(mass) ** (-decay)
    c[lattice.nyquist_mask] = 0.0
    return SpectralField(lattice, c)


# ---------------------------------------------------------------------------
# space-time fields and modulation projectors


def uniform_times(times) -> np.ndarray:
    """Sample times as a float array, checked: at least two, increasing, uniform."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two sample times")
    dt = np.diff(times)
    if not np.all(dt > 0):
        raise ValueError("times must be strictly increasing")
    if not np.max(np.abs(dt - dt[0])) <= 1e-9 * dt[0]:
        raise ValueError("times must be uniformly spaced")
    return times


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Uniformly sampled spectral snapshots: coeffs[j] is the field at times[j]."""

    times: np.ndarray
    lattice: FrequencyLattice
    coeffs: np.ndarray

    def __post_init__(self):
        times = uniform_times(self.times)
        object.__setattr__(self, "times", times)
        if self.coeffs.shape != (times.size,) + self.lattice.spec.shape:
            raise ValueError("one snapshot on the lattice per sample time required")

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


def _tau_grid(n_times: int, dt: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n_times, d=dt)


def modulation_weights(
    u: SpaceTimeField, index, sign: int, mass: float, mode: str = "band"
) -> np.ndarray:
    """(tau, xi) multiplier psi-family evaluated at tau - sign*<xi>_m.

    mode "band" is the single dyadic block; "low" / "high" are the exact
    complementary pair splitting modulations below / at-or-above the index.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    index = DyadicIndex(index)
    dim = u.lattice.spec.dim
    tau = _tau_grid(u.times.size, u.step).reshape((-1,) + (1,) * dim)
    x = tau - sign * u.lattice.bracket(mass)[None, ...]
    if mode == "band":
        w = bump_profile(2.0 * x) if index == 0 else annulus_profile(x / float(index))
    elif mode in ("low", "high"):
        if index == 0:
            raise ValueError("low/high split needs index >= 1")
        low = bump_profile(2.0 * x / float(index))
        w = low if mode == "low" else 1.0 - low
    else:
        raise ValueError(f"unknown mode {mode!r}")
    w[:, u.lattice.nyquist_mask] = 0.0
    return w


def modulation_project(
    u: SpaceTimeField, index, sign: int, mass: float = 1.0, mode: str = "band"
) -> SpaceTimeField:
    """Project onto a temporal-modulation block via plain DFT in time.

    The temporal DFT treats the sampled horizon as periodic, which keeps the
    projector family exactly complementary (low + high = identity).  Leakage
    control for measurements lives in modulation_energy instead.
    """
    w = modulation_weights(u, index, sign, mass, mode)
    hat = np.fft.fft(u.coeffs, axis=0)
    return SpaceTimeField(u.times, u.lattice, np.fft.ifft(w * hat, axis=0))


def modulation_energy(
    u: SpaceTimeField,
    index,
    sign: int,
    mass: float = 1.0,
    mode: str = "band",
    window: str = "hann",
) -> float:
    """Space-time L2 mass of one modulation block over the sampled horizon.

    A Hann window (RMS-normalized) tapers the horizon before the temporal DFT
    so that off-grid tau content does not leak across dyadic blocks; pass
    window="none" for the raw periodic measurement.
    """
    J = u.times.size
    dt = u.step
    if index != 0 and 2.0 * float(index) > np.pi / dt:
        raise ValueError(
            f"sampling too coarse for modulation {int(index)}: "
            f"tau-Nyquist is {np.pi / dt:.3g}"
        )
    if window == "hann":
        # periodic Hann, so an on-grid tone spreads over exactly three bins
        win = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(J) / J))
        win = win / np.sqrt(np.mean(win**2))
    elif window == "none":
        win = np.ones(J)
    else:
        raise ValueError(f"unknown window {window!r}")
    data = u.coeffs * win.reshape((-1,) + (1,) * u.lattice.spec.dim)
    hat = np.fft.fft(data, axis=0, norm="ortho")
    w = modulation_weights(u, index, sign, mass, mode)
    total = np.sum(np.abs(w * hat) ** 2)
    return float(np.sqrt(dt * u.lattice.cell_volume * total))


# ---------------------------------------------------------------------------
# memory bound


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(nbytes: int, what: str):
    """Raise MemoryError, before allocating, when nbytes exceed physical memory."""
    limit = _physical_memory()
    if nbytes > limit:
        raise MemoryError(
            f"{what} need {nbytes / 2**30:.3g} GiB, more than the "
            f"{limit / 2**30:.3g} GiB of physical memory"
        )
