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
  dynamics.  gaussian_bump carries no Nyquist content, so multiplier
  identities are exact on it.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
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
        # the unpaired bin n//2 on any axis
        self.nyquist_mask = sum(m == axis[n // 2] for m in mesh) > 0
        kept = np.abs(axis) <= (2.0 / 3.0) * (np.pi * n / spec.box_length) + 1e-12
        # the sharp 2/3 band, |xi_axis| <= (2/3) * Nyquist on every axis, as
        # np.ix_ indices of the half layout of a real field, whose last axis
        # keeps h = n//2 + 1 modes, and as flat indices of that layout,
        # through which a scatter is 3-4x faster
        kept = np.flatnonzero(kept)
        h = n // 2 + 1
        self.band = np.ix_(*[kept] * (spec.dim - 1), kept[kept < h])
        self.band_flat = np.ravel_multi_index(self.band, spec.shape[:-1] + (h,)).ravel()
        # per full axis a of the half layout, views of the lines along a that
        # N's transforms cannot skip, those whose later axes lie in the band:
        # [0, m) and [n - m + 1, n) on a full axis, [0, m) on the half axis
        m = int(np.count_nonzero(kept < h))
        later = [(slice(0, m), slice(n - m + 1, n))] * (spec.dim - 2) + [(slice(0, m),)]
        self.band_lines = [
            list(itertools.product(*[(slice(None),)] * (a + 1), *later[a:]))
            for a in range(spec.dim - 1)
        ]

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
    """Complex Fourier coefficients on a FrequencyLattice (FFT order).

    The coefficients are either the full spectrum or, for a real field, its
    2/3 band, flattened in the order of lattice.band_flat.
    """

    lattice: FrequencyLattice
    coeffs: np.ndarray

    def __post_init__(self):
        shape = self.lattice.spec.shape
        if self.coeffs.shape not in (shape, self.lattice.band_flat.shape):
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} matches neither grid "
                f"shape {shape} nor its 2/3 band"
            )


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Spectral coefficients -> physical grid values (unitary inverse FFT)."""
    return np.fft.ifftn(f.coeffs, norm="ortho")


def _axis_passes(array, transform, views, axes):
    """Transform array in place along each of axes in turn, on its views[axis]."""
    for axis in axes:
        for view in views[axis]:
            lines = array[view]
            transform(lines, axis=axis, norm="ortho", out=lines)


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

    Block N >= 1 carries psi(|xi|/N) and block 0 chi(2|xi|).  The blocks
    N >= 1 telescope to chi(|xi|/N_top) - chi(2|xi|), and the top scale of
    dyadic_scales exceeds every |xi| off Nyquist, so the family sums to one.
    """
    index = DyadicIndex(index)
    r = lattice.xi_norm
    w = bump_profile(2.0 * r) if index == 0 else annulus_profile(r / float(index))
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
    return SpectralField(f.lattice, f.coeffs * phase)


def sobolev_norm(f: SpectralField, s: float, mass: float = 1.0) -> float:
    """H^s norm (sum_xi <xi>_m^{2s} |f(xi)|^2)^{1/2} with lattice measure."""
    w = f.lattice.bracket(mass) ** (2.0 * s)
    total = np.sum(w * np.abs(f.coeffs) ** 2)
    return float(np.sqrt(f.lattice.cell_volume * total))


def gaussian_bump(
    lattice: FrequencyLattice, amplitude: float = 1.0, width: float = 1.0
) -> SpectralField:
    """Smooth real bump amplitude*exp(-|x-c|^2/width^2), Nyquist-free.

    The center c is the middle of the box, keeping the bump far from the
    periodic seam for the usual box sizes.  ValueError when a coefficient is
    not finite, as when width**2 is 0.
    """
    spec = lattice.spec
    n, box = spec.points_per_axis, spec.box_length
    x = np.arange(n) * (box / n) - box / 2.0
    r2 = sum(xs**2 for xs in np.meshgrid(*[x] * spec.dim, indexing="ij", sparse=True))
    with np.errstate(all="ignore"):
        values = amplitude * np.exp(-r2 / width**2)
        coeffs = np.fft.fftn(values.astype(complex), norm="ortho")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(
            f"a bump of amplitude {amplitude}, width {width} is out of the float range"
        )
    coeffs[lattice.nyquist_mask] = 0.0
    return SpectralField(lattice, coeffs)


# ---------------------------------------------------------------------------
# memory bound


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _worker_pool(points: int, gate: int):
    """A with-context of a one-worker pool, or of None below the gate or on one core."""
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2 or points < gate:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor  # only here: it takes 5-10 ms

    return ThreadPoolExecutor(1)


def _split_even_odd(fill, n: int, points: int, gate: int):
    """fill(range(n)); with a pool from _worker_pool, the odd indices on its worker.

    The worker runs in a copy of this context, so the caller's np.errstate holds."""
    with _worker_pool(points, gate) as pool:
        if pool is None:
            fill(range(n))
        else:
            odd = pool.submit(contextvars.copy_context().run, fill, range(1, n, 2))
            fill(range(0, n, 2))
            odd.result()


def _require_memory(nbytes: int, what: str):
    """Raise MemoryError, before allocating, when nbytes exceed physical memory."""
    limit = _physical_memory()
    if nbytes > limit:
        raise MemoryError(
            f"{what} need {nbytes / 2**30:.3g} GiB, more than the "
            f"{limit / 2**30:.3g} GiB of physical memory"
        )
