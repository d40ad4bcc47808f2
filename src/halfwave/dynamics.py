r"""Half-wave dynamics: decomposition, exact linear flow, and time stepping.

The second-order equation (box + m^2) u = N(u) is evolved as the first-order
pair u^+, u^- with u = u^+ + u^- and u_t = i<D>(u^+ - u^-):

    d/dt u^± = ±i <D> u^± ∓ i N(u) / (2<D>)

Two independent discretizations live here.  evolve marches the pair with a
Lawson scheme (exact rotation of the stiff phase, classical RK4 on the rotated
remainder).  picard_iterate solves the equivalent integral equation by fixed
point, with the time integral done by composite trapezoid written as a
recursion in the rotated frame: one step factor e^{±i dt <D>} carries each
time level to the next, and the iterate, 16 bytes per band entry per level,
is all it stores.  Their agreement is one of the package's main self-checks.

The fields are real: both solvers check once, at entry, that the state's
physical fields u and u_t are real to within 1e-12 relative, else ValueError,
and the real coefficients of the system keep them real along the flow.  N
reads and writes only the 2/3 band, outside which the flow is the free
rotation, so both solvers carry the band lattice.band alone.  The halves of a
real state are tied by u^-(xi) = conj(u^+(-xi)), so the band is cut from the
kept half of the last axis, and each whole state the solvers return is
completed to the full (K, 2, *grid) layout that every Trajectory holds.

Division by 2<D> is always well-posed here because every mass is strictly
positive; the massless case would need a low-frequency cutoff and is not
supported anywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    FrequencyLattice,
    SpectralField,
    _require_memory,
    free_propagate,  # noqa: F401  (a span target of the benchmark's traced run)
    sobolev_norm,  # noqa: F401  (a span target of the benchmark's traced run)
)
from .system import MassSystem, evaluate_nonlinearity


class InstabilityError(RuntimeError):
    """Raised when an evolution leaves the stable regime (growth or NaN)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


def _require_shape(name: str, array: np.ndarray, shape: tuple):
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")


def decompose(lattice: FrequencyLattice, u, u_t, masses) -> np.ndarray:
    """The (K, 2, *grid) state of (K, *grid) data: u^± = (u ∓ i u_t/<D>) / 2.

    The inverse of reconstruct; Nyquist modes of the state are zero.
    """
    shape = (len(masses),) + lattice.spec.shape
    _require_shape("position", u, shape)
    _require_shape("velocity", u_t, shape)
    half = np.where(lattice.nyquist_mask, 0.0, 0.5 * u)
    shift = 1j * u_t * _inverse_twice_bracket(lattice, masses)[:, 0]
    return np.stack([half - shift, half + shift], axis=1)


def reconstruct(lattice: FrequencyLattice, state: np.ndarray, masses):
    """Inverse of decompose over a (K, 2, *grid) state.

    Returns the (K, *grid) arrays u = u^+ + u^- and u_t = i<D>(u^+ - u^-).
    """
    br = _brackets(lattice, masses)[:, 0] * ~lattice.nyquist_mask
    return state[:, 0] + state[:, 1], 1j * br * (state[:, 0] - state[:, 1])


def linear_exact(lattice: FrequencyLattice, u, u_t, masses, t: float):
    """Closed-form solution of the free equations (box + m^2) u = 0.

    u(t) = cos(t<D>) u + sin(t<D>)/<D> u_t for (K, *grid) data, returned as
    the (K, *grid) arrays (u(t), u_t(t)).  Like every multiplier in this
    package the output carries no Nyquist content.
    """
    live = ~lattice.nyquist_mask
    br = _brackets(lattice, masses)[:, 0]
    c, s = np.cos(t * br) * live, np.sin(t * br) * live
    return c * u + s / br * u_t, -br * s * u + c * u_t


def _brackets(lattice: FrequencyLattice, masses) -> np.ndarray:
    """<D>_m of every component, shape (K, 1, *grid) to broadcast over a state."""
    return np.stack([lattice.bracket(m) for m in masses])[:, None]


def _inverse_twice_bracket(lattice: FrequencyLattice, masses) -> np.ndarray:
    """1 / (2<D>_m) of every component, shape (K, 1, *grid), zero on Nyquist modes."""
    return ~lattice.nyquist_mask / (2.0 * _brackets(lattice, masses))


def _rotation(lattice: FrequencyLattice, masses, t: float) -> np.ndarray:
    """Free flow e^{±it<D>} over a (K, 2, *grid) state, zero on Nyquist modes."""
    phase = np.exp(1j * t * _brackets(lattice, masses))
    phase[:, :, lattice.nyquist_mask] = 0.0
    return np.concatenate([phase, np.conj(phase)], axis=1)


def _hs_weights(lattice: FrequencyLattice, masses, s: float) -> np.ndarray:
    """Lattice measure times <xi>_m^{2s} of every component, shape (K, 1, *grid)."""
    return lattice.cell_volume * _brackets(lattice, masses) ** (2.0 * s)


def _field_norms(weights: np.ndarray, state: np.ndarray) -> np.ndarray:
    """H^s norms of the physical fields u_i = u_i^+ + u_i^- of one state, shape (K,)."""
    u = state[:, 0] + state[:, 1]
    return np.sqrt(np.sum(weights[:, 0] * np.abs(u) ** 2, axis=tuple(range(1, u.ndim))))


def _state_distance(root: np.ndarray, a: np.ndarray, b: np.ndarray, out) -> float:
    """H^s distance of two states, square-summed over components and halves.

    root is the square root of _hs_weights.  The weighted difference goes to
    out, which may be b itself: a difference, a scaling and one vdot make
    three passes.
    """
    np.subtract(a, b, out=out)
    out *= root
    return math.sqrt(np.vdot(out, out).real)


def _band(lattice: FrequencyLattice, a: np.ndarray) -> np.ndarray:
    """The 2/3 band lattice.band of the last axes of a, C-contiguous."""
    return np.ascontiguousarray(a[(Ellipsis,) + lattice.band])


def _half_root(lattice: FrequencyLattice, masses, s: float) -> np.ndarray:
    """sqrt(_hs_weights) on the kept half; a real state's column but 0 counts twice."""
    h = lattice.spec.points_per_axis // 2 + 1
    root = np.sqrt(_hs_weights(lattice, masses, s)[..., :h])
    root[..., 1:] *= math.sqrt(2.0)
    return root


def _nonlinearity(lattice: FrequencyLattice, system: MassSystem, u):
    """N_i(u) of the (K, *band) fields u, shape (K, 1, *band): lattice.band."""
    fields = tuple(SpectralField(lattice, f.reshape(-1)) for f in u)
    return evaluate_nonlinearity(system, fields).reshape(u.shape)[:, None]


def _complete_hermitian(lattice: FrequencyLattice, out, partner):
    """Fill the dropped half of out, full spectra whose kept half is set.

    Each dropped mode k is conj(partner(-k)), one gather through the index
    -k mod n on every grid axis, which lands in the kept half.  The partner
    is out itself for a real field; u^+ and u^- of a real state are each
    other's.
    """
    n = lattice.spec.points_per_axis
    h = n // 2 + 1
    neg = -np.arange(n) % n
    mirror = np.ix_(*[neg] * (lattice.spec.dim - 1), neg[h:])
    np.conjugate(partner[(Ellipsis,) + mirror], out=out[..., h:])


def _fill_band(lattice: FrequencyLattice, band, out):
    """Write a band into the whole real state out and complete its dropped half."""
    out[(Ellipsis,) + lattice.band] = band
    _complete_hermitian(lattice, out, out[:, ::-1])


def _require_real(lattice: FrequencyLattice, state: np.ndarray, masses):
    """ValueError when a field u_i or u_t,i of the state is not real to 1e-12 relative.

    A non-finite state passes, for the solvers' own guards to report.
    """
    fields = np.concatenate(reconstruct(lattice, state, masses))
    values = np.fft.ifftn(fields, axes=range(1, fields.ndim)).reshape(len(fields), -1)
    imag, norms = np.linalg.norm(values.imag, axis=1), np.linalg.norm(values, axis=1)
    if np.any(imag > 1e-12 * norms):
        raise ValueError("the solvers take real fields: u and u_t are not real")


def _entry(lattice: FrequencyLattice, state: np.ndarray, system: MassSystem, T, dt, s):
    """The checks both solvers make at entry; returns the step count and _half_root.

    ValueError when T or dt is not positive, the state is not (K, 2, *grid),
    the step count is not finite, an H^s weight of the kept half is not
    finite, or the state's fields are not real.  The weights are checked
    beyond the band, which is all Picard reads, since evolve's norm and the
    trajectory's norms read them there too.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    _require_shape("state", state, (system.size, 2) + lattice.spec.shape)
    if not math.isfinite(T / dt):
        raise ValueError(f"horizon / dt = {T / dt} is not a finite step count")
    root = _half_root(lattice, system.masses, s)
    if not np.all(np.isfinite(root)):
        raise ValueError(f"the H^s weights of s = {s} are not finite on the lattice")
    _require_real(lattice, state, system.masses)
    return max(1, int(round(T / dt))), root


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled evolution: halves[j, i] is [u_i^+, u_i^-] at times[j]."""

    times: np.ndarray
    masses: tuple
    lattice: FrequencyLattice
    halves: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two sample times")
        dt = np.diff(times)
        if not np.all(dt > 0):
            raise ValueError("times must be strictly increasing")
        if not np.max(np.abs(dt - dt[0])) <= 1e-9 * dt[0]:
            raise ValueError("times must be uniformly spaced")
        object.__setattr__(self, "times", times)
        masses = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "masses", masses)
        if not masses or not all(0 < m < math.inf for m in masses):
            raise ValueError("masses must be positive and finite")
        shape = (self.times.size, len(masses), 2) + self.lattice.spec.shape
        _require_shape("halves", self.halves, shape)

    @property
    def n_components(self) -> int:
        return len(self.masses)

    def norm_series(self, s: float) -> np.ndarray:
        """H^s norms of the physical fields, shape (n_times, n_components)."""
        weights = _hs_weights(self.lattice, self.masses, s)
        return np.array([_field_norms(weights, state) for state in self.halves])

    def half(self, component: int, sign: int) -> np.ndarray:
        """All samples of u^+ (sign +1) or u^- (sign -1) of one component."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self.halves[:, component, (1 - sign) // 2]

    def unrotated(self, j: int) -> np.ndarray:
        """Profiles e^{∓it<D>} u^±(t) at sample j; constant for a free wave."""
        return self.halves[j] * _rotation(self.lattice, self.masses, -self.times[j])

    def distance(self, other: "Trajectory", s: float) -> float:
        """sup over time of the H^s distance between the two trajectories' states.

        Both must hold the same samples of the same components on the same
        lattice, their times agreeing to 1e-9 of the step; else ValueError.
        """
        step = self.times[1] - self.times[0]
        if (
            self.halves.shape != other.halves.shape
            or self.masses != other.masses
            or self.lattice != other.lattice
            or not np.max(np.abs(self.times - other.times)) <= 1e-9 * step
        ):
            raise ValueError("distance needs two trajectories on the same samples")
        root = np.sqrt(_hs_weights(self.lattice, self.masses, s))
        diff = np.empty_like(self.halves[0])
        return max(
            _state_distance(root, a, b, diff) for a, b in zip(self.halves, other.halves)
        )


def free_trajectory(
    lattice: FrequencyLattice, state: np.ndarray, masses, times
) -> Trajectory:
    """Trajectory of exact free half-wave flow from the given state at t=0."""
    _require_memory(len(times) * state.size * 16, f"{len(times)} samples")
    halves = np.empty((len(times),) + state.shape, dtype=complex)
    for sample, t in zip(halves, times):
        np.multiply(state, _rotation(lattice, masses, t), out=sample)
    return Trajectory(times, masses, lattice, halves)


# ---------------------------------------------------------------------------
# Lawson time stepping


class _Stepper:
    """Lawson-RK4 at a fixed step h, with every rotation folded in.

    The slope of a state y is M n, with n = N(y^+ + y^-) and M = ∓i/(2<D>).
    Classical Lawson-RK4 rotates each stage slope back by E_h* or E*, and
    each stage input and the update forward by E_h = e^{±ih<D>/2} or
    E = E_h^2.  Multiplied out, every back rotation cancels a forward one.
    N only sees the sum Σ over the two halves, and Σ M = 0 while
    Σ M E_h = S = sin(h<D>/2)/<D>.  So the four stage fields are

        u1 = Σ y,  u2 = Σ y E_h + (h/2) S n1,  u3 = Σ y E_h,  u4 = Σ y E + h S n3,

    and the update is y' = y E + (h/6) M ((n1 E_h + 2 (n2 + n3)) E_h + n4).
    M only flips sign between u^+ and u^-, so one (K, 1, *band) weight
    -i h/(12<D>) serves both halves, and no step takes a conjugate.
    Every factor is pointwise in xi, and outside the 2/3 band n = 0, so the
    stepper holds them for the band only and steps the band of a state.
    """

    def __init__(self, lattice: FrequencyLattice, system: MassSystem, dt: float):
        self.lattice = lattice
        self.system = system
        masses = system.masses
        self.half_phase = _band(lattice, _rotation(lattice, masses, 0.5 * dt))
        inv2br = _band(lattice, _inverse_twice_bracket(lattice, masses)[:, 0])
        brackets = _band(lattice, _brackets(lattice, masses)[:, 0])
        self.kick = dt * inv2br * np.sin(0.5 * dt * brackets)
        self.weight = (-1j * dt / 6.0) * inv2br[:, None]
        self.stage = np.empty_like(self.half_phase)

    def step(self, y):
        """Advance the state y by one step, in place."""
        lattice, system, phase = self.lattice, self.system, self.half_phase
        rotated = np.multiply(y, phase, out=self.stage)
        a = rotated[:, 0] + rotated[:, 1]
        n1 = _nonlinearity(lattice, system, y[:, 0] + y[:, 1])
        n2 = _nonlinearity(lattice, system, a + self.kick * n1[:, 0])
        n3 = _nonlinearity(lattice, system, a)
        rotated *= phase
        b = rotated[:, 0] + rotated[:, 1]
        n4 = _nonlinearity(lattice, system, b + 2.0 * self.kick * n3[:, 0])
        np.multiply(n1, phase, out=y)
        y += 2.0 * (n2 + n3)
        y *= phase
        y += n4
        y *= self.weight
        # the weight is M h/6 on u^+; u^- carries its negative
        y[:, 0] += rotated[:, 0]
        np.subtract(rotated[:, 1], y[:, 1], out=y[:, 1])


# the factor over the whole state's initial H^s norm at which evolve aborts
_GROWTH_ABORT = 1e6


def evolve(
    lattice: FrequencyLattice,
    state: np.ndarray,
    system: MassSystem,
    T: float,
    dt: float,
    sample_every: int = 1,
    s: float = 0.5,
) -> Trajectory:
    """March a (K, 2, *grid) half-wave state to time T, sampling every stride.

    _entry's checks apply, and the stride must divide the round(T / dt)
    steps, else ValueError.  The stepper carries the band; each sample after
    the entry state is the one before it rotated by the stride, with the band
    written in.  Aborts with
    InstabilityError when the H^s norm of the whole state, both halves of
    every component, exceeds 1e6 times its initial value or turns non-finite:
    data at rest, u = 0 and u_t not, have a limit.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be positive")
    steps, half_root = _entry(lattice, state, system, T, dt, s)
    if steps % sample_every:
        raise ValueError(f"stride {sample_every} does not divide the {steps} steps")
    n_samples = steps // sample_every + 1
    _require_memory(n_samples * state.size * 16, f"{n_samples} samples")
    masses = system.masses
    stepper = _Stepper(lattice, system, dt)
    y = _band(lattice, state).astype(complex)
    # the free flow keeps the norm outside the band, once it zeroes the Nyquist modes
    outside = ~lattice.nyquist_mask[..., : half_root.shape[-1]]
    outside[lattice.band] = False
    rest = np.sum(np.abs(half_root * outside * state[..., : outside.shape[-1]]) ** 2)
    # a real multiply on the float view of y: a complex one turns inf into nan
    root = np.repeat(_band(lattice, half_root), 2, axis=-1)
    scratch = np.empty_like(y).view(float)

    def total_norm(y):
        np.multiply(y.view(float), root, out=scratch)
        return math.sqrt(rest + np.vdot(scratch, scratch))

    base = total_norm(y)
    # without a scale, the largest float: an infinite norm still fails the test
    limit = _GROWTH_ABORT * base if base > 0 else np.finfo(float).max

    halves = np.empty((n_samples,) + state.shape, dtype=complex)
    halves[0] = state
    flow = _rotation(lattice, masses, sample_every * dt)
    for j in range(1, steps + 1):
        stepper.step(y)
        norm = total_norm(y)
        # a non-finite entry makes the norm non-finite, which fails the test too
        if not norm <= limit:
            t = j * dt
            if not math.isfinite(norm):
                raise InstabilityError(f"non-finite state at t={t:.6g}", time=t)
            raise InstabilityError(
                f"norm {norm:.3e} exceeded {_GROWTH_ABORT:.1e} x initial at t={t:.6g}",
                time=t,
            )
        if j % sample_every == 0:
            k = j // sample_every
            np.multiply(halves[k - 1], flow, out=halves[k])
            _fill_band(lattice, y, halves[k])
    return Trajectory(np.arange(n_samples) * sample_every * dt, masses, lattice, halves)


# ---------------------------------------------------------------------------
# Picard / fixed-point route


@dataclass(frozen=True, eq=False)
class PicardReport:
    """Contraction diagnostics, and final, the last iterate rebuilt at each read."""

    successive_distances: tuple
    contraction_factor: float
    diverged: bool
    _complete: Callable[[], Trajectory]

    @property
    def final(self) -> Trajectory:
        return self._complete()


def picard_iterate(
    lattice: FrequencyLattice,
    state: np.ndarray,
    system: MassSystem,
    T: float,
    dt: float,
    iters: int,
    s: float = 0.5,
) -> PicardReport:
    """Solve the integral form u^± = free part ∓ i ∫ rotated N/(2<D>) by iteration.

    The free part rotates the (K, 2, *grid) half-wave state given at t = 0.
    The time integral is the composite trapezoid, written in the rotated
    frame as a recursion over the levels t_j = j dt with one step factor
    E = e^{±i dt <D>}: level_j = E (level_{j-1} + h_{j-1}) + h_j, where
    h_j = ∓i (dt/2) N(u_j)/(2<D>) along the current iterate u.  Level 0 is
    the entry state with its Nyquist modes zeroed, and the first iterate is
    the free flow level_j = E level_{j-1}, which every iterate keeps outside
    the band: the levels hold the band.  The report carries the last
    iterate, the sup-in-time H^s distances between consecutive iterates, and
    the contraction factor and divergence flag of _contraction; divergence
    stops the iteration.  A sweep whose iterate or H^s distance turns
    non-finite raises InstabilityError, and _entry's checks ValueError.
    """
    if iters < 2:
        raise ValueError("need at least two iterations to report a contraction")
    steps, half_root = _entry(lattice, state, system, T, dt, s)
    n_levels = steps + 1
    band = _band(lattice, state)
    _require_memory(n_levels * band.size * 16, f"{n_levels} levels")
    masses = system.masses
    step = _band(lattice, _rotation(lattice, masses, dt))
    inv2br = _band(lattice, _inverse_twice_bracket(lattice, masses))
    kick = -0.5j * dt * np.concatenate([inv2br, -inv2br], axis=1)
    root = _band(lattice, half_root)
    current = np.empty((n_levels,) + band.shape, dtype=complex)
    current[0] = band
    for j in range(1, n_levels):
        np.multiply(current[j - 1], step, out=current[j])
    distances = []
    carry = np.empty_like(current[0])

    for sweep in range(1, iters + 1):
        # the new level j needs nothing of the current iterate past level j,
        # so it overwrites level j, the distance's buffer; carry holds
        # the new level_{j-1} + h_{j-1}, then level_j, then level_j + h_j
        distance = 0.0
        for j, level in enumerate(current):
            h = kick * _nonlinearity(lattice, system, level.sum(1))
            if j > 0:
                carry *= step
                carry += h
                # a non-finite entry of the new level makes its distance non-finite
                gap = _state_distance(root, carry, level, level)
                if not math.isfinite(gap):
                    raise InstabilityError(f"non-finite iterate in Picard sweep {sweep}")
                distance = max(distance, gap)
                level[...] = carry
            np.add(level, h, out=carry)
        distances.append(distance)
        factor, diverged = _contraction(distances)
        if diverged:
            break

    def complete():
        traj = free_trajectory(lattice, state, masses, np.arange(n_levels) * dt)
        for sample, level in zip(traj.halves[1:], current[1:]):
            _fill_band(lattice, level, sample)
        return traj

    return PicardReport(tuple(distances), factor, diverged, complete)


def _contraction(distances):
    """Worst ratio of successive Picard distances, and whether they diverge.

    The first distance is the size of the Duhamel term and sets the rounding
    scale of every later sweep: a distance at or below 1e-12 times it has
    converged, and a step touching one enters neither the worst ratio nor the
    streak of increases.  Three increases in a row are divergence.
    """
    floor = 1e-12 * distances[0]
    factor, streak, diverged = 0.0, 0, False
    for a, b in zip(distances, distances[1:]):
        live = a > floor and b > floor
        if live:
            factor = max(factor, b / a)
        streak = streak + 1 if live and b > a else 0
        diverged = diverged or streak >= 3
    return factor, diverged


# ---------------------------------------------------------------------------
# scattering and conserved quantities


@dataclass(frozen=True, eq=False)
class ScatteringResult:
    """Unrotated final state and the Cauchy increments along the trajectory."""

    times: np.ndarray
    final: np.ndarray
    increments: np.ndarray

    def tail_ratio(self, split_time: float) -> float:
        """Increment mass after split_time divided by the mass before it."""
        mids = 0.5 * (self.times[1:] + self.times[:-1])
        late = self.increments[mids >= split_time].sum()
        early = self.increments[mids < split_time].sum()
        if early == 0:
            return math.inf if late > 0 else 0.0
        return float(late / early)


def scattering_state(traj: Trajectory, s: float = 0.5) -> ScatteringResult:
    """Pull back the flow: w^±(t) = e^{∓it<D>} u^±(t).

    For a free wave w is constant; for a scattering solution it is Cauchy in
    t.  Returns the (K, 2, *grid) state w(T_final) and the summed-component
    H^s increments ||w(t_{j+1}) - w(t_j)|| as a vector over sample gaps.
    """
    root = np.sqrt(_hs_weights(traj.lattice, traj.masses, s))
    inc = np.zeros(traj.times.size - 1)
    w = traj.unrotated(0)
    for j in range(inc.size):
        later = traj.unrotated(j + 1)
        inc[j] = _state_distance(root, later, w, w)
        w = later
    return ScatteringResult(traj.times, w, inc)


def conserved_energy(
    lattice: FrequencyLattice, state: np.ndarray, system: MassSystem
) -> float:
    """Energy of a real (K, 2, *grid) half-wave state under a gradient-type coupling.

    E = sum_i ( ||u_t||^2 + ||grad u||^2 + m^2 ||u||^2 ) / 2
        - (1/3) sum_i Re <N_i(u), u_i>.

    The cubic term uses the dealiased products, which is the quantity the
    truncated flow actually conserves.  Meaningful when the polynomials derive
    from a potential (e.g. the scalar N(u) = c u^2).
    """
    # N vanishes off the band of the kept half, whose columns but 0 count twice
    band = _band(lattice, state[:, 0] + state[:, 1])
    dot = np.real(_nonlinearity(lattice, system, band)[:, 0] * np.conj(band))
    cubic = 2.0 * np.sum(dot) - np.sum(dot[..., 0])
    u, u_t = reconstruct(lattice, state, system.masses)
    quad = np.sum(np.abs(u_t) ** 2) + np.sum(
        _brackets(lattice, system.masses)[:, 0] ** 2 * np.abs(u) ** 2
    )
    return float(lattice.cell_volume * (0.5 * quad - cubic / 3.0))
