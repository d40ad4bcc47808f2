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
real state are tied by u^-(xi) = conj(u^+(-xi)), so the band, and evolve's
samples while it marches, are cut from the kept half of the last axis; each
whole state the solvers return is completed to the full (K, 2, *grid) layout.

Division by 2<D> is always well-posed here because every mass is strictly
positive; the massless case would need a low-frequency cutoff and is not
supported anywhere in this package.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    FrequencyLattice,
    SpectralField,
    _require_memory,
    _worker_pool,
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
    live = ~lattice.nyquist_mask
    half = np.where(live, 0.5 * u, 0.0)
    shift = 1j * u_t * (live / (2.0 * _brackets(lattice, masses)[:, 0]))
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


def _rotation(brackets: np.ndarray, t: float, nyquist_mask=None) -> np.ndarray:
    """Free flow e^{±it<D>} of (K, 1, ...) brackets as [p, conj(p)], p 0 on the mask."""
    phase = np.exp(1j * t * brackets)
    if nyquist_mask is not None:
        phase[:, :, nyquist_mask] = 0.0
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


def _mirror(a: np.ndarray, axes) -> np.ndarray:
    """A copy of a at -k along axes: index 0 of each to itself and i > 0 to n - i."""
    return np.roll(np.flip(a, axes), 1, axes)


def _complete_hermitian(lattice: FrequencyLattice, out, partner):
    """Fill the dropped half of out, full spectra whose kept half is set.

    Each dropped mode k is conj(partner(-k)): the dropped columns h..n-1 are
    the kept columns h-2..1, mirrored on the other grid axes.  The partner is
    out itself for a real field; u^+ and u^- of a real state are each other's.
    """
    h = lattice.spec.points_per_axis // 2 + 1
    leading = range(partner.ndim - lattice.spec.dim, partner.ndim - 1)
    np.conjugate(_mirror(partner[..., h - 2 : 0 : -1], leading), out=out[..., h:])


def _fill(lattice: FrequencyLattice, out, where, part):
    """Write part into out[where], a whole real state, and complete its dropped half."""
    out[where] = part
    _complete_hermitian(lattice, out, out[:, ::-1])


def _require_real(lattice: FrequencyLattice, state: np.ndarray, masses):
    """ValueError when a field u_i or u_t,i of the state is not real to 1e-12 relative.

    By Parseval a field f has an imaginary part of norm ||f - conj f(-k)|| / 2.
    A non-finite state passes, for the solvers' own guards to report.
    """
    # one block for u and u_t: freeing it raises glibc's mmap threshold, which
    # keeps N's buffers off mmap in the Picard sweep (picard-3d 25% faster)
    fields = np.concatenate(reconstruct(lattice, state, masses))
    gaps = _mirror(fields, range(1, fields.ndim))
    np.subtract(np.conjugate(gaps, out=gaps), fields, out=gaps)
    for f, gap in zip(fields, gaps):
        imag = math.sqrt(np.vdot(gap, gap).real) / 2
        if imag > 1e-12 * math.sqrt(np.vdot(f, f).real):
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
    """Trajectory of exact free half-wave flow from the given state at t=0.

    Sample 0 is the state rotated to times[0], and one step factor carries
    each sample to the next: two rotations serve every sample.
    """
    _require_memory(len(times) * state.size * 16, f"{len(times)} samples")
    halves = np.empty((len(times),) + state.shape, dtype=complex)
    traj = Trajectory(times, masses, lattice, halves)
    for j, sample in enumerate(_free_samples(lattice, state, traj.masses, traj.times)):
        halves[j] = sample
    return traj


def _free_samples(lattice: FrequencyLattice, state: np.ndarray, masses, times):
    """free_trajectory's samples in the state's layout, one buffer; the first made now."""
    cut = (Ellipsis, slice(state.shape[-1]))
    brackets, nyquist = _brackets(lattice, masses)[cut], lattice.nyquist_mask[cut]
    sample = state * _rotation(brackets, times[0], nyquist)
    # one time, as sample 0 alone is asked for, needs no step factor
    step = len(times) > 1 and _rotation(brackets, times[1] - times[0], nyquist)
    return itertools.chain([sample], (np.multiply(sample, step, sample) for _ in times[1:]))


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

    n1 and n3 need only y, and n2 and n4 only those, so N runs in two pairs.
    Given a pool of one worker thread, the second N of each pair runs there
    (numpy's transforms release the interpreter lock), with the same floats.
    """

    def __init__(self, lattice: FrequencyLattice, system: MassSystem, dt, pool=None):
        self.lattice = lattice
        self.system = system
        self.pool = pool
        brackets = _band(lattice, _brackets(lattice, system.masses))
        self.half_phase = _rotation(brackets, 0.5 * dt)
        inv2br = 1.0 / (2.0 * brackets)
        self.kick = dt * inv2br[:, 0] * np.sin(0.5 * dt * brackets[:, 0])
        self.weight = (-1j * dt / 6.0) * inv2br
        self.stage = np.empty_like(self.half_phase)

    def pair(self, u, v):
        """N(u) and N(v) of two (K, *band) field arrays, N(v) on the pool if any."""
        args = (self.lattice, self.system)
        if self.pool is None:
            return _nonlinearity(*args, u), _nonlinearity(*args, v)
        # in a copy of this context, so that the caller's np.errstate holds
        later = self.pool.submit(contextvars.copy_context().run, _nonlinearity, *args, v)
        return _nonlinearity(*args, u), later.result()

    def step(self, y):
        """Advance the state y by one step, in place."""
        phase, kick = self.half_phase, self.kick
        rotated = np.multiply(y, phase, out=self.stage)
        a = rotated[:, 0] + rotated[:, 1]
        n1, n3 = self.pair(y[:, 0] + y[:, 1], a)
        rotated *= phase
        b = rotated[:, 0] + rotated[:, 1]
        n2, n4 = self.pair(a + kick * n1[:, 0], b + 2.0 * kick * n3[:, 0])
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
# the grid points from which N pairs run on two threads (0.83-0.92x below)
_PAIR_POINTS = 2**16


def _march(lattice, state, system, T, dt, sample_every, s, sample_bytes):
    """Make evolve's checks, and check sample_bytes per sample against memory.

    Returns the sample times and a generator that yields each sample's kept
    half, (K, 2, *grid[:-1], n//2 + 1) in one buffer with the band written in,
    and its H^s increment ||u_j - E u_{j-1}||, E the free flow over one stride
    (0.0 for sample 0).  Outside the band u_j is E u_{j-1}, so the band of the
    kept half is summed, its columns but 0 twice.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be positive")
    steps, half_root = _entry(lattice, state, system, T, dt, s)
    if steps % sample_every:
        raise ValueError(f"stride {sample_every} does not divide the {steps} steps")
    n_samples = steps // sample_every + 1
    # before np.arange builds the sample times
    _require_memory(n_samples * sample_bytes, f"{n_samples} samples")
    times = np.arange(n_samples) * sample_every * dt
    y = _band(lattice, state).astype(complex)
    # the free flow keeps the norm outside the band, once it zeroes the Nyquist modes
    outside = ~lattice.nyquist_mask[..., : half_root.shape[-1]]
    outside[lattice.band] = False
    rest = np.sum(np.abs(half_root * outside * state[..., : outside.shape[-1]]) ** 2)
    # a real multiply on the float view of y: a complex one turns inf into nan
    root = np.repeat(_band(lattice, half_root), 2, axis=-1)
    scratch = np.empty_like(y).view(float)

    def band_square(v):
        np.multiply(v.view(float), root, out=scratch)
        return np.vdot(scratch, scratch)

    base = math.sqrt(rest + band_square(y))
    # without a scale, the largest float: an infinite norm still fails the test
    limit = _GROWTH_ABORT * base if base > 0 else np.finfo(float).max
    free = _free_samples(lattice, state[..., : outside.shape[-1]], system.masses, times)

    def samples():
        yield next(free), 0.0
        with _worker_pool(math.prod(lattice.spec.shape), _PAIR_POINTS) as pool:
            stepper = _Stepper(lattice, system, dt, pool)
            for j in range(1, steps + 1):
                stepper.step(y)
                norm = math.sqrt(rest + band_square(y))
                # a non-finite entry makes the norm non-finite, which fails the test too
                if not norm <= limit:
                    t = j * dt
                    if not math.isfinite(norm):
                        raise InstabilityError(f"non-finite state at t={t:.6g}", time=t)
                    raise InstabilityError(
                        f"norm {norm:.3e} exceeded {_GROWTH_ABORT:.1e} x initial "
                        f"at t={t:.6g}",
                        time=t,
                    )
                if j % sample_every == 0:
                    # the buffer holds E u_{j-1} until y is written into its band
                    sample = next(free)
                    increment = math.sqrt(band_square(y - _band(lattice, sample)))
                    sample[(Ellipsis,) + lattice.band] = y
                    yield sample, increment

    return times, samples()


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
    steps, else ValueError.  _march yields kept halves, which evolve completes
    to the whole layout; sample 0 is the entry state as free_trajectory has
    it, not completed.  Aborts with InstabilityError when the H^s norm of the
    whole state, both halves of every component, exceeds 1e6 times its
    initial value or turns non-finite: data at rest, u = 0 and u_t not, have
    a limit.

    On a grid of 2^16 points or more, with two cores in the CPU affinity,
    each step's N pairs run on two threads, the second a worker that lives
    only as long as the call; the result equals a one-core run (``taskset
    -c 0``) bit for bit.  evolve keeps every sample; the CLI's simulate folds
    them one at a time from _march, so its memory does not grow with the
    horizon unless it saves the trajectory.
    """
    times, samples = _march(lattice, state, system, T, dt, sample_every, s, state.size * 16)
    halves = np.empty((times.size,) + state.shape, dtype=complex)
    traj = Trajectory(times, system.masses, lattice, halves)
    for out, (sample, _) in zip(halves, samples):
        _fill(lattice, out, np.s_[..., : sample.shape[-1]], sample)
    halves[0] = next(_free_samples(lattice, state, traj.masses, times[:1]))
    return traj


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
    iterate, the sup-in-time H^s distances between consecutive iterates,
    their worst ratio and divergence, three increases in a row, which stops
    the iteration; a step touching rounding noise, a distance at or below
    1e-12 times the first (the Duhamel term's size), counts for neither.  A
    sweep whose iterate or H^s distance turns non-finite raises
    InstabilityError, and _entry's checks ValueError.
    """
    if iters < 2:
        raise ValueError("need at least two iterations to report a contraction")
    steps, half_root = _entry(lattice, state, system, T, dt, s)
    n_levels = steps + 1
    band = _band(lattice, state)
    _require_memory(n_levels * band.size * 16, f"{n_levels} levels")
    masses = system.masses
    brackets = _band(lattice, _brackets(lattice, masses))
    step = _rotation(brackets, dt)
    inv2br = 1.0 / (2.0 * brackets)
    kick = -0.5j * dt * np.concatenate([inv2br, -inv2br], axis=1)
    root = _band(lattice, half_root)
    current = np.empty((n_levels,) + band.shape, dtype=complex)
    current[0] = band
    for j in range(1, n_levels):
        np.multiply(current[j - 1], step, out=current[j])
    distances = []
    factor, streak = 0.0, 0
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
        live = bool(distances) and min(distances[-1], distance) > 1e-12 * distances[0]
        if live:
            factor = max(factor, distance / distances[-1])
        streak = streak + 1 if live and distance > distances[-1] else 0
        distances.append(distance)
        if streak >= 3:
            break

    def complete():
        traj = free_trajectory(lattice, state, masses, np.arange(n_levels) * dt)
        for sample, level in zip(traj.halves[1:], current[1:]):
            _fill(lattice, sample, (Ellipsis,) + lattice.band, level)
        return traj

    return PicardReport(tuple(distances), factor, streak >= 3, complete)


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
    H^s increments ||w(t_{j+1}) - w(t_j)|| = ||u(t_{j+1}) - E u(t_j)||, E the
    free flow over one gap, as a vector over sample gaps: one rotation.
    """
    root = np.sqrt(_hs_weights(traj.lattice, traj.masses, s))
    brackets, nyquist = _brackets(traj.lattice, traj.masses), traj.lattice.nyquist_mask
    step = _rotation(brackets, traj.times[1] - traj.times[0], nyquist)
    carried = np.empty_like(traj.halves[0])
    inc = np.array([
        _state_distance(root, later, np.multiply(u, step, out=carried), carried)
        for u, later in zip(traj.halves, traj.halves[1:])
    ])
    final = traj.halves[-1] * _rotation(brackets, -traj.times[-1], nyquist)
    return ScatteringResult(traj.times, final, inc)


def conserved_energy(
    lattice: FrequencyLattice, state: np.ndarray, system: MassSystem
) -> float:
    """Energy of a real half-wave state, whole (K, 2, *grid) or its kept half alone.

    E = sum_i ( ||u_t||^2 + ||grad u||^2 + m^2 ||u||^2 ) / 2
        - (1/3) sum_i Re <N_i(u), u_i>.

    The cubic term uses the dealiased products, which is the quantity the
    truncated flow actually conserves.  Meaningful when the polynomials derive
    from a potential (e.g. the scalar N(u) = c u^2).
    """
    # N vanishes off the band of the kept half, whose columns but 0 count twice
    root = _half_root(lattice, system.masses, 1.0)
    band = _band(lattice, state[:, 0]) + _band(lattice, state[:, 1])
    dot = np.real(_nonlinearity(lattice, system, band)[:, 0] * np.conj(band))
    cubic = 2.0 * np.sum(dot) - np.sum(dot[..., 0])
    # |u_t|^2 + <xi>^2 |u|^2 = 2 <xi>^2 (|u^+|^2 + |u^-|^2) at each xi
    weighted = (root * state[..., : root.shape[-1]]).view(float)
    quad = 2.0 * np.sum(np.square(weighted, out=weighted))
    return float(0.5 * quad - lattice.cell_volume * cubic / 3.0)
