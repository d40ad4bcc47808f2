r"""Half-wave dynamics: decomposition, exact linear flow, and time stepping.

The second-order equation (box + m^2) u = N(u) is evolved as the first-order
pair u^+, u^- with u = u^+ + u^- and u_t = i<D>(u^+ - u^-):

    d/dt u^± = ±i <D> u^± ∓ i N(u) / (2<D>)

Two independent discretizations live here.  evolve marches the pair with a
Lawson scheme (exact rotation of the stiff phase, classical RK4 on the rotated
remainder).  picard_iterate solves the equivalent integral equation by fixed
point, with the time integral done by composite trapezoid written as a
recursion in the rotated frame: one step factor e^{±i dt <D>} carries each
time level to the next, and the iterate, 16 bytes per state entry per level,
is all it stores.  Their agreement is one of the package's main self-checks.

Both decide once, at entry, how to evaluate N.  When every monomial
coefficient is real and the entry state's physical fields u and u_t are real
to within 1e-12 relative, the flow keeps them real, conjugation flags are
identities, and the products run on real transforms of the half spectrum
(evaluate_nonlinearity with real=True).  Any other system or state takes the
complex transforms.

Division by 2<D> is always well-posed here because every mass is strictly
positive; the massless case would need a low-frequency cutoff and is not
supported anywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FrequencyLattice,
    SpectralField,
    _require_memory,
    free_propagate,  # noqa: F401  (a span target of the benchmark's traced run)
    sobolev_norm,  # noqa: F401  (a span target of the benchmark's traced run)
    uniform_times,
)
from .system import MassSystem, evaluate_nonlinearity


class InstabilityError(RuntimeError):
    """Raised when an evolution leaves the stable regime (growth or NaN)."""

    def __init__(self, message, time=None, norm=None):
        super().__init__(message)
        self.time = time
        self.norm = norm


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


def _nonlinearity(
    lattice: FrequencyLattice, system: MassSystem, u: np.ndarray, real: bool = False
):
    """N_i(u) of the (K, *grid) fields u, shape (K, 1, *grid)."""
    fields = tuple(SpectralField(lattice, f) for f in u)
    out = evaluate_nonlinearity(system, fields, real=real)
    return np.stack([f.coeffs for f in out])[:, None]


def _real_path(
    lattice: FrequencyLattice, system: MassSystem, state: np.ndarray
) -> bool:
    """Whether N may use real transforms along the flow from this state.

    True when every coefficient is real and each physical field u_i, u_t,i of
    the state has an imaginary part at most 1e-12 of its l2 norm.
    """
    if any(mono.coefficient.imag for poly in system.polynomials for mono in poly):
        return False
    fields = np.stack(reconstruct(lattice, state, system.masses))
    values = np.fft.ifftn(fields, axes=tuple(range(2, fields.ndim)))
    norms = np.linalg.norm(values.reshape(2 * system.size, -1), axis=1)
    imag = np.linalg.norm(values.imag.reshape(2 * system.size, -1), axis=1)
    return bool(np.all(imag <= 1e-12 * norms))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled evolution: halves[j, i] is [u_i^+, u_i^-] at times[j]."""

    times: np.ndarray
    masses: tuple
    lattice: FrequencyLattice
    halves: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", uniform_times(self.times))
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
        """sup over time of the H^s distance between the two trajectories' states."""
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
    M only flips sign between u^+ and u^-, so one (K, 1, *grid) weight
    -i h/(12<D>) serves both halves, and no step takes a conjugate.
    """

    def __init__(
        self, lattice: FrequencyLattice, system: MassSystem, dt: float, real: bool
    ):
        self.lattice = lattice
        self.system = system
        self.real = real
        self.half_phase = _rotation(lattice, system.masses, 0.5 * dt)
        inv2br = _inverse_twice_bracket(lattice, system.masses)[:, 0]
        brackets = _brackets(lattice, system.masses)[:, 0]
        self.kick = dt * inv2br * np.sin(0.5 * dt * brackets)
        self.weight = (-1j * dt / 6.0) * inv2br[:, None]
        self.stage = np.empty_like(self.half_phase)

    def nonlinearity(self, u):
        return _nonlinearity(self.lattice, self.system, u, self.real)

    def step(self, y):
        """Advance the state y by one step, in place."""
        phase = self.half_phase
        rotated = np.multiply(y, phase, out=self.stage)
        a = rotated[:, 0] + rotated[:, 1]
        n1 = self.nonlinearity(y[:, 0] + y[:, 1])
        n2 = self.nonlinearity(a + self.kick * n1[:, 0])
        n3 = self.nonlinearity(a)
        rotated *= phase
        b = rotated[:, 0] + rotated[:, 1]
        n4 = self.nonlinearity(b + 2.0 * self.kick * n3[:, 0])
        np.multiply(n1, phase, out=y)
        y += 2.0 * (n2 + n3)
        y *= phase
        y += n4
        y *= self.weight
        # the weight is M h/6 on u^+; u^- carries its negative
        y[:, 0] += rotated[:, 0]
        np.subtract(rotated[:, 1], y[:, 1], out=y[:, 1])


def evolve(
    lattice: FrequencyLattice,
    state: np.ndarray,
    system: MassSystem,
    T: float,
    dt: float,
    sample_every: int = 1,
    s: float = 0.5,
    growth_abort: float = 1e6,
) -> Trajectory:
    """March a (K, 2, *grid) half-wave state to time ~T, sampling every stride.

    The number of steps is rounded up to a whole number of strides so the
    sampled times stay uniform.  Aborts with InstabilityError when the summed
    H^s norm exceeds growth_abort times its initial value or turns non-finite.
    """
    if T <= 0 or dt <= 0 or sample_every < 1:
        raise ValueError("T, dt and sample_every must be positive")
    _require_shape("state", state, (system.size, 2) + lattice.spec.shape)
    steps = max(1, int(round(T / dt)))
    steps = sample_every * math.ceil(steps / sample_every)
    n_samples = steps // sample_every + 1
    _require_memory(n_samples * state.size * 16, f"{n_samples} samples")
    stepper = _Stepper(lattice, system, dt, _real_path(lattice, system, state))
    masses = system.masses
    weights = _hs_weights(lattice, masses, s)
    y = state.astype(complex)

    def total_norm(y):
        return float(np.linalg.norm(_field_norms(weights, y)))

    base = total_norm(y)
    limit = growth_abort * base if base > 0 else math.inf

    halves = np.empty((n_samples,) + y.shape, dtype=complex)
    halves[0] = y
    for j in range(1, steps + 1):
        stepper.step(y)
        t = j * dt
        if not np.all(np.isfinite(y)):
            raise InstabilityError(
                f"non-finite state at t={t:.6g}", time=t, norm=math.inf
            )
        norm = total_norm(y)
        if norm > limit:
            raise InstabilityError(
                f"norm {norm:.3e} exceeded {growth_abort:.1e} x initial at "
                f"t={t:.6g}",
                time=t,
                norm=norm,
            )
        if j % sample_every == 0:
            halves[j // sample_every] = y
    return Trajectory(np.arange(n_samples) * sample_every * dt, masses, lattice, halves)


# ---------------------------------------------------------------------------
# Picard / fixed-point route


@dataclass(frozen=True, eq=False)
class PicardReport:
    """Fixed-point iteration record: the last iterate and contraction diagnostics."""

    final: Trajectory
    successive_distances: tuple
    contraction_factor: float
    diverged: bool


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
    the free flow level_j = E level_{j-1}.  The report carries the last
    iterate, the sup-in-time H^s distances between consecutive iterates, and
    the contraction factor and divergence flag of _contraction; divergence
    stops the iteration.  A sweep that produces non-finite values raises
    InstabilityError.
    """
    if iters < 2:
        raise ValueError("need at least two iterations to report a contraction")
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    _require_shape("state", state, (system.size, 2) + lattice.spec.shape)
    masses = system.masses
    n_levels = max(1, int(round(T / dt))) + 1
    _require_memory(n_levels * state.size * 16, f"{n_levels} levels")
    real = _real_path(lattice, system, state)
    step = _rotation(lattice, masses, dt)
    inv2br = _inverse_twice_bracket(lattice, masses)
    kick = -0.5j * dt * np.concatenate([inv2br, -inv2br], axis=1)
    root = np.sqrt(_hs_weights(lattice, masses, s))
    current = np.empty((n_levels,) + state.shape, dtype=complex)
    current[0] = np.where(lattice.nyquist_mask, 0.0, state)
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
            h = kick * _nonlinearity(lattice, system, level[:, 0] + level[:, 1], real)
            if j > 0:
                carry *= step
                carry += h
                distance = max(distance, _state_distance(root, carry, level, level))
                level[...] = carry
            np.add(level, h, out=carry)
        if not np.all(np.isfinite(current)):
            raise InstabilityError(f"non-finite iterate in Picard sweep {sweep}")
        distances.append(distance)
        factor, diverged = _contraction(distances)
        if diverged:
            break
    final = Trajectory(np.arange(n_levels) * dt, masses, lattice, current)
    return PicardReport(final, tuple(distances), factor, diverged)


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
    """Energy of a (K, 2, *grid) half-wave state under a gradient-type coupling.

    E = sum_i ( ||u_t||^2 + ||grad u||^2 + m^2 ||u||^2 ) / 2
        - (1/3) sum_i Re <N_i(u), u_i>.

    The cubic term uses the dealiased products, which is the quantity the
    truncated flow actually conserves.  Meaningful when the polynomials derive
    from a potential (e.g. the scalar N(u) = c u^2).
    """
    u, u_t = reconstruct(lattice, state, system.masses)
    nonlin = _nonlinearity(lattice, system, u)[:, 0]
    quad = np.sum(np.abs(u_t) ** 2) + np.sum(
        _brackets(lattice, system.masses)[:, 0] ** 2 * np.abs(u) ** 2
    )
    cubic = np.real(np.sum(nonlin * np.conj(u)))
    return float(lattice.cell_volume * (0.5 * quad - cubic / 3.0))
