r"""Half-wave dynamics: decomposition, exact linear flow, and time stepping.

The second-order equation (box + m^2) u = N(u) is evolved as the first-order
pair u^+, u^- with u = u^+ + u^- and u_t = i<D>(u^+ - u^-):

    d/dt u^± = ±i <D> u^± ∓ i N(u) / (2<D>)

Two independent discretizations live here.  evolve marches the pair with a
Lawson scheme (exact rotation of the stiff phase, classical RK4 on the rotated
remainder).  picard_iterate solves the equivalent integral equation by fixed
point, with the time integral done by composite trapezoid on the rotated
integrand.  Their agreement is one of the package's main self-checks.

Division by 2<D> is always well-posed here because every mass is strictly
positive; the massless case would need a low-frequency cutoff and is not
supported anywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    FrequencyLattice,
    SpectralField,
    free_propagate,  # noqa: F401  (a span target of the benchmark's traced run)
    sobolev_norm,
    uniform_times,
)
from .system import MassSystem, evaluate_nonlinearity


class InstabilityError(RuntimeError):
    """Raised when an evolution leaves the stable regime (growth or NaN)."""

    def __init__(self, message, time=None, norm=None):
        super().__init__(message)
        self.time = time
        self.norm = norm


@dataclass(frozen=True, eq=False)
class CauchyData:
    """Initial position/velocity fields, one pair per component."""

    positions: tuple
    velocities: tuple

    def __post_init__(self):
        if len(self.positions) == 0 or len(self.positions) != len(self.velocities):
            raise ValueError("need matching nonempty position/velocity tuples")
        lat = self.positions[0].lattice
        for f in (*self.positions, *self.velocities):
            if f.lattice != lat:
                raise ValueError("all data fields must share one lattice")

    @property
    def lattice(self) -> FrequencyLattice:
        return self.positions[0].lattice

    @property
    def size(self) -> int:
        return len(self.positions)


def decompose(u: SpectralField, u_t: SpectralField, mass: float) -> np.ndarray:
    """Split (u, u_t) into the pair [u^+, u^-] with u^± = (u ∓ i u_t/<D>) / 2."""
    if u.lattice != u_t.lattice:
        raise ValueError("position and velocity must share one lattice")
    lat = u.lattice
    inv = 1.0 / (2.0 * lat.bracket(mass))
    inv[lat.nyquist_mask] = 0.0
    half = u.coeffs * 0.5
    half = np.where(lat.nyquist_mask, 0.0, half)
    shift = 1j * u_t.coeffs * inv
    return np.stack([half - shift, half + shift])


def reconstruct(lattice: FrequencyLattice, pair: np.ndarray, mass: float):
    """Inverse of decompose: returns (u, u_t) with u_t = i<D>(u^+ - u^-)."""
    br = lattice.bracket(mass)
    br[lattice.nyquist_mask] = 0.0
    u = SpectralField(lattice, pair[0] + pair[1])
    u_t = SpectralField(lattice, 1j * br * (pair[0] - pair[1]))
    return u, u_t


def initial_pair(data: CauchyData, masses: Sequence[float]) -> np.ndarray:
    """The (K, 2, *grid) half-wave state of the data: u^±(0) = (f ∓ i g/<D>) / 2."""
    if len(masses) != data.size:
        raise ValueError("one mass per component required")
    return np.stack(
        [
            decompose(f, g, m)
            for f, g, m in zip(data.positions, data.velocities, masses)
        ]
    )


def linear_exact(data: CauchyData, masses: Sequence[float], t: float) -> CauchyData:
    """Closed-form solution of the free equations (box + m^2) u = 0.

    u(t) = cos(t<D>) f + sin(t<D>)/<D> g, with the matching velocity.  Like
    every multiplier in this package the output carries no Nyquist content.
    """
    if len(masses) != data.size:
        raise ValueError("one mass per component required")
    lat = data.lattice
    live = ~lat.nyquist_mask
    pos, vel = [], []
    for f, g, m in zip(data.positions, data.velocities, masses):
        br = lat.bracket(m)
        c, s = np.cos(t * br) * live, np.sin(t * br) * live
        pos.append(SpectralField(lat, c * f.coeffs + s / br * g.coeffs))
        vel.append(SpectralField(lat, -br * s * f.coeffs + c * g.coeffs))
    return CauchyData(tuple(pos), tuple(vel))


def _brackets(lattice: FrequencyLattice, masses) -> np.ndarray:
    """<D>_m of every component, shape (K, 1, *grid) to broadcast over a state."""
    return np.stack([lattice.bracket(m) for m in masses])[:, None]


def _inverse_twice_bracket(lattice: FrequencyLattice, masses) -> np.ndarray:
    """1 / (2<D>_m) of every component, shape (K, 1, *grid), zero on Nyquist modes."""
    return ~lattice.nyquist_mask / (2.0 * _brackets(lattice, masses))


def _signs(dim: int) -> np.ndarray:
    """+1 for u^+ and -1 for u^- along axis 1 of a state: the sign in e^{±it<D>}."""
    return np.array([1.0, -1.0]).reshape((1, 2) + (1,) * dim)


def _rotation(lattice: FrequencyLattice, masses, t: float) -> np.ndarray:
    """Free flow e^{±it<D>} over a (K, 2, *grid) state, zero on Nyquist modes."""
    phase = np.exp(1j * _signs(lattice.spec.dim) * t * _brackets(lattice, masses))
    phase[:, :, lattice.nyquist_mask] = 0.0
    return phase


def _field_norms(lattice: FrequencyLattice, state: np.ndarray, masses, s: float):
    """H^s norms of the physical fields u_i = u_i^+ + u_i^- of one state."""
    return [
        sobolev_norm(SpectralField(lattice, pair[0] + pair[1]), s, m)
        for pair, m in zip(state, masses)
    ]


def _state_distance(lattice: FrequencyLattice, masses, a, b, s: float) -> float:
    """H^s distance of two states, square-summed over components and halves."""
    sq = 0.0
    for pa, pb, m in zip(a, b, masses):
        for half in range(2):
            sq += sobolev_norm(SpectralField(lattice, pa[half] - pb[half]), s, m) ** 2
    return math.sqrt(sq)


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
        if self.halves.shape != shape:
            raise ValueError(
                f"halves have shape {self.halves.shape}, expected {shape}"
            )

    @property
    def n_components(self) -> int:
        return len(self.masses)

    def norm_series(self, s: float) -> np.ndarray:
        """H^s norms of the physical fields, shape (n_times, n_components)."""
        return np.array(
            [_field_norms(self.lattice, state, self.masses, s) for state in self.halves]
        )

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
        return max(
            _state_distance(self.lattice, self.masses, a, b, s)
            for a, b in zip(self.halves, other.halves)
        )


def free_trajectory(
    lattice: FrequencyLattice, state: np.ndarray, masses, times
) -> Trajectory:
    """Trajectory of exact free half-wave flow from the given state at t=0."""
    halves = np.stack([state * _rotation(lattice, masses, t) for t in times])
    return Trajectory(times, masses, lattice, halves)


# ---------------------------------------------------------------------------
# Lawson time stepping


class _Stepper:
    """Precomputed rotations for Lawson-RK4 at a fixed dt."""

    def __init__(self, lattice: FrequencyLattice, system: MassSystem, dt: float):
        self.lattice = lattice
        self.system = system
        self.dt = dt
        self.half_phase = _rotation(lattice, system.masses, 0.5 * dt)
        self.full_phase = _rotation(lattice, system.masses, dt)
        self.inv2br = _inverse_twice_bracket(lattice, system.masses)

    def slope(self, y):
        """Unrotated nonlinear slope: ∓ i N_i(u) / (2<D>)."""
        fields = tuple(SpectralField(self.lattice, p + q) for p, q in y)
        nonlin = evaluate_nonlinearity(self.system, fields)
        n = np.stack([f.coeffs for f in nonlin])[:, None]
        return -1j * _signs(self.lattice.spec.dim) * n * self.inv2br

    def step(self, y):
        """One step; the stage slopes g1 + 2 g2 + 2 g3 + g4 are summed as they come."""
        h = self.dt
        half, full = self.half_phase, self.full_phase
        g = self.slope(y)
        total = g
        g = self.slope((y + 0.5 * h * g) * half) * np.conj(half)
        total = total + 2 * g
        g = self.slope((y + 0.5 * h * g) * half) * np.conj(half)
        total = total + 2 * g
        g = self.slope((y + h * g) * full) * np.conj(full)
        return (y + (h / 6.0) * (total + g)) * full


def evolve(
    data: CauchyData,
    system: MassSystem,
    T: float,
    dt: float,
    sample_every: int = 1,
    s: float = 0.5,
    growth_abort: float = 1e6,
) -> Trajectory:
    """March the half-wave pair to time ~T, sampling every given stride.

    The number of steps is rounded up to a whole number of strides so the
    sampled times stay uniform.  Aborts with InstabilityError when the summed
    H^s norm exceeds growth_abort times its initial value or turns non-finite.
    """
    if T <= 0 or dt <= 0 or sample_every < 1:
        raise ValueError("T, dt and sample_every must be positive")
    steps = max(1, int(round(T / dt)))
    steps = sample_every * math.ceil(steps / sample_every)
    lattice = data.lattice
    stepper = _Stepper(lattice, system, dt)
    masses = system.masses

    y = initial_pair(data, masses)

    def total_norm(state):
        return math.sqrt(sum(n**2 for n in _field_norms(lattice, state, masses, s)))

    base = total_norm(y)
    limit = growth_abort * base if base > 0 else math.inf

    sampled = np.arange(0, steps + 1, sample_every)
    halves = np.empty((sampled.size,) + y.shape, dtype=complex)
    halves[0] = y
    for j in range(1, steps + 1):
        y = stepper.step(y)
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
    return Trajectory(sampled * dt, masses, lattice, halves)


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
    data: CauchyData,
    system: MassSystem,
    T: float,
    dt: float,
    iters: int,
    s: float = 0.5,
) -> PicardReport:
    """Solve the integral form u^± = free part ∓ i ∫ rotated N/(2<D>) by iteration.

    The time integral uses composite trapezoid on the unrotated integrand
    e^{∓i s <D>} N(u(s))/(2<D>), then rotates the running sum forward.  The
    report carries the last iterate, the sup-in-time H^s distances between
    consecutive iterates, and their worst ratio; three consecutive distance
    increases set the diverged flag and stop the iteration.  A sweep that
    produces non-finite values raises InstabilityError.
    """
    if iters < 2:
        raise ValueError("need at least two iterations to report a contraction")
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    lattice = data.lattice
    masses = system.masses
    n_steps = max(1, int(round(T / dt)))
    times = np.arange(n_steps + 1) * dt
    signs = _signs(lattice.spec.dim)
    inv2br = _inverse_twice_bracket(lattice, masses)
    rotations = np.stack([_rotation(lattice, masses, t) for t in times])

    base = initial_pair(data, masses)
    current = base * rotations
    previous = Trajectory(times, masses, lattice, current)
    distances = []
    diverged = False

    for sweep in range(1, iters + 1):
        # cumulative trapezoid of the unrotated integrands e^{∓is<D>} N/(2<D>)
        # of the scaled nonlinearity N(u(s))/(2<D>) along the current iterate
        nxt = np.empty_like(current)
        acc = np.zeros_like(base)
        prev = None
        for j in range(times.size):
            fields = tuple(SpectralField(lattice, p + q) for p, q in current[j])
            nonlin = evaluate_nonlinearity(system, fields)
            scaled = np.stack([f.coeffs for f in nonlin])[:, None] * inv2br
            cur = np.conj(rotations[j]) * scaled
            if j > 0:
                acc = acc + 0.5 * dt * (prev + cur)
            prev = cur
            nxt[j] = rotations[j] * (base - 1j * signs * acc)
        if not np.all(np.isfinite(nxt)):
            raise InstabilityError(f"non-finite iterate in Picard sweep {sweep}")
        candidate = Trajectory(times, masses, lattice, nxt)
        distances.append(candidate.distance(previous, s))
        previous, current = candidate, nxt
        streak = 0
        for a, b in zip(distances, distances[1:]):
            streak = streak + 1 if b > a else 0
        if streak >= 3:
            diverged = True
            break

    ratios = [
        distances[i + 1] / distances[i]
        for i in range(len(distances) - 1)
        if distances[i] > 0
    ]
    factor = max(ratios) if ratios else 0.0
    return PicardReport(previous, tuple(distances), factor, diverged)


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
    inc = np.zeros(traj.times.size - 1)
    w = traj.unrotated(0)
    for j in range(inc.size):
        later = traj.unrotated(j + 1)
        inc[j] = _state_distance(traj.lattice, traj.masses, later, w, s)
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
    vol = lattice.cell_volume
    fields = []
    quad = 0.0
    for pair, m in zip(state, system.masses):
        u, u_t = reconstruct(lattice, pair, m)
        fields.append(u)
        quad += 0.5 * vol * (
            np.sum(np.abs(u_t.coeffs) ** 2)
            + np.sum(lattice.k2 * np.abs(u.coeffs) ** 2)
            + m**2 * np.sum(np.abs(u.coeffs) ** 2)
        )
    nonlin = evaluate_nonlinearity(system, tuple(fields))
    cubic = sum(
        vol * np.real(np.sum(n.coeffs * np.conj(u.coeffs)))
        for n, u in zip(nonlin, fields)
    )
    return float(quad - cubic / 3.0)
