"""Numerical checks for the inequality toolkit behind the solver.

Every routine here turns an analytic inequality into a falsifiable numeric
experiment: evaluate both sides on concrete data, report the ratio, and judge
a dyadic sweep by uniformity (one constant must cover every scale, with a
factor-4 slack) rather than by any particular constant value. Monte Carlo
routines are reproducible bit for bit from their seed and parameters.
"""

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import DyadicIndex, _require_memory, annulus_profile
from .system import bracket, check_nonresonance, resonance_function, smallest_bracket

__all__ = [
    "VerificationRecord",
    "ShellSpec",
    "BilinearCase",
    "strauss_exponent",
    "sweep_uniformity",
    "verify_modulation_bound",
    "verify_nonresonance_bound",
    "shell_intersection_volume",
    "verify_bilinear",
    "bilinear_sweep",
    "strichartz_admissible",
    "verify_trilinear",
]


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one numeric inequality check.

    `ratios` holds the observed left/right quotients (one per trial or sweep
    point), `bound` states the right-hand side as text, and `passed` applies
    the check's own criterion. Everything is reproducible from `parameters`
    and `seed`.
    """

    name: str
    parameters: dict
    ratios: tuple
    bound: str
    passed: bool
    seed: int | None = None
    details: dict = field(default_factory=dict)


def sweep_uniformity(ratios, slack: float = 4.0) -> bool:
    """True when one constant covers all nonzero ratios within the slack.

    Any non-finite or negative entry fails outright; zeros mark degenerate
    cases and are excluded from the spread comparison.
    """
    values = [float(r) for r in ratios]
    if any(not math.isfinite(r) or r < 0.0 for r in values):
        return False
    live = [r for r in values if r > 0.0]
    if len(live) < 2:
        return True
    return max(live) / min(live) <= slack


# ---------------------------------------------------------------------------
# critical exponent


def strauss_exponent(n: int) -> float:
    """Positive root of n*g^2 - (n+2)*g - 2 = 0.

    The root separates the small-data-global and blow-up power ranges; it
    sits strictly between 1 + 2/n and 1 + 4/n for every dimension.
    """
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    n = int(n)
    return ((n + 2) + math.sqrt(n * n + 12 * n + 4)) / (2 * n)


# ---------------------------------------------------------------------------
# lower bounds for the resonance defect


def _unit_vector(dim: int, axis: int = 0) -> np.ndarray:
    e = np.zeros(dim)
    e[axis] = 1.0
    return e


def _frequency_pairs(dim: int, max_radius: float, directions: int, rng):
    """Structured plus randomized (xi, eta) samples out to max_radius.

    The deterministic part walks a dyadic radius ladder through collinear,
    antiparallel, orthogonal, and strongly unbalanced configurations; the
    randomized part covers the same ladder with fresh direction pairs.
    """
    ladder = [0.0] + [float(2**k) for k in range(int(math.log2(max_radius)) + 1)]
    e1 = _unit_vector(dim)
    xi_rows = []
    eta_rows = []

    def push(xi, eta):
        xi_rows.append(np.asarray(xi, dtype=float))
        eta_rows.append(np.asarray(eta, dtype=float))

    push(np.zeros(dim), np.zeros(dim))
    push(e1, e1)
    for t in ladder[1:]:
        push(t * e1, t * e1)
        push(t * e1, -t * e1)
        push(t * e1, max_radius * e1)
        if dim >= 2:
            e2 = _unit_vector(dim, 1)
            push(t * e1, t * e2)
    for ra in ladder:
        for rb in ladder:
            for _ in range(max(1, directions // 8)):
                da = rng.standard_normal(dim)
                db = rng.standard_normal(dim)
                da /= np.linalg.norm(da)
                db /= np.linalg.norm(db)
                push(ra * da, rb * db)
    return np.array(xi_rows), np.array(eta_rows)


def _defect_statistic(masses, xi, eta) -> np.ndarray:
    """Resonance defect weighted by the smallest bracket at each sample."""
    return resonance_function(masses, xi, eta) * smallest_bracket(masses, xi, eta)


def _swept_minimum(triple, dim: int, max_radius: float, directions: int, seed: int):
    """Smallest weighted defect over the frequency-pair sweep.

    Returns the minimum, the first (xi, eta) pair attaining it as float
    lists, and the number of pairs swept.
    """
    rng = np.random.default_rng(seed)
    xi, eta = _frequency_pairs(dim, max_radius, directions, rng)
    values = _defect_statistic(triple, xi, eta)
    worst = int(np.argmin(values))
    return float(values[worst]), xi[worst].tolist(), eta[worst].tolist(), values.size


def verify_modulation_bound(
    mass: float,
    dim: int,
    max_radius: float = 1024.0,
    directions: int = 32,
    floor: float = 0.1,
    seed: int = 0,
) -> VerificationRecord:
    """Lower bound for the equal-mass resonance defect across a frequency sweep.

    Checks that (defect at xi, eta) times the smallest bracket never drops
    below the floor out to the requested radius; the collinear equal-frequency
    tail value is reported since that ray attains the large-frequency limit.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    triple = (float(mass),) * 3
    minimum, worst_xi, worst_eta, samples = _swept_minimum(
        triple, dim, max_radius, directions, seed
    )
    ray = max_radius * _unit_vector(dim)
    tail = float(_defect_statistic(triple, ray, ray))
    return VerificationRecord(
        name="modulation_bound",
        parameters={
            "mass": float(mass),
            "dim": int(dim),
            "max_radius": float(max_radius),
            "directions": int(directions),
            "floor": float(floor),
        },
        ratios=(minimum,),
        bound=f"defect * smallest bracket >= {floor}",
        passed=minimum >= floor,
        seed=seed,
        details={
            "minimum": minimum,
            "argmin_xi": worst_xi,
            "argmin_eta": worst_eta,
            "collinear_tail": tail,
            "samples": samples,
        },
    )


def _coordinate_descent(fun, start, step=1.0, min_step=1e-4, max_sweeps=400):
    """Derivative-free pattern search: axis moves with halving step."""
    x = np.array(start, dtype=float)
    best = float(fun(x))
    sweeps = 0
    while step >= min_step and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for i in range(x.size):
            for sgn in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sgn * step
                value = float(fun(trial))
                if value < best:
                    best = value
                    x = trial
                    improved = True
        if not improved:
            step *= 0.5
    return x, best


def verify_nonresonance_bound(
    masses,
    dim: int,
    max_radius: float = 64.0,
    directions: int = 32,
    floor: float = 0.01,
    seed: int = 0,
) -> VerificationRecord:
    """Dichotomy check for a mass triple.

    When twice the smallest mass exceeds the largest, the weighted defect must
    stay above a positive floor across the sweep. Otherwise a grid scan
    (origin visited first) plus coordinate descent hunts for near-zeros or
    sign changes of the raw defect, and the minimizer is reported; finding a
    value at or below zero confirms the failure side of the dichotomy.
    """
    triple = tuple(float(m) for m in masses)
    if len(triple) != 3 or any(m <= 0 for m in triple):
        raise ValueError("need three positive masses")
    holds, margin = check_nonresonance(triple)
    params = {
        "masses": list(triple),
        "dim": int(dim),
        "max_radius": float(max_radius),
        "directions": int(directions),
        "floor": float(floor),
        "condition_margin": margin,
    }
    if holds:
        minimum, worst_xi, worst_eta, _ = _swept_minimum(
            triple, dim, max_radius, directions, seed
        )
        return VerificationRecord(
            name="nonresonance_bound",
            parameters=params,
            ratios=(minimum,),
            bound=f"defect * smallest bracket >= {floor}",
            passed=minimum >= floor,
            seed=seed,
            details={
                "condition_holds": True,
                "minimum": minimum,
                "argmin_xi": worst_xi,
                "argmin_eta": worst_eta,
            },
        )

    # failure side: look for the defect's near-zeros on a polar grid of
    # (|xi|, |eta|, angle), visited by increasing |xi|^2 + |eta|^2 from the
    # origin (a stable sort keeps ties in grid order); the first minimum wins
    steps = np.linspace(0.0, max_radius, 33)
    angles = np.linspace(0.0, math.pi, 17)
    a, b, theta = (g.ravel() for g in np.meshgrid(steps, steps, angles, indexing="ij"))
    order = np.argsort(a * a + b * b, kind="stable")
    xi_arr = np.zeros((a.size, dim))
    eta_arr = np.zeros((a.size, dim))
    xi_arr[:, 0] = a
    eta_arr[:, 0] = b * np.cos(theta)
    if dim >= 2:
        eta_arr[:, 1] = b * np.sin(theta)
    xi_arr, eta_arr = xi_arr[order], eta_arr[order]
    best_idx = int(np.argmin(resonance_function(triple, xi_arr, eta_arr)))

    def objective(vec):
        return resonance_function(triple, vec[:dim], vec[dim:])

    start = np.concatenate([xi_arr[best_idx], eta_arr[best_idx]])
    minimizer, minimum = _coordinate_descent(objective, start)
    return VerificationRecord(
        name="nonresonance_bound",
        parameters=params,
        ratios=(float(minimum),),
        bound="defect has near-zeros when the mass condition fails",
        passed=minimum <= 1e-6,
        seed=seed,
        details={
            "condition_holds": False,
            "minimum": float(minimum),
            "minimizer_xi": [float(x) for x in minimizer[:dim]],
            "minimizer_eta": [float(x) for x in minimizer[dim:]],
        },
    )


# ---------------------------------------------------------------------------
# shell intersection volume


@dataclass(frozen=True)
class ShellSpec:
    """Two thin spherical shells and an axis tube, in dimension >= 3.

    Shell a is centered at the origin with radius `radius_a` and half-width
    `width_a`; shell b is carried to `offset` with radius `radius_b` and
    half-width `width_b`. The tube collects points within `tube_radius` of
    the axis spanned by `offset`. Widths must stay in the thin regime, at
    most a quarter of every other length scale.
    """

    dim: int
    radius_a: float
    radius_b: float
    width_a: float
    width_b: float
    tube_radius: float
    offset: tuple

    def __post_init__(self):
        object.__setattr__(self, "offset", tuple(float(x) for x in self.offset))
        if self.dim < 3:
            raise ValueError("shell geometry needs dimension >= 3")
        if len(self.offset) != self.dim:
            raise ValueError("offset dimension mismatch")
        scales = (self.radius_a, self.radius_b, self.width_a, self.width_b,
                  self.tube_radius)
        if any(s <= 0 for s in scales):
            raise ValueError("all radii and widths must be positive")
        cap = min(self.radius_a, self.radius_b, self.tube_radius) / 4.0
        if self.width_a > cap or self.width_b > cap:
            raise ValueError("shell widths must be at most min(r, R, L)/4")
        if not any(x != 0.0 for x in self.offset):
            raise ValueError("offset must be nonzero")

    @property
    def offset_length(self) -> float:
        return float(np.linalg.norm(self.offset))

    def bound_value(self) -> float:
        """Volume budget: min(r, R, L)^(n-3) * r * R * wa * wb / |offset|."""
        small = min(self.radius_a, self.radius_b, self.tube_radius)
        return (
            small ** (self.dim - 3)
            * self.radius_a
            * self.radius_b
            * self.width_a
            * self.width_b
            / self.offset_length
        )


def _unit_ball_volume(k: int) -> float:
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def shell_intersection_volume(
    spec: ShellSpec, samples: int = 200_000, seed: int = 0, strata: int = 64
) -> VerificationRecord:
    """Stratified Monte Carlo volume of the shell-shell-tube intersection.

    The axial slab compatible with both shells is cut into strata; each
    stratum is sampled inside its own bounding cylinder, so thin intersections
    keep a healthy hit rate. An empty intersection is reported with a warning
    and trivially satisfies the bound.
    """
    if samples < 16 * strata:
        raise ValueError(
            f"need at least 16 samples per stratum, {16 * strata} for {strata} "
            f"strata, got {samples}"
        )
    n = spec.dim
    c = spec.offset_length
    ra, wa = spec.radius_a, spec.width_a
    rb, wb = spec.radius_b, spec.width_b
    rng = np.random.default_rng(seed)

    lo = (c * c + (ra - wa) ** 2 - (rb + wb) ** 2) / (2.0 * c)
    hi = (c * c + (ra + wa) ** 2 - (rb - wb) ** 2) / (2.0 * c)
    lo = max(lo, -(ra + wa), c - rb - wb)
    hi = min(hi, ra + wa, c + rb + wb)

    ball_k = _unit_ball_volume(n - 1)
    volume = 0.0
    variance = 0.0
    hits_total = 0
    per = samples // strata
    if lo < hi:
        edges = np.linspace(lo, hi, strata + 1)
        for i in range(strata):
            a_edge, b_edge = float(edges[i]), float(edges[i + 1])
            abs_min = 0.0 if a_edge <= 0.0 <= b_edge else min(abs(a_edge), abs(b_edge))
            off_min = (
                0.0 if a_edge <= c <= b_edge else min(abs(a_edge - c), abs(b_edge - c))
            )
            rho_cap = min(
                spec.tube_radius,
                math.sqrt(max((ra + wa) ** 2 - abs_min * abs_min, 0.0)),
                math.sqrt(max((rb + wb) ** 2 - off_min * off_min, 0.0)),
            )
            if rho_cap <= 0.0:
                continue
            x1 = rng.uniform(a_edge, b_edge, per)
            dirs = rng.standard_normal((per, n - 1))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            rho = rho_cap * rng.random(per) ** (1.0 / (n - 1))
            d1 = np.sqrt(x1 * x1 + rho * rho)
            d2 = np.sqrt((x1 - c) ** 2 + rho * rho)
            hit = (
                (d1 >= ra - wa)
                & (d1 <= ra + wa)
                & (d2 >= rb - wb)
                & (d2 <= rb + wb)
                & (rho <= spec.tube_radius)
            )
            p_hat = float(np.count_nonzero(hit)) / per
            box = (b_edge - a_edge) * ball_k * rho_cap ** (n - 1)
            volume += box * p_hat
            variance += box * box * p_hat * (1.0 - p_hat) / per
            hits_total += int(np.count_nonzero(hit))
    std_error = math.sqrt(variance)
    bound = spec.bound_value()
    ratio = volume / bound
    empty = hits_total == 0
    if empty:
        warnings.warn(
            "shell intersection produced zero hits: the region is empty "
            "and the volume bound holds trivially",
            RuntimeWarning,
            stacklevel=2,
        )
    rel_error = 0.0 if empty else std_error / volume
    return VerificationRecord(
        name="shell_intersection",
        parameters={
            "dim": n,
            "radius_a": ra,
            "radius_b": rb,
            "width_a": wa,
            "width_b": wb,
            "tube_radius": spec.tube_radius,
            "offset": list(spec.offset),
            "samples": per * strata,
            "strata": int(strata),
        },
        ratios=(ratio,),
        bound="min(r, R, L)^(n-3) * r * R * wa * wb / |offset|",
        passed=empty or rel_error < 0.05,
        seed=seed,
        details={
            "volume": volume,
            "std_error": std_error,
            "relative_error": rel_error,
            "bound_value": bound,
            "hits": hits_total,
            "empty": empty,
        },
    )


# ---------------------------------------------------------------------------
# bilinear free-wave products on mode sets


def _integer_box(center: np.ndarray, halfwidth: int) -> np.ndarray:
    axes = [
        np.arange(int(c) - halfwidth, int(c) + halfwidth + 1) for c in center
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def ball_mode_set(center, radius: float) -> np.ndarray:
    """Integer frequencies within Euclidean `radius` of the rounded center."""
    center = np.round(np.asarray(center, dtype=float)).astype(np.int64)
    pts = _integer_box(center, int(math.ceil(radius)))
    keep = np.sum((pts - center) ** 2, axis=1) <= radius * radius
    return pts[keep]


def cap_mode_set(
    scale: float, pole: np.ndarray, transverse_radius: float, thickness: float = 2.0
) -> np.ndarray:
    """Integer frequencies on a spherical cap.

    Points lie within `thickness/2` of the sphere of the given scale and
    within `transverse_radius` of the axis through `pole` on the pole's side.
    """
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    center = scale * pole
    halfwidth = int(math.ceil(transverse_radius + thickness / 2.0 + 1.5))
    pts = _integer_box(np.round(center), halfwidth)
    norms = np.sqrt(np.sum(pts.astype(float) ** 2, axis=1))
    axial = pts.astype(float) @ pole
    transverse = np.sqrt(np.maximum(norms**2 - axial**2, 0.0))
    keep = (
        (np.abs(norms - scale) <= thickness / 2.0)
        & (transverse <= transverse_radius)
        & (axial > 0)
    )
    return pts[keep]


_MAX_TIME_SAMPLES = 4000
# bytes per padded-box entry at the peak of _bilinear_space_time_l2, which
# the float64 temporaries of the annulus weight set (54 under tracemalloc at
# 33^3 and 65^3), above the two complex64 pads and the float32 weight
_BOX_BYTES = 56


def _pruned_fftn(pad: np.ndarray, shape) -> np.ndarray:
    """np.fft.fftn(pad, norm="ortho") in place, for pad zero outside pad[:shape].

    Axes go last first, as in numpy's fftn, so the result is bit-identical to
    it; axis d transforms only the lines whose earlier axes lie inside
    shape[:d], the others being zero (Orszag 1971).
    """
    for d in reversed(range(pad.ndim)):
        lines = pad[tuple(slice(0, s) for s in shape[:d])]
        np.fft.fft(lines, axis=d, norm="ortho", out=lines)
    return pad


def _bilinear_space_time_l2(
    modes_a,
    amps_a,
    omega_a,
    modes_b,
    amps_b,
    omega_b,
    output_scale: float,
    horizon: float,
    oversample: float = 4.0,
):
    """L2-in-time-and-space mass of the annulus-projected free-wave product.

    The product's Fourier coefficients at each time are an exact linear
    convolution of the phased envelopes, computed by FFT on a padded joint
    box; the output annulus weight is applied on the shifted frequencies and
    the time integral uses the trapezoid rule, sampled finely enough for the
    phase spread that survives after removing the mean rotation. A spread
    that needs more than _MAX_TIME_SAMPLES samples raises ValueError, and
    padded boxes larger than physical memory raise MemoryError before they
    are allocated.

    Every transform runs in complex64, and every one passes norm="ortho":
    with the default norm numpy hands pocketfft the integer factor 1, which
    selects its double-precision loop, so a complex64 np.fft.fftn computes
    in complex128 and casts back at about three times the cost. The unitary
    transforms scale the convolution by 1/sqrt(prod(conv_shape)), undone on
    the total.
    """
    osc_a = omega_a - omega_a.mean()
    osc_b = omega_b - omega_b.mean()
    spread = (osc_a.max() - osc_a.min()) + (osc_b.max() - osc_b.min())
    nt = max(9, int(math.ceil(horizon * spread / (2.0 * math.pi) * oversample)) + 1)
    if nt > _MAX_TIME_SAMPLES:
        raise ValueError(
            f"the time quadrature needs {nt} samples, at most "
            f"{_MAX_TIME_SAMPLES} are allowed (lower the horizon or the scales)"
        )
    times = np.linspace(0.0, horizon, nt)
    dt = times[1] - times[0]

    corner_a = modes_a.min(axis=0)
    corner_b = modes_b.min(axis=0)
    local_a = modes_a - corner_a
    local_b = modes_b - corner_b
    shape_a = tuple(int(x) for x in local_a.max(axis=0) + 1)
    shape_b = tuple(int(x) for x in local_b.max(axis=0) + 1)
    conv_shape = tuple(sa + sb - 1 for sa, sb in zip(shape_a, shape_b))
    _require_memory(_BOX_BYTES * math.prod(conv_shape), "the bilinear padded boxes")

    corner = corner_a + corner_b
    sq = None
    for d, size in enumerate(conv_shape):
        axis = (corner[d] + np.arange(size)).astype(float) ** 2
        axis = axis.reshape((1,) * d + (-1,) + (1,) * (len(conv_shape) - d - 1))
        sq = axis if sq is None else sq + axis
    weight_sq = annulus_profile(np.sqrt(sq) / float(output_scale)).astype(
        np.float32
    ) ** 2

    idx_a = tuple(local_a.T)
    idx_b = tuple(local_b.T)
    pad_a = np.zeros(conv_shape, dtype=np.complex64)
    pad_b = np.zeros(conv_shape, dtype=np.complex64)
    total = 0.0
    for j, t in enumerate(times):
        pad_a[...] = 0
        pad_b[...] = 0
        pad_a[idx_a] = (amps_a * np.exp(1j * t * osc_a)).astype(np.complex64)
        pad_b[idx_b] = (amps_b * np.exp(1j * t * osc_b)).astype(np.complex64)
        # in place in pad_a and pad_b; never np.fft.fftn(pad) here, which
        # without norm="ortho" computes in complex128
        conv = _pruned_fftn(pad_a, shape_a)
        conv *= _pruned_fftn(pad_b, shape_b)
        np.fft.ifftn(conv, norm="ortho", out=conv)
        mass = float(np.sum(weight_sq * np.abs(conv) ** 2))
        w = 0.5 if j in (0, nt - 1) else 1.0
        total += w * dt * mass
    return math.sqrt(total * math.prod(conv_shape))


@dataclass(frozen=True)
class BilinearCase:
    """One configuration of the free-wave product estimate.

    `low_scale` and `high_scale` are the dyadic sizes of the two factors,
    `output_scale` the annulus the product is projected onto. Separated
    scales (low at most a quarter of high) are checked against the coarse
    low^((n-1)/2) budget; comparable scales against the sharp
    high^(1/2) * output^((n-2)/2) budget. `horizon` 0 picks a default time
    window per family.
    """

    dim: int
    low_scale: DyadicIndex
    high_scale: DyadicIndex
    output_scale: DyadicIndex
    sign_a: int = 1
    sign_b: int = 1
    mass_a: float = 1.0
    mass_b: float = 1.0
    trials: int = 3
    seed: int = 0
    horizon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "low_scale", DyadicIndex(self.low_scale))
        object.__setattr__(self, "high_scale", DyadicIndex(self.high_scale))
        object.__setattr__(self, "output_scale", DyadicIndex(self.output_scale))
        if self.dim < 3:
            raise ValueError("sharp bilinear checks need dimension >= 3")
        if min(self.low_scale, self.high_scale, self.output_scale) < 1:
            raise ValueError("scales must be positive dyadic indices")
        if self.low_scale > self.high_scale:
            raise ValueError("low scale must not exceed high scale")
        if self.sign_a not in (1, -1) or self.sign_b not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.mass_a <= 0 or self.mass_b <= 0:
            raise ValueError("masses must be positive")
        if self.trials < 1:
            raise ValueError("need at least one trial")

    @property
    def separated(self) -> bool:
        return 4 * int(self.low_scale) <= int(self.high_scale)


def _orthonormal_pair(dim: int, rng):
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    return u, v


def verify_bilinear(case: BilinearCase) -> VerificationRecord:
    """Ratio of the projected free-wave product to its dyadic budget.

    Each trial draws fresh geometry (random orthogonal or antipodal
    directions) and random positive amplitudes with a common phase. The
    common phase matters: it realizes the concentrated wave packets that
    saturate the estimate, which uniformly random phases destroy by
    square-root cancellation, leaving nothing to measure sharpness against.
    """
    n = case.dim
    records = []
    for trial in range(case.trials):
        rng = np.random.default_rng([case.seed, trial])
        if case.separated:
            m = float(case.low_scale)
            big = float(case.high_scale)
            radius = max(m / 4.0, 1.2)
            dir_a, dir_b = _orthonormal_pair(n, rng)
            modes_a = ball_mode_set(m * dir_a, radius)
            modes_b = ball_mode_set(big * dir_b, radius)
            bound = m ** ((n - 1) / 2.0)
            bound_text = "low^((n-1)/2) * |phi|_2 * |psi|_2"
            horizon = case.horizon or 2.0
        else:
            high = float(case.high_scale)
            rho = float(case.output_scale)
            # radial thickness tracks the caps' curvature depth rho^2 / high,
            # keeping the family self-similar across the sweep
            thickness = max(2.0, high / 16.0)
            pole = rng.standard_normal(n)
            pole /= np.linalg.norm(pole)
            modes_a = cap_mode_set(high, pole, rho, thickness)
            modes_b = cap_mode_set(float(case.low_scale), -pole, rho, thickness)
            bound = math.sqrt(high) * float(case.output_scale) ** ((n - 2) / 2.0)
            bound_text = "high^(1/2) * output^((n-2)/2) * |phi|_2 * |psi|_2"
            horizon = case.horizon or 6.0
        if len(modes_a) == 0 or len(modes_b) == 0:
            records.append(0.0)
            continue
        amps_a = rng.uniform(0.5, 1.0, len(modes_a))
        amps_b = rng.uniform(0.5, 1.0, len(modes_b))
        omega_a = case.sign_a * bracket(case.mass_a, modes_a)
        omega_b = case.sign_b * bracket(case.mass_b, modes_b)
        value = _bilinear_space_time_l2(
            modes_a,
            amps_a,
            omega_a,
            modes_b,
            amps_b,
            omega_b,
            float(case.output_scale),
            horizon,
        )
        rhs = bound * np.linalg.norm(amps_a) * np.linalg.norm(amps_b)
        records.append(value / rhs)
    ratios = tuple(float(r) for r in records)
    return VerificationRecord(
        name="bilinear_product",
        parameters={
            "dim": n,
            "low_scale": int(case.low_scale),
            "high_scale": int(case.high_scale),
            "output_scale": int(case.output_scale),
            "sign_a": case.sign_a,
            "sign_b": case.sign_b,
            "mass_a": case.mass_a,
            "mass_b": case.mass_b,
            "trials": case.trials,
            "separated": case.separated,
        },
        ratios=ratios,
        bound=bound_text,
        passed=sweep_uniformity(ratios, 4.0),
        seed=case.seed,
    )


# sweep mode -> (default sweep scales, (high, output) scales for sweep scale s)
_SWEEP_MODES = {
    "separated": ((2, 4, 8, 16, 32, 64), lambda s, high: (high, high)),
    "matched": ((8, 16, 32, 64, 128), lambda s, high: (s, max(s // 4, 1))),
}


def bilinear_sweep(
    dim: int = 3,
    mode: str = "separated",
    trials: int = 2,
    seed: int = 0,
    high_scale: int = 256,
    scales=None,
) -> VerificationRecord:
    """Dyadic sweep of the product estimate, judged by ratio uniformity.

    `separated` sweeps the low scale against a fixed high scale; `matched`
    sweeps comparable scales with the output annulus locked to a quarter of
    the scale, so both sides of the sharp budget move together.
    """
    if mode not in _SWEEP_MODES:
        raise ValueError("mode must be 'separated' or 'matched'")
    default_scales, partners = _SWEEP_MODES[mode]
    scales = tuple(scales) if scales is not None else default_scales
    cases = [
        BilinearCase(dim, s, *partners(s, high_scale), trials=trials, seed=seed + i)
        for i, s in enumerate(scales)
    ]
    per_scale = []
    all_records = []
    for case in cases:
        record = verify_bilinear(case)
        all_records.append(record)
        live = [r for r in record.ratios if r > 0]
        per_scale.append(float(np.median(live)) if live else 0.0)
    ratios = tuple(per_scale)
    return VerificationRecord(
        name=f"bilinear_sweep_{mode}",
        parameters={
            "dim": dim,
            "mode": mode,
            "scales": [int(s) for s in scales],
            "high_scale": int(high_scale),
            "trials": trials,
        },
        ratios=ratios,
        bound=all_records[0].bound if all_records else "",
        passed=sweep_uniformity(ratios, 4.0),
        seed=seed,
        details={
            "per_case": [list(r.ratios) for r in all_records],
        },
    )


# ---------------------------------------------------------------------------
# admissible exponents


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        if math.isinf(x):
            raise ValueError("exponent must be finite")
        # snap floats to the nearest small rational so that values typed as
        # 8/3 land on Fraction(8, 3) rather than their binary expansion
        return Fraction(x).limit_denominator(10**6)
    return Fraction(x)


def strichartz_admissible(n: int, q, r, family: str):
    """Exact admissibility check and derivative loss for a space-time pair.

    The scaling relation is tested in rational arithmetic: 2/q + n/r = n/2
    for the massive dispersion family ("kg"), 2/q + (n-1)/r = (n-1)/2 for the
    wave family. Returns (valid, loss) with loss = 1/q - 1/r + 1/2. Both
    exponents must lie in [2, infinity); an infinite q is reported invalid.
    """
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    if family not in ("kg", "wave"):
        raise ValueError("family must be 'kg' or 'wave'")
    r = _as_fraction(r)
    if r < 2:
        raise ValueError("r must satisfy 2 <= r < infinity")
    q_infinite = isinstance(q, float) and math.isinf(q)
    q = q if q_infinite else _as_fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    q_inv = Fraction(0) if q_infinite else 1 / q
    if family == "kg":
        relation = 2 * q_inv + Fraction(n) / r == Fraction(n, 2)
    else:
        relation = 2 * q_inv + Fraction(n - 1) / r == Fraction(n - 1, 2)
    q_ok = (not q_infinite) and q_inv <= Fraction(1, 2) and q_inv > 0
    loss = q_inv - 1 / r + Fraction(1, 2)
    return bool(relation and q_ok), loss


# ---------------------------------------------------------------------------
# trilinear space-time integral


def _pack_codes(points: np.ndarray, mins: np.ndarray, spans: np.ndarray):
    """Injective int64 code for integer points inside the given box."""
    weights = np.cumprod(np.concatenate([[1], spans[:-1]]))
    return (points - mins) @ weights.astype(np.int64)


def _subsample(modes: np.ndarray, cap: int, rng) -> np.ndarray:
    if len(modes) <= cap:
        return modes
    pick = np.sort(rng.choice(len(modes), size=cap, replace=False))
    return modes[pick]


def _half_mean_stability(values, slack: float = 4.0) -> bool:
    """Stability of a noisy statistic: the two half-averages agree to a factor.

    Single draws of a phase-randomized integral fluctuate like the modulus of
    a complex Gaussian, so a pair of individual trials can spread beyond any
    fixed factor; averages over half the trials concentrate and are the
    honest comparison.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return all(math.isfinite(v) for v in vals)
    half = (len(vals) + 1) // 2
    a = sum(vals[:half]) / half
    b = sum(vals[half:]) / (len(vals) - half)
    if a == 0.0 and b == 0.0:
        return True
    if min(a, b) <= 0.0:
        return False
    return max(a, b) / min(a, b) <= slack


def verify_trilinear(
    high_scale,
    mate_scale,
    low_scale,
    signs=(1, 1, -1),
    dim: int = 3,
    trials: int = 8,
    seed: int = 0,
    horizon: float = 8.0,
    masses=(1.0, 1.0, 1.0),
    max_modes: int = 1200,
) -> VerificationRecord:
    """Scaled trilinear integral of three free waves against its budget.

    The two comparable-scale factors sit on antipodal caps, the third on a
    low ball, all with random complex Gaussian coefficients. The convolution
    constraint leaves one free pair per interaction, and the time integral is
    exact per interaction, so no time quadrature error enters. The statistic
    divides the integral by the high scale and by the weighted product of the
    factor norms; the check is qualitative, looking for stability across
    trials rather than a specific constant.
    """
    high = DyadicIndex(high_scale)
    mate = DyadicIndex(mate_scale)
    low = DyadicIndex(low_scale)
    if min(int(high), int(mate)) < 1 or max(high, mate) > 2 * min(high, mate):
        raise ValueError("the two large scales must be comparable and positive")
    if len(signs) != 3 or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be three values of +1 or -1")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    ms = tuple(float(m) for m in masses)
    s_weight = max(0.5, (dim - 2) / 2.0)
    ratios = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        pole = rng.standard_normal(dim)
        pole /= np.linalg.norm(pole)
        rho = max(float(high) / 4.0, 1.5)
        low_modes = _subsample(ball_mode_set(np.zeros(dim), max(float(low), 1.2)), max_modes, rng)
        mate_modes = _subsample(cap_mode_set(float(mate), -pole, rho), max_modes, rng)
        high_modes = _subsample(cap_mode_set(float(high), pole, rho), max_modes, rng)
        if min(len(low_modes), len(mate_modes), len(high_modes)) == 0:
            ratios.append(0.0)
            continue

        def draw(count):
            return (
                rng.standard_normal(count) + 1j * rng.standard_normal(count)
            ) / math.sqrt(2.0)

        coeff_low = draw(len(low_modes))
        coeff_mate = draw(len(mate_modes))
        coeff_high = draw(len(high_modes))

        need_lo = -(low_modes.max(axis=0) + mate_modes.max(axis=0))
        need_hi = -(low_modes.min(axis=0) + mate_modes.min(axis=0))
        mins = np.minimum(high_modes.min(axis=0), need_lo)
        spans = np.maximum(high_modes.max(axis=0), need_hi) - mins + 1
        high_codes = _pack_codes(high_modes, mins, spans)
        order = np.argsort(high_codes)
        high_sorted = high_codes[order]

        pair_sum = (low_modes[:, None, :] + mate_modes[None, :, :]).reshape(-1, dim)
        need = -pair_sum
        inside = np.all((need >= mins) & (need < mins + spans), axis=1)
        codes = _pack_codes(need[inside], mins, spans)
        pos = np.searchsorted(high_sorted, codes)
        pos = np.clip(pos, 0, len(high_sorted) - 1)
        found = high_sorted[pos] == codes

        flat_idx = np.nonzero(inside)[0][found]
        third = order[pos[found]]
        i_low = flat_idx // len(mate_modes)
        i_mate = flat_idx % len(mate_modes)

        omega = (
            signs[0] * bracket(ms[0], low_modes[i_low])
            + signs[1] * bracket(ms[1], mate_modes[i_mate])
            + signs[2] * bracket(ms[2], high_modes[third])
        )
        phase = np.where(
            np.abs(omega) < 1e-12,
            horizon,
            (np.exp(1j * omega * horizon) - 1.0) / (1j * np.where(omega == 0, 1.0, omega)),
        )
        total = np.sum(
            coeff_low[i_low] * coeff_mate[i_mate] * coeff_high[third] * phase
        )
        norms = (
            np.linalg.norm(coeff_low)
            * np.linalg.norm(coeff_mate)
            * np.linalg.norm(coeff_high)
        )
        denom = float(high) * max(float(low), 1.0) ** s_weight * norms
        ratios.append(float(abs(total)) / denom)
    ratios = tuple(ratios)
    return VerificationRecord(
        name="trilinear_integral",
        parameters={
            "high_scale": int(high),
            "mate_scale": int(mate),
            "low_scale": int(low),
            "signs": list(signs),
            "dim": dim,
            "trials": trials,
            "horizon": horizon,
            "masses": list(ms),
            "max_modes": max_modes,
        },
        ratios=ratios,
        bound="high * low^max(1/2,(n-2)/2) * |u|_2 |v|_2 |w|_2",
        passed=_half_mean_stability(ratios, 4.0),
        seed=seed,
    )
