"""Numerical checks for the inequality toolkit behind the solver.

Every routine here turns an analytic inequality into a falsifiable numeric
experiment: evaluate both sides on concrete data, report the ratio, and judge
a dyadic sweep by uniformity (one constant must cover every scale, with a
factor-4 slack) rather than by any particular constant value. Monte Carlo
routines are reproducible bit for bit from their seed and parameters.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .grid import DyadicIndex, _axis_passes, _require_memory, _split_even_odd
from .grid import annulus_profile
from .system import _brackets, bracket, check_nonresonance, resonance_function


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


# the factor by which the ratios of one sweep, or two half-averages, may differ
_SLACK = 4.0


def sweep_uniformity(ratios) -> bool:
    """True when one constant covers all nonzero ratios within _SLACK.

    Any non-finite or negative entry fails outright; zeros mark degenerate
    cases and are excluded from the spread comparison.
    """
    values = [float(r) for r in ratios]
    if any(not math.isfinite(r) or r < 0.0 for r in values):
        return False
    live = [r for r in values if r > 0.0]
    if len(live) < 2:
        return True
    return max(live) / min(live) <= _SLACK


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


def _frequency_pairs(dim: int, max_radius: float, directions: int, seed: int):
    """Structured plus randomized (xi, eta) samples out to max_radius.

    The deterministic part walks a dyadic radius ladder through collinear,
    antiparallel, orthogonal, and strongly unbalanced configurations; the
    randomized part covers the same ladder with fresh direction pairs drawn
    from the seed; pairs beyond physical memory raise MemoryError first.
    """
    top = int(math.log2(max_radius))
    ladder = np.array([0.0] + [float(2**k) for k in range(top + 1)])
    draws = max(1, directions // 8)
    per_rung = 3 + (dim >= 2)
    pairs = 2 + (ladder.size - 1) * per_rung + ladder.size**2 * draws
    # per pair at the peak: the two unit directions, xi, eta and one scaled
    # direction, 40 dim bytes (tracemalloc); 8 more cover numpy's fixed
    # iteration buffers, up to 130 KB, from 2e4 pairs up
    _require_memory(8 * (5 * dim + 1) * pairs, f"{pairs} frequency pairs")
    e1, e2 = np.eye(2, dim)
    first = np.outer([0.0, 1.0], e1)  # (0, 0), then (e1, e1)
    # each rung t pairs t e1 with t e1, -t e1, max_radius e1 and, from dim 2, t e2
    t = ladder[1:, None]
    partners = np.broadcast_arrays(t * e1, -t * e1, max_radius * e1, t * e2)[:per_rung]
    # each rung pair (ra, rb) draws its directions da, db in turn
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal((ladder.size, ladder.size, draws, 2, dim))
    norms = np.vecdot(unit, unit)
    unit /= np.sqrt(norms, out=norms)[..., None]
    del norms
    scaled = ladder[:, None, None, None] * unit[..., 0, :]
    xi = np.concatenate(
        [first, np.repeat(t * e1, per_rung, axis=0), scaled.reshape(-1, dim)]
    )
    scaled = ladder[:, None, None] * unit[..., 1, :]
    eta = np.concatenate(
        [first, np.stack(partners, axis=1).reshape(-1, dim), scaled.reshape(-1, dim)]
    )
    return xi, eta


def _require_sweep(dim: int, max_radius: float, directions: int):
    """ValueError unless the sweep has a dimension, a rung and a direction."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    # the ladder is 0, 1, 2, 4, ... up to max_radius: below 1 it has no rung
    if not max_radius >= 1:
        raise ValueError(
            f"max_radius must be at least 1, the first rung of the radius ladder, "
            f"got {max_radius}"
        )
    if not directions >= 1:
        raise ValueError(f"directions must be at least 1, got {directions}")


def _defect_statistic(masses, xi, eta) -> np.ndarray:
    """Resonance defect weighted by the smallest bracket at each sample."""
    a, b, c = _brackets(masses, xi, eta)
    return (a + b - c) * np.minimum(np.minimum(a, b), c)


def _sweep_record(name: str, triple, parameters: dict, seed: int, lead: dict):
    """The record of the smallest weighted defect over the frequency-pair sweep.

    parameters give the sweep and the floor the minimum must reach.  The
    record's details are lead, then the minimum and the first (xi, eta) pair
    attaining it as float lists.  Returns the record and the pairs swept.
    """
    floor = parameters["floor"]
    xi, eta = _frequency_pairs(
        *(parameters[k] for k in ("dim", "max_radius", "directions")), seed
    )
    values = _defect_statistic(triple, xi, eta)
    worst = int(np.argmin(values))
    minimum = float(values[worst])
    details = {**lead, "minimum": minimum}
    details.update(argmin_xi=xi[worst].tolist(), argmin_eta=eta[worst].tolist())
    record = VerificationRecord(
        name, parameters, (minimum,), f"defect * smallest bracket >= {floor}",
        minimum >= floor, seed, details,
    )
    return record, values.size


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
    _require_sweep(dim, max_radius, directions)
    triple = (float(mass),) * 3
    params = {
        "mass": float(mass),
        "dim": int(dim),
        "max_radius": float(max_radius),
        "directions": int(directions),
        "floor": float(floor),
    }
    record, samples = _sweep_record("modulation_bound", triple, params, seed, {})
    ray = max_radius * np.eye(1, dim)[0]
    tail = float(_defect_statistic(triple, ray, ray))
    details = {**record.details, "collinear_tail": tail, "samples": samples}
    return replace(record, details=details)


def _coordinate_descent(fun, start):
    """Derivative-free pattern search: axis moves of step 1, halved down to 1e-4."""
    x = np.array(start, dtype=float)
    best = float(fun(x))
    step, sweeps = 1.0, 0
    while step >= 1e-4 and sweeps < 400:
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
    _require_sweep(dim, max_radius, directions)
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
        lead = {"condition_holds": True}
        return _sweep_record("nonresonance_bound", triple, params, seed, lead)[0]

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


def _unit_ball_volume(k: int) -> float:
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


# the axial strata of shell_intersection_volume
_STRATA = 64
# bytes per point of one stratum at the peak of shell_intersection_volume: six
# float64 arrays and the hit mask (49.0 under tracemalloc at 5e4-1e6 points)
_SHELL_POINT_BYTES = 49


def shell_intersection_volume(
    dim: int,
    radius: float,
    width: float,
    tube_radius: float,
    offset: float,
    samples: int = 200_000,
    seed: int = 0,
) -> VerificationRecord:
    """Stratified Monte Carlo volume of the shell-shell-tube intersection.

    Two thin spherical shells of the given radius and half-width, in
    dimension >= 3, one centered at the origin and one carried to `offset`
    on axis 0; the tube collects points within `tube_radius` of that axis.
    The width must stay in the thin regime, at most a quarter of the radius
    and of the tube radius.

    The axial slab compatible with both shells is cut into _STRATA strata;
    each stratum is sampled with samples // _STRATA points inside its own
    bounding cylinder, so thin intersections keep a healthy hit rate. A
    stratum's points larger than physical memory raise MemoryError before
    the first draw. An empty intersection is reported with a warning and
    trivially satisfies the bound.
    """
    if dim < 3:
        raise ValueError("shell geometry needs dimension >= 3")
    if min(radius, width, tube_radius) <= 0:
        raise ValueError("all radii and widths must be positive")
    if width > min(radius, tube_radius) / 4.0:
        raise ValueError("shell widths must be at most min(r, R, L)/4")
    if offset == 0.0:
        raise ValueError("offset must be nonzero")
    if samples < 16 * _STRATA:
        raise ValueError(
            f"need at least 16 samples per stratum, {16 * _STRATA} for {_STRATA} "
            f"strata, got {samples}"
        )
    per = samples // _STRATA
    _require_memory(_SHELL_POINT_BYTES * per, f"the {per} points of each shell stratum")
    n, r, w, c = dim, radius, width, abs(float(offset))
    rng = np.random.default_rng(seed)

    lo = (c * c + (r - w) ** 2 - (r + w) ** 2) / (2.0 * c)
    hi = (c * c + (r + w) ** 2 - (r - w) ** 2) / (2.0 * c)
    lo = max(lo, -(r + w), c - r - w)
    hi = min(hi, r + w, c + r + w)

    ball_k = _unit_ball_volume(n - 1)
    volume = 0.0
    variance = 0.0
    hits_total = 0
    if lo < hi:
        edges = np.linspace(lo, hi, _STRATA + 1)
        for i in range(_STRATA):
            a_edge, b_edge = float(edges[i]), float(edges[i + 1])
            abs_min = 0.0 if a_edge <= 0.0 <= b_edge else min(abs(a_edge), abs(b_edge))
            off_min = (
                0.0 if a_edge <= c <= b_edge else min(abs(a_edge - c), abs(b_edge - c))
            )
            rho_cap = min(
                tube_radius,
                math.sqrt(max((r + w) ** 2 - abs_min * abs_min, 0.0)),
                math.sqrt(max((r + w) ** 2 - off_min * off_min, 0.0)),
            )
            if rho_cap <= 0.0:
                continue
            # the hit test is symmetric about the axis: no direction is drawn
            x1 = rng.uniform(a_edge, b_edge, per)
            rho = rho_cap * rng.random(per) ** (1.0 / (n - 1))
            d1 = np.sqrt(x1 * x1 + rho * rho)
            d2 = np.sqrt((x1 - c) ** 2 + rho * rho)
            hit = (d1 >= r - w) & (d1 <= r + w) & (d2 >= r - w) & (d2 <= r + w)
            hit &= rho <= tube_radius
            hits = int(np.count_nonzero(hit))
            p_hat = float(hits) / per
            box = (b_edge - a_edge) * ball_k * rho_cap ** (n - 1)
            volume += box * p_hat
            variance += box * box * p_hat * (1.0 - p_hat) / per
            hits_total += hits
    std_error = math.sqrt(variance)
    bound = min(r, tube_radius) ** (n - 3) * r * r * w * w / c
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
            "radius_a": r,
            "radius_b": r,
            "width_a": w,
            "width_b": w,
            "tube_radius": tube_radius,
            "offset": [float(offset)] + [0.0] * (n - 1),
            "samples": per * _STRATA,
            "strata": _STRATA,
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


# bytes per point of the integer box that ball_mode_set or cap_mode_set cuts from, and a
# fixed part, for their callers' checks: under tracemalloc, balls and caps whose shell is
# thin against the box peaked at 24-25.7 a point on 3,375 to 2.5e6 points (dims 3-5) and
# at 15 KiB on 125; a shell that fills most of its box keeps its points, up to 60 a point
_MODE_BOX_BYTES = 26
_MODE_BOX_FIXED_BYTES = 2**14


def _box_cut(center, halfwidth: int, origin, keep) -> np.ndarray:
    """The integer points p within `halfwidth` of `center` in the max norm where
    keep(|p - origin|^2) holds, in C order; the exact integer |p - origin|^2 is
    summed on the box's broadcast axes."""
    dim = len(center)
    axes = [
        np.arange(c - halfwidth, c + halfwidth + 1).reshape((-1,) + (1,) * (dim - 1 - d))
        for d, c in enumerate(map(int, center))
    ]
    mask = keep(sum((a - o) ** 2 for a, o in zip(axes, origin)))
    return np.stack([a.ravel()[i] for a, i in zip(axes, np.nonzero(mask))], axis=1)


def ball_mode_set(center, radius: float) -> np.ndarray:
    """Integer frequencies within Euclidean `radius` of the rounded center."""
    center = np.round(np.asarray(center, dtype=float)).astype(np.int64)
    return _box_cut(center, int(math.ceil(radius)), center, lambda sq: sq <= radius * radius)


def _cap_halfwidth(transverse_radius: float, thickness: float) -> int:
    """Half the side of the integer box cap_mode_set cuts its cap from."""
    return int(math.ceil(transverse_radius + thickness / 2.0 + 1.5))


def cap_mode_set(
    scale: float, pole: np.ndarray, transverse_radius: float, thickness: float = 2.0
) -> np.ndarray:
    """Integer frequencies on a spherical cap.

    Points lie within `thickness/2` of the sphere of the given scale and
    within `transverse_radius` of the axis through `pole` on the pole's side.
    The radial shell is cut first, by the exact integer |p|^2 on the box's
    axes, and the axial and transverse tests run on its points only.
    """
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    pts = _box_cut(
        np.round(scale * pole),
        _cap_halfwidth(transverse_radius, thickness),
        np.zeros(len(pole), dtype=np.int64),
        lambda sq: np.abs(np.sqrt(sq) - scale) <= thickness / 2.0,
    )
    norms = np.sqrt(np.sum(pts.astype(float) ** 2, axis=1))
    axial = pts.astype(float) @ pole
    transverse = np.sqrt(np.maximum(norms**2 - axial**2, 0.0))
    return pts[(transverse <= transverse_radius) & (axial > 0)]


# bytes per trial of a bilinear or trilinear case: its ratio, the record's
# copies of it and its JSON line (tracemalloc at 2e4 and 8e4 trials: 68 per
# bilinear trial and scale, 94 per trilinear trial)
_TRIAL_BYTES = 100

_MAX_TIME_SAMPLES = 4000
# time samples of _bilinear_space_time_l2 per period of the largest phase spread
_OVERSAMPLE = 4.0
# the nt from which Gauss-Legendre runs; below, bench/reference.json pins the trapezoid
_GAUSS_FROM = 40
# bytes per padded-box entry at the peak of _bilinear_space_time_l2 below and
# from the gate: each side's two complex64 pads, |conv|^2 in the second, and the
# weight (tracemalloc, 1e4-1.4e6 entries: 22-28 on one core, 38-48 split); then
# per mode, its coordinates, flat index, brackets and phases, and a fixed part
# (full cubes of modes, 9^3 to 17^3 a side: at most 42 a mode and 8 KiB)
_BOX_BYTES = (30, 52)
_BOX_MODE_BYTES = 64
_BOX_FIXED_BYTES = 2**14
# box entries from which the samples split across two cores: a 33^3 box took
# 0.63-1.01x the one-core time, 31x19x31 0.61-0.73x, 5e3-1.6e4 entries 0.73-1.18x
_SPLIT_ENTRIES = 2**14


def _smooth_length(n: int) -> int:
    """The least length >= n with no prime factor above 11: pocketfft has kernels for
    those radices and takes 3-5x as long per point on a prime length. Such an m, and
    no other, divides 2310^k (2310 = 2*3*5*7*11) once 2^k > m."""
    while pow(2310, n.bit_length(), n):
        n += 1
    return n


def _gauss_legendre(n: int, length: float):
    """Nodes, ascending, and weights of the n-point Gauss-Legendre rule on [0, length],
    by Newton on the Legendre recurrence: leggauss loads code that raises the peak RSS."""
    x, step = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5)), 1.0
    while np.max(np.abs(step)) > 1e-15:
        p, q = x, np.ones(n)  # P_k and P_(k-1) at the nodes
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        slope = n * (x * p - q) / (x * x - 1.0)  # P_n'
        step = p / slope
        x = x - step
    return 0.5 * length * (x + 1.0), length / ((1.0 - x * x) * slope**2)


def _bilinear_space_time_l2(
    modes_a, amps_a, modes_b, amps_b, output_scale: float, horizon: float
):
    """L2-in-time-and-space mass of the annulus-projected product of two + waves.

    Both waves have mass 1: mode k rotates at <k> = sqrt(1 + |k|^2).

    The product's Fourier coefficients at each time are an exact linear
    convolution of the phased envelopes, computed by FFT on a joint box whose
    sides are padded to _smooth_length(sa + sb - 1): no wrap-around and no
    prime length. The output annulus weight is applied on the shifted
    frequencies. In time the trapezoid rule takes nt samples, four per period
    of the phase spread left after removing the mean rotation; from
    _GAUSS_FROM on, the mass being entire and not periodic, nt // 2 + 4
    Gauss-Legendre nodes do as well or better. An nt above _MAX_TIME_SAMPLES
    raises ValueError, and boxes larger than physical memory raise
    MemoryError before allocation.

    Every transform runs in complex64, and every one passes norm="ortho":
    with the default norm numpy hands pocketfft the integer factor 1, which
    selects its double-precision loop, so a complex64 np.fft.fftn computes
    in complex128 and casts back at about three times the cost. The unitary
    transforms scale the convolution by 1/sqrt(size), the padded box's, undone on
    the total. The forward transforms are fftn's axis passes in its order, bit
    for bit, run in place (grid._axis_passes) on the lines that hold data only.
    From _SPLIT_ENTRIES box entries on, with two cores, a worker thread takes
    the odd time samples in pads of its own, with the same bits.
    """
    omega_a = bracket(1.0, modes_a)
    omega_b = bracket(1.0, modes_b)
    osc_a = omega_a - omega_a.mean()
    osc_b = omega_b - omega_b.mean()
    spread = (osc_a.max() - osc_a.min()) + (osc_b.max() - osc_b.min())
    nt = max(9, int(math.ceil(horizon * spread / (2.0 * math.pi) * _OVERSAMPLE)) + 1)
    if nt > _MAX_TIME_SAMPLES:
        raise ValueError(
            f"the time quadrature needs {nt} samples, at most "
            f"{_MAX_TIME_SAMPLES} are allowed (lower the horizon or the scales)"
        )
    if nt >= _GAUSS_FROM:
        times, weights = _gauss_legendre(nt // 2 + 4, horizon)
    else:
        times = np.linspace(0.0, horizon, nt)
        weights = np.convolve(np.diff(times), [0.5, 0.5])  # the trapezoid's

    corner_a = modes_a.min(axis=0)
    corner_b = modes_b.min(axis=0)
    local_a = modes_a - corner_a
    local_b = modes_b - corner_b
    shape_a = tuple(int(x) for x in local_a.max(axis=0) + 1)
    shape_b = tuple(int(x) for x in local_b.max(axis=0) + 1)
    conv_shape = tuple(_smooth_length(sa + sb - 1) for sa, sb in zip(shape_a, shape_b))
    size = math.prod(conv_shape)  # from the gate on as if split, whatever the cores
    need = _BOX_BYTES[size >= _SPLIT_ENTRIES] * size + _BOX_FIXED_BYTES
    need += _BOX_MODE_BYTES * (len(modes_a) + len(modes_b))
    _require_memory(need, "the bilinear padded boxes")

    corner = corner_a + corner_b
    axes = []
    for d, side in enumerate(conv_shape):
        axis = (corner[d] + np.arange(side)).astype(float) ** 2
        axes.append(axis.reshape((1,) * d + (-1,) + (1,) * (len(conv_shape) - d - 1)))
    # one slab along axis 0 at a time, so the float64 temporaries span a slab,
    # not the box; every operation is elementwise, so the values are the same
    weight_sq = np.empty(conv_shape, dtype=np.float32)
    for i in range(conv_shape[0]):
        sq = axes[0][i : i + 1]
        for axis in axes[1:]:
            sq = sq + axis
        weight_sq[i : i + 1] = annulus_profile(np.sqrt(sq) / float(output_scale)).astype(
            np.float32
        ) ** 2

    flat_a = np.ravel_multi_index(local_a.T, conv_shape)
    flat_b = np.ravel_multi_index(local_b.T, conv_shape)
    # per axis d, the lines of a pad whose earlier axes lie in its factor's corner
    views_a = [[tuple(map(slice, shape_a[:d]))] for d in range(len(shape_a))]
    views_b = [[tuple(map(slice, shape_b[:d]))] for d in range(len(shape_b))]
    last_first = range(len(conv_shape) - 1, -1, -1)
    masses = np.empty(len(times))

    def fill_masses(js):
        """Write the product's weighted mass at each sample of js, in pads of its own."""
        pad_a = np.zeros(conv_shape, dtype=np.complex64)
        pad_b = np.zeros(conv_shape, dtype=np.complex64)
        line_a, line_b = pad_a.reshape(-1), pad_b.reshape(-1)
        # |conv|^2 in pad_b's first `size` float32s, free once pad_a holds the product
        power = line_b.view(np.float32)[:size].reshape(conv_shape)
        for j in js:
            pad_a[...] = pad_b[...] = 0
            line_a[flat_a] = (amps_a * np.exp(1j * times[j] * osc_a)).astype(np.complex64)
            line_b[flat_b] = (amps_b * np.exp(1j * times[j] * osc_b)).astype(np.complex64)
            # in place, pad_a taking the convolution; never np.fft.fftn(pad)
            # here, which without norm="ortho" computes in complex128
            _axis_passes(pad_a, np.fft.fft, views_a, last_first)
            _axis_passes(pad_b, np.fft.fft, views_b, last_first)
            pad_a *= pad_b
            np.fft.ifftn(pad_a, norm="ortho", out=pad_a)
            # weight_sq * |conv|^2 in one buffer: numpy elides no temporary < 256 KiB
            np.square(np.abs(pad_a, out=power), out=power)
            masses[j] = np.sum(np.multiply(power, weight_sq, out=power))

    _split_even_odd(fill_masses, len(times), size, _SPLIT_ENTRIES)
    return math.sqrt((masses @ weights) * size)


def _orthonormal_pair(dim: int, rng):
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    return u, v


def verify_bilinear(
    dim: int, low_scale, high_scale, output_scale, trials: int, seed: int
) -> VerificationRecord:
    """Ratio of the projected free-wave product to its dyadic budget.

    `low_scale` and `high_scale` are the dyadic sizes of the two factors,
    `output_scale` the annulus the product is projected onto; both factors
    are + waves of mass 1. Separated scales (low at most a quarter of high)
    are checked against the coarse low^((n-1)/2) budget over a time window
    of 2; comparable scales against the sharp high^(1/2) * output^((n-2)/2)
    budget over a window of 6.

    Each trial draws fresh geometry (random orthogonal or antipodal
    directions) and random positive amplitudes with a common phase. The
    common phase matters: it realizes the concentrated wave packets that
    saturate the estimate, which uniformly random phases destroy by
    square-root cancellation, leaving nothing to measure sharpness against.

    The two integer mode boxes are checked against physical memory, from the
    arguments, before the first trial; _bilinear_space_time_l2 checks each
    trial's padded box, which its geometry sets.
    """
    low = DyadicIndex(low_scale)
    high = DyadicIndex(high_scale)
    output = DyadicIndex(output_scale)
    if dim < 3:
        raise ValueError("sharp bilinear checks need dimension >= 3")
    if min(low, high, output) < 1:
        raise ValueError("scales must be positive dyadic indices")
    if low > high:
        raise ValueError("low scale must not exceed high scale")
    if trials < 1:
        raise ValueError("need at least one trial")
    separated = 4 * int(low) <= int(high)
    m, big, rho = float(low), float(high), float(output)
    if separated:
        bound = m ** ((dim - 1) / 2.0)
        bound_text = "low^((n-1)/2) * |phi|_2 * |psi|_2"
        horizon = 2.0
        radius = max(m / 4.0, 1.2)
    else:
        bound = math.sqrt(big) * rho ** ((dim - 2) / 2.0)
        bound_text = "high^(1/2) * output^((n-2)/2) * |phi|_2 * |psi|_2"
        horizon = 6.0
        # radial thickness tracks the caps' curvature depth rho^2 / high,
        # keeping the family self-similar across the sweep
        thickness = max(2.0, big / 16.0)
    half = math.ceil(radius) if separated else _cap_halfwidth(rho, thickness)
    # in floats, so that a huge dim overflows at once
    box = _MODE_BOX_BYTES * float(2 * half + 1) ** dim + _MODE_BOX_FIXED_BYTES
    _require_memory(2 * box, "the two integer mode boxes")
    records = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        if separated:
            dir_a, dir_b = _orthonormal_pair(dim, rng)
            modes_a = ball_mode_set(m * dir_a, radius)
            modes_b = ball_mode_set(big * dir_b, radius)
        else:
            pole = rng.standard_normal(dim)
            pole /= np.linalg.norm(pole)
            modes_a = cap_mode_set(big, pole, rho, thickness)
            modes_b = cap_mode_set(m, -pole, rho, thickness)
        if len(modes_a) == 0 or len(modes_b) == 0:
            records.append(0.0)
            continue
        amps_a = rng.uniform(0.5, 1.0, len(modes_a))
        amps_b = rng.uniform(0.5, 1.0, len(modes_b))
        value = _bilinear_space_time_l2(
            modes_a, amps_a, modes_b, amps_b, rho, horizon
        )
        rhs = bound * math.sqrt(np.sum(amps_a**2)) * math.sqrt(np.sum(amps_b**2))
        records.append(value / rhs)
    ratios = tuple(float(r) for r in records)
    return VerificationRecord(
        name="bilinear_product",
        parameters={
            "dim": dim,
            "low_scale": int(low),
            "high_scale": int(high),
            "output_scale": int(output),
            "sign_a": 1,
            "sign_b": 1,
            "mass_a": 1.0,
            "mass_b": 1.0,
            "trials": trials,
            "separated": separated,
        },
        ratios=ratios,
        bound=bound_text,
        passed=sweep_uniformity(ratios),
        seed=seed,
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
    the scale, so both sides of the sharp budget move together.  Trials whose
    records exceed physical memory raise MemoryError before the first.
    """
    if mode not in _SWEEP_MODES:
        raise ValueError("mode must be 'separated' or 'matched'")
    default_scales, partners = _SWEEP_MODES[mode]
    scales = tuple(scales) if scales is not None else default_scales
    _require_memory(
        _TRIAL_BYTES * trials * len(scales), f"{trials} trials of {len(scales)} scales"
    )
    per_scale = []
    all_records = []
    for i, s in enumerate(scales):
        record = verify_bilinear(dim, s, *partners(s, high_scale), trials, seed + i)
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
        passed=sweep_uniformity(ratios),
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


# bytes of a trilinear trial at its peak: per entry of the code table (its
# intp index), and per (low, mate) pair of a block its int64 code and intp hit
# plus, as a block holds no more matches than pairs, a match's five index
# arrays, omega, phase and the product of its terms (16 + 112; the match's 112
# read 91-102 under tracemalloc at 1e4-6e4 matches)
_TABLE_BYTES = 8
_PAIR_BYTES = 128
# (low, mate) pairs per block: on the campaign's cases 2^14-2^18 ran alike on
# one core, and split, 2^16 took 0.35 s against 0.83 s at 2^12
_BLOCK_PAIRS = 2**16


def _match_interactions(low_modes, mate_modes, high_modes):
    """Yield (i_low, i_mate, third) with low + mate + high = 0, a block at a time.

    A block holds the pairs of consecutive low modes, so over all blocks the
    matches come in (low, mate) order. High modes must be distinct. The
    caller checks the code table and a block against memory; see
    verify_trilinear for the method and the bound.
    """
    need_lo = -(low_modes.max(axis=0) + mate_modes.max(axis=0))
    need_hi = -(low_modes.min(axis=0) + mate_modes.min(axis=0))
    mins = np.minimum(high_modes.min(axis=0), need_lo)
    spans = np.maximum(high_modes.max(axis=0), need_hi) - mins + 1
    w = np.cumprod(np.concatenate([[1], spans[:-1]])).astype(np.int64)
    table = np.full(math.prod(spans.tolist()), -1, dtype=np.intp)
    table[(high_modes - mins) @ w] = np.arange(len(high_modes))
    low_codes = -(low_modes + mins) @ w
    mate_codes = mate_modes @ w
    rows = min(len(low_modes), max(1, _BLOCK_PAIRS // len(mate_modes)))
    for start in range(0, len(low_modes), rows):
        hit = table[(low_codes[start : start + rows, None] - mate_codes[None, :]).ravel()]
        flat_idx = np.flatnonzero(hit >= 0)
        third = hit[flat_idx]
        del hit
        i_low, i_mate = np.divmod(flat_idx, len(mate_modes))
        yield i_low + start, i_mate, third


# the most modes verify_trilinear keeps in each of its three sets
_MAX_MODES = 1200


def _subsample(modes: np.ndarray, cap: int, rng) -> np.ndarray:
    if len(modes) <= cap:
        return modes
    pick = np.sort(rng.choice(len(modes), size=cap, replace=False))
    return modes[pick]


def _half_mean_stability(values) -> bool:
    """Stability of a noisy statistic: the two half-averages agree to _SLACK.

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
    return max(a, b) / min(a, b) <= _SLACK


def verify_trilinear(
    high_scale,
    mate_scale,
    low_scale,
    dim: int = 3,
    trials: int = 8,
    seed: int = 0,
    horizon: float = 8.0,
) -> VerificationRecord:
    """Scaled trilinear integral of three free waves against its budget.

    The two comparable-scale factors sit on antipodal caps, the third on a
    low ball, all with random complex Gaussian coefficients and at most
    _MAX_MODES modes. All three have mass 1; the low and mate waves are +
    waves, the high wave a - wave. The convolution constraint leaves one
    free pair per interaction, and the time integral is exact per
    interaction, so no time quadrature error enters. The statistic divides
    the integral by the high scale and by the weighted product of the factor
    norms; the check is qualitative, looking for stability across trials
    rather than a specific constant.

    Interactions are matched through a dense code table. A point p of the
    box [mins, mins + spans) packs to the linear code (p - mins) @ w, with w
    the axis weights, and the table holds the index of each high mode at its
    code and -1 elsewhere. The box covers the high modes and the range of
    -(l + m), whose extremes come from the componentwise extremes of the low
    and mate sets, so every pair sum lies inside it and no pair needs a range
    test. As the code is linear, the code of -(l + m) is A[i] - B[j] with
    A = -(low + mins) @ w and B = mate @ w: one outer difference and one
    gather match every (low, mate) pair, and the pair sums are never formed.
    The pairs are matched _BLOCK_PAIRS at a time, at least _MAX_MODES, so no
    block holds more, and the brackets are taken once per mode. One estimate,
    from the arguments alone, is checked against physical memory before
    anything is built, else MemoryError: the records, and for each trial that
    may run at once (two from two trials on, whatever the cores) a ball's and
    a cap's integer box, the code table and one block's pairs with their
    matches. Each set sits in a box of half-width hb (the ball's) or hc (a
    cap's) around its rounded center, low at 0, mate at -mate·pole and high
    at high·pole, so on each axis the table spans at most
    |high - mate| + 2(hb + hc) + 2 points, for any pole. From two trials on,
    with two cores, a worker thread takes the odd trials; each trial runs
    whole on one thread from its own generator, so the ratios equal a
    one-core run bit for bit.
    """
    high = DyadicIndex(high_scale)
    mate = DyadicIndex(mate_scale)
    low = DyadicIndex(low_scale)
    if min(int(high), int(mate)) < 1 or max(high, mate) > 2 * min(high, mate):
        raise ValueError("the two large scales must be comparable and positive")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not horizon > 0:
        raise ValueError("the interaction horizon must be positive")
    s_weight = max(0.5, (dim - 2) / 2.0)
    rho = max(float(high) / 4.0, 1.5)
    radius = max(float(low), 1.2)
    # in floats, so that a huge dim overflows at once; the ball's box, which
    # the trials share, is counted per trial
    hb, hc = math.ceil(radius), _cap_halfwidth(rho, 2.0)
    points = float(2 * hb + 1) ** dim + float(2 * hc + 1) ** dim
    table = float(abs(high - mate) + 2 * (hb + hc) + 2) ** dim
    per_trial = _MODE_BOX_BYTES * points + 2 * _MODE_BOX_FIXED_BYTES + _TABLE_BYTES * table
    need = _TRIAL_BYTES * trials + min(trials, 2) * (per_trial + _PAIR_BYTES * _BLOCK_PAIRS)
    _require_memory(need, f"{trials} trilinear trials, their mode boxes and code tables")
    ratios = [0.0] * trials
    ball = ball_mode_set(np.zeros(dim), radius)  # each trial subsamples it
    ball.flags.writeable = False

    def fill_ratios(indices):
        """Write the ratio of each trial in indices, each from its own generator."""
        for trial in indices:
            rng = np.random.default_rng([seed, trial])
            pole = rng.standard_normal(dim)
            pole /= np.linalg.norm(pole)
            low_modes = _subsample(ball, _MAX_MODES, rng)
            mate_modes = _subsample(cap_mode_set(float(mate), -pole, rho), _MAX_MODES, rng)
            high_modes = _subsample(cap_mode_set(float(high), pole, rho), _MAX_MODES, rng)
            if min(len(low_modes), len(mate_modes), len(high_modes)) == 0:
                continue

            def draw(count):
                return (
                    rng.standard_normal(count) + 1j * rng.standard_normal(count)
                ) / math.sqrt(2.0)

            coeff_low = draw(len(low_modes))
            coeff_mate = draw(len(mate_modes))
            coeff_high = draw(len(high_modes))
            br_low, br_mate, br_high = (
                bracket(1.0, modes) for modes in (low_modes, mate_modes, high_modes)
            )
            # e^{i omega T} of a match is the product of its modes' rotations
            turns = [np.exp(1j * horizon * br) for br in (br_low, br_mate, -br_high)]
            total = 0.0
            matches = _match_interactions(low_modes, mate_modes, high_modes)
            for i_low, i_mate, third in matches:
                omega = br_low[i_low] + br_mate[i_mate] - br_high[third]
                phase = np.where(
                    np.abs(omega) < 1e-12,
                    horizon,
                    (turns[0][i_low] * turns[1][i_mate] * turns[2][third] - 1.0)
                    / (1j * np.where(omega == 0, 1.0, omega)),
                )
                total += np.sum(
                    coeff_low[i_low] * coeff_mate[i_mate] * coeff_high[third] * phase
                )
            norms = (
                np.linalg.norm(coeff_low)
                * np.linalg.norm(coeff_mate)
                * np.linalg.norm(coeff_high)
            )
            denom = float(high) * max(float(low), 1.0) ** s_weight * norms
            ratios[trial] = float(abs(total)) / denom

    _split_even_odd(fill_ratios, trials, trials, 2)
    ratios = tuple(ratios)
    return VerificationRecord(
        name="trilinear_integral",
        parameters={
            "high_scale": int(high),
            "mate_scale": int(mate),
            "low_scale": int(low),
            "signs": [1, 1, -1],
            "dim": dim,
            "trials": trials,
            "horizon": horizon,
            "masses": [1.0, 1.0, 1.0],
            "max_modes": _MAX_MODES,
        },
        ratios=ratios,
        bound="high * low^max(1/2,(n-2)/2) * |u|_2 |v|_2 |w|_2",
        passed=_half_mean_stability(ratios),
        seed=seed,
    )
