"""Tests for the inequality verification harness.

Expected values were computed from closed forms (Strauss exponent,
tangential shell contact) or frozen from
seeded runs of the independent geometric oracles in this file.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave import grid, harness
from halfwave.grid import annulus_profile
from halfwave.harness import (
    BilinearCase,
    ShellSpec,
    VerificationRecord,
    ball_mode_set,
    bilinear_sweep,
    cap_mode_set,
    shell_intersection_volume,
    strauss_exponent,
    strichartz_admissible,
    sweep_uniformity,
    verify_bilinear,
    verify_modulation_bound,
    verify_nonresonance_bound,
    verify_trilinear,
)
from halfwave.harness import (
    _bilinear_space_time_l2,
    _coordinate_descent,
    _match_interactions,
    _pruned_fftn,
)
from halfwave.system import bracket, resonance_function, smallest_bracket


# ----------------------------------------------------------------------
# Strauss exponent
# ----------------------------------------------------------------------


def test_strauss_known_values():
    # gamma(n) solves n*g^2 - (n+2)*g - 2 = 0; reference values from the
    # quadratic formula evaluated by hand.
    expected = {1: 3.5616, 2: 2.4142, 3: 2.0, 4: 1.7813}
    for n, value in expected.items():
        assert strauss_exponent(n) == pytest.approx(value, abs=1e-3)
    # n = 2 is the silver ratio 1 + sqrt(2); n = 3 is exactly 2.
    assert strauss_exponent(2) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
    assert strauss_exponent(3) == pytest.approx(2.0, rel=1e-14)


def test_strauss_quadratic_residual():
    for n in range(1, 21):
        g = strauss_exponent(n)
        residual = n * g * g - (n + 2) * g - 2.0
        assert abs(residual) < 1e-10


def test_strauss_sandwich_and_decay():
    previous = math.inf
    for n in range(1, 21):
        g = strauss_exponent(n)
        assert 1.0 + 2.0 / n < g < 1.0 + 4.0 / n
        assert g < previous
        previous = g
    assert strauss_exponent(1000) < 1.01


def test_strauss_rejects_bad_dimension():
    with pytest.raises(ValueError):
        strauss_exponent(0)
    with pytest.raises(ValueError):
        strauss_exponent(-3)


# ----------------------------------------------------------------------
# Sweep uniformity predicate
# ----------------------------------------------------------------------


def test_sweep_uniformity_basic():
    assert sweep_uniformity((1.0, 2.0, 3.9))
    assert not sweep_uniformity((1.0, 5.0))
    # zeros are treated as degenerate entries, not spread violations
    assert sweep_uniformity((0.0, 1.0, 2.0))
    assert sweep_uniformity((0.0, 0.0))
    assert not sweep_uniformity((1.0, math.inf))
    assert not sweep_uniformity((1.0, math.nan))
    assert sweep_uniformity(())


def test_sweep_uniformity_slack():
    assert sweep_uniformity((1.0, 7.9), slack=8.0)
    assert not sweep_uniformity((1.0, 8.1), slack=8.0)


# ----------------------------------------------------------------------
# Modulation lower bound sweep
# ----------------------------------------------------------------------


def test_modulation_bound_passes_low_dimensions():
    for dim in (2, 3):
        record = verify_modulation_bound(1.0, dim, max_radius=256.0, seed=0)
        assert isinstance(record, VerificationRecord)
        assert record.passed
        assert min(record.ratios) >= 0.1
        # the infimum sits near 1/2 for unit mass regardless of dimension
        assert record.details["minimum"] == pytest.approx(0.5, abs=0.05)


def test_modulation_collinear_tail():
    record = verify_modulation_bound(1.0, 2, max_radius=1024.0, seed=0)
    # equal aligned high frequencies: the defect statistic approaches 3/4
    assert record.details["collinear_tail"] == pytest.approx(0.75, abs=1e-3)


def test_defect_statistic_spot_value():
    # unit mass, xi = eta = e1: the resonance function is 2*sqrt(2)-sqrt(5)
    # and the smallest bracket is sqrt(2), so the product is their product.
    xi = np.array([1.0, 0.0])
    masses = (1.0, 1.0, 1.0)
    res = float(resonance_function(masses, xi, xi))
    small = float(smallest_bracket(masses, xi, xi))
    product = res * small
    assert res == pytest.approx(2.0 * math.sqrt(2.0) - math.sqrt(5.0), rel=1e-12)
    assert small == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert product == pytest.approx(0.8377, abs=1e-3)


def test_modulation_bound_rejects_bad_dimension():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension"):
            verify_modulation_bound(1.0, dim)


def test_modulation_bound_deterministic():
    a = verify_modulation_bound(1.0, 2, max_radius=128.0, seed=4)
    b = verify_modulation_bound(1.0, 2, max_radius=128.0, seed=4)
    assert a.ratios == b.ratios
    assert a.details["minimum"] == b.details["minimum"]


# ----------------------------------------------------------------------
# Nonresonance dichotomy
# ----------------------------------------------------------------------


def test_nonresonance_positive_branch():
    for masses in ((1.0, 1.0, 1.0), (1.0, 1.2, 1.9)):
        record = verify_nonresonance_bound(masses, 2, max_radius=32.0, seed=0)
        assert record.passed
        assert record.details["condition_holds"]
        assert record.details["minimum"] >= record.parameters["floor"]


def test_nonresonance_failing_branch_finds_zero():
    # the sum configuration with mass sums matching kills the defect at
    # the frequency origin, so the located minimum must be numerically zero
    record = verify_nonresonance_bound((1.0, 1.0, 2.0), 2, max_radius=32.0, seed=0)
    assert record.passed
    assert not record.details["condition_holds"]
    assert record.details["minimum"] <= 1e-6
    minimizer = np.asarray(record.details["minimizer_xi"] + record.details["minimizer_eta"])
    assert np.linalg.norm(minimizer) < 1e-6


def test_nonresonance_failing_branch_negative_defect():
    record = verify_nonresonance_bound((1.0, 1.0, 2.5), 2, max_radius=32.0, seed=0)
    assert record.passed
    assert not record.details["condition_holds"]
    # the raw defect dips below zero at the origin for an over-heavy output
    assert record.details["minimum"] <= 1e-6


# (1, 2, 3): the defect vanishes on the ray eta = 2 xi up to rounding, so the
# start rests on rounding-level values; (1, 1, 2): it is exactly zero at the
# origin and along xi = eta, so the first of the tied minima must win
@pytest.mark.parametrize("triple", [(1.0, 2.0, 3.0), (1.0, 1.0, 2.0)])
def test_nonresonance_scan_matches_loop_reference(triple):
    # the failure-side scan written as a plain loop over the polar grid,
    # sorted stably by |xi|^2 + |eta|^2
    dim, radius = 2, 16.0
    grid = []
    for a in np.linspace(0.0, radius, 33):
        for b in np.linspace(0.0, radius, 33):
            for theta in np.linspace(0.0, math.pi, 17):
                point = np.array([a, 0.0, b * math.cos(theta), b * math.sin(theta)])
                grid.append((a * a + b * b, point))
    grid.sort(key=lambda row: row[0])

    def objective(v):
        return resonance_function(triple, v[:dim], v[dim:])

    values = [float(objective(point)) for _, point in grid]
    start = grid[values.index(min(values))][1]
    minimizer, minimum = _coordinate_descent(objective, start)
    record = verify_nonresonance_bound(triple, dim, max_radius=radius, seed=0)
    assert record.details["minimizer_xi"] == minimizer[:dim].tolist()
    assert record.details["minimizer_eta"] == minimizer[dim:].tolist()
    assert record.ratios == (float(minimum),)


def test_nonresonance_rejects_bad_masses():
    with pytest.raises(ValueError):
        verify_nonresonance_bound((1.0, -1.0, 2.0), 2)
    with pytest.raises(ValueError):
        verify_nonresonance_bound((1.0, 1.0), 2)


# ----------------------------------------------------------------------
# Shell intersection Monte Carlo
# ----------------------------------------------------------------------


def tangential_spec(width_a=0.05, width_b=0.05, radius=32.0, tube=4.0):
    return ShellSpec(
        dim=3,
        radius_a=radius,
        radius_b=radius,
        width_a=width_a,
        width_b=width_b,
        tube_radius=tube,
        offset=(2.0 * radius, 0.0, 0.0),
    )


def test_shell_spec_validation():
    with pytest.raises(ValueError):
        ShellSpec(2, 4.0, 4.0, 0.1, 0.1, 1.0, (8.0, 0.0))
    with pytest.raises(ValueError):
        ShellSpec(3, 4.0, 4.0, 2.0, 0.1, 1.0, (8.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ShellSpec(3, 4.0, 4.0, 0.1, 0.1, 1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ShellSpec(3, 4.0, 4.0, 0.1, 0.1, 1.0, (8.0, 0.0))
    # fewer than 16 points per stratum (1024 at the default 64 strata) would
    # otherwise be raised to 16 per stratum without a word
    for samples in (0, -5, 1023):
        with pytest.raises(ValueError, match="sample"):
            shell_intersection_volume(tangential_spec(), samples=samples)


def test_shell_records_the_points_it_draws():
    # each of the 64 strata draws samples // 64 points: 2047 draws 1984,
    # while the CLI default 200000 is a multiple of 64 and is drawn in full
    spec = ShellSpec(3, 8.0, 8.0, 0.5, 0.5, 6.0, (12.0, 0.0, 0.0))
    assert shell_intersection_volume(spec, samples=2047).parameters["samples"] == 1984
    assert shell_intersection_volume(spec, samples=200_000).parameters["samples"] == 200_000


def test_shell_tangential_closed_form():
    # externally tangent equal spheres: the intersection of the thickened
    # shells is a torus-like ring of volume 2*pi*r*wa*wb, which makes the
    # ratio against r*r*wa*wb/(2r) exactly 4*pi.
    spec = tangential_spec()
    record = shell_intersection_volume(spec, samples=200_000, seed=0)
    assert record.passed
    assert not record.details["empty"]
    exact = 2.0 * math.pi * spec.radius_a * spec.width_a * spec.width_b
    assert record.details["volume"] == pytest.approx(exact, rel=0.02)
    assert record.ratios[0] == pytest.approx(4.0 * math.pi, rel=0.02)
    assert record.details["relative_error"] < 0.05


def test_shell_volume_scales_with_widths():
    thin = shell_intersection_volume(tangential_spec(0.05, 0.05), samples=150_000, seed=7)
    wide = shell_intersection_volume(tangential_spec(0.10, 0.10), samples=150_000, seed=8)
    ratio = wide.details["volume"] / thin.details["volume"]
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_shell_swap_symmetry():
    ab = shell_intersection_volume(tangential_spec(0.05, 0.10), samples=150_000, seed=5)
    ba = shell_intersection_volume(tangential_spec(0.10, 0.05), samples=150_000, seed=6)
    gap = abs(ab.details["volume"] - ba.details["volume"])
    combined = ab.details["std_error"] + ba.details["std_error"]
    assert gap < 4.0 * combined


def test_shell_empty_configuration_warns():
    # widely separated shells with a narrow tube never intersect
    spec = ShellSpec(3, 64.0, 64.0, 0.05, 0.05, 8.0, (100.0, 0.0, 0.0))
    with pytest.warns(RuntimeWarning):
        record = shell_intersection_volume(spec, samples=50_000, seed=3)
    assert record.details["empty"]
    assert record.ratios == (0.0,)
    assert record.passed


def test_shell_deterministic_per_seed():
    spec = tangential_spec()
    a = shell_intersection_volume(spec, samples=40_000, seed=9)
    b = shell_intersection_volume(spec, samples=40_000, seed=9)
    c = shell_intersection_volume(spec, samples=40_000, seed=10)
    assert a.details["volume"] == b.details["volume"]
    assert a.ratios == b.ratios
    assert a.details["volume"] != c.details["volume"]


# ----------------------------------------------------------------------
# Mode-set geometry
# ----------------------------------------------------------------------


def test_ball_mode_set_small_radius():
    pts = ball_mode_set(np.zeros(3), 1.2)
    # origin plus the six unit neighbors
    assert pts.shape == (7, 3)
    assert (np.abs(pts).sum(axis=1) <= 1).all()


def test_cap_mode_set_geometry():
    pole = np.array([1.0, 0.0, 0.0])
    pts = cap_mode_set(16.0, pole, transverse_radius=4.0, thickness=2.0)
    assert len(pts) > 0
    norms = np.linalg.norm(pts, axis=1)
    assert (np.abs(norms - 16.0) <= 1.0 + 1e-12).all()
    axial = pts @ pole
    assert (axial > 0).all()
    transverse = np.linalg.norm(pts - np.outer(axial, pole), axis=1)
    assert (transverse <= 4.0 + 1e-12).all()


def test_cap_mode_set_can_be_empty():
    pole = np.array([1.0, 0.0, 0.0])
    pts = cap_mode_set(3.5, pole, transverse_radius=0.4, thickness=0.2)
    assert len(pts) == 0


# ----------------------------------------------------------------------
# Bilinear product bounds
# ----------------------------------------------------------------------


def test_bilinear_case_validation():
    with pytest.raises(ValueError):
        BilinearCase(dim=2, low_scale=4, high_scale=16, output_scale=16)
    with pytest.raises(ValueError):
        BilinearCase(dim=3, low_scale=32, high_scale=16, output_scale=16)
    with pytest.raises(ValueError):
        BilinearCase(dim=3, low_scale=4, high_scale=16, output_scale=16, sign_a=0)
    with pytest.raises(ValueError):
        BilinearCase(dim=3, low_scale=4, high_scale=16, output_scale=16, mass_a=0.0)
    with pytest.raises(ValueError):
        BilinearCase(dim=3, low_scale=3, high_scale=16, output_scale=16)


def test_bilinear_separated_flag():
    assert BilinearCase(dim=3, low_scale=4, high_scale=16, output_scale=16).separated
    assert not BilinearCase(dim=3, low_scale=8, high_scale=16, output_scale=16).separated


def test_bilinear_separated_case_ratio_positive():
    case = BilinearCase(dim=3, low_scale=4, high_scale=64, output_scale=64,
                        trials=2, seed=0)
    record = verify_bilinear(case)
    assert record.passed
    assert all(r > 0 for r in record.ratios)
    assert all(np.isfinite(r) for r in record.ratios)


def test_bilinear_matched_case_ratio_positive():
    case = BilinearCase(dim=3, low_scale=16, high_scale=16, output_scale=4,
                        trials=2, seed=0)
    record = verify_bilinear(case)
    assert record.passed
    assert all(r > 0 for r in record.ratios)


def test_bilinear_deterministic():
    case = BilinearCase(dim=3, low_scale=4, high_scale=32, output_scale=32,
                        trials=2, seed=5)
    a = verify_bilinear(case)
    b = verify_bilinear(case)
    assert a.ratios == b.ratios


def test_bilinear_quadrature_cap_raises(monkeypatch):
    # a horizon this long needs far more time samples than the cap allows;
    # the check fails loudly, before any transform, instead of truncating
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    case = BilinearCase(3, 4, 64, 64, trials=1, horizon=1e5)
    with pytest.raises(ValueError, match="at most 4000"):
        verify_bilinear(case)


@st.composite
def padded_corners(draw):
    """A complex64 box, odd, prime or even sides, zero outside a random corner."""
    dim = draw(st.integers(1, 3))
    box = tuple(draw(st.sampled_from((1, 5, 7, 9, 11, 13, 15, 16))) for _ in range(dim))
    shape = tuple(draw(st.integers(1, side)) for side in box)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pad = np.zeros(box, dtype=np.complex64)
    corner = tuple(slice(0, s) for s in shape)
    pad[corner] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return pad, shape


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(padded_corners())
def test_pruned_fftn_is_the_unitary_fftn(case):
    pad, shape = case
    reference = np.fft.fftn(pad.astype(np.complex128), norm="ortho")
    single = np.fft.fftn(pad, norm="ortho")
    out = _pruned_fftn(pad, shape)
    assert out is pad and out.dtype == np.complex64
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(out - reference)) <= 1e-6 * scale
    # the same axis order as numpy's single-precision fftn: the same bits
    assert np.array_equal(out, single)


def reference_space_time_l2(modes_a, amps_a, omega_a, modes_b, amps_b, omega_b,
                            output_scale, horizon):
    """The product's space-time mass in complex128 over the whole padded box."""
    osc_a = omega_a - omega_a.mean()
    osc_b = omega_b - omega_b.mean()
    spread = np.ptp(osc_a) + np.ptp(osc_b)
    nt = max(9, math.ceil(horizon * spread / (2 * math.pi) * 4.0) + 1)
    times = np.linspace(0.0, horizon, nt)
    lo_a, lo_b = modes_a.min(axis=0), modes_b.min(axis=0)
    box = tuple((modes_a - lo_a).max(axis=0) + (modes_b - lo_b).max(axis=0) + 1)
    freqs = np.indices(box) + (lo_a + lo_b).reshape((-1,) + (1,) * len(box))
    weight = annulus_profile(np.sqrt(np.sum(freqs**2.0, axis=0)) / output_scale)
    masses = []
    for t in times:
        pad_a = np.zeros(box, dtype=complex)
        pad_b = np.zeros(box, dtype=complex)
        pad_a[tuple((modes_a - lo_a).T)] = amps_a * np.exp(1j * t * osc_a)
        pad_b[tuple((modes_b - lo_b).T)] = amps_b * np.exp(1j * t * osc_b)
        conv = np.fft.ifftn(np.fft.fftn(pad_a) * np.fft.fftn(pad_b))
        masses.append(np.sum(weight**2 * np.abs(conv) ** 2))
    inner = np.sum(masses[1:-1]) + 0.5 * (masses[0] + masses[-1])
    return math.sqrt((times[1] - times[0]) * inner)


@pytest.mark.parametrize("separated", [True, False], ids=["separated", "matched"])
def test_bilinear_product_matches_a_double_precision_reference(separated):
    rng = np.random.default_rng(3)
    if separated:
        modes_a = ball_mode_set(4.0 * np.array([0.6, 0.8, 0.0]), 1.2)
        modes_b = ball_mode_set(16.0 * np.array([0.0, 0.0, 1.0]), 1.2)
        output, horizon = 16.0, 2.0
    else:
        pole = np.array([2.0, 1.0, 2.0]) / 3.0
        modes_a = cap_mode_set(16.0, pole, 4.0, 2.0)
        modes_b = cap_mode_set(16.0, -pole, 4.0, 2.0)
        output, horizon = 4.0, 6.0
    amps_a = rng.uniform(0.5, 1.0, len(modes_a))
    amps_b = rng.uniform(0.5, 1.0, len(modes_b))
    args = (modes_a, amps_a, bracket(1.0, modes_a),
            modes_b, amps_b, -bracket(1.0, modes_b), output, horizon)
    expected = reference_space_time_l2(*args)
    assert expected > 0
    assert _bilinear_space_time_l2(*args) == pytest.approx(expected, rel=1e-5, abs=0.0)


def test_bilinear_never_takes_the_double_precision_fftn(monkeypatch):
    # a complex64 np.fft.fftn with the default norm runs in complex128; the
    # product transforms through _pruned_fftn and norm="ortho" only
    def no_fftn(*args, **kwargs):
        raise AssertionError("np.fft.fftn ran")

    monkeypatch.setattr(np.fft, "fftn", no_fftn)
    for case in (BilinearCase(3, 4, 32, 32, trials=1), BilinearCase(3, 16, 16, 4, trials=1)):
        assert all(r > 0 for r in verify_bilinear(case).ratios)


def test_bilinear_refuses_boxes_larger_than_memory(monkeypatch):
    # both factors are balls of radius 1.2: seven modes in a 3^3 box, so the
    # padded box holds 5^3 entries at 35 bytes each, 4375 bytes in all
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran")

    case = BilinearCase(3, 4, 16, 16, trials=1)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 4374)
    monkeypatch.setattr(np.fft, "fft", no_fft)
    with pytest.raises(MemoryError, match="bilinear padded boxes"):
        verify_bilinear(case)
    monkeypatch.undo()
    monkeypatch.setattr(grid, "_physical_memory", lambda: 4375)
    assert verify_bilinear(case).ratios[0] > 0


def test_bilinear_sweep_separated_small():
    record = bilinear_sweep(dim=3, mode="separated", trials=1, seed=0,
                            high_scale=64, scales=(2, 4, 8))
    assert record.passed
    live = [r for r in record.ratios if r > 0]
    assert live
    assert max(live) / min(live) <= 4.0


def test_bilinear_sweep_matched_small():
    record = bilinear_sweep(dim=3, mode="matched", trials=1, seed=0,
                            scales=(8, 16, 32))
    assert record.passed
    live = [r for r in record.ratios if r > 0]
    assert live
    assert max(live) / min(live) <= 4.0


def test_bilinear_sweep_rejects_unknown_mode():
    with pytest.raises(ValueError):
        bilinear_sweep(dim=3, mode="diagonal")


# ----------------------------------------------------------------------
# Strichartz admissibility
# ----------------------------------------------------------------------


def test_strichartz_klein_gordon_examples():
    ok, loss = strichartz_admissible(2, 4, 4, "kg")
    assert ok and loss == pytest.approx(0.5)
    ok, loss = strichartz_admissible(3, 8.0 / 3.0, 4, "kg")
    assert ok and loss == pytest.approx(5.0 / 8.0)


def test_strichartz_wave_examples():
    ok, loss = strichartz_admissible(4, 8.0 / 3.0, 4, "wave")
    assert ok and loss == pytest.approx(5.0 / 8.0)
    ok, _ = strichartz_admissible(3, math.inf, 2, "wave")
    assert not ok


def test_strichartz_energy_endpoint():
    # q = inf, r = 2 satisfies the scaling relation but is excluded
    ok, loss = strichartz_admissible(3, math.inf, 2, "kg")
    assert not ok
    assert loss == pytest.approx(0.0)


def test_strichartz_loss_is_exact_fraction():
    from fractions import Fraction

    ok, loss = strichartz_admissible(3, Fraction(8, 3), 4, "kg")
    assert ok
    assert isinstance(loss, Fraction)
    assert loss == Fraction(5, 8)


def test_strichartz_validation():
    with pytest.raises(ValueError):
        strichartz_admissible(3, 4, 1.5, "kg")
    with pytest.raises(ValueError):
        strichartz_admissible(3, 4, math.inf, "kg")
    with pytest.raises(ValueError):
        strichartz_admissible(3, 4, 4, "schrodinger")
    with pytest.raises(ValueError):
        strichartz_admissible(0, 4, 4, "kg")
    # q = 0, also as a float that snaps to zero, has no 1/q
    for q in (0, 0.0, 1e-9):
        with pytest.raises(ValueError, match="q must be"):
            strichartz_admissible(3, q, 4, "kg")


# ----------------------------------------------------------------------
# Trilinear interaction bound
# ----------------------------------------------------------------------


def test_trilinear_passes_at_moderate_scales():
    record = verify_trilinear(64, 64, 4, trials=8, seed=7)
    assert record.passed
    assert all(np.isfinite(r) and r >= 0 for r in record.ratios)
    # normalized interactions stay far below one
    assert max(record.ratios) < 0.1


def test_trilinear_stable_across_seeds():
    for seed in (7, 101):
        record = verify_trilinear(64, 64, 8, trials=8, seed=seed)
        assert record.passed


def test_trilinear_low_scale_sweep_bounded():
    tops = []
    for low in (1, 4, 16):
        record = verify_trilinear(64, 64, low, trials=4, seed=0)
        tops.append(max(record.ratios))
    assert all(t < 0.1 for t in tops)


def test_trilinear_no_matches_gives_zero():
    # one mode per set almost never closes a frequency triangle
    record = verify_trilinear(64, 64, 2, trials=4, seed=0, max_modes=1)
    assert record.ratios == (0.0,) * 4
    assert record.passed


def test_trilinear_validation():
    with pytest.raises(ValueError):
        verify_trilinear(64, 16, 4)
    with pytest.raises(ValueError):
        verify_trilinear(64, 64, 4, signs=(1, 2, -1))
    with pytest.raises(ValueError):
        verify_trilinear(64, 64, 4, dim=1)
    # no trials would be an empty record that passes
    with pytest.raises(ValueError, match="trial"):
        verify_trilinear(64, 64, 4, trials=0)


def reference_match(low_modes, mate_modes, high_modes):
    """The sorted-code matcher: pack -(l + m) and search the sorted high codes."""
    def pack(points, mins, spans):
        weights = np.cumprod(np.concatenate([[1], spans[:-1]]))
        return (points - mins) @ weights.astype(np.int64)

    dim = low_modes.shape[1]
    need_lo = -(low_modes.max(axis=0) + mate_modes.max(axis=0))
    need_hi = -(low_modes.min(axis=0) + mate_modes.min(axis=0))
    mins = np.minimum(high_modes.min(axis=0), need_lo)
    spans = np.maximum(high_modes.max(axis=0), need_hi) - mins + 1
    high_codes = pack(high_modes, mins, spans)
    order = np.argsort(high_codes)
    high_sorted = high_codes[order]
    need = -(low_modes[:, None, :] + mate_modes[None, :, :]).reshape(-1, dim)
    inside = np.all((need >= mins) & (need < mins + spans), axis=1)
    codes = pack(need[inside], mins, spans)
    pos = np.clip(np.searchsorted(high_sorted, codes), 0, len(high_sorted) - 1)
    found = high_sorted[pos] == codes
    flat_idx = np.nonzero(inside)[0][found]
    return flat_idx // len(mate_modes), flat_idx % len(mate_modes), order[pos[found]]


@st.composite
def interaction_sets(draw):
    """Unique low, mate and high points, each in its own box per axis.

    The boxes are drawn per set and per axis, so the range of -(l + m) is
    wider than the high range on some axes and narrower on others; part of
    the high set is made of pair sums so that matches occur.
    """
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unique_points(count):
        lo = np.array([draw(st.integers(-12, 12)) for _ in range(dim)])
        extent = np.array([draw(st.integers(1, 12)) for _ in range(dim)])
        pts = lo + rng.integers(0, extent, size=(count, dim))
        return rng.permutation(np.unique(pts, axis=0))

    low = unique_points(draw(st.integers(1, 40)))
    mate = unique_points(draw(st.integers(1, 40)))
    high = unique_points(draw(st.integers(1, 40)))
    picks = draw(st.integers(0, 20))
    sums = -(low[rng.integers(0, len(low), picks)] + mate[rng.integers(0, len(mate), picks)])
    high = rng.permutation(np.unique(np.concatenate([high, sums]), axis=0))
    return low, mate, high


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(interaction_sets())
def test_match_interactions_equals_the_sorted_code_matcher(sets):
    low, mate, high = sets
    got = _match_interactions(low, mate, high)
    expected = reference_match(low, mate, high)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)
    i_low, i_mate, third = got
    assert not np.any(low[i_low] + mate[i_mate] + high[third])


def test_match_interactions_refuses_tables_larger_than_memory(monkeypatch):
    # -(l + m) spans x in [-3, -2] and the high modes x in [-2, 1]: the table
    # covers the 5 x 1 box [-3, 1] x [0, 0], and 1 x 2 pairs are coded
    low = np.array([[0, 0]])
    mate = np.array([[2, 0], [3, 0]])
    high = np.array([[-2, 0], [1, 0]])
    need = harness._TABLE_BYTES * 5 + harness._PAIR_BYTES * 2

    def no_full(*args, **kwargs):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(grid, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(np, "full", no_full)
    with pytest.raises(MemoryError, match="trilinear code table"):
        _match_interactions(low, mate, high)
    monkeypatch.undo()
    monkeypatch.setattr(grid, "_physical_memory", lambda: need)
    i_low, i_mate, third = _match_interactions(low, mate, high)
    assert (i_low.tolist(), i_mate.tolist(), third.tolist()) == ([0], [0], [0])


def test_trilinear_peak_memory_stays_small():
    # 1.44M (low, mate) pairs: coded and looked up they peak near 23 MiB;
    # materialising their pair sums peaked at 145 MiB on this call
    tracemalloc.start()
    try:
        verify_trilinear(64, 64, 8, trials=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


# ----------------------------------------------------------------------
# Record plumbing
# ----------------------------------------------------------------------


def test_verification_record_fields():
    record = VerificationRecord(
        name="demo",
        parameters={"a": 1},
        ratios=(1.0, 2.0),
        bound="one",
        passed=True,
    )
    assert record.seed is None
    assert record.details == {}
