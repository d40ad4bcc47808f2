"""Tests for the inequality verification harness.

Expected values were computed from closed forms (Strauss exponent,
tangential shell contact) or frozen from
seeded runs of the independent geometric oracles in this file.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from conftest import loop_frequency_pairs, smallest_bracket
from halfwave import grid, harness
from halfwave.grid import _axis_passes, annulus_profile
from halfwave.harness import (
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
)
from halfwave.system import bracket, resonance_function


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


def test_modulation_bound_needs_the_first_rung_of_the_radius_ladder():
    # the ladder is 0, 1, 2, 4, ... up to max_radius: below 1 it has no rung
    # on both sides of the mass dichotomy: (1, 1, 2.5) fails the condition
    for radius in (0.0, 0.5, -4.0):
        with pytest.raises(ValueError, match="max_radius must be at least 1"):
            verify_modulation_bound(1.0, 2, max_radius=radius)
        for triple in ((1.0, 1.0, 1.0), (1.0, 1.0, 2.5)):
            with pytest.raises(ValueError, match="max_radius must be at least 1"):
                verify_nonresonance_bound(triple, 2, max_radius=radius)
    record = verify_modulation_bound(1.0, 2, max_radius=1.0)
    assert record.passed and record.details["samples"] > 2


def test_resonance_sweeps_need_a_direction():
    # each rung pair draws at least one direction, on both sides of the dichotomy
    for directions in (0, -1):
        with pytest.raises(ValueError, match="directions must be at least 1"):
            verify_modulation_bound(1.0, 2, max_radius=8.0, directions=directions)
        for triple in ((1.0, 1.0, 1.0), (1.0, 1.0, 2.5)):
            with pytest.raises(ValueError, match="directions must be at least 1"):
                verify_nonresonance_bound(triple, 2, max_radius=8.0, directions=directions)
    assert verify_modulation_bound(1.0, 2, max_radius=8.0, directions=1).passed


def test_modulation_bound_rejects_bad_dimension():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension"):
            verify_modulation_bound(1.0, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "max_radius, directions, seed", [(1, 1, 0), (3.5, 8, 1), (64, 31, 7), (1024, 64, 123)]
)
def test_frequency_pairs_match_the_loop_reference(dim, max_radius, directions, seed):
    # the same pairs, bit for bit, in the same order as one pair at a time
    got = harness._frequency_pairs(dim, max_radius, directions, seed)
    want = loop_frequency_pairs(dim, max_radius, directions, seed)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_frequency_pair_estimate_covers_the_peak(dim, monkeypatch):
    # 12 rungs squared times 300 draws, about 4.3e4 pairs
    checked = []
    monkeypatch.setattr(harness, "_require_memory", lambda *args: checked.append(args))
    harness._frequency_pairs(dim, 4, 8, 0)  # first uses allocate once
    tracemalloc.start()
    try:
        xi, eta = harness._frequency_pairs(dim, 1024, 2400, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes, what = checked[-1]
    assert what == f"{len(xi)} frequency pairs"
    assert xi.nbytes + eta.nbytes < peak <= nbytes


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


def tangential_shells(width=0.05, radius=32.0, tube=4.0, **kwargs):
    """Externally tangent equal shells: the second is centered at twice the radius."""
    return shell_intersection_volume(3, radius, width, tube, 2.0 * radius, **kwargs)


def test_shell_spec_validation():
    with pytest.raises(ValueError, match="dimension"):
        shell_intersection_volume(2, 4.0, 0.1, 1.0, 8.0)
    with pytest.raises(ValueError, match="positive"):
        shell_intersection_volume(3, 4.0, 0.1, 0.0, 8.0)
    with pytest.raises(ValueError, match="widths"):
        shell_intersection_volume(3, 4.0, 2.0, 1.0, 8.0)
    with pytest.raises(ValueError, match="nonzero"):
        shell_intersection_volume(3, 4.0, 0.1, 1.0, 0.0)
    # fewer than 16 points per stratum (1024 at 64 strata) would
    # otherwise be raised to 16 per stratum without a word
    for samples in (0, -5, 1023):
        with pytest.raises(ValueError, match="sample"):
            tangential_shells(samples=samples)


class Drew(Exception):
    """Raised by a patched random generator: the Monte Carlo reached its first draw."""


def test_shell_refuses_strata_larger_than_memory(monkeypatch):
    # 49 bytes per stratum point; the generator is never built past the check
    def refuse(seed):
        raise Drew

    per = 10**9
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 49 * per - 1)
    with pytest.raises(MemoryError, match="points of each shell stratum"):
        tangential_shells(samples=64 * per)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 49 * per)
    with pytest.raises(Drew):
        tangential_shells(samples=64 * per)


def test_shell_memory_estimate_covers_the_peak():
    per = 50_000
    tangential_shells(samples=2048)  # the generator's first use allocates once
    tracemalloc.start()
    try:
        tangential_shells(samples=64 * per)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= harness._SHELL_POINT_BYTES * per + 2**16


def test_shell_records_the_points_it_draws():
    # each of the 64 strata draws samples // 64 points: 2047 draws 1984,
    # while the CLI default 200000 is a multiple of 64 and is drawn in full
    for samples, drawn in ((2047, 1984), (200_000, 200_000)):
        record = shell_intersection_volume(3, 8.0, 0.5, 6.0, 12.0, samples=samples)
        assert record.parameters["samples"] == drawn


def test_shell_tangential_closed_form():
    # externally tangent equal spheres: the intersection of the thickened
    # shells is a torus-like ring of volume 2*pi*r*wa*wb, which makes the
    # ratio against r*r*wa*wb/(2r) exactly 4*pi.
    record = tangential_shells(samples=200_000, seed=0)
    assert record.passed
    assert not record.details["empty"]
    exact = 2.0 * math.pi * 32.0 * 0.05 * 0.05
    assert record.details["volume"] == pytest.approx(exact, rel=0.02)
    assert record.ratios[0] == pytest.approx(4.0 * math.pi, rel=0.02)
    assert record.details["relative_error"] < 0.05


def test_shell_volume_scales_with_widths():
    thin = tangential_shells(0.05, samples=150_000, seed=7)
    wide = tangential_shells(0.10, samples=150_000, seed=8)
    ratio = wide.details["volume"] / thin.details["volume"]
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_shell_empty_configuration_warns():
    # widely separated shells with a narrow tube never intersect
    with pytest.warns(RuntimeWarning):
        record = shell_intersection_volume(3, 64.0, 0.05, 8.0, 100.0, samples=50_000, seed=3)
    assert record.details["empty"]
    assert record.ratios == (0.0,)
    assert record.passed


def test_shell_deterministic_per_seed():
    a = tangential_shells(samples=40_000, seed=9)
    b = tangential_shells(samples=40_000, seed=9)
    c = tangential_shells(samples=40_000, seed=10)
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


def test_mode_boxes_refuse_boxes_larger_than_memory(monkeypatch):
    # a ball of radius 2 in dimension 3 is cut from the 5^3 box, 125 points
    # at 64 bytes each; the cap of transverse radius 4 from the 15^3 box
    need = 125 * harness._integer_box_bytes(3)

    def no_meshgrid(*args, **kwargs):
        raise AssertionError("the box was allocated")

    monkeypatch.setattr(grid, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(np, "meshgrid", no_meshgrid)
    with pytest.raises(MemoryError, match="125 points of the integer mode box"):
        ball_mode_set(np.zeros(3), 2.0)
    with pytest.raises(MemoryError, match="3375 points"):
        cap_mode_set(16.0, np.array([1.0, 0.0, 0.0]), 4.0)
    monkeypatch.undo()
    monkeypatch.setattr(grid, "_physical_memory", lambda: need)
    assert len(ball_mode_set(np.zeros(3), 2.0)) == 33


def test_mode_box_estimate_covers_the_peak():
    # a cap cut from the 39^3 box: the estimate holds to 0.2% at this size
    pole = np.array([1.0, 2.0, 2.0]) / 3.0
    tracemalloc.start()
    try:
        cap_mode_set(64.0, pole, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 39**3 * harness._integer_box_bytes(3)


# ----------------------------------------------------------------------
# Bilinear product bounds
# ----------------------------------------------------------------------


def test_bilinear_case_validation():
    # arguments: dim, low, high and output scales, trials, seed
    with pytest.raises(ValueError, match="dimension"):
        verify_bilinear(2, 4, 16, 16, 1, 0)
    with pytest.raises(ValueError, match="low scale"):
        verify_bilinear(3, 32, 16, 16, 1, 0)
    with pytest.raises(ValueError, match="power of two"):
        verify_bilinear(3, 3, 16, 16, 1, 0)
    with pytest.raises(ValueError, match="positive dyadic"):
        verify_bilinear(3, 0, 16, 16, 1, 0)
    with pytest.raises(ValueError, match="trial"):
        verify_bilinear(3, 4, 16, 16, 0, 0)


def test_bilinear_separated_flag():
    assert verify_bilinear(3, 4, 16, 16, 1, 0).parameters["separated"]
    assert not verify_bilinear(3, 8, 16, 16, 1, 0).parameters["separated"]


def test_bilinear_separated_case_ratio_positive():
    record = verify_bilinear(3, 4, 64, 64, trials=2, seed=0)
    assert record.passed
    assert all(r > 0 for r in record.ratios)
    assert all(np.isfinite(r) for r in record.ratios)


def test_bilinear_matched_case_ratio_positive():
    record = verify_bilinear(3, 16, 16, 4, trials=2, seed=0)
    assert record.passed
    assert all(r > 0 for r in record.ratios)


def test_bilinear_deterministic():
    a = verify_bilinear(3, 4, 32, 32, trials=2, seed=5)
    b = verify_bilinear(3, 4, 32, 32, trials=2, seed=5)
    assert a.ratios == b.ratios


def test_bilinear_quadrature_cap_raises(monkeypatch):
    # the separated window of 2 needs at least 9 time samples, more than a
    # cap of 8 allows; the check fails loudly, before any transform, instead
    # of truncating
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(harness, "_MAX_TIME_SAMPLES", 8)
    with pytest.raises(ValueError, match="at most 8"):
        verify_bilinear(3, 4, 64, 64, trials=1, seed=0)


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
    # axis d only on the lines whose earlier axes lie in the corner, last axis first
    views = [[tuple(map(slice, shape[:d]))] for d in range(pad.ndim)]
    _axis_passes(pad, np.fft.fft, views, reversed(range(pad.ndim)))
    assert pad.dtype == np.complex64
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(pad - reference)) <= 1e-6 * scale
    # the same axis order as numpy's single-precision fftn: the same bits
    assert np.array_equal(pad, single)


def reference_space_time_l2(modes_a, amps_a, omega_a, modes_b, amps_b, omega_b,
                            output_scale, horizon, fine=False):
    """The product's space-time mass in complex128 over the whole padded box.

    In time, the trapezoid rule on the kernel's nt samples or, if fine,
    numpy's Gauss-Legendre rule with nt + 40 nodes."""
    osc_a = omega_a - omega_a.mean()
    osc_b = omega_b - omega_b.mean()
    spread = np.ptp(osc_a) + np.ptp(osc_b)
    nt = max(9, math.ceil(horizon * spread / (2 * math.pi) * 4.0) + 1)
    if fine:
        nodes, weights = leggauss(nt + 40)
        times, weights = horizon * (nodes + 1) / 2, horizon * weights / 2
    else:
        times = np.linspace(0.0, horizon, nt)
        weights = np.full(nt, times[1] - times[0])
        weights[[0, -1]] /= 2
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
    return math.sqrt(np.dot(masses, weights))


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
    # both factors are + waves of mass 1
    expected = reference_space_time_l2(modes_a, amps_a, bracket(1.0, modes_a),
                                       modes_b, amps_b, bracket(1.0, modes_b),
                                       output, horizon)
    assert expected > 0
    value = _bilinear_space_time_l2(modes_a, amps_a, modes_b, amps_b, output, horizon)
    assert value == pytest.approx(expected, rel=1e-5, abs=0.0)


def gauss_rules(monkeypatch):
    """The node counts of the Gauss-Legendre rules taken from now on."""
    counts, real = [], harness._gauss_legendre
    monkeypatch.setattr(harness, "_gauss_legendre", lambda n, T: counts.append(n) or real(n, T))
    return counts


def test_gauss_legendre_nodes_match_leggauss():
    # the cap of 4000 trapezoid samples allows at most 2004 nodes; from about
    # 1600 nodes on leggauss's own edge weights are off by up to 1.4e-13
    # (against 40-digit mpmath), while these stay within 2e-16
    for n in list(range(1, 65)) + [harness._MAX_TIME_SAMPLES // 2 + 4]:
        nodes, weights = harness._gauss_legendre(n, 2.0)
        expected_nodes, expected_weights = leggauss(n)
        assert np.max(np.abs(nodes - 1.0 - expected_nodes)) <= 1e-13
        assert np.max(np.abs(weights - expected_weights)) <= 1e-13


def long_separated_case():
    """Balls of radius 1.2 at 4 and 16, over a window of 24: 56 trapezoid samples."""
    modes_a = ball_mode_set(4.0 * np.array([0.6, 0.8, 0.0]), 1.2)
    modes_b = ball_mode_set(16.0 * np.array([0.0, 0.0, 1.0]), 1.2)
    return modes_a, modes_b, 16.0, 24.0


def long_matched_case():
    """Antipodal caps at 16 through the annulus at 4, over a window of 18: 47 samples."""
    pole = np.array([2.0, 1.0, 2.0]) / 3.0
    return cap_mode_set(16.0, pole, 4.0, 2.0), cap_mode_set(16.0, -pole, 4.0, 2.0), 4.0, 18.0


@pytest.mark.parametrize("case", [long_separated_case, long_matched_case],
                         ids=["separated", "matched"])
def test_gauss_legendre_cases_match_a_fine_reference(monkeypatch, case):
    # the trapezoid misses these by 1.3e-5 and 6.7e-5; nt // 3 nodes miss the
    # matched case by 2.6e-6, and nt // 4 both, by 9.7e-5 and 6.3e-3
    modes_a, modes_b, output, horizon = case()
    rng = np.random.default_rng(7)
    amps_a = rng.uniform(0.5, 1.0, len(modes_a))
    amps_b = rng.uniform(0.5, 1.0, len(modes_b))
    expected = reference_space_time_l2(modes_a, amps_a, bracket(1.0, modes_a),
                                       modes_b, amps_b, bracket(1.0, modes_b),
                                       output, horizon, fine=True)
    rules = gauss_rules(monkeypatch)
    value = _bilinear_space_time_l2(modes_a, amps_a, modes_b, amps_b, output, horizon)
    assert len(rules) == 1
    assert value == pytest.approx(expected, rel=1e-6, abs=0.0)


def test_a_gauss_legendre_case_is_capped_on_its_trapezoid_samples(monkeypatch):
    # SPLIT_CASE would take 41 trapezoid samples and takes 24 nodes; the cap
    # counts the 41, so a configuration is refused where it was before
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran")

    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(harness, "_MAX_TIME_SAMPLES", 40)
    with pytest.raises(ValueError, match="needs 41 samples, at most 40 are allowed"):
        verify_bilinear(*SPLIT_CASE, trials=1, seed=0)
    monkeypatch.setattr(np.fft, "fft", fft)
    monkeypatch.setattr(harness, "_MAX_TIME_SAMPLES", 41)
    rules = gauss_rules(monkeypatch)
    assert verify_bilinear(*SPLIT_CASE, trials=1, seed=0).ratios[0] > 0
    assert rules == [24]


def test_a_gauss_legendre_case_loads_no_numpy_polynomial():
    # leggauss, through numpy.polynomial and numpy.linalg's eigensolver,
    # raised the bilinear command's peak RSS by 1.75 MiB; a fresh process
    # keeps the test's own imports out of sys.modules
    script = """
import sys
from halfwave import harness
counts, real = [], harness._gauss_legendre
harness._gauss_legendre = lambda n, T: counts.append(n) or real(n, T)
harness.verify_bilinear(3, 32, 128, 128, 1, 0)
print(len(counts), sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "[]"]


def test_bilinear_never_takes_the_double_precision_fftn(monkeypatch):
    # a complex64 np.fft.fftn with the default norm runs in complex128; the
    # product transforms through _axis_passes and norm="ortho" only
    def no_fftn(*args, **kwargs):
        raise AssertionError("np.fft.fftn ran")

    monkeypatch.setattr(np.fft, "fftn", no_fftn)
    for scales in ((4, 32, 32), (16, 16, 4)):
        assert all(r > 0 for r in verify_bilinear(3, *scales, trials=1, seed=0).ratios)


def test_bilinear_refuses_boxes_larger_than_memory(monkeypatch):
    # both factors are balls of radius 1.2: seven modes in a 3^3 box, so the
    # padded box holds 5^3 entries at 35 bytes each, and the 14 modes take 64
    # bytes each on top of a fixed 16 KiB: 21655 bytes in all. The integer
    # boxes the balls are cut from are larger, so their own check
    # (test_mode_boxes_refuse_boxes_larger_than_memory) is switched off
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran")

    fft = np.fft.fft
    monkeypatch.setattr(harness, "_integer_box_bytes", lambda dim: 0)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 21654)
    monkeypatch.setattr(np.fft, "fft", no_fft)
    with pytest.raises(MemoryError, match="bilinear padded boxes"):
        verify_bilinear(3, 4, 16, 16, trials=1, seed=0)
    monkeypatch.setattr(np.fft, "fft", fft)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 21655)
    assert verify_bilinear(3, 4, 16, 16, trials=1, seed=0).ratios[0] > 0


# ----------------------------------------------------------------------
# the bilinear product's time samples on a worker thread
# ----------------------------------------------------------------------

# the separated case at low scale 32: two balls of radius 8, 17^3 boxes, so
# the padded box holds 33^3 entries, twice the gate; 41 trapezoid samples, so
# the time integral takes 24 Gauss-Legendre nodes
SPLIT_CASE = (3, 32, 256, 256)
# the matched case at scale 32, on the trapezoid's 17 samples; at seed 0 its
# second trial pads to 19,251 entries, above the gate
MATCHED_SPLIT_CASE = (3, 32, 32, 8)


def cores(monkeypatch, n):
    monkeypatch.setattr(grid.os, "sched_getaffinity", lambda pid: set(range(n)))


def traced_transforms(monkeypatch, hook=lambda: None):
    """Names of the threads that transform a pad from now on; each first calls hook."""
    names = []
    real = harness._axis_passes

    def traced(*args):
        names.append(threading.current_thread().name)
        hook()
        return real(*args)

    monkeypatch.setattr(harness, "_axis_passes", traced)
    return names


def on_the_worker():
    return threading.current_thread() is not threading.main_thread()


def test_split_bilinear_equals_a_one_core_run(monkeypatch):
    interval = sys.getswitchinterval()
    # the threads hand the interpreter lock over as often as they can
    sys.setswitchinterval(1e-6)
    try:
        for case, trials, nodes in ((SPLIT_CASE, 1, [24]), (MATCHED_SPLIT_CASE, 2, [])):
            runs = {}
            for n in (1, 2):
                cores(monkeypatch, n)
                names = traced_transforms(monkeypatch)
                rules = gauss_rules(monkeypatch)
                runs[n] = verify_bilinear(*case, trials=trials, seed=0).ratios
                monkeypatch.undo()
                assert len(set(names)) == n and rules == nodes
            assert runs[1] == runs[2]
    finally:
        sys.setswitchinterval(interval)


def test_bilinear_below_the_gate_starts_no_thread(monkeypatch):
    # the separated case at low scale 4: a 9^3 padded box
    cores(monkeypatch, 2)
    before, counts = threading.active_count(), []
    traced_transforms(monkeypatch, lambda: counts.append(threading.active_count()))
    verify_bilinear(3, 4, 32, 32, trials=1, seed=0)
    assert counts and set(counts) == {before}


def test_no_bilinear_worker_outlives_the_call(monkeypatch):
    cores(monkeypatch, 2)
    before = threading.active_count()
    names = traced_transforms(monkeypatch)
    verify_bilinear(*SPLIT_CASE, trials=1, seed=0)
    assert threading.active_count() == before and len(set(names)) == 2

    def fail():
        raise RuntimeError("transform failed")

    traced_transforms(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="transform failed"):
        verify_bilinear(*SPLIT_CASE, trials=1, seed=0)
    assert threading.active_count() == before
    monkeypatch.setattr(harness, "_MAX_TIME_SAMPLES", 8)
    with pytest.raises(ValueError, match="at most 8"):
        verify_bilinear(*SPLIT_CASE, trials=1, seed=0)
    assert threading.active_count() == before


def test_the_bilinear_worker_keeps_the_callers_errstate(monkeypatch):
    # a float32 overflow on the worker alone; on a worker that did not copy
    # the caller's context, numpy would only warn
    def overflow():
        if on_the_worker():
            np.float32(3e38) * np.float32(10.0)

    cores(monkeypatch, 2)
    traced_transforms(monkeypatch, overflow)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        verify_bilinear(*SPLIT_CASE, trials=1, seed=0)


def test_an_error_in_the_bilinear_worker_reaches_the_caller(monkeypatch):
    def fail():
        if on_the_worker():
            raise RuntimeError("the worker failed")

    cores(monkeypatch, 2)
    traced_transforms(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="the worker failed"):
        verify_bilinear(*SPLIT_CASE, trials=1, seed=0)


@pytest.mark.parametrize("n", [1, 2], ids=["one-core", "split"])
def test_bilinear_memory_estimate_covers_the_peak(monkeypatch, n):
    cores(monkeypatch, n)
    names = traced_transforms(monkeypatch)
    verify_bilinear(*SPLIT_CASE, trials=1, seed=0)  # the first split imports its pool
    names.clear()
    real = harness._bilinear_space_time_l2
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            value = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return value

    monkeypatch.setattr(harness, "_bilinear_space_time_l2", traced)
    verify_bilinear(*SPLIT_CASE, trials=1, seed=0)
    assert len(set(names)) == n
    assert 33**3 >= harness._SPLIT_ENTRIES
    assert peaks[0] <= harness._BOX_BYTES[True] * 33**3


def full_cube(n, corner):
    axis = np.arange(n) + corner
    return np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")], axis=1)


@pytest.mark.parametrize("n", [1, 2], ids=["one-core", "split"])
def test_bilinear_memory_estimate_covers_mode_dense_boxes(monkeypatch, n):
    # two full cubes of modes pad to (2 side - 1)^3 entries, 0.27 modes an
    # entry, from below the gate (17^3, 25^3) to above it (29^3, 33^3); the
    # separated case at low scale 16 pads two 9^3 balls to 17^3
    cores(monkeypatch, n)
    verify_bilinear(*SPLIT_CASE, trials=1, seed=0)  # the first split imports its pool
    estimates, peaks = [], []
    require, real = harness._require_memory, harness._bilinear_space_time_l2

    def recorded(nbytes, what):
        if what == "the bilinear padded boxes":
            estimates.append(nbytes)
        return require(nbytes, what)

    def traced(*args):
        tracemalloc.start()
        try:
            value = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return value

    monkeypatch.setattr(harness, "_require_memory", recorded)
    monkeypatch.setattr(harness, "_bilinear_space_time_l2", traced)
    names = traced_transforms(monkeypatch)
    rng = np.random.default_rng(0)
    for side in range(9, 18, 2):
        amps = rng.random(side**3)
        harness._bilinear_space_time_l2(
            full_cube(side, -(side // 2)), amps, full_cube(side, 30), amps, 32.0, 0.5
        )
    verify_bilinear(3, 16, 128, 128, trials=1, seed=0)
    assert len(peaks) == len(estimates) == 6
    assert (set(names) == {"MainThread"}) == (n == 1)
    assert all(peak <= estimate for peak, estimate in zip(peaks, estimates))


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


def test_trilinear_no_matches_gives_zero(monkeypatch):
    # one mode per set almost never closes a frequency triangle
    monkeypatch.setattr(harness, "_MAX_MODES", 1)
    record = verify_trilinear(64, 64, 2, trials=4, seed=0)
    assert record.ratios == (0.0,) * 4
    assert record.passed


def test_trilinear_validation():
    with pytest.raises(ValueError):
        verify_trilinear(64, 16, 4)
    with pytest.raises(ValueError):
        verify_trilinear(64, 64, 4, dim=1)
    # no trials would be an empty record that passes, and so would a
    # horizon of 0, which makes every ratio 0
    with pytest.raises(ValueError, match="trial"):
        verify_trilinear(64, 64, 4, trials=0)
    for horizon in (0.0, -1.0):
        with pytest.raises(ValueError, match="horizon"):
            verify_trilinear(64, 64, 4, horizon=horizon)


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


def matched_blocks(low, mate, high, sides=1):
    """The matcher's blocks as lists of (i_low, i_mate, third)."""
    return list(_match_interactions(low, mate, high, sides))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(interaction_sets())
def test_match_interactions_equals_the_sorted_code_matcher(sets):
    low, mate, high = sets
    expected = reference_match(low, mate, high)
    # the measured block, then blocks of 1 and 3 rows of pairs, whose edges
    # fall inside the sets
    for rows in (None, 1, 3):
        block = harness._BLOCK_PAIRS if rows is None else rows * len(mate)
        with mock.patch.object(harness, "_BLOCK_PAIRS", block):
            blocks = matched_blocks(low, mate, high)
        per_block = rows or len(low)
        assert len(blocks) == -(-len(low) // per_block)
        for start, (i_low, _, _) in zip(range(0, len(low), per_block), blocks):
            assert np.all((start <= i_low) & (i_low < start + per_block))
        got = [np.concatenate(arrays) for arrays in zip(*blocks)]
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            assert np.array_equal(g, e)
        i_low, i_mate, third = got
        assert not np.any(low[i_low] + mate[i_mate] + high[third])


def test_match_interactions_refuses_tables_larger_than_memory(monkeypatch):
    # -(l + m) spans x in [-3, -2] and the high modes x in [-2, 1]: the table
    # covers the 5 x 1 box [-3, 1] x [0, 0], and one block of 1 x 2 pairs is
    # coded
    low = np.array([[0, 0]])
    mate = np.array([[2, 0], [3, 0]])
    high = np.array([[-2, 0], [1, 0]])
    need = harness._TABLE_BYTES * 5 + harness._PAIR_BYTES * 2

    def no_full(*args, **kwargs):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(grid, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(np, "full", no_full)
    with pytest.raises(MemoryError, match="trilinear code table"):
        matched_blocks(low, mate, high)
    monkeypatch.undo()
    # the one match adds its arrays and its term on top
    one = need + harness._MATCH_BYTES
    monkeypatch.setattr(grid, "_physical_memory", lambda: one)
    (i_low, i_mate, third), = matched_blocks(low, mate, high)
    assert (i_low.tolist(), i_mate.tolist(), third.tolist()) == ([0], [0], [0])


def test_match_interactions_refuses_matches_larger_than_memory(monkeypatch):
    # all 3 x 4 (low, mate) pairs match: the high modes are their -(l + m),
    # which fill the 3 x 4 box [-2, 0] x [-4, -1] the table covers
    low = np.array([[0, 0], [1, 0], [2, 0]])
    mate = np.array([[0, 1], [0, 2], [0, 3], [0, 4]])
    high = -(low[:, None] + mate[None]).reshape(-1, 2)
    table = harness._TABLE_BYTES * 12 + harness._PAIR_BYTES * 12
    need = table + harness._MATCH_BYTES * 12

    def no_matches(*args, **kwargs):
        raise AssertionError("the match indices were allocated")

    # two trials at once count every byte twice
    for sides in (1, 2):
        for limit in (sides * table, sides * need - 1):
            monkeypatch.setattr(grid, "_physical_memory", lambda: limit)
            monkeypatch.setattr(np, "flatnonzero", no_matches)
            with pytest.raises(MemoryError, match="12 trilinear matches"):
                matched_blocks(low, mate, high, sides)
            monkeypatch.undo()
        monkeypatch.setattr(grid, "_physical_memory", lambda: sides * need)
        (i_low, i_mate, third), = matched_blocks(low, mate, high, sides)
        assert len(third) == 12
        assert not np.any(low[i_low] + mate[i_mate] + high[third])
    # in blocks of one low mode, each block holds its own 4 pairs and 4
    # matches with their terms, and no more
    monkeypatch.setattr(harness, "_BLOCK_PAIRS", 4)
    block = harness._TABLE_BYTES * 12 + harness._PAIR_BYTES * 4 + harness._MATCH_BYTES * 4
    monkeypatch.setattr(grid, "_physical_memory", lambda: block - 1)
    with pytest.raises(MemoryError, match="4 trilinear matches"):
        matched_blocks(low, mate, high)
    monkeypatch.setattr(grid, "_physical_memory", lambda: block)
    assert [len(third) for _, _, third in matched_blocks(low, mate, high)] == [4, 4, 4]


def test_trilinear_peak_memory_stays_small():
    # 1.44M (low, mate) pairs: coded and looked up all at once they peaked
    # near 23 MiB, and materialising their pair sums at 145 MiB on this call
    tracemalloc.start()
    try:
        verify_trilinear(64, 64, 8, trials=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


# ----------------------------------------------------------------------
# the trilinear trials on a worker thread
# ----------------------------------------------------------------------

# two trials of the campaign's largest case: 1200 low, mate and high modes
TRILINEAR_CASE = (64, 64, 8)


def traced_matchers(monkeypatch, hook=lambda: None):
    """Names of the threads that match a trial from now on; each first calls hook."""
    names = []
    real = harness._match_interactions

    def traced(*args):
        names.append(threading.current_thread().name)
        hook()
        return real(*args)

    monkeypatch.setattr(harness, "_match_interactions", traced)
    return names


def test_split_trilinear_equals_a_one_core_run(monkeypatch):
    runs = {}
    interval = sys.getswitchinterval()
    # the threads hand the interpreter lock over as often as they can
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 2):
            cores(monkeypatch, n)
            names = traced_matchers(monkeypatch)
            runs[n] = verify_trilinear(64, 64, 4, trials=4, seed=3).ratios
            monkeypatch.undo()
            assert len(names) == 4 and len(set(names)) == n
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[2]


def test_one_trilinear_trial_starts_no_thread(monkeypatch):
    cores(monkeypatch, 2)
    before, counts = threading.active_count(), []
    traced_matchers(monkeypatch, lambda: counts.append(threading.active_count()))
    verify_trilinear(*TRILINEAR_CASE, trials=1, seed=0)
    assert counts == [before]


def test_no_trilinear_worker_outlives_the_call(monkeypatch):
    cores(monkeypatch, 2)
    before = threading.active_count()
    names = traced_matchers(monkeypatch)
    verify_trilinear(*TRILINEAR_CASE, trials=2, seed=0)
    assert threading.active_count() == before and len(set(names)) == 2

    def fail():
        if on_the_worker():
            raise RuntimeError("the worker failed")

    traced_matchers(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="the worker failed"):
        verify_trilinear(*TRILINEAR_CASE, trials=2, seed=0)
    assert threading.active_count() == before
    # the mode boxes pass and the code tables do not
    traced_matchers(monkeypatch)
    monkeypatch.setattr(harness, "_integer_box_bytes", lambda dim: 0)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 2**20)
    with pytest.raises(MemoryError, match="trilinear code table"):
        verify_trilinear(*TRILINEAR_CASE, trials=2, seed=0)
    assert threading.active_count() == before


def test_the_trilinear_worker_keeps_the_callers_errstate(monkeypatch):
    # a float overflow on the worker alone; on a worker that did not copy the
    # caller's context, numpy would only warn
    def overflow():
        if on_the_worker():
            np.float64(1e308) * np.float64(10.0)

    cores(monkeypatch, 2)
    traced_matchers(monkeypatch, overflow)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        verify_trilinear(*TRILINEAR_CASE, trials=2, seed=0)


@pytest.mark.parametrize("n", [1, 2], ids=["one-core", "split"])
def test_trilinear_trials_share_one_low_ball(monkeypatch, n):
    # the ball draws nothing, so one build serves every trial on either thread
    cores(monkeypatch, n)
    calls = []
    real = harness.ball_mode_set

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "ball_mode_set", counted)
    names = traced_matchers(monkeypatch)
    verify_trilinear(*TRILINEAR_CASE, trials=8, seed=0)
    assert len(calls) == 1 and len(set(names)) == n


def dense_interactions(monkeypatch, side=10):
    """Sets in which every (low, mate) pair matches, for verify_trilinear(64, 32, 2).

    The low ball of radius 2 holds 33 modes, the mates fill the cube
    [40, 39 + side]^3, and the high modes are every -(l + m), the cube
    -[38, 41 + side]^3: 33 side^3 matches, at side 10 all in one block.
    """
    mate, high = full_cube(side, 40), -full_cube(side + 4, 38)
    monkeypatch.setattr(harness, "_MAX_MODES", len(high))
    monkeypatch.setattr(
        harness, "cap_mode_set", lambda scale, pole, rho: mate if scale == 32 else high
    )
    return 64, 32, 2


@pytest.mark.parametrize("n", [1, 2], ids=["one-core", "split"])
@pytest.mark.parametrize(
    "case, dim",
    # the campaign's largest case; every pair matching; the 65^3 box of a low
    # ball of radius 32; the 15^5 boxes of the caps in dimension 5
    [(TRILINEAR_CASE, 3), ("dense", 3), ((64, 64, 32), 3), ((16, 16, 4), 5)],
    ids=["campaign", "dense", "ball", "caps"],
)
def test_trilinear_memory_estimate_covers_the_peak(monkeypatch, n, case, dim):
    cores(monkeypatch, n)
    if case == "dense":
        case = dense_interactions(monkeypatch)
    verify_trilinear(*case, dim, trials=2, seed=0)  # the first split imports its pool
    names = traced_matchers(monkeypatch)
    estimates = []
    real = harness._require_memory

    def recorded(nbytes, what):
        if "trilinear" in what:
            estimates.append(nbytes)
        return real(nbytes, what)

    monkeypatch.setattr(harness, "_require_memory", recorded)
    tracemalloc.start()
    try:
        ratios = verify_trilinear(*case, dim, trials=2, seed=0).ratios
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(names)) == n and min(ratios) > 0
    assert peak <= max(estimates)


@pytest.mark.parametrize("rows", [None, 1], ids=["default-block", "one-row"])
@pytest.mark.parametrize("trials", [1, 2], ids=["one-side", "two-sides"])
def test_trilinear_match_estimate_covers_a_trials_peak(monkeypatch, rows, trials):
    # every pair matches: 33 rows of 22^3 mates, 6 rows to the default block;
    # with the mode boxes counted as nothing, the estimate is the code table,
    # one block's pair codes and its matches, terms included, for each trial
    # that may run at once; traced on one core from the table's build to the
    # last block's sum, each trial stays within its share and the codes of
    # its low and mate modes, 8 bytes a mode, which the boxes cover
    cores(monkeypatch, 1)
    case = dense_interactions(monkeypatch, side=22)
    if rows:
        monkeypatch.setattr(harness, "_BLOCK_PAIRS", rows * 22**3)
    monkeypatch.setattr(harness, "_integer_box_bytes", lambda dim: 0)
    estimates, peaks = [], []
    require, match = harness._require_memory, harness._match_interactions

    def recorded(nbytes, what):
        if "trilinear matches" in what:
            estimates.append(nbytes)
        return require(nbytes, what)

    def traced(*args):
        tracemalloc.start()
        try:
            yield from match(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(harness, "_require_memory", recorded)
    monkeypatch.setattr(harness, "_match_interactions", traced)
    ratios = verify_trilinear(*case, trials=trials, seed=0).ratios
    assert len(estimates) == trials * (33 if rows else 6) and min(ratios) > 0
    assert max(peaks) <= max(estimates) / min(trials, 2) + 8 * (33 + 22**3)


def test_trilinear_ratios_hardly_move_with_the_block_size(monkeypatch):
    # each block's terms are summed into the trial's total as it is matched,
    # so the block size moves the rounding only; the caps of the case hold
    # more than _MAX_MODES modes, so every trial keeps that many mates
    runs = []
    for block in (1, 3 * harness._MAX_MODES, harness._BLOCK_PAIRS):
        monkeypatch.setattr(harness, "_BLOCK_PAIRS", block)
        runs.append(verify_trilinear(*TRILINEAR_CASE, trials=2, seed=0).ratios)
    for ratios in runs[:2]:
        assert np.allclose(ratios, runs[2], rtol=1e-13, atol=0.0)


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
