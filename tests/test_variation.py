import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import complex_gram_table, direct_unrotated_from_rest, full_grid_xs_proxy_norm

from halfwave.dynamics import (
    Trajectory,
    decompose,
    evolve,
    free_trajectory,
)
from halfwave.grid import (
    FrequencyLattice,
    GridSpec,
    SpectralField,
    free_propagate,
    gaussian_bump,
    lp_weights,
    sobolev_norm,
)
from halfwave.system import scalar_system
from halfwave.variation import (
    increment_table,
    modulation_energy,
    p_variation,
    unrotated_from_rest,
    v2_pm_norm,
    xs_proxy_norm,
)


def from_rest(values):
    """The samples with a zero sample prepended: a path starting from rest."""
    values = np.asarray(values)
    return np.concatenate([np.zeros((1,) + values.shape[1:], values.dtype), values])


def brute_force_variation(values, p):
    """Maximum over every partition of the samples, left-associated."""
    table = increment_table(values) ** p
    k = table.shape[0]
    best = 0.0
    for size in range(2, k + 1):
        for chain in itertools.combinations(range(k), size):
            total = 0.0
            for a, b in zip(chain, chain[1:]):
                total = total + table[a, b]
            best = max(best, total)
    return best ** (1.0 / p)


def make_lattice(dim=1, box=16.0, n=32):
    return FrequencyLattice(GridSpec(dim, box, n))


def zero_field(lat):
    return SpectralField(lat, np.zeros(lat.spec.shape, dtype=complex))


def resting_state(lat, phi):
    """The (1, 2, *grid) half-wave state of position phi and zero velocity."""
    return decompose(lat, phi.coeffs[None], np.zeros((1,) + lat.spec.shape), (1.0,))


def single_mode(lat, index, amplitude=1.0):
    c = np.zeros(lat.spec.shape, dtype=complex)
    c[index] = amplitude
    return SpectralField(lat, c)


def plus_only_trajectory(lat, times, plus):
    """One component of mass 1 whose u^+ samples are given and whose u^- is zero."""
    halves = np.zeros((len(times), 1, 2) + lat.spec.shape, dtype=complex)
    halves[:, 0, 0] = plus
    return Trajectory(times, (1.0,), lat, halves)


def jump_trajectory(lat, phi, T, dt, t_jump):
    times = np.arange(round(T / dt) + 1) * dt
    zero = zero_field(lat)
    plus = [(free_propagate(phi, t, 1.0, +1) if t >= t_jump else zero).coeffs for t in times]
    return plus_only_trajectory(lat, times, plus)


def v2_of(traj, sign):
    """v2_pm_norm of component 0's unrotated half of the given sign."""
    return v2_pm_norm(traj.lattice, unrotated_from_rest(traj, 0, sign))


def xs_of(traj, s, sign=1):
    """xs_proxy_norm of component 0's unrotated half of the given sign."""
    return xs_proxy_norm(traj.lattice, unrotated_from_rest(traj, 0, sign), s)


def projection_point(traj, index):
    """Component 0's + half at one dyadic modulation M: (band energy, ratio).

    The ratio is the energy times sqrt(max(M, 1)) over the half's 2-variation
    norm, which the modulation-projection bound keeps below one constant.
    """
    band = modulation_energy(traj, 0, index, +1)
    return band, band * math.sqrt(max(index, 1)) / v2_of(traj, +1)


def test_path_validation():
    # samples run along axis 0, whatever the shape of one sample
    assert increment_table(np.zeros((3, 2, 2))).shape == (3, 3)
    assert increment_table([0.0, 3.0], weight=2.0)[0, 1] == 6.0
    # integer samples are read as floats
    assert increment_table(np.array([[0, 1], [3, 4]]), 2.0)[0, 1] == 2.0 * math.sqrt(18.0)
    with pytest.raises(ValueError):
        p_variation(np.array([1.0, 2.0]), 2.0, weight=0.0)
    with pytest.raises(ValueError):
        p_variation(np.array([[1.0, 2.0]]), 2.0)


def test_p_variation_argument_errors():
    with pytest.raises(ValueError):
        p_variation(np.array([0.0, 1.0]), 0.5)
    with pytest.raises(ValueError):
        p_variation(np.array([1.0]), 2.0)
    # a single sample from rest gives one increment
    assert p_variation(from_rest([1.0]), 2.0) == 1.0


def test_zigzag_oracle():
    assert p_variation(np.array([0.0, 1.0, 0.0]), 2.0) == math.sqrt(2.0)
    assert p_variation(np.array([0.0, 1.0]), 2.0) == 1.0


def test_monotone_path_uses_endpoints():
    assert p_variation(np.linspace(0.0, 1.0, 11), 2.0) == 1.0


def test_dp_matches_brute_force_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            values = rng.normal(size=k) + 1j * rng.normal(size=k)
        else:
            values = rng.normal(size=(k, 3))
        if rng.random() < 0.5:
            values = from_rest(values)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert p_variation(values, p) == brute_force_variation(values, p)


def test_p_monotone_nonincreasing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.normal(size=(8, 4))
        v1 = p_variation(values, 1.0)
        v2 = p_variation(values, 2.0)
        v4 = p_variation(values, 4.0)
        assert v1 >= v2 >= v4


def test_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        va = p_variation(a, 2.0)
        vb = p_variation(b, 2.0)
        vab = p_variation(a + b, 2.0)
        assert vab <= va + vb + 1e-12


def test_v2_free_wave_is_profile_norm():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    state = resting_state(lat, phi)
    traj = free_trajectory(lat, state, (1.0,), np.arange(201) * 0.05)
    for sign, half in ((+1, state[0, 0]), (-1, state[0, 1])):
        expected = sobolev_norm(SpectralField(lat, half), 0.0)
        assert v2_of(traj, sign) == pytest.approx(expected, rel=1e-9)


def test_v2_zero_trajectory():
    lat = make_lattice()
    state = np.zeros((1, 2) + lat.spec.shape, dtype=complex)
    traj = free_trajectory(lat, state, (1.0,), np.arange(5) * 0.1)
    assert v2_of(traj, +1) == 0.0
    assert xs_of(traj, 1.0) == 0.0


def test_v2_time_shift_invariance():
    lat = make_lattice(dim=2, box=8.0, n=16)
    state = resting_state(lat, gaussian_bump(lat, 0.3))
    traj = evolve(lat, state, scalar_system(), T=2.0, dt=0.05, sample_every=4)
    shifted = Trajectory(traj.times + 5.0, traj.masses, traj.lattice, traj.halves)
    for sign in (+1, -1):
        a = v2_of(traj, sign)
        b = v2_of(shifted, sign)
        assert b == pytest.approx(a, rel=1e-10)


def test_v2_two_emissions_bracketed():
    lat = make_lattice(dim=1, box=2 * math.pi, n=16)
    phi1 = single_mode(lat, (2,), 1.0)
    phi2 = single_mode(lat, (5,), 0.5)
    dt, T = 0.1, 8.0
    times = np.arange(round(T / dt) + 1) * dt
    plus = []
    for t in times:
        coeffs = np.zeros(lat.spec.shape, dtype=complex)
        if t >= 2.0:
            coeffs = coeffs + free_propagate(phi1, t, 1.0, +1).coeffs
        if t >= 6.0:
            coeffs = coeffs + free_propagate(phi2, t, 1.0, +1).coeffs
        plus.append(coeffs)
    traj = plus_only_trajectory(lat, times, plus)
    v2 = v2_of(traj, +1)
    n1, n2 = sobolev_norm(phi1, 0.0), sobolev_norm(phi2, 0.0)
    assert max(n1, n2) <= v2 <= n1 + n2
    # disjoint modes jump orthogonally, pinning the exact value
    assert v2 == pytest.approx(math.hypot(n1, n2), rel=1e-12)


def test_xs_proxy_single_band():
    lat = make_lattice(dim=1, box=2 * math.pi, n=16)
    phi = single_mode(lat, (4,), 1.0)
    state = np.zeros((1, 2) + lat.spec.shape, dtype=complex)
    state[0, 0] = phi.coeffs
    traj = free_trajectory(lat, state, (1.0,), np.arange(21) * 0.1)
    expected = 4.0 * sobolev_norm(phi, 0.0)
    assert xs_of(traj, 1.0) == pytest.approx(expected, rel=1e-9)
    # weights grow with s on a high-frequency trajectory
    assert xs_of(traj, 1.5) > xs_of(traj, 1.0)


def test_mod_projection_free_wave_leakage_only():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    traj = free_trajectory(lat, resting_state(lat, phi), (1.0,), np.arange(801) * 0.05)
    for index in (1, 2, 4, 8):
        assert projection_point(traj, index)[1] < 0.05
    assert projection_point(traj, 4)[1] < 1e-3


def test_mod_projection_jump_path_bounded():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    traj = jump_trajectory(lat, phi, T=40.0, dt=0.05, t_jump=20.0)
    energies = []
    indices = (1, 2, 4, 8, 16)
    for index in indices:
        band, ratio = projection_point(traj, index)
        assert ratio <= 10.0
        energies.append(band)
    slope = np.polyfit(np.log(indices), np.log(energies), 1)[0]
    assert -0.65 < slope < -0.35


def test_mod_projection_rejects_coarse_sampling():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    traj = jump_trajectory(lat, phi, T=40.0, dt=0.05, t_jump=20.0)
    with pytest.raises(ValueError):
        projection_point(traj, 64)


# ---------------------------------------------------------------------------
# the variation layer against its direct forms


def random_trajectory(lat, k, masses, rng, t0=0.0, dt=0.1):
    """k samples at t0 + j dt of random complex halves, one component per mass."""
    shape = (k, len(masses), 2) + lat.spec.shape
    halves = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Trajectory(t0 + dt * np.arange(k), masses, lat, halves)


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 16), (2, 64), (3, 8), (3, 32)])
def test_unrotation_is_the_direct_exp_byte_for_byte(dim, n):
    rng = np.random.default_rng(dim * 100 + n)
    lat = make_lattice(dim=dim, box=10.0, n=n)
    masses = (0.5, 1.0, 2.5)
    for t0 in (0.0, 5.0):
        traj = random_trajectory(lat, 3, masses, rng, t0=t0, dt=0.07)
        for component, sign in itertools.product(range(len(masses)), (1, -1)):
            got = unrotated_from_rest(traj, component, sign)
            want = direct_unrotated_from_rest(traj, component, sign)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def increment_inputs(rng):
    complex_samples = rng.standard_normal((6, 5, 7)) + 1j * rng.standard_normal((6, 5, 7))
    near = complex_samples[:1] + 1e-9 * complex_samples
    wide = rng.standard_normal((7, 4, 9)) + 1j * rng.standard_normal((7, 4, 9))
    return [
        (complex_samples, 1e-13),
        (near, 1e-13),
        (complex_samples.astype(np.complex64), 1e-5),
        (rng.standard_normal((5, 11)), 1e-13),
        (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)), 1e-13),
        (rng.standard_normal(5), 1e-13),
        (np.zeros((3, 0), dtype=complex), 1e-13),
        (wide[::2, :, ::3], 1e-13),
    ]


def test_increment_table_agrees_with_the_complex_gram():
    # near-equal samples cancel in both formulas, so the bound is absolute,
    # on the scale of the largest squared row norm
    for values, tol in increment_inputs(np.random.default_rng(7)):
        want = complex_gram_table(values)
        got = increment_table(values).astype(float) ** 2
        assert got.shape == want.shape == (len(values), len(values))
        rows = np.abs(np.asarray(values).reshape(len(values), -1)) ** 2
        assert np.max(np.abs(got - want)) <= tol * np.max(np.sum(rows, axis=1))
        assert np.array_equal(got, got.T)


def test_p_variation_holds_one_table():
    # a long path over few modes: 2001 samples of 8 complex modes hold 0.24 MiB,
    # the 2001 x 2001 float table 30.5 MiB, and the table is built and powered
    # in place, not copied
    rng = np.random.default_rng(8)
    values = rng.standard_normal((2001, 8)) + 1j * rng.standard_normal((2001, 8))
    tracemalloc.start()
    try:
        p_variation(values, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2001**2 + 2**18


def evolved(dim, n, box):
    lat = make_lattice(dim=dim, box=box, n=n)
    state = resting_state(lat, gaussian_bump(lat, 0.3))
    return evolve(lat, state, scalar_system(), T=1.0, dt=0.05, sample_every=2)


@pytest.mark.parametrize("dim,n,box", [(1, 32, 16.0), (2, 16, 8.0), (3, 8, 8.0), (1, 16, 2.0)])
def test_xs_proxy_equals_the_full_grid_block_loop(dim, n, box):
    traj = evolved(dim, n, box)
    if box == 2.0:
        # every mode sits at |xi| = pi k, so LP block 1 (1/2 < |xi| < 2) is empty
        assert not np.any(lp_weights(traj.lattice, 1))
    for sign, s in itertools.product((1, -1), (0.0, 0.5, 1.5)):
        want = full_grid_xs_proxy_norm(traj, 0, s, sign)
        assert want > 0.0
        assert xs_of(traj, s, sign) == pytest.approx(want, rel=1e-12)


def test_variation_norms_stay_near_one_stack():
    # the workload's shape: 2D, 64^2, 61 samples; a stack is the unrotated path
    lat = make_lattice(dim=2, box=32.0, n=64)
    traj = random_trajectory(lat, 61, (1.0,), np.random.default_rng(3), dt=0.05)
    stack = (61 + 1) * 64 * 64 * 16
    for fn, limit in ((lambda: v2_of(traj, 1), 1.5), (lambda: xs_of(traj, 0.5, 1), 2.5)):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * stack
