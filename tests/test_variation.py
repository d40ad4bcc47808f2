import itertools
import math

import numpy as np
import pytest

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
    l2_norm,
)
from halfwave.system import scalar_system
from halfwave.variation import (
    ModulationReport,
    Partition,
    SampledPath,
    best_partition,
    check_mod_projection_bound,
    effective_values,
    increment_table,
    p_variation,
    v2_pm_norm,
    xs_proxy_norm,
)


def scalar_path(values, lead_zero=False):
    values = np.asarray(values)
    return SampledPath(np.arange(len(values), dtype=float), values, lead_zero)


def brute_force_variation(path, p):
    """Maximum over every partition of the effective grid, left-associated."""
    table = increment_table(path) ** p
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


def test_path_validation():
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0]), np.array([1.0]), weight=0.0)
    path = scalar_path([1.0, 2.0], lead_zero=True)
    assert path.effective_count == 3
    assert effective_values(path)[0] == 0.0


def test_partition_validation():
    assert Partition((0, 3, 5)).indices == (0, 3, 5)
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 2))
    with pytest.raises(ValueError):
        Partition((-1, 2))


def test_p_variation_argument_errors():
    path = scalar_path([0.0, 1.0])
    with pytest.raises(ValueError):
        p_variation(path, 0.5)
    with pytest.raises(ValueError):
        p_variation(scalar_path([1.0]), 2.0)
    # a single sample with the leading zero gives one increment
    assert p_variation(scalar_path([1.0], lead_zero=True), 2.0) == 1.0


def test_zigzag_oracle():
    assert p_variation(scalar_path([0.0, 1.0, 0.0]), 2.0) == math.sqrt(2.0)
    assert p_variation(scalar_path([0.0, 1.0]), 2.0) == 1.0


def test_monotone_path_uses_endpoints():
    path = scalar_path(np.linspace(0.0, 1.0, 11))
    assert p_variation(path, 2.0) == 1.0
    witness = best_partition(path, 2.0)
    assert witness.indices == (0, 10)


def test_dp_matches_brute_force_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            values = rng.normal(size=k) + 1j * rng.normal(size=k)
        else:
            values = rng.normal(size=(k, 3))
        path = SampledPath(
            np.arange(k, dtype=float), values, lead_zero=bool(rng.random() < 0.5)
        )
        for p in (1.0, 1.5, 2.0, 3.0):
            assert p_variation(path, p) == brute_force_variation(path, p)


def test_witness_partition_achieves_value():
    rng = np.random.default_rng(7)
    path = SampledPath(np.arange(10.0), rng.normal(size=(10, 2)))
    p = 2.0
    witness = best_partition(path, p)
    table = increment_table(path) ** p
    total = 0.0
    for a, b in zip(witness.indices, witness.indices[1:]):
        total = total + table[a, b]
    assert total ** (1.0 / p) == p_variation(path, p)


def test_p_monotone_nonincreasing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        path = SampledPath(np.arange(8.0), rng.normal(size=(8, 4)))
        v1 = p_variation(path, 1.0)
        v2 = p_variation(path, 2.0)
        v4 = p_variation(path, 4.0)
        assert v1 >= v2 >= v4


def test_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        times = np.arange(7.0)
        va = p_variation(SampledPath(times, a), 2.0)
        vb = p_variation(SampledPath(times, b), 2.0)
        vab = p_variation(SampledPath(times, a + b), 2.0)
        assert vab <= va + vb + 1e-12


def test_v2_free_wave_is_profile_norm():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    pair = decompose(phi, zero_field(lat), 1.0)
    traj = free_trajectory(lat, pair[None], (1.0,), np.arange(201) * 0.05)
    for sign, half in ((+1, pair[0]), (-1, pair[1])):
        expected = l2_norm(SpectralField(lat, half))
        assert v2_pm_norm(traj, 0, sign) == pytest.approx(expected, rel=1e-9)


def test_v2_zero_trajectory():
    lat = make_lattice()
    state = np.zeros((1, 2) + lat.spec.shape, dtype=complex)
    traj = free_trajectory(lat, state, (1.0,), np.arange(5) * 0.1)
    assert v2_pm_norm(traj, 0, +1) == 0.0
    assert xs_proxy_norm(traj, 0, 1.0) == 0.0


def test_v2_time_shift_invariance():
    lat = make_lattice(dim=2, box=8.0, n=16)
    from halfwave.dynamics import CauchyData

    data = CauchyData((gaussian_bump(lat, 0.3),), (zero_field(lat),))
    traj = evolve(data, scalar_system(), T=2.0, dt=0.05, sample_every=4)
    shifted = Trajectory(traj.times + 5.0, traj.masses, traj.lattice, traj.halves)
    for sign in (+1, -1):
        a = v2_pm_norm(traj, 0, sign)
        b = v2_pm_norm(shifted, 0, sign)
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
    v2 = v2_pm_norm(traj, 0, +1)
    n1, n2 = l2_norm(phi1), l2_norm(phi2)
    assert max(n1, n2) <= v2 <= n1 + n2
    # disjoint modes jump orthogonally, pinning the exact value
    assert v2 == pytest.approx(math.hypot(n1, n2), rel=1e-12)


def test_xs_proxy_single_band():
    lat = make_lattice(dim=1, box=2 * math.pi, n=16)
    phi = single_mode(lat, (4,), 1.0)
    state = np.zeros((1, 2) + lat.spec.shape, dtype=complex)
    state[0, 0] = phi.coeffs
    traj = free_trajectory(lat, state, (1.0,), np.arange(21) * 0.1)
    expected = 4.0 * l2_norm(phi)
    assert xs_proxy_norm(traj, 0, 1.0) == pytest.approx(expected, rel=1e-9)
    # weights grow with s on a high-frequency trajectory
    assert xs_proxy_norm(traj, 0, 1.5) > xs_proxy_norm(traj, 0, 1.0)


def test_mod_projection_free_wave_leakage_only():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    pair = decompose(phi, zero_field(lat), 1.0)
    traj = free_trajectory(lat, pair[None], (1.0,), np.arange(801) * 0.05)
    for index in (1, 2, 4, 8):
        report = check_mod_projection_bound(traj, 0, index, +1)
        assert report.ratio < 0.05
    assert check_mod_projection_bound(traj, 0, 4, +1).ratio < 1e-3


def test_mod_projection_jump_path_bounded():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    traj = jump_trajectory(lat, phi, T=40.0, dt=0.05, t_jump=20.0)
    energies = []
    indices = (1, 2, 4, 8, 16)
    for index in indices:
        report = check_mod_projection_bound(traj, 0, index, +1)
        assert isinstance(report, ModulationReport)
        assert report.ratio <= 10.0
        energies.append(report.band_energy)
    slope = np.polyfit(np.log(indices), np.log(energies), 1)[0]
    assert -0.65 < slope < -0.35


def test_mod_projection_rejects_coarse_sampling():
    lat = make_lattice()
    phi = gaussian_bump(lat, amplitude=1.0, width=1.5)
    traj = jump_trajectory(lat, phi, T=40.0, dt=0.05, t_jump=20.0)
    with pytest.raises(ValueError):
        check_mod_projection_bound(traj, 0, 64, +1)
