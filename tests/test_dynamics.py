import math

import numpy as np
import pytest

from halfwave.dynamics import (
    CauchyData,
    InstabilityError,
    Trajectory,
    conserved_energy,
    decompose,
    evolve,
    free_trajectory,
    initial_pair,
    linear_exact,
    picard_iterate,
    reconstruct,
    scattering_state,
)
from halfwave.grid import (
    FrequencyLattice,
    GridSpec,
    SpectralField,
    free_propagate,
    gaussian_bump,
    inverse_transform,
    random_field,
    sobolev_norm,
)
from halfwave.system import free_system, scalar_system


def make_lattice(dim=2, box=8.0, n=16):
    return FrequencyLattice(GridSpec(dim, box, n))


def zero_field(lat):
    return SpectralField(lat, np.zeros(lat.spec.shape, dtype=complex))


def bump_data(lat, amp, width=1.0):
    return CauchyData((gaussian_bump(lat, amp, width),), (zero_field(lat),))


def pair_distance(lat, sa, sb, masses=(1.0,), s=0.5):
    sq = 0.0
    for pa, pb, m in zip(sa, sb, masses):
        for half in range(2):
            sq += sobolev_norm(SpectralField(lat, pa[half] - pb[half]), s, m) ** 2
    return math.sqrt(sq)


def test_decompose_reconstruct_roundtrip():
    lat = make_lattice()
    rng = np.random.default_rng(1)
    u = random_field(lat, rng, decay=1.0)
    u_t = random_field(lat, rng, decay=1.0)
    pair = decompose(u, u_t, mass=1.7)
    back_u, back_ut = reconstruct(lat, pair, 1.7)
    assert np.max(np.abs(back_u.coeffs - u.coeffs)) < 1e-12
    assert np.max(np.abs(back_ut.coeffs - u_t.coeffs)) < 1e-12


def test_decompose_zero_velocity_splits_evenly():
    lat = make_lattice()
    u = random_field(lat, np.random.default_rng(2))
    plus, minus = decompose(u, zero_field(lat), mass=1.0)
    assert np.max(np.abs(plus - u.coeffs / 2)) < 1e-14
    assert np.max(np.abs(minus - u.coeffs / 2)) < 1e-14


def test_decompose_forward_mode_oracle():
    # u = 1, u_t = i<xi> at one mode is a pure forward wave: plus=1, minus=0
    lat = make_lattice()
    idx = (3, 2)
    br = lat.bracket(1.0)[idx]
    u = zero_field(lat).coeffs.copy()
    u[idx] = 1.0
    ut = zero_field(lat).coeffs.copy()
    ut[idx] = 1j * br
    plus, minus = decompose(SpectralField(lat, u), SpectralField(lat, ut), mass=1.0)
    assert plus[idx] == pytest.approx(1.0, abs=1e-14)
    assert abs(minus[idx]) < 1e-14


def test_initial_pair_matches_decompose():
    lat = make_lattice()
    rng = np.random.default_rng(3)
    data = CauchyData(
        (random_field(lat, rng), random_field(lat, rng)),
        (random_field(lat, rng), random_field(lat, rng)),
    )
    state = initial_pair(data, (1.0, 2.5))
    assert state.shape == (2, 2) + lat.spec.shape
    for i, m in enumerate((1.0, 2.5)):
        ref = decompose(data.positions[i], data.velocities[i], m)
        assert np.max(np.abs(state[i] - ref)) < 1e-14


def test_linear_exact_identity_and_free_propagate_route():
    lat = make_lattice()
    rng = np.random.default_rng(4)
    data = CauchyData((random_field(lat, rng),), (random_field(lat, rng),))
    at0 = linear_exact(data, (1.3,), 0.0)
    assert np.max(np.abs(at0.positions[0].coeffs - data.positions[0].coeffs)) < 1e-14
    t = 3.7
    moved = linear_exact(data, (1.3,), t)
    plus, minus = initial_pair(data, (1.3,))[0]
    plus_t = free_propagate(SpectralField(lat, plus), t, 1.3, +1)
    minus_t = free_propagate(SpectralField(lat, minus), t, 1.3, -1)
    u, u_t = reconstruct(lat, np.stack([plus_t.coeffs, minus_t.coeffs]), 1.3)
    assert np.max(np.abs(u.coeffs - moved.positions[0].coeffs)) < 1e-12
    assert np.max(np.abs(u_t.coeffs - moved.velocities[0].coeffs)) < 1e-12


def test_linear_exact_conserves_quadratic_energy():
    lat = make_lattice()
    rng = np.random.default_rng(5)
    data = CauchyData((random_field(lat, rng),), (random_field(lat, rng),))
    system = free_system((2.0,))

    def energy(d):
        return conserved_energy(lat, initial_pair(d, (2.0,)), system)

    e0 = energy(data)
    for t in (0.9, 4.4, 17.0):
        et = energy(linear_exact(data, (2.0,), t))
        assert et == pytest.approx(e0, rel=1e-12)


def test_step_free_system_is_exact_rotation():
    lat = make_lattice()
    data = CauchyData(
        (random_field(lat, np.random.default_rng(6)),),
        (random_field(lat, np.random.default_rng(7)),),
    )
    traj = evolve(data, free_system((1.0,)), T=0.3, dt=0.3)
    assert traj.times.tolist() == [0.0, 0.3]
    plus, minus = traj.halves[0, 0]
    ref_p = free_propagate(SpectralField(lat, plus), 0.3, 1.0, +1)
    ref_m = free_propagate(SpectralField(lat, minus), 0.3, 1.0, -1)
    assert np.max(np.abs(traj.halves[1, 0, 0] - ref_p.coeffs)) < 1e-14
    assert np.max(np.abs(traj.halves[1, 0, 1] - ref_m.coeffs)) < 1e-14


def test_richardson_fourth_order():
    lat = make_lattice(n=16)
    data = bump_data(lat, amp=0.5)
    system = scalar_system()
    T = 0.5
    ref = evolve(data, system, T, dt=T / 128).halves[-1]
    coarse = evolve(data, system, T, dt=T / 8).halves[-1]
    fine = evolve(data, system, T, dt=T / 16).halves[-1]
    e1 = pair_distance(lat, coarse, ref)
    e2 = pair_distance(lat, fine, ref)
    assert 8.0 < e1 / e2 < 32.0


def test_real_data_stays_real():
    lat = make_lattice(n=32)
    data = bump_data(lat, amp=0.3)
    traj = evolve(data, scalar_system(), T=1.0, dt=0.02)
    u = SpectralField(lat, traj.halves[-1, 0].sum(axis=0))
    vals = inverse_transform(u)
    assert np.max(np.abs(vals.imag)) < 1e-10 * max(1.0, np.max(np.abs(vals.real)))


def test_evolve_zero_data_stays_zero():
    lat = make_lattice()
    data = CauchyData((zero_field(lat),), (zero_field(lat),))
    traj = evolve(data, scalar_system(), T=1.0, dt=0.1)
    assert np.max(np.abs(traj.halves)) == 0


def test_evolve_free_matches_linear_exact():
    lat = make_lattice(n=32)
    rng = np.random.default_rng(8)
    data = CauchyData(
        (random_field(lat, rng, decay=2.0),),
        (random_field(lat, rng, decay=2.0),),
    )
    system = free_system((1.0,))
    traj = evolve(data, system, T=5.0, dt=0.05, sample_every=20)
    for j, t in enumerate(traj.times):
        ref = linear_exact(data, (1.0,), t)
        u = SpectralField(lat, traj.halves[j, 0].sum(axis=0))
        err = sobolev_norm(u - ref.positions[0], 1.0, 1.0)
        assert err < 1e-9


def test_instability_abort():
    lat = make_lattice(dim=1, box=8.0, n=32)
    data = bump_data(lat, amp=50.0)
    system = scalar_system(coefficient=10.0)
    with pytest.raises(InstabilityError) as info:
        evolve(data, system, T=5.0, dt=0.05)
    assert info.value.time is None or info.value.time > 0


def test_energy_conservation_short_run():
    lat = make_lattice(n=32, box=16.0)
    data = bump_data(lat, amp=0.5)
    system = scalar_system()
    e0 = conserved_energy(lat, initial_pair(data, system.masses), system)
    traj = evolve(data, system, T=1.0, dt=0.01, sample_every=25)
    for state in traj.halves:
        assert conserved_energy(lat, state, system) == pytest.approx(e0, rel=1e-6)


def test_picard_free_system_immediate_fixed_point():
    lat = make_lattice()
    rng = np.random.default_rng(9)
    data = CauchyData((random_field(lat, rng),), (random_field(lat, rng),))
    report = picard_iterate(data, free_system((1.0,)), T=1.0, dt=0.1, iters=2)
    assert not report.diverged
    assert report.contraction_factor == 0.0
    assert all(d < 1e-14 for d in report.successive_distances)


def test_picard_contracts_on_small_data():
    lat = make_lattice(n=32)
    data = bump_data(lat, amp=1e-3)
    report = picard_iterate(data, scalar_system(), T=2.0, dt=0.05, iters=5)
    assert not report.diverged
    assert 0.0 < report.contraction_factor < 1.0
    d = report.successive_distances
    assert all(b < a for a, b in zip(d, d[1:]) if a > 1e-16)


def test_picard_matches_evolve():
    lat = make_lattice(n=32)
    data = bump_data(lat, amp=1e-3)
    system = scalar_system()
    T, dt = 2.0, 0.05
    report = picard_iterate(data, system, T, dt, iters=6)
    traj = evolve(data, system, T, dt=0.01, sample_every=5)
    final = report.final
    assert np.max(np.abs(final.times - traj.times)) < 1e-12
    assert final.distance(traj, 0.5) < 1e-4


def test_picard_divergence_flag():
    lat = make_lattice(dim=1, box=8.0, n=32)
    data = bump_data(lat, amp=30.0)
    report = picard_iterate(data, scalar_system(coefficient=5.0), T=4.0,
                            dt=0.1, iters=8)
    assert report.diverged


def test_scattering_free_wave_constant():
    lat = make_lattice()
    rng = np.random.default_rng(10)
    state = decompose(random_field(lat, rng), random_field(lat, rng), 1.0)[None]
    traj = free_trajectory(lat, state, (1.0,), np.arange(11) * 0.5)
    result = scattering_state(traj)
    assert np.max(result.increments) < 1e-10
    assert np.max(np.abs(result.final - state)) < 1e-10


def test_scattering_increments_decay():
    lat = make_lattice(n=32, box=16.0)
    data = bump_data(lat, amp=1e-2)
    traj = evolve(data, scalar_system(), T=20.0, dt=0.05, sample_every=10)
    result = scattering_state(traj)
    assert result.tail_ratio(10.0) < 1.0
    # increments also sum: the total drift stays finite and small
    assert result.increments.sum() < 1.0


def test_trajectory_validation():
    lat = make_lattice()
    pair = decompose(
        random_field(lat, np.random.default_rng(11)), zero_field(lat), 1.0
    )
    three = np.stack([pair[None]] * 3)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.3]), (1.0,), lat, three)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), (1.0,), lat, three)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.2]), (0.0,), lat, three)
    traj = Trajectory(np.array([0.0, 0.1]), (1.0,), lat, three[:2])
    assert traj.n_components == 1
    assert traj.masses == (1.0,)
    assert traj.norm_series(0.5).shape == (2, 1)
