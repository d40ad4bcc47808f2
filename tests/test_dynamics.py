import math

import numpy as np
import pytest

from halfwave.dynamics import (
    _contraction,
    InstabilityError,
    Trajectory,
    conserved_energy,
    decompose,
    evolve,
    free_trajectory,
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


def zeros(lat, k=1):
    return np.zeros((k,) + lat.spec.shape, dtype=complex)


def random_data(lat, rng, k=1, decay=0.0):
    """k random position coefficient arrays, then k velocities: (K, *grid) each."""
    u = np.stack([random_field(lat, rng, decay).coeffs for _ in range(k)])
    u_t = np.stack([random_field(lat, rng, decay).coeffs for _ in range(k)])
    return u, u_t


def bump_state(lat, amp, width=1.0):
    u = gaussian_bump(lat, amp, width).coeffs[None]
    return decompose(lat, u, zeros(lat), (1.0,))


def pair_distance(lat, sa, sb, masses=(1.0,), s=0.5):
    sq = 0.0
    for pa, pb, m in zip(sa, sb, masses):
        for half in range(2):
            sq += sobolev_norm(SpectralField(lat, pa[half] - pb[half]), s, m) ** 2
    return math.sqrt(sq)


def test_decompose_reconstruct_roundtrip():
    lat = make_lattice()
    rng = np.random.default_rng(1)
    u, u_t = random_data(lat, rng, decay=1.0)
    back_u, back_ut = reconstruct(lat, decompose(lat, u, u_t, (1.7,)), (1.7,))
    assert np.max(np.abs(back_u - u)) < 1e-12
    assert np.max(np.abs(back_ut - u_t)) < 1e-12


def test_decompose_zero_velocity_splits_evenly():
    lat = make_lattice()
    u = random_field(lat, np.random.default_rng(2)).coeffs[None]
    (plus, minus), = decompose(lat, u, zeros(lat), (1.0,))
    assert np.max(np.abs(plus - u[0] / 2)) < 1e-14
    assert np.max(np.abs(minus - u[0] / 2)) < 1e-14


def test_decompose_forward_mode_oracle():
    # u = 1, u_t = i<xi> at one mode is a pure forward wave: plus=1, minus=0
    lat = make_lattice()
    idx = (3, 2)
    br = lat.bracket(1.0)[idx]
    u, ut = zeros(lat), zeros(lat)
    u[0][idx] = 1.0
    ut[0][idx] = 1j * br
    (plus, minus), = decompose(lat, u, ut, (1.0,))
    assert plus[idx] == pytest.approx(1.0, abs=1e-14)
    assert abs(minus[idx]) < 1e-14


def test_decompose_splits_each_component_with_its_own_mass():
    lat = make_lattice()
    u, u_t = random_data(lat, np.random.default_rng(3), k=2)
    state = decompose(lat, u, u_t, (1.0, 2.5))
    assert state.shape == (2, 2) + lat.spec.shape
    for i, m in enumerate((1.0, 2.5)):
        ref = decompose(lat, u[i : i + 1], u_t[i : i + 1], (m,))
        assert np.max(np.abs(state[i] - ref[0])) < 1e-14


def test_linear_exact_identity_and_free_propagate_route():
    lat = make_lattice()
    u0, ut0 = random_data(lat, np.random.default_rng(4))
    at0, _ = linear_exact(lat, u0, ut0, (1.3,), 0.0)
    assert np.max(np.abs(at0 - u0)) < 1e-14
    t = 3.7
    moved_u, moved_ut = linear_exact(lat, u0, ut0, (1.3,), t)
    (plus, minus), = decompose(lat, u0, ut0, (1.3,))
    plus_t = free_propagate(SpectralField(lat, plus), t, 1.3, +1)
    minus_t = free_propagate(SpectralField(lat, minus), t, 1.3, -1)
    state = np.stack([plus_t.coeffs, minus_t.coeffs])[None]
    u, u_t = reconstruct(lat, state, (1.3,))
    assert np.max(np.abs(u - moved_u)) < 1e-12
    assert np.max(np.abs(u_t - moved_ut)) < 1e-12


def test_linear_exact_conserves_quadratic_energy():
    lat = make_lattice()
    u, u_t = random_data(lat, np.random.default_rng(5))
    system = free_system((2.0,))

    def energy(data):
        return conserved_energy(lat, decompose(lat, *data, (2.0,)), system)

    e0 = energy((u, u_t))
    for t in (0.9, 4.4, 17.0):
        et = energy(linear_exact(lat, u, u_t, (2.0,), t))
        assert et == pytest.approx(e0, rel=1e-12)


def test_step_free_system_is_exact_rotation():
    lat = make_lattice()
    u = random_field(lat, np.random.default_rng(6)).coeffs[None]
    u_t = random_field(lat, np.random.default_rng(7)).coeffs[None]
    state = decompose(lat, u, u_t, (1.0,))
    traj = evolve(lat, state, free_system((1.0,)), T=0.3, dt=0.3)
    assert traj.times.tolist() == [0.0, 0.3]
    plus, minus = traj.halves[0, 0]
    ref_p = free_propagate(SpectralField(lat, plus), 0.3, 1.0, +1)
    ref_m = free_propagate(SpectralField(lat, minus), 0.3, 1.0, -1)
    assert np.max(np.abs(traj.halves[1, 0, 0] - ref_p.coeffs)) < 1e-14
    assert np.max(np.abs(traj.halves[1, 0, 1] - ref_m.coeffs)) < 1e-14


def test_richardson_fourth_order():
    lat = make_lattice(n=16)
    state = bump_state(lat, amp=0.5)
    system = scalar_system()
    T = 0.5
    ref = evolve(lat, state, system, T, dt=T / 128).halves[-1]
    coarse = evolve(lat, state, system, T, dt=T / 8).halves[-1]
    fine = evolve(lat, state, system, T, dt=T / 16).halves[-1]
    e1 = pair_distance(lat, coarse, ref)
    e2 = pair_distance(lat, fine, ref)
    assert 8.0 < e1 / e2 < 32.0


def test_real_data_stays_real():
    lat = make_lattice(n=32)
    traj = evolve(lat, bump_state(lat, amp=0.3), scalar_system(), T=1.0, dt=0.02)
    u = SpectralField(lat, traj.halves[-1, 0].sum(axis=0))
    vals = inverse_transform(u)
    assert np.max(np.abs(vals.imag)) < 1e-10 * max(1.0, np.max(np.abs(vals.real)))


def test_evolve_zero_data_stays_zero():
    lat = make_lattice()
    state = decompose(lat, zeros(lat), zeros(lat), (1.0,))
    traj = evolve(lat, state, scalar_system(), T=1.0, dt=0.1)
    assert np.max(np.abs(traj.halves)) == 0


def test_evolve_free_matches_linear_exact():
    lat = make_lattice(n=32)
    u0, ut0 = random_data(lat, np.random.default_rng(8), decay=2.0)
    system = free_system((1.0,))
    state = decompose(lat, u0, ut0, (1.0,))
    traj = evolve(lat, state, system, T=5.0, dt=0.05, sample_every=20)
    for j, t in enumerate(traj.times):
        ref, _ = linear_exact(lat, u0, ut0, (1.0,), t)
        u = traj.halves[j, 0].sum(axis=0)
        err = sobolev_norm(SpectralField(lat, u - ref[0]), 1.0, 1.0)
        assert err < 1e-9


def test_instability_abort():
    lat = make_lattice(dim=1, box=8.0, n=32)
    state = bump_state(lat, amp=50.0)
    system = scalar_system(coefficient=10.0)
    with pytest.raises(InstabilityError) as info:
        evolve(lat, state, system, T=5.0, dt=0.05)
    assert info.value.time is None or info.value.time > 0


def test_energy_conservation_short_run():
    lat = make_lattice(n=32, box=16.0)
    state = bump_state(lat, amp=0.5)
    system = scalar_system()
    e0 = conserved_energy(lat, state, system)
    traj = evolve(lat, state, system, T=1.0, dt=0.01, sample_every=25)
    for state in traj.halves:
        assert conserved_energy(lat, state, system) == pytest.approx(e0, rel=1e-6)


def test_picard_free_system_immediate_fixed_point():
    lat = make_lattice()
    state = decompose(lat, *random_data(lat, np.random.default_rng(9)), (1.0,))
    report = picard_iterate(lat, state, free_system((1.0,)), T=1.0, dt=0.1, iters=2)
    assert not report.diverged
    assert report.contraction_factor == 0.0
    assert all(d < 1e-14 for d in report.successive_distances)


def test_picard_contracts_on_small_data():
    lat = make_lattice(n=32)
    state = bump_state(lat, amp=1e-3)
    report = picard_iterate(lat, state, scalar_system(), T=2.0, dt=0.05, iters=5)
    assert not report.diverged
    assert 0.0 < report.contraction_factor < 1.0
    d = report.successive_distances
    assert all(b < a for a, b in zip(d, d[1:]) if a > 1e-16)


def test_picard_matches_evolve():
    lat = make_lattice(n=32)
    state = bump_state(lat, amp=1e-3)
    system = scalar_system()
    T, dt = 2.0, 0.05
    report = picard_iterate(lat, state, system, T, dt, iters=6)
    traj = evolve(lat, state, system, T, dt=0.01, sample_every=5)
    final = report.final
    assert np.max(np.abs(final.times - traj.times)) < 1e-12
    assert final.distance(traj, 0.5) < 1e-4


def test_picard_rounding_noise_counts_as_converged():
    # distances of a converged picard-3d run: after the fourth sweep they are
    # rounding noise, below 1e-12 times the first, and decide nothing
    distances = [9.3e-8, 2.6e-11, 2.3e-15, 1.5e-19, 3.3e-21, 5.9e-22, 5.9e-22]
    factor, diverged = _contraction(distances)
    assert factor == pytest.approx(2.6e-11 / 9.3e-8)
    assert not diverged
    # noise that rises three times in a row is not divergence either
    assert _contraction([1.0, 1e-13, 2e-13, 3e-13, 4e-13]) == (0.0, False)
    # live distances still give their worst ratio and their streak
    assert _contraction([1.0, 0.5, 0.6, 0.7, 0.8]) == (0.6 / 0.5, True)
    assert _contraction([0.0, 0.0]) == (0.0, False)


def test_picard_divergence_flag():
    lat = make_lattice(dim=1, box=8.0, n=32)
    report = picard_iterate(lat, bump_state(lat, amp=30.0),
                            scalar_system(coefficient=5.0), T=4.0, dt=0.1, iters=8)
    assert report.diverged


def test_scattering_free_wave_constant():
    lat = make_lattice()
    state = decompose(lat, *random_data(lat, np.random.default_rng(10)), (1.0,))
    traj = free_trajectory(lat, state, (1.0,), np.arange(11) * 0.5)
    result = scattering_state(traj)
    assert np.max(result.increments) < 1e-10
    assert np.max(np.abs(result.final - state)) < 1e-10


def test_scattering_increments_decay():
    lat = make_lattice(n=32, box=16.0)
    state = bump_state(lat, amp=1e-2)
    traj = evolve(lat, state, scalar_system(), T=20.0, dt=0.05, sample_every=10)
    result = scattering_state(traj)
    assert result.tail_ratio(10.0) < 1.0
    # increments also sum: the total drift stays finite and small
    assert result.increments.sum() < 1.0


def test_trajectory_validation():
    lat = make_lattice()
    u = random_field(lat, np.random.default_rng(11)).coeffs[None]
    three = np.stack([decompose(lat, u, zeros(lat), (1.0,))] * 3)
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


def test_decompose_and_solvers_reject_data_of_the_wrong_shape():
    lat = make_lattice()
    u, u_t = random_data(lat, np.random.default_rng(3), k=2)
    with pytest.raises(ValueError, match="position"):
        decompose(lat, u, u_t, (1.0,))
    with pytest.raises(ValueError, match="velocity"):
        decompose(lat, u, u_t[:1], (1.0, 2.5))
    state = bump_state(lat, amp=1e-3)
    system = scalar_system()
    wrong = (
        np.concatenate([state, state]),  # one component too many
        state[:, 0],  # no halves axis
        bump_state(make_lattice(n=8), 1e-3),  # another lattice's grid
    )
    for bad in wrong:
        with pytest.raises(ValueError, match="state has shape"):
            evolve(lat, bad, system, T=0.2, dt=0.1)
        with pytest.raises(ValueError, match="state has shape"):
            picard_iterate(lat, bad, system, T=0.2, dt=0.1, iters=2)
