import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (
    ComplexSystem,
    complex_products,
    dealias_mask,
    full_lawson,
    join,
    mirror,
    random_field,
    random_real_data,
    real_form,
    rotation,
    split,
    two_buffer_picard,
)
from halfwave import dynamics, grid
from halfwave.dynamics import (
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
    sobolev_norm,
)
from halfwave.system import (
    MassSystem,
    evaluate_nonlinearity,
    free_system,
    scalar_system,
)


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
    u, u_t = random_real_data(lat, np.random.default_rng(6))
    state = decompose(lat, u, u_t, (1.0,))
    traj = evolve(lat, state, free_system((1.0,)), T=0.3, dt=0.3)
    assert traj.times.tolist() == [0.0, 0.3]
    plus, minus = traj.halves[0, 0]
    ref_p = free_propagate(SpectralField(lat, plus), 0.3, 1.0, +1)
    ref_m = free_propagate(SpectralField(lat, minus), 0.3, 1.0, -1)
    assert np.max(np.abs(traj.halves[1, 0, 0] - ref_p.coeffs)) < 1e-14
    assert np.max(np.abs(traj.halves[1, 0, 1] - ref_m.coeffs)) < 1e-14


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
    u0, ut0 = random_real_data(lat, np.random.default_rng(8), decay=2.0)
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


def test_instability_abort_from_rest():
    # u = 0: the guard scales by the whole state, so the velocity sets the
    # limit and the run stops on the norm test before any overflow
    lat = make_lattice(dim=1, box=8.0, n=32)
    u_t = gaussian_bump(lat, 50.0).coeffs[None]
    state = decompose(lat, zeros(lat), u_t, (1.0,))
    system = scalar_system(coefficient=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="exceeded") as info:
            evolve(lat, state, system, T=5.0, dt=0.05)
    assert 0 < info.value.time < 0.6


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("amp", [0.0, 0.5], ids=["zero-start", "bump"])
def test_non_finite_state_aborts(monkeypatch, bad, amp):
    # one norm test catches a non-finite entry, also from a zero initial norm
    lat = make_lattice(dim=1, box=8.0, n=32)

    def poisoned(self, y):
        y[0, 0, 3] = bad

    monkeypatch.setattr(dynamics._Stepper, "step", poisoned)
    with pytest.raises(InstabilityError, match="non-finite state at t=0.05") as info:
        evolve(lat, bump_state(lat, amp=amp), scalar_system(), T=1.0, dt=0.05)
    assert info.value.time == pytest.approx(0.05)


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
    state = decompose(lat, *random_real_data(lat, np.random.default_rng(9)), (1.0,))
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


def test_picard_rounding_noise_counts_as_converged(monkeypatch):
    # at T = dt one level is new per sweep, so each sweep takes one scripted distance
    lat = make_lattice(dim=1, n=16)
    state = bump_state(lat, 0.05)

    def run(distances, sweeps=None):
        script = iter(distances)
        monkeypatch.setattr(dynamics, "_state_distance", lambda *args: next(script))
        report = picard_iterate(
            lat, state, scalar_system(), T=0.1, dt=0.1, iters=len(distances)
        )
        assert report.successive_distances == tuple(distances[:sweeps])
        return report.contraction_factor, report.diverged

    # distances of a converged picard-3d run: after the fourth sweep they are
    # rounding noise, below 1e-12 times the first, and decide nothing
    factor, diverged = run([9.3e-8, 2.6e-11, 2.3e-15, 1.5e-19, 3.3e-21, 5.9e-22, 5.9e-22])
    assert factor == pytest.approx(2.6e-11 / 9.3e-8)
    assert not diverged
    # noise that rises three times in a row is not divergence either
    assert run([1.0, 1e-13, 2e-13, 3e-13, 4e-13]) == (0.0, False)
    # live distances still give their worst ratio and their streak, which
    # stops the iteration at its third increase
    assert run([1.0, 0.5, 0.6, 0.7, 0.8, 0.9], sweeps=5) == (0.6 / 0.5, True)
    assert run([0.0, 0.0]) == (0.0, False)


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


def test_scattering_increments_match_the_unrotated_profiles():
    # the reference pulls every sample back with its own rotation,
    # w(t_j) = e^{∓it_j<D>} u(t_j), and differences the profiles
    lat = make_lattice(n=32, box=16.0)
    traj = evolve(lat, bump_state(lat, amp=0.5), scalar_system(), T=4.0, dt=0.05,
                  sample_every=5)
    result = scattering_state(traj, 0.5)
    w = [u * rotation(lat, (1.0,), -t) for t, u in zip(traj.times, traj.halves)]
    reference = [pair_distance(lat, a, b) for a, b in zip(w, w[1:])]
    assert np.allclose(result.increments, reference, rtol=1e-10, atol=0.0)
    assert np.array_equal(result.final, w[-1])


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8)])
def test_streamed_increments_match_scattering_state(dim, n):
    # the stream sums ||u_j - E u_{j-1}|| over the band of the kept half
    lat = make_lattice(dim=dim, n=n)
    state = bump_state(lat, amp=0.5)
    args = (lat, state, scalar_system(coefficient=3.0), 2.0, 0.05, 4, 0.5)
    _, samples = dynamics._march(*args, 0)
    increments = [increment for _, increment in samples]
    expected = scattering_state(evolve(*args), 0.5).increments
    assert increments[0] == 0.0 and min(expected) > 1e-6
    assert np.allclose(increments[1:], expected, rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8)])
def test_free_trajectory_chains_the_exact_rotation(dim, n):
    # 800 steps of one step factor from sample 0 stay on e^{±it<D>} itself
    lat = make_lattice(dim=dim, n=n)
    state = decompose(lat, *random_data(lat, np.random.default_rng(dim)), (1.0,))
    times = 0.3 + np.arange(801) * 0.05
    traj = free_trajectory(lat, state, (1.0,), times)
    scale = np.max(np.abs(state))
    for t, sample in zip(times, traj.halves):
        exact = state * rotation(lat, (1.0,), t)
        assert np.max(np.abs(sample - exact)) <= 1e-12 * scale


def test_sample_0_alone_takes_one_whole_grid_rotation(monkeypatch):
    # evolve, and simulate when it saves its samples or runs uncoupled, take
    # sample 0 of the whole state alone; a step factor for it would be one
    # more whole-grid exp, and 16 bytes a point held for nothing
    lat = make_lattice(dim=2, n=16)
    state = decompose(lat, *random_real_data(lat, np.random.default_rng(5)), (1.0,))
    times = 0.3 + np.arange(4) * 0.05
    shapes, real = [], dynamics._rotation
    monkeypatch.setattr(dynamics, "_rotation", lambda *a: shapes.append(a[0].shape) or real(*a))
    first = next(dynamics._free_samples(lat, state, (1.0,), times[:1]))
    assert len(shapes) == 1
    assert np.array_equal(first, free_trajectory(lat, state, (1.0,), times).halves[0])
    shapes.clear()
    traj = evolve(lat, state, free_system((1.0,)), T=0.3, dt=0.05, sample_every=2)
    # the march's own rotations are on the kept half and on the band
    assert [shape for shape in shapes if shape[-1] == 16] == [(1, 1, 16, 16)]
    assert traj.halves.shape == (4, 1, 2, 16, 16)


def test_free_trajectory_refuses_too_few_or_uneven_times():
    lat = make_lattice()
    state = bump_state(lat, 0.1)
    for times in ([], [0.0], [0.0, 0.1, 0.3]):
        with pytest.raises(ValueError, match="two sample times|uniformly spaced"):
            free_trajectory(lat, state, (1.0,), np.array(times))


def test_distance_refuses_mismatched_trajectories():
    lat = make_lattice()
    u = random_field(lat, np.random.default_rng(11)).coeffs[None]
    state = decompose(lat, u, zeros(lat), (1.0,))
    times = np.arange(5) * 0.1
    traj = free_trajectory(lat, state, (1.0,), times)
    assert traj.distance(traj, 0.5) == 0.0
    others = [
        free_trajectory(lat, state, (1.0,), times[:2]),
        free_trajectory(lat, state, (2.0,), times),
        free_trajectory(lat, state, (1.0,), times + 0.01),
        free_trajectory(make_lattice(box=9.0), state, (1.0,), times),
    ]
    for other in others:
        with pytest.raises(ValueError, match="same samples"):
            traj.distance(other, 0.5)
        with pytest.raises(ValueError, match="same samples"):
            other.distance(traj, 0.5)


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


# ----------------------------------------------------------------------
# orders of accuracy, on a 2D 32^2 box of side 16 at mass 1
# ----------------------------------------------------------------------


def observed_orders(errors):
    """log2 of the ratios of errors at successively halved steps."""
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@pytest.fixture(scope="module")
def strong_problem():
    """Coupling 5, amplitude 0.5, T = 2, and a Lawson dt = 0.0125 final state."""
    lat = make_lattice(2, 16.0, 32)
    state = bump_state(lat, 0.5)
    system = scalar_system(1.0, 5.0)
    reference = evolve(lat, state, system, 2.0, 0.0125).halves[-1]
    return lat, state, system, reference


def test_richardson_fourth_order(strong_problem):
    lat, state, system, reference = strong_problem
    errors = [
        pair_distance(lat, evolve(lat, state, system, 2.0, dt).halves[-1], reference)
        for dt in (0.2, 0.1, 0.05)
    ]
    for order in observed_orders(errors):
        assert order == pytest.approx(4.0, abs=0.3)


def test_picard_trapezoid_is_second_order(strong_problem):
    lat, state, system, reference = strong_problem
    errors = []
    for dt in (0.1, 0.05, 0.025):
        report = picard_iterate(lat, state, system, 2.0, dt, 12)
        errors.append(pair_distance(lat, report.final.halves[-1], reference))
    for order in observed_orders(errors):
        assert order == pytest.approx(2.0, abs=0.3)


def test_picard_map_scales_quadratically_with_the_data():
    # for a quadratic N the first Duhamel correction grows like |data|^2 and
    # the Lipschitz constant on the small ball like |data|
    lat = make_lattice(2, 16.0, 32)
    system = scalar_system(1.0, 1.0)
    amplitudes = np.array([0.01, 0.02, 0.04])
    reports = [
        picard_iterate(lat, bump_state(lat, a), system, 2.0, 0.05, 4) for a in amplitudes
    ]
    first = [r.successive_distances[0] for r in reports]
    factors = [r.contraction_factor for r in reports]

    def slope(values):
        return np.polyfit(np.log(amplitudes), np.log(values), 1)[0]

    assert slope(first) == pytest.approx(2.0, abs=0.1)
    assert slope(factors) == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# real fields, complex systems in their real form, in-place Picard and the
# memory estimate


def test_solvers_reject_a_non_real_state():
    # a complex field is run as its real and imaginary parts; given as one
    # field, it is refused once, at entry
    lat = make_lattice(n=16)
    u = 0.1 * random_field(lat, np.random.default_rng(11)).coeffs[None]
    state = decompose(lat, u, zeros(lat), (1.0,))
    for solve in (evolve, lambda *args: picard_iterate(*args, iters=2)):
        with pytest.raises(ValueError, match="real fields"):
            solve(lat, state, scalar_system(), 0.1, 0.05)
    # a real u with an imaginary u_t is refused too
    state = decompose(lat, zeros(lat), 1j * gaussian_bump(lat, 0.1).coeffs[None], (1.0,))
    with pytest.raises(ValueError, match="real fields"):
        evolve(lat, state, scalar_system(), 0.1, 0.05)


def test_real_path_matches_complex_path():
    # a complex coefficient and a conjugated factor, run by evolve through the
    # system's real form, against a Lawson-RK4 on the complex products
    lat = make_lattice(n=32)
    system = ComplexSystem((1.0,), (((1.0 + 0.5j, (0, False), (0, True)),),))
    u = (0.3 + 0.2j) * gaussian_bump(lat, 1.0).coeffs[None]
    u_t = 0.1j * gaussian_bump(lat, 1.0, 1.5).coeffs[None]
    state = decompose(lat, u, u_t, system.masses)
    traj = evolve(lat, split(state, 2, state=True), real_form(system), 1.0, 0.05, 5)
    want = full_lawson(
        lat, state, system.masses, lambda z: complex_products(lat, system, z), 0.05, 20
    )
    assert np.max(np.abs(join(traj.halves[-1]) - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mirror_is_minus_k(dim, n):
    # on the grid axes after the (K, 2) ones, as the realness check uses it
    rng = np.random.default_rng(n + dim)
    shape = (2, 2) + (n,) * dim
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    minus = dynamics._mirror(a, range(2, a.ndim))
    assert np.array_equal(minus, mirror(a, dim))
    neg = -np.arange(n) % n
    assert np.array_equal(minus, a[(Ellipsis,) + np.ix_(*[neg] * dim)])


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8)])
def test_stepper_factors_are_the_band_of_the_whole_grid_factors(dim, n):
    # the band holds no Nyquist mode: factors built from its own brackets are
    # those of the whole grid with its Nyquist modes zeroed, bit for bit
    lat = make_lattice(dim=dim, n=n)
    masses, dt = (1.0, 1.7, 0.4), 0.05
    stepper = dynamics._Stepper(lat, free_system(masses), dt)
    br = np.stack([lat.bracket(m) for m in masses])
    inv2br = ~lat.nyquist_mask / (2.0 * br)

    def cut(a):
        return a[(Ellipsis,) + lat.band]

    assert np.array_equal(stepper.half_phase, cut(rotation(lat, masses, 0.5 * dt)))
    assert np.array_equal(stepper.kick, dt * cut(inv2br) * np.sin(0.5 * dt * cut(br)))
    assert np.array_equal(stepper.weight, cut((-1j * dt / 6.0) * inv2br[:, None]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_real_path_samples_are_hermitian_paired(dim):
    # the half state's samples are completed by u^-(xi) = conj(u^+(-xi)):
    # every dropped column is exactly the conjugate mirror of a kept one
    lat = make_lattice(dim=dim, n=16)
    u = gaussian_bump(lat, 0.3).coeffs[None]
    u_t = gaussian_bump(lat, 0.2, 1.5).coeffs[None]
    state = decompose(lat, u, u_t, (1.0,))
    traj = evolve(lat, state, scalar_system(), T=0.5, dt=0.05, sample_every=2)
    assert np.array_equal(traj.halves[0], state)
    dropped = (Ellipsis, slice(9, None))
    for sample in traj.halves[1:]:
        paired = np.conj(mirror(sample[:, ::-1], dim))
        assert np.array_equal(sample[dropped], paired[dropped])


def test_picard_set_up_keeps_n_buffers_off_mmap():
    # glibc maps N's 0.26 MB buffers at 32^3 unless a freed block of about
    # 1 MB has raised its mmap threshold; the set-up's realness check frees
    # one.  A check that freed only 0.5 MB blocks made 67,500 minor faults
    # in the picard-3d problem's sweeps, against about 2,000; a fresh
    # process keeps the test's own allocations out of the count
    script = """
import resource
from halfwave import cli
from halfwave.dynamics import picard_iterate
opts = {"dim": 3, "box_length": 32.0, "points_per_axis": 32, "mass": 1.0,
        "coupling": 1.0, "amplitude": 1e-3, "width": 1.0}
lattice, system, state = cli._initial_data(opts)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
picard_iterate(lattice, state, system, 5.0, 0.05, 6)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 10_000


def test_in_place_picard_matches_the_two_buffer_sweep():
    # a complex coefficient, a conjugated factor and two masses, through the
    # real form: the rotated-frame recursion is the same composite trapezoid
    # as the sweep over a full rotation table on the complex products, up to
    # rounding, and the real form keeps the summed H^s distances
    lat = make_lattice(n=16)
    system = ComplexSystem(
        (1.0, 1.5),
        (
            ((0.5 + 0.25j, (0, False), (1, True)),),
            ((-0.75, (0, False), (0, False)),),
        ),
    )
    u, u_t = random_data(lat, np.random.default_rng(12), k=2, decay=2.0)
    state = decompose(lat, 0.05 * u, 0.05 * u_t, system.masses)
    report = picard_iterate(
        lat, split(state, 2, state=True), real_form(system), T=1.0, dt=0.1, iters=4
    )
    final, distances = two_buffer_picard(
        lat, state, system.masses, lambda z: complex_products(lat, system, z), 1.0, 0.1, 4
    )
    assert not report.diverged
    scale = np.max(np.abs(final))
    assert np.max(np.abs(join(report.final.halves, axis=1) - final)) < 1e-13 * scale
    for ours, theirs in zip(report.successive_distances[:2], distances[:2]):
        assert ours == pytest.approx(theirs, rel=1e-9, abs=0.0)


def full_picard(lat, state, system, T, dt, iters, s=0.5):
    """Picard sweeps over the whole iterate with masked products, as before the band.

    Returns the last iterate and the distances.
    """
    n, shape = lat.spec.points_per_axis, lat.spec.shape
    axes = tuple(range(lat.spec.dim))
    keep = dealias_mask(lat)[..., : n // 2 + 1]
    br = np.stack([lat.bracket(m) for m in system.masses])[:, None]
    inv2br = ~lat.nyquist_mask / (2.0 * br)
    kick = -0.5j * dt * np.concatenate([inv2br, -inv2br], axis=1)
    root = np.sqrt(lat.cell_volume * br ** (2.0 * s))
    step = rotation(lat, system.masses, dt)

    def nonlinearity(u):
        kept = (f[..., : n // 2 + 1] * keep for f in u)
        v = [np.fft.irfftn(f, shape, axes, norm="ortho") for f in kept]
        out = np.empty_like(u)
        for poly, whole in zip(system.polynomials, out):
            total = np.zeros(shape)
            for mono in poly:
                j, k = mono.factors
                total += mono.coefficient * (v[j] * v[k])
            whole[..., : n // 2 + 1] = np.fft.rfftn(total, norm="ortho") * keep
            dynamics._complete_hermitian(lat, whole, whole)
        return out[:, None]

    n_levels = max(1, int(round(T / dt))) + 1
    current = np.empty((n_levels,) + state.shape, dtype=complex)
    current[0] = np.where(lat.nyquist_mask, 0.0, state)
    for j in range(1, n_levels):
        current[j] = current[j - 1] * step
    distances = []
    carry = np.empty_like(current[0])
    for _ in range(iters):
        distance = 0.0
        for j, level in enumerate(current):
            h = kick * nonlinearity(level.sum(1))
            if j > 0:
                carry *= step
                carry += h
                step_distance = np.sqrt(np.sum(np.abs(root * (carry - level)) ** 2))
                distance = max(distance, step_distance)
                level[...] = carry
            np.add(level, h, out=carry)
        distances.append(distance)
    return current, distances


def band_and_full_picard(dim, coefficient):
    """A Picard report and the whole-iterate sweep of the same 16^dim problem.

    A complex coefficient runs c z^2 of a real bump through its real form.
    """
    lat = make_lattice(dim=dim, n=16)
    state = bump_state(lat, amp=0.05)
    system = scalar_system(coefficient=coefficient.real)
    if coefficient.imag:
        pair = ComplexSystem((1.0,), (((coefficient, (0, False), (0, False)),),))
        state, system = split(state, dim, state=True), real_form(pair)
    report = picard_iterate(lat, state, system, T=1.0, dt=0.1, iters=4)
    return lat, report, *full_picard(lat, state, system, T=1.0, dt=0.1, iters=4)


coefficients = pytest.mark.parametrize(
    "coefficient", [1.0, 1.0 + 0.5j], ids=["real", "complex"]
)


@coefficients
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_picard_band_is_the_band_of_the_full_iterate(dim, coefficient):
    # outside the band every iterate is the free flow, so the band levels
    # evolve exactly as they did inside the whole iterate
    lat, report, full, distances = band_and_full_picard(dim, coefficient)
    band = (Ellipsis,) + lat.band
    assert np.array_equal(report.final.halves[band], full[band])
    assert report.successive_distances[0] == pytest.approx(distances[0], rel=1e-12)


@coefficients
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_picard_final_is_the_full_iterate(dim, coefficient):
    # outside the band final is the free flow, and the dropped half completed
    _, report, full, _ = band_and_full_picard(dim, coefficient)
    assert np.max(np.abs(report.final.halves - full)) <= 1e-13 * np.max(np.abs(full))


def test_picard_aborts_on_a_non_finite_sweep(monkeypatch):
    def poisoned(system, fields):
        return np.stack([f.coeffs for f in fields]) * np.nan

    lat = make_lattice(n=16)
    monkeypatch.setattr(dynamics, "evaluate_nonlinearity", poisoned)
    with pytest.raises(InstabilityError, match="non-finite iterate in Picard sweep 1"):
        picard_iterate(lat, bump_state(lat, 0.05), scalar_system(), T=0.2, dt=0.1, iters=2)


def test_evolve_refuses_a_stride_that_does_not_divide_the_steps():
    lat = make_lattice()
    with pytest.raises(ValueError, match="stride 3 does not divide the 10 steps"):
        evolve(lat, bump_state(lat, 0.1), scalar_system(), T=1.0, dt=0.1, sample_every=3)


def test_solvers_refuse_what_memory_cannot_hold(monkeypatch):
    # one 16 x 16 component: a state is 8 KiB, and so is a sample of evolve
    # or free_trajectory; a Picard level is the band of the kept half, the
    # 11 x 6 modes with |k| <= 5 on each axis and k >= 0 on the last
    lat = make_lattice(n=16)
    state = bump_state(lat, amp=0.1)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 2 * 8192)
    with pytest.raises(MemoryError, match="3 samples"):
        evolve(lat, state, scalar_system(), T=0.2, dt=0.1)
    evolve(lat, state, scalar_system(), T=0.1, dt=0.1)
    with pytest.raises(MemoryError, match="3 samples"):
        free_trajectory(lat, state, (1.0,), np.arange(3) * 0.1)
    free_trajectory(lat, state, (1.0,), np.arange(2) * 0.1)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 2 * (2 * 11 * 6 * 16))
    with pytest.raises(MemoryError, match="3 levels"):
        picard_iterate(lat, state, scalar_system(), T=0.2, dt=0.1, iters=2)
    report = picard_iterate(lat, state, scalar_system(), T=0.1, dt=0.1, iters=2)
    # the whole iterate is built, and checked, only when it is read
    with pytest.raises(MemoryError, match="2 samples"):
        report.final


def test_picard_aborts_on_a_non_finite_distance(monkeypatch):
    # a finite iterate whose weighted distance overflows is not a distance of 0
    lat = make_lattice(n=16)
    monkeypatch.setattr(dynamics, "_state_distance", lambda *args: math.inf)
    with pytest.raises(InstabilityError, match="non-finite iterate in Picard sweep 1"):
        picard_iterate(lat, bump_state(lat, 0.05), scalar_system(), T=0.2, dt=0.1, iters=2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("s", [1e300, 180.0])
def test_solvers_refuse_hs_weights_that_overflow(s):
    # <xi>^(2s) is infinite at s = 1e300 on every mode but xi = 0; at s = 180
    # on this 16^2 lattice it is finite on the band (<xi> <= 6.0) but not
    # beyond it (<xi> up to 8.9), where evolve's norm reads it
    lat = make_lattice(n=16)
    state = bump_state(lat, 0.05)
    with pytest.raises(ValueError, match="not finite on the lattice"):
        evolve(lat, state, scalar_system(), T=0.2, dt=0.1, s=s)
    with pytest.raises(ValueError, match="not finite on the lattice"):
        picard_iterate(lat, state, scalar_system(), T=0.2, dt=0.1, iters=2, s=s)


# ---------------------------------------------------------------------------
# the stepper's N pairs on a worker thread


def traced_threads(monkeypatch):
    """Names of the threads that evaluate N from now on."""
    names = []
    real = dynamics.evaluate_nonlinearity

    def traced(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(dynamics, "evaluate_nonlinearity", traced)
    return names


def cores(monkeypatch, n):
    monkeypatch.setattr(grid.os, "sched_getaffinity", lambda pid: set(range(n)))


def pair_stepper(lat, pool):
    return dynamics._Stepper(lat, scalar_system(), 0.05, pool)


def test_paired_evolve_equals_a_one_core_run(monkeypatch):
    # 256^2 = 2^16 points, the smallest grid that pairs
    lat = make_lattice(dim=2, box=32.0, n=256)
    state = bump_state(lat, amp=0.5, width=2.0)
    runs = {}
    for n in (1, 2):
        cores(monkeypatch, n)
        names = traced_threads(monkeypatch)
        runs[n] = evolve(lat, state, scalar_system(), T=0.2, dt=0.05, sample_every=2)
        monkeypatch.undo()
        # 4 steps of 4 N, on a worker as well as the caller when paired
        assert len(names) == 16 and len(set(names)) == n
    assert np.array_equal(runs[1].halves, runs[2].halves)


def test_below_the_gate_no_thread_starts(monkeypatch):
    # 128^2 points, a quarter of the gate, with two cores
    lat = make_lattice(dim=2, box=32.0, n=128)
    cores(monkeypatch, 2)
    before, counts = threading.active_count(), []
    real = dynamics.evaluate_nonlinearity

    def counted(*args):
        counts.append(threading.active_count())
        return real(*args)

    monkeypatch.setattr(dynamics, "evaluate_nonlinearity", counted)
    evolve(lat, bump_state(lat, amp=0.5), scalar_system(), T=0.1, dt=0.05)
    assert counts == [before] * 8


def test_no_worker_outlives_evolve(monkeypatch):
    lat = make_lattice(dim=2, box=32.0, n=256)
    state = bump_state(lat, amp=0.5, width=2.0)
    cores(monkeypatch, 2)
    names = traced_threads(monkeypatch)
    before = threading.active_count()
    evolve(lat, state, scalar_system(), T=0.1, dt=0.05)
    assert threading.active_count() == before and len(set(names)) == 2
    # a limit of half the initial norm trips on the first step, after a pair ran
    monkeypatch.setattr(dynamics, "_GROWTH_ABORT", 0.5)
    names.clear()
    with pytest.raises(InstabilityError, match="exceeded"):
        evolve(lat, state, scalar_system(), T=0.1, dt=0.05)
    assert threading.active_count() == before and len(set(names)) == 2


def test_the_worker_keeps_the_callers_errstate():
    # the second field's square overflows; on a worker that did not copy the
    # caller's context, numpy would only warn
    lat = make_lattice(dim=1, box=8.0, n=32)
    fine = dynamics._band(lat, bump_state(lat, amp=0.5)).sum(1)
    huge = 1e200 * np.ones_like(fine)
    with ThreadPoolExecutor(max_workers=1) as pool:
        stepper = pair_stepper(lat, pool)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            stepper.pair(fine, huge)


def test_an_error_in_the_worker_reaches_the_caller():
    lat = make_lattice(dim=1, box=8.0, n=32)
    fine = dynamics._band(lat, bump_state(lat, amp=0.5)).sum(1)
    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(ValueError, match="one field per component"):
            pair_stepper(lat, pool).pair(fine, np.concatenate([fine, fine]))
