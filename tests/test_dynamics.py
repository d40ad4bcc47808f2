import math

import numpy as np
import pytest

from halfwave import dynamics
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
from halfwave.system import (
    MassSystem,
    Monomial,
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
# the real-field path, in-place Picard and the memory estimate


def refuse_real_transforms(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("real transform on the complex path")

    monkeypatch.setattr(np.fft, "rfftn", fail)


def test_real_system_and_state_take_the_real_path(monkeypatch):
    # the converse of the two tests below: the patch does catch the real path
    lat = make_lattice(n=16)
    refuse_real_transforms(monkeypatch)
    with pytest.raises(AssertionError, match="real transform"):
        evolve(lat, bump_state(lat, amp=0.1), scalar_system(), T=0.1, dt=0.05)


def test_complex_coefficients_take_the_complex_path(monkeypatch):
    lat = make_lattice(n=16)
    state = bump_state(lat, amp=0.1)
    system = scalar_system(coefficient=1.0 + 0.5j)
    refuse_real_transforms(monkeypatch)
    evolve(lat, state, system, T=0.1, dt=0.05)
    picard_iterate(lat, state, system, T=0.1, dt=0.05, iters=2)


def test_non_real_state_takes_the_complex_path(monkeypatch):
    lat = make_lattice(n=16)
    u = 0.1 * random_field(lat, np.random.default_rng(11)).coeffs[None]
    state = decompose(lat, u, zeros(lat), (1.0,))
    refuse_real_transforms(monkeypatch)
    evolve(lat, state, scalar_system(), T=0.1, dt=0.05)
    picard_iterate(lat, state, scalar_system(), T=0.1, dt=0.05, iters=2)


def test_real_path_matches_complex_path(monkeypatch):
    lat = make_lattice(n=32)
    state = bump_state(lat, amp=0.3)
    real = evolve(lat, state, scalar_system(), T=1.0, dt=0.05, sample_every=5)
    monkeypatch.setattr(dynamics, "_real_path", lambda *args: False)
    forced = evolve(lat, state, scalar_system(), T=1.0, dt=0.05, sample_every=5)
    scale = np.max(np.abs(real.halves))
    assert np.max(np.abs(real.halves - forced.halves)) < 1e-13 * scale


def two_buffer_picard(lat, state, system, T, dt, iters, s=0.5):
    """Picard sweeps as they were: two whole iterates and a full rotation table."""
    dim = lat.spec.dim
    signs = np.array([1.0, -1.0]).reshape((1, 2) + (1,) * dim)
    br = np.stack([lat.bracket(m) for m in system.masses])[:, None]
    inv2br = ~lat.nyquist_mask / (2.0 * br)
    weights = lat.cell_volume * br ** (2.0 * s)
    times = np.arange(max(1, int(round(T / dt))) + 1) * dt

    def rotation(t):
        phase = np.exp(1j * signs * t * br)
        phase[:, :, lat.nyquist_mask] = 0.0
        return phase

    def nonlinearity(y):
        fields = tuple(SpectralField(lat, p + q) for p, q in y)
        out = evaluate_nonlinearity(system, fields)
        return np.stack([f.coeffs for f in out])[:, None]

    rotations = np.stack([rotation(t) for t in times])
    current = state * rotations
    distances = []
    for _ in range(iters):
        nxt = np.empty_like(current)
        acc = np.zeros_like(state)
        prev = None
        distance = 0.0
        for j in range(times.size):
            scaled = nonlinearity(current[j]) * inv2br
            cur = np.conj(rotations[j]) * scaled
            if j > 0:
                acc = acc + 0.5 * dt * (prev + cur)
            prev = cur
            nxt[j] = rotations[j] * (state - 1j * signs * acc)
            step = np.sqrt(np.sum(weights * np.abs(nxt[j] - current[j]) ** 2))
            distance = max(distance, float(step))
        distances.append(distance)
        current = nxt
    return current, distances


def test_in_place_picard_matches_the_two_buffer_sweep():
    # a complex-path system (complex coefficient, conjugated factor, two
    # masses): the rotated-frame recursion is the same composite trapezoid
    # as the sweep over a full rotation table, up to rounding
    lat = make_lattice(n=16)
    system = MassSystem(
        (1.0, 1.5),
        (
            (Monomial(0.5 + 0.25j, ((0, False), (1, True))),),
            (Monomial(-0.75, ((0, False), (0, False))),),
        ),
    )
    u, u_t = random_data(lat, np.random.default_rng(12), k=2, decay=2.0)
    state = decompose(lat, 0.05 * u, 0.05 * u_t, system.masses)
    report = picard_iterate(lat, state, system, T=1.0, dt=0.1, iters=4)
    final, distances = two_buffer_picard(lat, state, system, T=1.0, dt=0.1, iters=4)
    assert not report.diverged
    scale = np.max(np.abs(final))
    assert np.max(np.abs(report.final.halves - final)) < 1e-13 * scale
    for ours, theirs in zip(report.successive_distances[:2], distances[:2]):
        assert ours == pytest.approx(theirs, rel=1e-9, abs=0.0)


def test_solvers_refuse_what_memory_cannot_hold(monkeypatch):
    # one 16 x 16 component: a state is 8 KiB, and so are a sample of evolve
    # or free_trajectory and a Picard level
    lat = make_lattice(n=16)
    state = bump_state(lat, amp=0.1)
    monkeypatch.setattr(dynamics, "_physical_memory", lambda: 2 * 8192)
    with pytest.raises(MemoryError, match="3 samples"):
        evolve(lat, state, scalar_system(), T=0.2, dt=0.1)
    evolve(lat, state, scalar_system(), T=0.1, dt=0.1)
    with pytest.raises(MemoryError, match="3 samples"):
        free_trajectory(lat, state, (1.0,), np.arange(3) * 0.1)
    free_trajectory(lat, state, (1.0,), np.arange(2) * 0.1)
    with pytest.raises(MemoryError, match="3 levels"):
        picard_iterate(lat, state, scalar_system(), T=0.2, dt=0.1, iters=2)
    picard_iterate(lat, state, scalar_system(), T=0.1, dt=0.1, iters=2)
