"""Property tests of the (K, 2, *grid) half-wave layout and its H^s kernels."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ComplexSystem,
    complex_products,
    full_lawson,
    join,
    random_field,
    random_real_field,
    read_halves,
    real_form,
    reconstructed_energy,
    split,
    transforms_find_real,
    two_buffer_picard,
)
from halfwave.cli import load_trajectory, save_trajectory
from halfwave.dynamics import (
    Trajectory,
    _band,
    _fill,
    _require_real,
    conserved_energy,
    decompose,
    evolve,
    picard_iterate,
    reconstruct,
)
from halfwave.grid import (
    FrequencyLattice,
    GridSpec,
    SpectralField,
    dyadic_scales,
    lp_weights,
    sobolev_norm,
)
from halfwave.system import MassSystem, Monomial, free_system, scalar_system
from halfwave.variation import modulation_weights

dims = st.integers(1, 3)
masses = st.floats(0.1, 10.0)
seeds = st.integers(0, 2**32 - 1)
properties = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def lattice(dim, box=6.0):
    return FrequencyLattice(GridSpec(dim, box, 8))


lattices = st.builds(
    FrequencyLattice,
    st.builds(GridSpec, dims, st.floats(0.5, 200.0), st.sampled_from([8, 16, 32, 64])),
)


def random_data(lat, rng, k, decay=0.0, field=random_field):
    """(K, *grid) Nyquist-free position coefficients, then velocities."""
    return tuple(
        np.stack([field(lat, rng, decay=decay).coeffs for _ in range(k)])
        for _ in range(2)
    )


@properties
@given(
    dim=dims,
    mass_list=st.lists(masses, min_size=1, max_size=3),
    decay=st.floats(0.0, 3.0),
    seed=seeds,
)
def test_decompose_reconstruct_roundtrip(dim, mass_list, decay, seed):
    lat = lattice(dim)
    rng = np.random.default_rng(seed)
    k = len(mass_list)
    u, u_t = random_data(lat, rng, k, decay)
    state = decompose(lat, u, u_t, mass_list)
    assert state.shape == (k, 2) + lat.spec.shape
    back_u, back_ut = reconstruct(lat, state, mass_list)
    assert np.max(np.abs(back_u - u)) < 1e-12
    assert np.max(np.abs(back_ut - u_t)) < 1e-12


@properties
@given(
    dim=dims,
    n=st.sampled_from([8, 16]),
    mass_list=st.lists(masses, min_size=1, max_size=3, unique=True),
    velocity=st.booleans(),
    component=st.integers(0, 2),
    seed=seeds,
)
def test_realness_check_decides_as_the_transforms(
    dim, n, mass_list, velocity, component, seed
):
    # an imaginary part of 1e-14 of one field's norm passes, 1e-10 does not,
    # and the spectral test decides each case as the inverse transforms do
    lat = FrequencyLattice(GridSpec(dim, 6.0, n))
    rng = np.random.default_rng(seed)
    data = random_data(lat, rng, len(mass_list), field=random_real_field)
    noise = random_real_field(lat, rng).coeffs
    for size in (1e-14, 1e-10):
        u, u_t = (a.copy() for a in data)
        field = (u_t if velocity else u)[component % len(mass_list)]
        field += (1j * size * np.linalg.norm(field) / np.linalg.norm(noise)) * noise
        state = decompose(lat, u, u_t, mass_list)
        real = transforms_find_real(lat, state, mass_list)
        assert real == (size < 1e-12)
        if real:
            _require_real(lat, state, mass_list)
        else:
            with pytest.raises(ValueError, match="real fields"):
                _require_real(lat, state, mass_list)


@properties
@given(
    dim=dims,
    mass_list=st.lists(masses, min_size=1, max_size=3, unique=True),
    seed=seeds,
)
def test_energy_from_the_halves_is_the_energy_of_the_fields(dim, mass_list, seed):
    lat = lattice(dim)
    rng = np.random.default_rng(seed)
    k = len(mass_list)
    data = random_data(lat, rng, k, decay=1.0, field=random_real_field)
    state = decompose(lat, *(0.1 * a for a in data), mass_list)
    # component i is driven by u_i u_{i+1}, every component coupled
    polys = tuple((Monomial(0.5 + i, (i, (i + 1) % k)),) for i in range(k))
    system = MassSystem(tuple(mass_list), polys)
    expected = reconstructed_energy(lat, state, system)
    assert conserved_energy(lat, state, system) == pytest.approx(expected, rel=1e-13)


def random_trajectory(lat, rng, n_times, mass_list):
    shape = (n_times, len(mass_list), 2) + lat.spec.shape
    halves = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Trajectory(np.arange(n_times) * 0.1, mass_list, lat, halves)


@properties
@given(
    dim=dims,
    mass_list=st.lists(masses, min_size=1, max_size=3),
    s=st.floats(0.0, 2.0),
    n_times=st.integers(2, 4),
    seed=seeds,
)
def test_hs_kernels_match_per_field_sobolev_norm(dim, mass_list, s, n_times, seed):
    lat = lattice(dim)
    rng = np.random.default_rng(seed)
    a = random_trajectory(lat, rng, n_times, mass_list)
    b = random_trajectory(lat, rng, n_times, mass_list)

    def norm(coeffs, m):
        return sobolev_norm(SpectralField(lat, coeffs), s, m)

    norms = [
        [norm(pair[0] + pair[1], m) for pair, m in zip(state, a.masses)]
        for state in a.halves
    ]
    assert np.allclose(a.norm_series(s), norms, rtol=1e-12, atol=0.0)
    distance = max(
        math.sqrt(
            sum(
                norm(pa[half] - pb[half], m) ** 2
                for pa, pb, m in zip(sa, sb, a.masses)
                for half in range(2)
            )
        )
        for sa, sb in zip(a.halves, b.halves)
    )
    assert a.distance(b, s) == pytest.approx(distance, rel=1e-12, abs=0.0)


@properties
@given(
    dim=dims,
    mass_list=st.lists(masses, min_size=1, max_size=3),
    dt=st.floats(0.01, 1.0),
    seed=seeds,
)
def test_free_steps_conserve_each_half(dim, mass_list, dt, seed):
    lat = lattice(dim)
    rng = np.random.default_rng(seed)
    data = random_data(lat, rng, len(mass_list), field=random_real_field)
    state = decompose(lat, *data, mass_list)
    traj = evolve(lat, state, free_system(mass_list), T=4 * dt, dt=dt)
    norms = np.array(
        [[[sobolev_norm(SpectralField(lat, h), 0.0) for h in pair] for pair in state]
         for state in traj.halves]
    )
    assert np.allclose(norms, norms[0], rtol=1e-12, atol=0.0)


@properties
@given(
    lat=lattices,
    mass_list=st.lists(masses, min_size=1, max_size=2),
    decay=st.floats(0.0, 3.0),
    seed=seeds,
)
def test_kept_half_of_a_real_state_completes_to_the_state(lat, mass_list, decay, seed):
    rng = np.random.default_rng(seed)
    shape = (len(mass_list),) + lat.spec.shape
    axes = tuple(range(1, len(shape)))
    weight = lat.bracket(1.0) ** (-decay)
    u, u_t = (
        np.fft.fftn(rng.standard_normal(shape), axes=axes, norm="ortho") * weight
        for _ in range(2)
    )
    state = decompose(lat, u, u_t, mass_list)
    # the kept half outside the band stays; the band and the dropped half are rebuilt
    h = lat.spec.points_per_axis // 2 + 1
    full = state.copy()
    full[(Ellipsis,) + lat.band] = np.nan
    full[..., h:] = np.nan
    _fill(lat, full, (Ellipsis,) + lat.band, _band(lat, state))
    assert np.max(np.abs(full - state)) <= 1e-13 * np.max(np.abs(state))
    # and from the kept half alone, as evolve completes its samples
    full[...] = np.nan
    _fill(lat, full, np.s_[..., :h], state[..., :h])
    assert np.max(np.abs(full - state)) <= 1e-13 * np.max(np.abs(state))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(
    n_times=st.integers(2, 5),
    dt=st.floats(1e-3, 1.0),
    mass_list=st.lists(masses, min_size=3, max_size=3),
    seed=seeds,
)
def test_trajectory_file_roundtrip_is_bit_exact(dim, k, n_times, dt, mass_list, seed):
    lat = lattice(dim, box=4.5)
    rng = np.random.default_rng(seed)
    shape = (n_times, k, 2) + lat.spec.shape
    halves = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    traj = Trajectory(np.arange(n_times) * dt, mass_list[:k], lat, halves)
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "trajectory.npz"
        save_trajectory(traj, store)
        loaded = load_trajectory(store)
        stored = read_halves(loaded)
    assert loaded.lattice.spec == traj.lattice.spec
    assert loaded.masses == traj.masses
    assert np.array_equal(loaded.times, traj.times)
    assert stored.dtype == traj.halves.dtype
    assert np.array_equal(stored, traj.halves)


@properties
@given(lat=lattices)
def test_littlewood_paley_weights_partition_unity(lat):
    total = sum(lp_weights(lat, scale) for scale in dyadic_scales(lat))
    live = ~lat.nyquist_mask
    assert np.allclose(total[live], 1.0, rtol=0.0, atol=1e-12)
    assert np.all(total[~live] == 0.0)


@properties
@given(
    lat=lattices,
    n_times=st.integers(2, 8),
    dt=st.floats(0.01, 1.0),
    sign=st.sampled_from([1, -1]),
    mass=masses,
)
def test_modulation_low_and_high_complement(lat, n_times, dt, sign, mass):
    # blocks 0, 1, ..., N sum to bump(x/N), which is 1 on |x| <= N: the blocks
    # below N and those from N up are complementary once N covers every
    # modulation x = tau - sign <xi> on the grid
    halves = np.zeros((n_times, 1, 2) + lat.spec.shape, complex)
    traj = Trajectory(np.arange(n_times) * dt, (mass,), lat, halves)
    reach = np.pi / dt + float(lat.bracket(mass).max())
    top = 2 ** math.ceil(math.log2(reach))
    indices = [0] + [2**j for j in range(int(math.log2(top)) + 1)]
    total = sum(modulation_weights(traj, 0, index, sign) for index in indices)
    live = ~lat.nyquist_mask
    assert np.allclose(total[:, live], 1.0, rtol=0.0, atol=1e-14)
    assert np.all(total[:, ~live] == 0.0)


@properties
@given(
    dim=dims,
    n=st.sampled_from([8, 16]),
    coupling=st.floats(0.5, 4.0),
    amplitude=st.floats(0.01, 0.5),
    steps=st.integers(2, 6),
    seed=seeds,
)
def test_band_stepper_matches_a_full_stepper(dim, n, coupling, amplitude, steps, seed):
    # the stepper carries only the 2/3 band and rotates the rest freely; a
    # Lawson-RK4 over every mode of the state takes the same steps
    lat = FrequencyLattice(GridSpec(dim, 8.0, n))
    rng = np.random.default_rng(seed)
    u, u_t = (random_real_field(lat, rng).coeffs[None] for _ in range(2))
    state = decompose(lat, amplitude * u, amplitude * u_t, (1.0,))
    system = scalar_system(1.0, coupling)
    dt = 0.05
    banded = evolve(lat, state, system, steps * dt, dt, sample_every=steps).halves[-1]

    def products(z):
        return complex_products(lat, ComplexSystem.of(system), z)

    full = full_lawson(lat, state, system.masses, products, dt, steps)
    assert np.max(np.abs(banded - full)) <= 1e-13 * np.max(np.abs(full))


coefficients = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@properties
@given(
    dim=dims,
    mass_pair=st.tuples(masses, masses),
    c=st.tuples(coefficients, coefficients),
    conjugated=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    amplitude=st.floats(0.01, 0.2),
    steps=st.integers(2, 6),
    seed=seeds,
)
def test_complex_systems_run_through_their_real_form(
    dim, mass_pair, c, conjugated, amplitude, steps, seed
):
    # two complex fields coupled by c0 z0 z1 and c1 z0 z0, conjugation flags
    # drawn: evolve of the real form, mapped back as a + ib, takes the steps of
    # a Lawson-RK4 on the complex products, and Picard's distances are the
    # two-buffer sweep's, since the real form keeps the summed H^s norm
    lat = FrequencyLattice(GridSpec(dim, 8.0, 8))
    f0, f1, f2 = conjugated
    system = ComplexSystem(
        mass_pair, (((c[0], (0, f0), (1, f1)),), ((c[1], (0, f2), (0, False)),))
    )
    rng = np.random.default_rng(seed)
    u, u_t = random_data(lat, rng, 2, decay=1.0)
    state = decompose(lat, amplitude * u, amplitude * u_t, mass_pair)
    real_state, real_system = split(state, dim, state=True), real_form(system)

    def products(z):
        return complex_products(lat, system, z)

    dt = 0.05
    stepped = evolve(lat, real_state, real_system, steps * dt, dt, sample_every=steps)
    full = full_lawson(lat, state, mass_pair, products, dt, steps)
    assert np.max(np.abs(join(stepped.halves[-1]) - full)) <= 1e-13 * np.max(np.abs(full))

    report = picard_iterate(lat, real_state, real_system, 0.2, dt, iters=2)
    _, distances = two_buffer_picard(lat, state, mass_pair, products, 0.2, dt, 2)
    # at c = 0 the two-buffer sweep's distances are the rounding of the state
    for ours, theirs in zip(report.successive_distances, distances):
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-14 * amplitude)
