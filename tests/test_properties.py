"""Property tests of the (K, 2, *grid) half-wave layout and its H^s kernels."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave.cli import load_trajectory, save_trajectory
from halfwave.dynamics import Trajectory, decompose, evolve, reconstruct
from halfwave.grid import (
    FrequencyLattice,
    GridSpec,
    SpaceTimeField,
    SpectralField,
    dyadic_scales,
    l2_norm,
    lp_weights,
    modulation_weights,
    random_field,
    sobolev_norm,
)
from halfwave.system import free_system

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


def random_data(lat, rng, k, decay=0.0):
    """(K, *grid) Nyquist-free position coefficients, then velocities."""
    return tuple(
        np.stack([random_field(lat, rng, decay=decay).coeffs for _ in range(k)])
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
    state = decompose(lat, *random_data(lat, rng, len(mass_list)), mass_list)
    traj = evolve(lat, state, free_system(mass_list), T=4 * dt, dt=dt)
    norms = np.array(
        [[[l2_norm(SpectralField(lat, h)) for h in pair] for pair in state]
         for state in traj.halves]
    )
    assert np.allclose(norms, norms[0], rtol=1e-12, atol=0.0)


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
    assert loaded.lattice.spec == traj.lattice.spec
    assert loaded.masses == traj.masses
    assert np.array_equal(loaded.times, traj.times)
    assert loaded.halves.dtype == traj.halves.dtype
    assert np.array_equal(loaded.halves, traj.halves)


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
    index=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    sign=st.sampled_from([1, -1]),
    mass=masses,
)
def test_modulation_low_and_high_complement(lat, n_times, dt, index, sign, mass):
    u = SpaceTimeField(
        np.arange(n_times) * dt, lat, np.zeros((n_times,) + lat.spec.shape, complex)
    )
    total = modulation_weights(u, index, sign, mass, "low") + modulation_weights(
        u, index, sign, mass, "high"
    )
    live = ~lat.nyquist_mask
    assert np.allclose(total[:, live], 1.0, rtol=0.0, atol=1e-15)
    assert np.all(total[:, ~live] == 0.0)
