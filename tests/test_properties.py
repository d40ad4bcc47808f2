"""Property tests of the (K, 2, *grid) half-wave layout."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave.cli import load_trajectory, save_trajectory
from halfwave.dynamics import CauchyData, Trajectory, decompose, evolve, reconstruct
from halfwave.grid import FrequencyLattice, GridSpec, SpectralField, l2_norm, random_field
from halfwave.system import free_system

dims = st.integers(1, 3)
masses = st.floats(0.1, 10.0)
seeds = st.integers(0, 2**32 - 1)
properties = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def lattice(dim, box=6.0):
    return FrequencyLattice(GridSpec(dim, box, 8))


@properties
@given(dim=dims, mass=masses, decay=st.floats(0.0, 3.0), seed=seeds)
def test_decompose_reconstruct_roundtrip(dim, mass, decay, seed):
    lat = lattice(dim)
    rng = np.random.default_rng(seed)
    u = random_field(lat, rng, decay=decay)
    u_t = random_field(lat, rng, decay=decay)
    pair = decompose(u, u_t, mass)
    assert pair.shape == (2,) + lat.spec.shape
    back_u, back_ut = reconstruct(lat, pair, mass)
    assert np.max(np.abs(back_u.coeffs - u.coeffs)) < 1e-12
    assert np.max(np.abs(back_ut.coeffs - u_t.coeffs)) < 1e-12


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
    k = len(mass_list)
    data = CauchyData(
        tuple(random_field(lat, rng) for _ in range(k)),
        tuple(random_field(lat, rng) for _ in range(k)),
    )
    traj = evolve(data, free_system(mass_list), T=4 * dt, dt=dt)
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
