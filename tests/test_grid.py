import math

import numpy as np
import pytest

from halfwave.grid import (
    DyadicIndex,
    FrequencyLattice,
    GridSpec,
    SpaceTimeField,
    SpectralField,
    annulus_profile,
    bracket_multiplier,
    bump_profile,
    dealias_weights,
    dyadic_scales,
    forward_transform,
    free_propagate,
    inverse_transform,
    l2_norm,
    lp_project,
    lp_weights,
    modulation_energy,
    modulation_project,
    physical_coordinates,
    random_field,
    sobolev_norm,
)


def make_lattice(dim=2, box=8.0, n=16):
    return FrequencyLattice(GridSpec(dim, box, n))


def plane_wave(lattice, mode, amp=1.0):
    """Field with a single unit Fourier mode at integer index tuple `mode`."""
    c = np.zeros(lattice.spec.shape, dtype=complex)
    c[tuple(m % lattice.spec.points_per_axis for m in mode)] = amp
    return SpectralField(lattice, c)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 8.0, 16)
    with pytest.raises(ValueError):
        GridSpec(2, -1.0, 16)
    with pytest.raises(ValueError):
        GridSpec(2, 8.0, 12)
    spec = GridSpec(2, 8.0, 16)
    assert spec.cell_volume == pytest.approx(0.25)
    assert spec.shape == (16, 16)


def test_dyadic_index_validation():
    assert DyadicIndex(0) == 0
    assert DyadicIndex(64) == 64
    assert int(DyadicIndex(2) * 2) == 4
    for bad in (3, -2, 1.5):
        with pytest.raises(ValueError):
            DyadicIndex(bad)


def test_axis_frequencies_and_nyquist():
    lat = make_lattice()
    # xi_k = 2*pi*k/box in FFT order; Nyquist bin sits at index n/2
    assert lat.axis_frequencies[1] == pytest.approx(2 * np.pi / 8.0)
    assert lat.axis_frequencies[8] == pytest.approx(-2 * np.pi)
    assert lat.nyquist_mask[8, 3] and lat.nyquist_mask[0, 8]
    assert not lat.nyquist_mask[7, 7]
    expected = (2 * np.pi / 8.0) * math.sqrt(49 + 49)
    assert lat.max_frequency == pytest.approx(expected)


def test_plane_wave_transform_and_norms():
    # oracle: u(x) = exp(i xi_j . x) has a single unitary-FFT coefficient
    # sqrt(n^dim), so ||u||_{L2} = box^{dim/2} and H^s scales by <xi_j>_m^s.
    lat = make_lattice()
    xs = physical_coordinates(lat.spec)
    xi = (2 * np.pi / 8.0) * np.array([3.0, -2.0])
    values = np.exp(1j * (xi[0] * xs[0] + xi[1] * xs[1]))
    f = forward_transform(lat, values)
    mags = np.abs(f.coeffs)
    assert mags[3, -2 % 16] == pytest.approx(16.0)
    assert np.sum(mags > 1e-9) == 1
    assert l2_norm(f) == pytest.approx(8.0, rel=1e-12)
    assert sobolev_norm(f, 1.0, mass=1.5) == pytest.approx(25.63629124613478, rel=1e-12)
    assert sobolev_norm(f, 0.0, mass=0.3) == pytest.approx(8.0, rel=1e-12)


def test_parseval_and_roundtrip():
    lat = make_lattice(dim=3, box=5.0, n=8)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(lat.spec.shape) + 1j * rng.standard_normal(
        lat.spec.shape
    )
    f = forward_transform(lat, values)
    direct = math.sqrt(lat.cell_volume * np.sum(np.abs(values) ** 2))
    assert l2_norm(f) == pytest.approx(direct, rel=1e-12)
    back = inverse_transform(f)
    assert np.max(np.abs(back - values)) < 1e-12


def test_bump_profile_spots():
    # frozen from the closed form exp(1 - 1/(1 - (|t|-1)^8))
    assert bump_profile(0.3) == 1.0
    assert bump_profile(-1.0) == 1.0
    assert bump_profile(2.0) == 0.0
    assert bump_profile(1.5) == pytest.approx(0.996086110681207, abs=1e-14)
    assert annulus_profile(1.5) == pytest.approx(0.996086110681207, abs=1e-14)
    assert annulus_profile(0.75) == pytest.approx(0.003913889318793, abs=1e-14)
    assert annulus_profile(1.0) == 1.0
    assert annulus_profile(0.5) == 0.0
    assert annulus_profile(2.0) == 0.0
    # smoothness at the plateau edge: profile stays close to 1 just outside
    ts = np.linspace(0.98, 1.02, 41)
    vals = bump_profile(ts)
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals[-1] > 1 - 1e-10


def test_dyadic_scales_cover_lattice():
    lat = make_lattice()
    scales = dyadic_scales(lat)
    assert scales == [0, 1, 2, 4, 8]
    assert all(isinstance(s, DyadicIndex) for s in scales)
    # top scale dominates the largest radial frequency
    assert float(scales[-1]) >= lat.max_frequency / 2.0


def test_lp_partition_of_unity():
    lat = make_lattice()
    total = np.zeros(lat.spec.shape)
    for s in dyadic_scales(lat):
        total += lp_weights(lat, s)
    off = ~lat.nyquist_mask
    assert np.max(np.abs(total[off] - 1.0)) < 1e-12
    assert np.max(np.abs(total[~off])) == 0.0
    # the low block complement telescopes to chi(2|xi|)
    w0 = lp_weights(lat, 0)
    ref = bump_profile(2.0 * lat.xi_norm)
    assert np.max(np.abs((w0 - ref)[off])) < 1e-12


def test_lp_reassembly_exact():
    lat = make_lattice(dim=2, box=10.0, n=32)
    f = random_field(lat, np.random.default_rng(3))
    total = np.zeros(lat.spec.shape, dtype=complex)
    for s in dyadic_scales(lat):
        total += lp_project(f, s).coeffs
    assert np.max(np.abs(total - f.coeffs)) < 1e-12


def test_lp_block_support():
    lat = make_lattice(dim=1, box=2 * np.pi, n=64)
    # mode k=6 has |xi| = 6: inside blocks 4 and 8 only
    f = plane_wave(lat, (6,))
    weights = {s: float(np.abs(lp_project(f, s).coeffs[6])) for s in dyadic_scales(lat)}
    assert weights[4] + weights[8] == pytest.approx(1.0, abs=1e-12)
    assert weights[0] == 0.0 and weights[1] == 0.0 and weights[2] == 0.0
    assert weights[16] == 0.0


def test_bracket_multiplier_inverts():
    lat = make_lattice()
    f = random_field(lat, np.random.default_rng(11), decay=1.0)
    g = bracket_multiplier(bracket_multiplier(f, 2.0, 3.0), 2.0, -3.0)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12
    with pytest.raises(ValueError):
        bracket_multiplier(f, 0.0, 1.0)


def test_free_propagate_group_and_isometry():
    lat = make_lattice()
    f = random_field(lat, np.random.default_rng(5))
    m, s = 1.3, 0.7
    u = free_propagate(f, 0.9, m, +1)
    assert sobolev_norm(u, s, m) == pytest.approx(sobolev_norm(f, s, m), rel=1e-12)
    two_step = free_propagate(free_propagate(f, 0.4, m, +1), 0.5, m, +1)
    assert np.max(np.abs(two_step.coeffs - u.coeffs)) < 1e-12
    undone = free_propagate(u, 0.9, m, -1)
    assert np.max(np.abs(undone.coeffs - f.coeffs)) < 1e-12


def test_dealias_weights_axis_rule():
    lat = make_lattice()
    w = dealias_weights(lat)
    # n=16: Nyquist index 8, cutoff at (2/3)*8 = 5.33 per axis
    assert w[5, 0] == 1.0 and w[0, 5] == 1.0 and w[5, 5] == 1.0
    assert w[6, 0] == 0.0 and w[0, 6] == 0.0 and w[11, 2] == 1.0
    assert w[8, 0] == 0.0


def test_random_field_is_nyquist_free():
    lat = make_lattice(dim=3, box=6.0, n=8)
    f = random_field(lat, np.random.default_rng(0), decay=2.0)
    assert np.all(f.coeffs[lat.nyquist_mask] == 0)
    assert np.any(np.abs(f.coeffs) > 0)


def space_time_wave(lat, n_times, dt, temporal_freq, spatial_mode=(0, 0)):
    times = np.arange(n_times) * dt
    base = plane_wave(lat, spatial_mode)
    snaps = [base.coeffs * np.exp(1j * temporal_freq * t) for t in times]
    return SpaceTimeField(times, lat, np.stack(snaps))


def test_space_time_field_validation():
    lat = make_lattice()
    f = random_field(lat, np.random.default_rng(1))
    three = np.stack([f.coeffs] * 3)
    with pytest.raises(ValueError):
        SpaceTimeField(np.array([0.0, 0.1, 0.3]), lat, three)
    with pytest.raises(ValueError):
        SpaceTimeField(np.array([0.0, 0.1]), lat, three)
    u = SpaceTimeField(np.array([0.0, 0.1, 0.2]), lat, three)
    assert u.step == pytest.approx(0.1)
    assert u.coeffs.shape == (3, 16, 16)


def test_modulation_complement_is_exact():
    lat = make_lattice()
    rng = np.random.default_rng(19)
    times = np.arange(16) * 0.25
    snaps = [random_field(lat, rng).coeffs for _ in times]
    u = SpaceTimeField(times, lat, np.stack(snaps))
    for sign in (+1, -1):
        low = modulation_project(u, 4, sign, mass=1.0, mode="low")
        high = modulation_project(u, 4, sign, mass=1.0, mode="high")
        err = low.coeffs + high.coeffs - u.coeffs
        assert np.max(np.abs(err)) < 1e-12


def test_modulation_band_telescopes():
    lat = make_lattice()
    rng = np.random.default_rng(23)
    times = np.arange(16) * 0.25
    u = SpaceTimeField(times, lat, np.stack([random_field(lat, rng).coeffs for _ in times]))
    band = modulation_project(u, 2, +1, mode="band").coeffs
    low4 = modulation_project(u, 4, +1, mode="low").coeffs
    low2 = modulation_project(u, 2, +1, mode="low").coeffs
    assert np.max(np.abs(band - (low4 - low2))) < 1e-12


def test_free_wave_sits_at_zero_modulation():
    # mass chosen so the wave's temporal frequency lies on the tau grid
    lat = make_lattice()
    n_times, dt = 64, 0.5
    mass = 8 * 2 * np.pi / (n_times * dt)
    u = space_time_wave(lat, n_times, dt, temporal_freq=mass)
    kept = modulation_project(u, 0, +1, mass=mass, mode="band")
    assert np.max(np.abs(kept.coeffs - u.coeffs)) < 1e-12
    gone = modulation_project(u, 4, +1, mass=mass, mode="high")
    assert np.max(np.abs(gone.coeffs)) < 1e-12
    # the opposite sign sees modulation 2*mass = pi: annulus blocks 2 and 4
    lowmass = modulation_project(u, 1, -1, mass=mass, mode="low")
    assert np.max(np.abs(lowmass.coeffs)) < 1e-12


def test_modulation_energy_free_wave():
    lat = make_lattice()
    n_times, dt = 320, 0.1
    mass = 8 * 2 * np.pi / (n_times * dt)
    u = space_time_wave(lat, n_times, dt, temporal_freq=mass)
    total = math.sqrt(dt * lat.cell_volume * np.sum(np.abs(u.coeffs) ** 2))
    e0 = modulation_energy(u, 0, +1, mass=mass)
    assert e0 == pytest.approx(total, rel=1e-12)
    assert modulation_energy(u, 8, +1, mass=mass) < 1e-12 * total
    with pytest.raises(ValueError):
        modulation_energy(u, 16, +1, mass=mass)  # tau-Nyquist is pi/dt


def test_modulation_energy_windowed_leakage():
    # off-grid temporal frequency: the periodic measurement leaks into high
    # blocks, the Hann-windowed one keeps that leak three orders down
    lat = make_lattice(dim=1, box=8.0, n=16)
    n_times, dt = 320, 0.1
    mass = 1.0
    u = space_time_wave(lat, n_times, dt, temporal_freq=mass, spatial_mode=(0,))
    raw = modulation_energy(u, 8, +1, mass=mass, window="none")
    tapered = modulation_energy(u, 8, +1, mass=mass, window="hann")
    assert tapered < 1e-3 * raw
