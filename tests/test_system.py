import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ComplexSystem,
    band,
    complex_products,
    dealias_mask,
    join,
    random_real_field,
    real_form,
    split,
)
from halfwave.dynamics import _complete_hermitian
from halfwave.grid import FrequencyLattice, GridSpec, SpectralField
from halfwave.system import (
    MassSystem,
    Monomial,
    bracket,
    check_nonresonance,
    evaluate_nonlinearity,
    free_system,
    resonance_function,
    scalar_system,
    smallest_bracket,
)


def make_lattice(n=16):
    return FrequencyLattice(GridSpec(2, 8.0, n))


def single_mode(lat, mode, amp):
    """The real field of one ortho coefficient amp at mode and its conjugate at -mode."""
    n = lat.spec.points_per_axis
    c = np.zeros(lat.spec.shape, dtype=complex)
    c[tuple(-m % n for m in mode)] = np.conj(amp)
    c[tuple(m % n for m in mode)] = amp
    return SpectralField(lat, c)


def full(lat, half):
    """The full spectrum of a real field from its half spectrum."""
    out = np.empty(lat.spec.shape, dtype=complex)
    out[..., : half.shape[-1]] = half
    _complete_hermitian(lat, out, out)
    return out


def spectrum(lat, modes):
    """A full spectrum holding the given {mode index: coefficient}, else zero."""
    c = np.zeros(lat.spec.shape, dtype=complex)
    for mode, value in modes.items():
        c[mode] = value
    return c


def test_system_validation():
    with pytest.raises(ValueError):
        MassSystem((), ())
    with pytest.raises(ValueError):
        MassSystem((1.0, -1.0), ((), ()))
    with pytest.raises(ValueError):
        MassSystem((1.0,), ((), ()))
    bad = Monomial(1.0, (0, 3))
    with pytest.raises(ValueError):
        MassSystem((1.0, 1.0), ((bad,), ()))
    with pytest.raises(ValueError):
        Monomial(1.0, (0,))


@pytest.mark.parametrize(
    "factors", [("a", 0), (0, 1.0), (True, 0), (0, False), (-1, 0), (np.int64(0), 0)]
)
def test_monomial_checks_index_types(factors):
    # the type is checked before any comparison, and a bool is not an index
    with pytest.raises(ValueError, match="bad component index"):
        Monomial(1.0, factors)


def test_monomial_rejects_a_non_real_coefficient():
    for coefficient in (1.0 + 0.5j, 1.0 + 0j, np.complex128(2.0), "1.0"):
        with pytest.raises(ValueError, match="coefficient must be real"):
            Monomial(coefficient, (0, 0))
    with pytest.raises(ValueError, match="coefficient must be real"):
        scalar_system(1.0, 1.0 + 0.5j)
    for coefficient in (2, -1.5, np.float64(0.25)):
        assert Monomial(coefficient, (0, 1)).coefficient == coefficient


def test_check_nonresonance():
    assert check_nonresonance((1.0, 1.0, 1.0)) == (True, 1.0)
    holds, margin = check_nonresonance((1.0, 1.0, 2.0))
    assert not holds and margin == 0.0
    holds, margin = check_nonresonance((1.0, 1.2, 1.9))
    assert holds
    assert margin == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        check_nonresonance(())


def test_square_of_single_mode():
    # oracle: the real field of ortho coefficients a at mode j and conj(a) at
    # -j squares to a^2/N^{d/2} at 2j and 2|a|^2/N^{d/2} at 0
    lat = make_lattice()
    u = single_mode(lat, (2, 1), 3.0)
    (out,) = evaluate_nonlinearity(scalar_system(), (u,))
    want = band(lat, spectrum(lat, {(4, 2): 0.5625, (0, 0): 1.125}))
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-14)


def test_square_above_dealias_cap_vanishes():
    lat = make_lattice()
    # mode (4,0) doubles to (8,0): above the 2/3 cutoff (index 5), so removed;
    # only the mean 2|a|^2/N^{d/2} of the real field's square is left
    u = single_mode(lat, (4, 0), 1.0)
    (out,) = evaluate_nonlinearity(scalar_system(), (u,))
    want = band(lat, spectrum(lat, {(0, 0): 0.125}))
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-14)


def test_conjugation_flag():
    # z conj(z) of the complex mode z = 3 e^{i(2,1)x}/N^{d/2}, through its real
    # form: the constant 9/N^{d/2} and nothing else
    lat = make_lattice()
    z = np.zeros((1,) + lat.spec.shape, dtype=complex)
    z[0, 2, 1] = 3.0
    system = ComplexSystem((1.0,), (((1.0, (0, False), (0, True)),),))
    fields = tuple(SpectralField(lat, f) for f in split(z, 2))
    got = join(evaluate_nonlinearity(real_form(system), fields))[0]
    assert np.max(np.abs(got - band(lat, complex_products(lat, system, z)[0]))) < 1e-14
    want = band(lat, spectrum(lat, {(0, 0): 0.5625}))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_nonlinearity_transforms_each_field_once(monkeypatch):
    # u u + v u reads u twice and v once: one inverse transform each
    lat = make_lattice()
    rng = np.random.default_rng(4)
    fields = tuple(random_real_field(lat, rng) for _ in range(2))
    monos = (Monomial(2.0, (0, 0)), Monomial(0.5, (1, 0)))
    system = MassSystem((1.0, 1.0), (monos, monos[:1]))
    calls = []
    irfftn = np.fft.irfftn

    def counted(*args, **kwargs):
        calls.append(args[0])
        return irfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfftn", counted)
    out = evaluate_nonlinearity(system, fields)
    assert len(calls) == 2
    # the same products as the complex reference
    coeffs = np.stack([f.coeffs for f in fields])
    want = band(lat, complex_products(lat, ComplexSystem.of(system), coeffs))
    assert np.max(np.abs(out - want)) < 1e-13


def test_bilinearity_cross_terms():
    lat = make_lattice()
    rng = np.random.default_rng(2)
    u = random_real_field(lat, rng, decay=2.0)
    v = random_real_field(lat, rng, decay=2.0)
    sys1 = scalar_system(coefficient=1.0)
    (nu,) = evaluate_nonlinearity(sys1, (u,))
    (nv,) = evaluate_nonlinearity(sys1, (v,))
    (nuv,) = evaluate_nonlinearity(sys1, (SpectralField(lat, u.coeffs + v.coeffs),))
    # N(u+v) - N(u) - N(v) = 2 * dealias(u*v)
    mono = Monomial(2.0, (0, 1))
    cross_sys = MassSystem((1.0, 1.0), ((mono,), ()))
    cross, _ = evaluate_nonlinearity(cross_sys, (u, v))
    err = nuv - nu - nv - cross
    assert np.max(np.abs(err)) < 1e-12


def test_translation_commutes():
    lat = make_lattice(n=32)
    rng = np.random.default_rng(9)
    u = random_real_field(lat, rng, decay=2.0)
    xi = lat.axis_frequencies
    shift = np.exp(-1j * (0.7 * xi[:, None] + 1.3 * xi[None, :]))
    sys1 = scalar_system()
    (a,) = evaluate_nonlinearity(sys1, (SpectralField(lat, u.coeffs * shift),))
    b = evaluate_nonlinearity(sys1, (u,))[0] * band(lat, shift)
    assert np.max(np.abs(a - b)) < 1e-10


def test_coupled_system_indices():
    lat = make_lattice()
    u = single_mode(lat, (1, 0), 2.0)
    v = single_mode(lat, (0, 1), 5.0)
    mono = Monomial(3.0, (1, 1))
    system = MassSystem((1.0, 2.0), ((mono,), ()))
    out1, out2 = evaluate_nonlinearity(system, (u, v))
    # component 1 sees 3 v^2 at mode (0,2), and its mean; component 2 has no terms
    square = 3.0 * 25.0 / 16.0
    want = band(lat, spectrum(lat, {(0, 2): square, (0, 0): 2.0 * square}))
    np.testing.assert_allclose(out1, want, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(out2)) == 0.0


def test_bracket_over_last_axis():
    assert bracket(1.0, [0.0, 0.0]) == 1.0
    assert bracket(2.0, np.array([[3, 0, 0], [0, 1, 2]])).tolist() == [
        math.sqrt(13.0),
        3.0,
    ]
    # the resonance function is three brackets
    xi, eta = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
    assert resonance_function((1.0, 1.5, 2.0), xi, eta) == (
        bracket(1.0, xi) + bracket(1.5, eta) - bracket(2.0, xi + eta)
    )


def test_resonance_spot_values():
    assert resonance_function((1.0, 1.0, 2.0), [0.0, 0.0], [0.0, 0.0]) == 0.0
    assert resonance_function((1.0, 1.0, 1.0), [0.0, 0.0], [0.0, 0.0]) == 1.0
    # frozen hand evaluation of 2*sqrt(2) - sqrt(5)
    v = resonance_function((1.0, 1.0, 1.0), [1.0, 0.0], [1.0, 0.0])
    assert v == pytest.approx(0.5923591472464005, abs=1e-14)


def test_resonance_symmetry_and_broadcast():
    rng = np.random.default_rng(4)
    xi = rng.standard_normal((50, 3)) * 10
    eta = rng.standard_normal((50, 3)) * 10
    a = resonance_function((1.0, 1.3, 1.7), xi, eta)
    b = resonance_function((1.3, 1.0, 1.7), eta, xi)
    assert np.max(np.abs(a - b)) < 1e-12
    assert a.shape == (50,)


def test_resonance_identity_on_equal_diagonal():
    # for the boundary triple (1,1,2) the diagonal xi = eta is exactly resonant
    xs = np.linspace(-30, 30, 13).reshape(-1, 1)
    vals = resonance_function((1.0, 1.0, 2.0), xs, xs)
    assert np.max(np.abs(vals)) < 1e-12


def test_free_system_evaluates_to_zero():
    lat = make_lattice()
    u = random_real_field(lat, np.random.default_rng(1))
    v = random_real_field(lat, np.random.default_rng(2))
    out = evaluate_nonlinearity(free_system((1.0, 2.0)), (u, v))
    assert out.shape == (2, lat.band_flat.size) and np.max(np.abs(out)) == 0


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 3),
    terms=st.lists(
        st.tuples(
            st.floats(-5.0, 5.0), st.integers(0, 2), st.booleans(),
            st.integers(0, 2), st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_branch_matches_complex_products(dim, k, terms, seed):
    # real coefficients on real fields, where a conjugation flag is an
    # identity: the half spectrum route gives the complex reference's spectra
    lat = FrequencyLattice(GridSpec(dim, 7.0, 8))
    rng = np.random.default_rng(seed)
    fields = tuple(random_real_field(lat, rng) for _ in range(k))
    flagged = [[] for _ in range(k)]
    for n, (c, a, ca, b, cb) in enumerate(terms):
        flagged[n % k].append((c, (a % k, ca), (b % k, cb)))
    reference = ComplexSystem((1.0,) * k, tuple(tuple(p) for p in flagged))
    system = MassSystem(
        reference.masses,
        tuple(tuple(Monomial(c, (a, b)) for c, (a, _), (b, _) in p) for p in flagged),
    )
    want = complex_products(lat, reference, np.stack([f.coeffs for f in fields]))
    for reference_band, got in zip(band(lat, want), evaluate_nonlinearity(system, fields)):
        scale = max(1.0, np.max(np.abs(reference_band)))
        assert np.max(np.abs(got - reference_band)) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_real_branch_takes_either_layout_and_the_complex_one_full_only(dim):
    # N takes a real field's full or half spectrum or its band, and returns
    # the same band of products for each; the complex reference, the former
    # complex branch, takes full spectra only
    lat = FrequencyLattice(GridSpec(dim, 7.0, 8))
    values = np.random.default_rng(dim).standard_normal(lat.spec.shape)
    half = SpectralField(lat, np.fft.rfftn(values, norm="ortho"))
    assert half.coeffs.shape == lat.spec.shape[:-1] + (5,)
    full_field = SpectralField(lat, full(lat, half.coeffs))
    band_field = SpectralField(lat, band(lat, half.coeffs))
    system = scalar_system(1.0, 2.0)
    products = [
        evaluate_nonlinearity(system, (f,)) for f in (full_field, half, band_field)
    ]
    assert products[0].shape == (1, lat.band_flat.size)
    assert all(p.tobytes() == products[0].tobytes() for p in products)
    with pytest.raises(ValueError, match="full spectra"):
        complex_products(lat, ComplexSystem.of(system), half.coeffs[None])
    with pytest.raises(ValueError, match="half spectrum"):
        SpectralField(lat, np.zeros(lat.spec.shape[:-1] + (4,), dtype=complex))
