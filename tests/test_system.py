import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave.grid import (
    FrequencyLattice,
    GridSpec,
    SpectralField,
    forward_transform,
    random_field,
)
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
    c = np.zeros(lat.spec.shape, dtype=complex)
    c[tuple(m % lat.spec.points_per_axis for m in mode)] = amp
    return SpectralField(lat, c)


def test_system_validation():
    with pytest.raises(ValueError):
        MassSystem((), ())
    with pytest.raises(ValueError):
        MassSystem((1.0, -1.0), ((), ()))
    with pytest.raises(ValueError):
        MassSystem((1.0,), ((), ()))
    bad = Monomial(1.0, ((0, False), (3, False)))
    with pytest.raises(ValueError):
        MassSystem((1.0, 1.0), ((bad,), ()))
    with pytest.raises(ValueError):
        Monomial(1.0, ((0, False),))


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
    # oracle: one ortho coefficient a at mode j squares to a^2/N^{d/2} at 2j
    lat = make_lattice()
    u = single_mode(lat, (2, 1), 3.0)
    (out,) = evaluate_nonlinearity(scalar_system(), (u,))
    assert out.coeffs[4, 2] == pytest.approx(0.5625, rel=1e-12)
    mask = np.ones(lat.spec.shape, dtype=bool)
    mask[4, 2] = False
    assert np.max(np.abs(out.coeffs[mask])) < 1e-14


def test_square_above_dealias_cap_vanishes():
    lat = make_lattice()
    # mode (4,0) doubles to (8,0): above the 2/3 cutoff (index 5), so removed
    u = single_mode(lat, (4, 0), 1.0)
    (out,) = evaluate_nonlinearity(scalar_system(), (u,))
    assert np.max(np.abs(out.coeffs)) < 1e-14


def test_conjugation_flag():
    lat = make_lattice()
    u = single_mode(lat, (2, 1), 3.0)
    mono = Monomial(1.0 + 0j, ((0, False), (0, True)))
    system = MassSystem((1.0,), ((mono,),))
    (out,) = evaluate_nonlinearity(system, (u,))
    assert out.coeffs[0, 0] == pytest.approx(0.5625, rel=1e-12)
    mask = np.ones(lat.spec.shape, dtype=bool)
    mask[0, 0] = False
    assert np.max(np.abs(out.coeffs[mask])) < 1e-14


def test_bilinearity_cross_terms():
    lat = make_lattice()
    rng = np.random.default_rng(2)
    u = random_field(lat, rng, decay=2.0)
    v = random_field(lat, rng, decay=2.0)
    sys1 = scalar_system(coefficient=1.0)
    (nu,) = evaluate_nonlinearity(sys1, (u,))
    (nv,) = evaluate_nonlinearity(sys1, (v,))
    (nuv,) = evaluate_nonlinearity(sys1, (u.with_coeffs(u.coeffs + v.coeffs),))
    # N(u+v) - N(u) - N(v) = 2 * dealias(u*v)
    mono = Monomial(2.0 + 0j, ((0, False), (1, False)))
    cross_sys = MassSystem((1.0, 1.0), ((mono,), ()))
    cross, _ = evaluate_nonlinearity(cross_sys, (u, v))
    err = nuv.coeffs - nu.coeffs - nv.coeffs - cross.coeffs
    assert np.max(np.abs(err)) < 1e-12


def test_translation_commutes():
    lat = make_lattice(n=32)
    rng = np.random.default_rng(9)
    u = random_field(lat, rng, decay=2.0)
    xi = lat.axis_frequencies
    shift = np.exp(-1j * (0.7 * xi[:, None] + 1.3 * xi[None, :]))
    translate = lambda f: f.with_coeffs(f.coeffs * shift)
    sys1 = scalar_system()
    (a,) = evaluate_nonlinearity(sys1, (translate(u),))
    b = translate(evaluate_nonlinearity(sys1, (u,))[0])
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


def test_coupled_system_indices():
    lat = make_lattice()
    u = single_mode(lat, (1, 0), 2.0)
    v = single_mode(lat, (0, 1), 5.0)
    mono = Monomial(1j, ((1, False), (1, False)))
    system = MassSystem((1.0, 2.0), ((mono,), ()))
    out1, out2 = evaluate_nonlinearity(system, (u, v))
    # component 1 sees i * v^2 at mode (0,2); component 2 has no terms
    assert out1.coeffs[0, 2] == pytest.approx(1j * 25.0 / 16.0, rel=1e-12)
    assert np.max(np.abs(out2.coeffs)) == 0.0


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
    u = random_field(lat, np.random.default_rng(1))
    v = random_field(lat, np.random.default_rng(2))
    out = evaluate_nonlinearity(free_system((1.0, 2.0)), (u, v))
    assert all(np.max(np.abs(f.coeffs)) == 0 for f in out)


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
    # real coefficients on real fields, some factors conjugated: the half
    # spectrum route and the full complex route give the same spectra
    lat = FrequencyLattice(GridSpec(dim, 7.0, 8))
    rng = np.random.default_rng(seed)
    fields = tuple(
        forward_transform(lat, rng.standard_normal(lat.spec.shape)) for _ in range(k)
    )
    polys = [[] for _ in range(k)]
    for n, (c, a, ca, b, cb) in enumerate(terms):
        polys[n % k].append(Monomial(c, ((a % k, ca), (b % k, cb))))
    system = MassSystem((1.0,) * k, tuple(tuple(p) for p in polys))
    complex_out = evaluate_nonlinearity(system, fields)
    real_out = evaluate_nonlinearity(system, fields, real=True)
    for want, got in zip(complex_out, real_out):
        scale = max(1.0, np.max(np.abs(want.coeffs)))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * scale
