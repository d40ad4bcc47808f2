r"""Coupled-system definitions and dealiased quadratic nonlinearities.

A system couples K components, each with its own positive mass, through
homogeneous quadratic polynomials with complex coefficients.  Factors may be
conjugated.  Products are evaluated pseudospectrally with the 2/3 rule applied
both before and after multiplication, so quadratic interactions never alias
back into the retained band.  When the coefficients and the physical fields
are real, the products run on real transforms of the half spectrum instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import SpectralField, inverse_transform


@dataclass(frozen=True)
class Monomial:
    """One quadratic term: coefficient * z_j * z_k, factors optionally conjugated."""

    coefficient: complex
    factors: tuple

    def __post_init__(self):
        if len(self.factors) != 2:
            raise ValueError("monomials are quadratic: exactly two factors")
        for idx, conj in self.factors:
            if idx < 0 or not isinstance(idx, int):
                raise ValueError(f"bad component index {idx}")
            if not isinstance(conj, bool):
                raise ValueError("conjugation flag must be boolean")


@dataclass(frozen=True)
class MassSystem:
    """K masses plus one list of quadratic monomials per component."""

    masses: tuple
    polynomials: tuple

    def __post_init__(self):
        if len(self.masses) == 0:
            raise ValueError("need at least one component")
        if any(not m > 0 for m in self.masses):
            raise ValueError("masses must be strictly positive")
        if len(self.polynomials) != len(self.masses):
            raise ValueError("one polynomial per component required")
        k = len(self.masses)
        for poly in self.polynomials:
            for mono in poly:
                for idx, _ in mono.factors:
                    if idx >= k:
                        raise ValueError(f"factor index {idx} out of range for K={k}")

    @property
    def size(self) -> int:
        return len(self.masses)


def scalar_system(mass: float = 1.0, coefficient: complex = 1.0) -> MassSystem:
    """Single component with N(u) = coefficient * u**2."""
    mono = Monomial(complex(coefficient), ((0, False), (0, False)))
    return MassSystem((float(mass),), ((mono,),))


def free_system(masses: Sequence[float]) -> MassSystem:
    """No coupling at all: every polynomial empty."""
    return MassSystem(tuple(float(m) for m in masses), ((),) * len(masses))


def check_nonresonance(masses: Sequence[float]):
    """Strict mass condition 2*min > max; returns (holds, margin)."""
    if len(masses) == 0:
        raise ValueError("empty mass list")
    margin = 2.0 * min(masses) - max(masses)
    return margin > 0, float(margin)


def evaluate_nonlinearity(
    system: MassSystem, fields: Sequence[SpectralField], real: bool = False
):
    """Apply every component polynomial to the fields, fully dealiased.

    Inputs are truncated to the 2/3 band, multiplied pointwise on the physical
    grid (with conjugation flags honored), and the spectral products are
    truncated again.  With real=True the caller vouches that the coefficients
    and the physical fields are real: conjugation flags are then identities,
    and the products run on irfftn/rfftn of the half spectrum.
    """
    if len(fields) != system.size:
        raise ValueError("one field per component required")
    lattice = fields[0].lattice
    if any(f.lattice != lattice for f in fields):
        raise ValueError("fields must share one lattice")
    if real:
        return _real_products(system, lattice, fields)
    keep = lattice.dealias_mask

    needed = {
        (idx, conj)
        for poly in system.polynomials
        for mono in poly
        for (idx, conj) in mono.factors
    }
    physical = {}
    for idx, conj in needed:
        vals = inverse_transform(fields[idx].with_coeffs(fields[idx].coeffs * keep))
        physical[(idx, conj)] = np.conj(vals) if conj else vals

    out = []
    for poly in system.polynomials:
        total = np.zeros(lattice.spec.shape, dtype=complex)
        for mono in poly:
            a, b = mono.factors
            total += mono.coefficient * (physical[a] * physical[b])
        coeffs = np.fft.fftn(total, norm="ortho") * keep
        out.append(SpectralField(lattice, coeffs))
    return tuple(out)


def _real_products(system: MassSystem, lattice, fields):
    """The real branch of evaluate_nonlinearity, on half spectra."""
    shape = lattice.spec.shape
    axes = tuple(range(len(shape)))
    keep = lattice.dealias_mask[..., : shape[-1] // 2 + 1]
    needed = {i for poly in system.polynomials for m in poly for i, _ in m.factors}
    physical = {
        idx: np.fft.irfftn(
            fields[idx].coeffs[..., : keep.shape[-1]] * keep, shape, axes, norm="ortho"
        )
        for idx in needed
    }
    out = []
    for poly in system.polynomials:
        total = np.zeros(shape)
        for mono in poly:
            (a, _), (b, _) = mono.factors
            total += mono.coefficient.real * (physical[a] * physical[b])
        half = np.fft.rfftn(total, norm="ortho") * keep
        out.append(SpectralField(lattice, _complete_hermitian(half, shape[-1])))
    return tuple(out)


def _complete_hermitian(half: np.ndarray, n: int) -> np.ndarray:
    """The full spectrum, n modes on the last axis, of a real field from its rfftn half.

    The missing last-axis modes are F(k) = conj(F(-k)), where -k maps index 0
    of each axis to itself and index i > 0 to n - i.
    """
    h = half.shape[-1]
    out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., :h] = half
    tail = half[..., n - h : 0 : -1]
    for mirrored in itertools.product((False, True), repeat=out.ndim - 1):
        src = tuple(slice(None, 0, -1) if m else slice(0, 1) for m in mirrored)
        dst = tuple(slice(1, None) if m else slice(0, 1) for m in mirrored)
        np.conjugate(tail[src], out=out[dst + (slice(h, None),)])
    return out


# ---------------------------------------------------------------------------
# resonance analysis


def bracket(mass: float, points):
    """<xi>_m = sqrt(m^2 + |xi|^2) for frequencies along the last axis of points."""
    points = np.asarray(points, dtype=float)
    return np.sqrt(mass * mass + np.sum(points * points, axis=-1))


def _brackets(triple: Sequence[float], xi, eta):
    """<xi>_m, <eta>_n and <xi+eta>_o for a mass triple (m, n, o)."""
    m, n, o = triple
    if not (m > 0 and n > 0 and o > 0):
        raise ValueError("masses must be positive")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return bracket(m, xi), bracket(n, eta), bracket(o, xi + eta)


def resonance_function(triple: Sequence[float], xi, eta):
    """<xi>_m + <eta>_n - <xi+eta>_o for a mass triple (m, n, o).

    xi and eta are arrays whose last axis is the space dimension; broadcasting
    applies.  Symmetric in its first two slots.
    """
    a, b, c = _brackets(triple, xi, eta)
    return a + b - c


def smallest_bracket(triple: Sequence[float], xi, eta):
    """min(<xi>_m, <eta>_n, <xi+eta>_o), the weight in the lower-bound probe."""
    a, b, c = _brackets(triple, xi, eta)
    return np.minimum(np.minimum(a, b), c)
