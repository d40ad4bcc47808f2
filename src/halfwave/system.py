r"""Coupled-system definitions and dealiased quadratic nonlinearities.

A system couples K components, each with its own positive mass, through
homogeneous quadratic polynomials with complex coefficients.  Factors may be
conjugated.  Products are evaluated pseudospectrally with the 2/3 rule applied
both before and after multiplication, so quadratic interactions never alias
back into the retained band.  When the coefficients and the physical fields
are real, the products run on real transforms of the half spectrum instead,
and come back as half spectra.
"""

from __future__ import annotations

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
    system: MassSystem,
    fields: Sequence[SpectralField],
    real: bool = False,
    band: bool = False,
):
    """Apply every component polynomial to the fields, fully dealiased.

    Inputs are truncated to the 2/3 band, multiplied pointwise on the physical
    grid (with conjugation flags honored), and the spectral products are
    truncated again: each truncation gathers the band, lattice.band[real],
    and the inputs are scattered into a zero spectrum.  With real=True the
    caller vouches that the coefficients and the physical fields are real:
    conjugation flags are then identities, the products run on irfftn/rfftn,
    and the fields may be full or half spectra while the products come back
    as half spectra.  Without it every field must be a full spectrum; a half
    one raises ValueError.  With band=True the fields and the products hold
    only the band of their layout, all that N reads or writes, flattened in
    the order of lattice.band_flat[real].
    """
    if len(fields) != system.size:
        raise ValueError("one field per component required")
    lattice = fields[0].lattice
    if any(f.lattice != lattice for f in fields):
        raise ValueError("fields must share one lattice")
    shape = lattice.spec.shape
    if not (real or band) and any(f.coeffs.shape != shape for f in fields):
        raise ValueError("the complex products need full spectra")
    index = lattice.band_flat[real]
    layout = shape[:-1] + (shape[-1] // 2 + 1,) if real else shape
    spectrum = np.zeros(layout, dtype=complex)
    # the fields some monomial reads, each transformed once
    needed = {i for poly in system.polynomials for m in poly for i, _ in m.factors}
    physical = {}
    for idx in needed:
        coeffs = fields[idx].coeffs
        if not band:
            coeffs = coeffs[..., : layout[-1]].reshape(-1)[index]
        spectrum.reshape(-1)[index] = coeffs
        physical[idx] = (
            np.fft.irfftn(spectrum, shape, tuple(range(len(shape))), norm="ortho")
            if real
            else inverse_transform(SpectralField(lattice, spectrum))
        )
    del spectrum  # not held through the products

    def factor(idx, conj):
        return np.conj(physical[idx]) if conj and not real else physical[idx]

    out = []
    for poly in system.polynomials:
        total = np.zeros(shape, dtype=float if real else complex)
        for mono in poly:
            c = mono.coefficient.real if real else mono.coefficient
            total += c * (factor(*mono.factors[0]) * factor(*mono.factors[1]))
        transform = np.fft.rfftn if real else np.fft.fftn
        products = transform(total, norm="ortho").reshape(-1)[index]
        if not band:
            full = np.zeros(layout, dtype=complex)
            full.reshape(-1)[index] = products
            products = full
        out.append(SpectralField(lattice, products))
    return tuple(out)


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
