r"""Coupled-system definitions and dealiased quadratic nonlinearities.

A system couples K real fields, each with its own positive mass, through
homogeneous quadratic polynomials with real coefficients.  A complex field
is the pair of its real and imaginary parts, two real fields of one mass, so
complex systems are written in that real form (README shows the expansion).
Products are evaluated pseudospectrally on real transforms of the half
spectrum, with the 2/3 rule applied both before and after multiplication, so
quadratic interactions never alias back into the retained band.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    SpectralField,
    _axis_passes,
    inverse_transform,  # noqa: F401  (a span target of the benchmark's traced run)
)


@dataclass(frozen=True)
class Monomial:
    """One quadratic term: coefficient * u_j * u_k for factors (j, k)."""

    coefficient: float
    factors: tuple

    def __post_init__(self):
        if not isinstance(self.coefficient, numbers.Real):
            raise ValueError(f"coefficient must be real, got {self.coefficient!r}")
        if len(self.factors) != 2:
            raise ValueError("monomials are quadratic: exactly two factors")
        for idx in self.factors:
            if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
                raise ValueError(f"bad component index {idx!r}")


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
                for idx in mono.factors:
                    if idx >= k:
                        raise ValueError(f"factor index {idx} out of range for K={k}")

    @property
    def size(self) -> int:
        return len(self.masses)


def scalar_system(mass: float = 1.0, coefficient: float = 1.0) -> MassSystem:
    """Single component with N(u) = coefficient * u**2."""
    return MassSystem((float(mass),), ((Monomial(coefficient, (0, 0)),),))


def free_system(masses: Sequence[float]) -> MassSystem:
    """No coupling at all: every polynomial empty."""
    return MassSystem(tuple(float(m) for m in masses), ((),) * len(masses))


def check_nonresonance(masses: Sequence[float]):
    """Strict mass condition 2*min > max; returns (holds, margin)."""
    if len(masses) == 0:
        raise ValueError("empty mass list")
    margin = 2.0 * min(masses) - max(masses)
    return margin > 0, float(margin)


def evaluate_nonlinearity(system: MassSystem, fields: Sequence[SpectralField]):
    """Apply every component polynomial to the real fields, fully dealiased.

    Each field is a full spectrum or its 2/3 band, lattice.band_flat, read
    from its shape.  Its band is scattered into a zero half spectrum, the
    fields are multiplied pointwise on the physical grid, and each product is
    cut to the band again, all that N writes: the products come back as one
    (K, n_band) array in the order of band_flat.  The transforms are irfftn's
    and rfftn's axis passes in their order, so bit for bit theirs, but each
    full axis runs in place (grid._axis_passes) on lattice.band_lines only,
    the lines that reach the band: the others are zero going in and not kept
    coming out (Orszag 1971).
    """
    if len(fields) != system.size:
        raise ValueError("one field per component required")
    lattice = fields[0].lattice
    if any(f.lattice != lattice for f in fields):
        raise ValueError("fields must share one lattice")
    shape = lattice.spec.shape
    full_axes = range(len(shape) - 1)
    index = lattice.band_flat
    layout = shape[:-1] + (shape[-1] // 2 + 1,)
    # the fields some monomial reads, each transformed once
    needed = {i for poly in system.polynomials for m in poly for i in m.factors}
    physical = {}
    for idx in needed:
        coeffs = fields[idx].coeffs
        if coeffs.shape != index.shape:
            coeffs = coeffs[..., : layout[-1]].reshape(-1)[index]
        spectrum = np.zeros(layout, dtype=complex)
        spectrum.reshape(-1)[index] = coeffs
        _axis_passes(spectrum, np.fft.ifft, lattice.band_lines, full_axes)
        physical[idx] = np.fft.irfft(spectrum, shape[-1], norm="ortho")
        del spectrum  # not held through the next field's or the products

    out = []
    for poly in system.polynomials:
        total = None if poly else np.zeros(shape)
        for mono in poly:
            j, k = mono.factors
            product = mono.coefficient * (physical[j] * physical[k])
            total = product if total is None else np.add(total, product, out=total)
        half = np.fft.rfft(total, norm="ortho")
        _axis_passes(half, np.fft.fft, lattice.band_lines, reversed(full_axes))
        out.append(half.reshape(-1)[index])
    del physical  # not held while the products are stacked
    return np.stack(out)


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

