"""Test helpers shared by the test modules."""

import math

import numpy as np

from halfwave.grid import FrequencyLattice, SpectralField


def dealias_mask(lattice: FrequencyLattice) -> np.ndarray:
    """The 2/3 band of the full layout as 0/1 weights."""
    keep = np.zeros(lattice.spec.shape)
    keep[lattice.band[False]] = 1.0
    return keep


def random_field(
    lattice: FrequencyLattice,
    rng: np.random.Generator,
    decay: float = 0.0,
    mass: float = 1.0,
) -> SpectralField:
    """Random complex field, iid modes damped by <xi>^-decay, Nyquist-free."""
    shape = lattice.spec.shape
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    if decay:
        c = c * lattice.bracket(mass) ** (-decay)
    c[lattice.nyquist_mask] = 0.0
    return SpectralField(lattice, c)
