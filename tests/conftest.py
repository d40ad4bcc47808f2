"""Test helpers shared by the test modules."""

import math

import numpy as np

from halfwave.grid import FrequencyLattice, SpectralField


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
