"""Pseudospectral laboratory for quadratic Klein-Gordon systems.

The package evolves coupled scalar fields in their half-wave formulation on
periodic grids, runs the associated Duhamel fixed-point iteration, measures
variation-type norms of sampled trajectories, and numerically stress-tests
the family of inequalities that controls the small-data theory.

Callers import from the submodules: grid, system, dynamics, variation,
harness and cli.
"""

__version__ = "0.1.0"
