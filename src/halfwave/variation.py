"""Computable stand-ins for variation-space trajectory norms.

The p-variation of a finitely sampled path is an exact supremum over all
partitions of the sample grid, found by dynamic programming on the table of
pairwise increment norms. Trajectory norms first unrotate the half-wave flow,
so a free wave costs exactly the mass of its profile: all the norm then sees
is what the nonlinearity emitted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .grid import (
    DyadicIndex,
    SpaceTimeField,
    dyadic_scales,
    lp_weights,
    modulation_energy,
)

__all__ = [
    "ModulationReport",
    "increment_table",
    "p_variation",
    "v2_pm_norm",
    "xs_proxy_norm",
    "check_mod_projection_bound",
]


def increment_table(values, weight: float = 1.0) -> np.ndarray:
    """Weighted Euclidean distances between every pair of samples.

    `values` holds one sample per entry of its leading axis; samples may be
    scalars or full coefficient arrays. `weight` scales the Euclidean norm
    (the square root of the cell volume makes increments of spectral
    snapshots read as spatial L2 distances). Large snapshots go through a
    Gram-matrix expansion so the table costs one matrix product instead of a
    quadratic number of array differences.
    """
    vals = np.asarray(values)
    k = vals.shape[0]
    flat = np.ascontiguousarray(vals.reshape(k, -1))
    if flat.shape[1] == 1:
        column = flat[:, 0]
        dist = np.abs(column[None, :] - column[:, None])
    else:
        sq = np.einsum("ij,ij->i", flat, flat.conj()).real
        gram = flat @ flat.conj().T
        d2 = sq[None, :] + sq[:, None] - 2.0 * gram.real
        dist = np.sqrt(np.clip(d2, 0.0, None))
    return weight * dist


def p_variation(values, p: float, weight: float = 1.0) -> float:
    """Exact p-variation of the sampled path over all partitions of its samples.

    Dynamic programming over chain ends on the increment table: best[j] is
    the largest sum of p-th powers of increments over chains ending at
    sample j; O(K^2) increment evaluations. The supremum is attained by a
    partition containing both endpoints, since extending a chain only adds
    nonnegative terms.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if np.shape(values)[0] < 2:
        raise ValueError("need at least two samples")
    if not weight > 0:
        raise ValueError("weight must be positive")
    powered = increment_table(values, weight) ** p
    best = np.zeros(powered.shape[0])
    for j in range(1, best.size):
        best[j] = np.max(best[:j] + powered[:j, j])
    return float(best[-1] ** (1.0 / p))


def _unrotated_from_rest(traj: Trajectory, component: int, sign: int) -> np.ndarray:
    """One component's chosen half with the free rotation factored out.

    A zero row is prepended, encoding a path that starts from rest before the
    first recorded time.
    """
    half = traj.half(component, sign)
    times = traj.times.reshape((-1,) + (1,) * traj.lattice.spec.dim)
    bracket = traj.lattice.bracket(traj.masses[component])
    stack = np.zeros((half.shape[0] + 1,) + half.shape[1:], dtype=complex)
    stack[1:] = half * np.exp(-sign * 1j * times * bracket)
    return stack


def v2_pm_norm(traj: Trajectory, component: int, sign: int) -> float:
    """2-variation of one unrotated half-wave component, from rest.

    The path starts at a prepended zero, so a free wave scores exactly the
    spatial L2 norm of its profile (one jump) and anything beyond that is
    genuine Duhamel output.
    """
    stack = _unrotated_from_rest(traj, component, sign)
    return p_variation(stack, 2.0, math.sqrt(traj.lattice.cell_volume))


def xs_proxy_norm(traj: Trajectory, component: int, s: float, sign: int = 1) -> float:
    """Dyadic-weighted square sum of blockwise 2-variation norms.

    Each dyadic block N contributes max(N, 1)^(2s) times the squared
    2-variation of the block-projected unrotated path from rest; the zero
    block carries unit weight.
    """
    stack = _unrotated_from_rest(traj, component, sign)
    lattice = traj.lattice
    weight = math.sqrt(lattice.cell_volume)
    total = 0.0
    for n in dyadic_scales(lattice):
        block = stack * lp_weights(lattice, n)
        if not np.any(block):
            continue
        total += max(int(n), 1) ** (2.0 * s) * p_variation(block, 2.0, weight) ** 2
    return math.sqrt(total)


@dataclass(frozen=True)
class ModulationReport:
    """One point of the modulation-projection sweep for a trajectory half."""

    index: DyadicIndex
    sign: int
    band_energy: float
    v2_norm: float
    ratio: float


def check_mod_projection_bound(
    traj: Trajectory, component: int, index, sign: int
) -> ModulationReport:
    """Compare one modulation block against the 2-variation budget.

    Returns the windowed space-time L2 mass of the block at the given dyadic
    modulation, the trajectory's 2-variation norm, and their ratio scaled by
    the square root of the modulation. Sweeping the index and checking the
    ratio stays below one constant is the empirical form of the projection
    bound; sampling too coarse for the requested modulation raises.
    """
    index = DyadicIndex(index)
    field = SpaceTimeField(traj.times, traj.lattice, traj.half(component, sign))
    mass = traj.masses[component]
    band = modulation_energy(field, index, sign, mass, mode="band")
    v2 = v2_pm_norm(traj, component, sign)
    scaled = band * math.sqrt(max(int(index), 1))
    if v2 > 0.0:
        ratio = scaled / v2
    else:
        ratio = math.inf if scaled > 0.0 else 0.0
    return ModulationReport(index, sign, band, v2, ratio)
