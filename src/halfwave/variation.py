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
    "SampledPath",
    "Partition",
    "ModulationReport",
    "effective_values",
    "increment_table",
    "p_variation",
    "best_partition",
    "v2_pm_norm",
    "xs_proxy_norm",
    "check_mod_projection_bound",
]


@dataclass(frozen=True)
class SampledPath:
    """Values sampled at increasing times, with an optional leading zero.

    `values` is any array whose leading axis runs over `times`; entries may be
    scalars or full coefficient arrays. `weight` scales the Euclidean
    increment norm (use the square root of the cell volume to make increments
    of spectral snapshots read as spatial L2 distances). When `lead_zero` is
    set, a zero sample is logically prepended, encoding a path that starts
    from rest before the first recorded time.
    """

    times: np.ndarray
    values: np.ndarray
    lead_zero: bool = False
    weight: float = 1.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if values.shape[0] != times.size:
            raise ValueError("one value per sample time required")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    @property
    def effective_count(self) -> int:
        return self.values.shape[0] + (1 if self.lead_zero else 0)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing positions into a path's effective sample list."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("partition must be nonempty")
        if idx[0] < 0:
            raise ValueError("partition indices must be nonnegative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("partition indices must strictly increase")


def effective_values(path: SampledPath) -> np.ndarray:
    """Sample values with the logical leading zero materialized."""
    vals = np.asarray(path.values)
    if not path.lead_zero:
        return vals
    zero = np.zeros((1,) + vals.shape[1:], dtype=vals.dtype)
    return np.concatenate([zero, vals], axis=0)


def increment_table(path: SampledPath) -> np.ndarray:
    """Weighted Euclidean distances between every pair of effective samples.

    Large snapshots go through a Gram-matrix expansion so the table costs one
    matrix product instead of a quadratic number of array differences.
    """
    vals = effective_values(path)
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
    return path.weight * dist


def _best_sums(path: SampledPath, p: float):
    """Dynamic program over chain ends of the path's effective samples.

    best[j] is the largest sum of p-th powers of increments over chains ending
    at sample j, and parent[j] the sample before j on the first such chain
    (-1 for sample 0).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if path.effective_count < 2:
        raise ValueError("need at least two effective samples")
    powered = increment_table(path) ** p
    k = powered.shape[0]
    best = np.zeros(k)
    parent = np.full(k, -1)
    for j in range(1, k):
        scores = best[:j] + powered[:j, j]
        parent[j] = np.argmax(scores)
        best[j] = scores[parent[j]]
    return best, parent


def p_variation(path: SampledPath, p: float) -> float:
    """Exact p-variation of the sampled path over all grid partitions.

    Dynamic programming over chain ends; O(K^2) increment evaluations. The
    supremum is attained by a partition containing both endpoints, since
    extending a chain only adds nonnegative terms.
    """
    best, _ = _best_sums(path, p)
    return float(best[-1] ** (1.0 / p))


def best_partition(path: SampledPath, p: float) -> Partition:
    """A partition witnessing the p-variation supremum (ties broken low)."""
    _, parent = _best_sums(path, p)
    chain = [len(parent) - 1]
    while parent[chain[-1]] >= 0:
        chain.append(int(parent[chain[-1]]))
    return Partition(tuple(reversed(chain)))


def _unrotated_stack(traj: Trajectory, component: int, sign: int) -> np.ndarray:
    """One component's chosen half with the free rotation factored out."""
    half = traj.half(component, sign)
    times = traj.times.reshape((-1,) + (1,) * traj.lattice.spec.dim)
    bracket = traj.lattice.bracket(traj.masses[component])
    return half * np.exp(-sign * 1j * times * bracket)


def v2_pm_norm(traj: Trajectory, component: int, sign: int) -> float:
    """2-variation of one unrotated half-wave component, from rest.

    The path starts at a prepended zero, so a free wave scores exactly the
    spatial L2 norm of its profile (one jump) and anything beyond that is
    genuine Duhamel output.
    """
    path = SampledPath(
        traj.times,
        _unrotated_stack(traj, component, sign),
        lead_zero=True,
        weight=math.sqrt(traj.lattice.cell_volume),
    )
    return p_variation(path, 2.0)


def xs_proxy_norm(traj: Trajectory, component: int, s: float, sign: int = 1) -> float:
    """Dyadic-weighted square sum of blockwise 2-variation norms.

    Each dyadic block N contributes max(N, 1)^(2s) times the squared
    2-variation of the block-projected unrotated path; the zero block carries
    unit weight.
    """
    stack = _unrotated_stack(traj, component, sign)
    lattice = traj.lattice
    weight = math.sqrt(lattice.cell_volume)
    total = 0.0
    for n in dyadic_scales(lattice):
        block = stack * lp_weights(lattice, n)
        if not np.any(block):
            continue
        path = SampledPath(traj.times, block, lead_zero=True, weight=weight)
        total += max(int(n), 1) ** (2.0 * s) * p_variation(path, 2.0) ** 2
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
