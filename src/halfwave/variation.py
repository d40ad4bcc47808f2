"""Computable stand-ins for variation-space trajectory norms.

The p-variation of a finitely sampled path is an exact supremum over all
partitions of the sample grid, found by dynamic programming on the table of
pairwise increment norms. Trajectory norms read a half with the free flow
unrotated (unrotated_from_rest), so a free wave costs exactly the mass of its
profile: all the norm then sees is what the nonlinearity emitted.
"""

import math

import numpy as np

from .dynamics import Trajectory
from .grid import DyadicIndex, FrequencyLattice, annulus_profile, bump_profile
from .grid import dyadic_scales, lp_weights


def increment_table(values, weight: float = 1.0) -> np.ndarray:
    """Weighted Euclidean distances between every pair of samples.

    `values` holds one sample per entry of its leading axis; samples may be
    scalars or full coefficient arrays. `weight` scales the Euclidean norm
    (the square root of the cell volume makes increments of spectral
    snapshots read as spatial L2 distances). Large snapshots go through a
    Gram-matrix expansion so the table costs one matrix product instead of a
    quadratic number of array differences. Complex samples are read as real
    vectors of their real and imaginary parts, since Re<a, b> is the real
    inner product of those vectors, so the Gram matrix is one real symmetric
    product F F^T, which becomes the table of distances in place, row by row.
    """
    vals = np.asarray(values)
    k = vals.shape[0]
    flat = np.ascontiguousarray(vals.reshape(k, -1), dtype=np.result_type(vals, 1.0))
    if flat.shape[1] == 1:
        column = flat[:, 0]
        table = np.abs(column[None, :] - column[:, None])
    else:
        if np.iscomplexobj(flat):
            flat = flat.view(flat.real.dtype)
        sq = np.einsum("ij,ij->i", flat, flat)
        table = flat @ flat.T
        table *= 2.0
        for i, row in enumerate(table):
            np.subtract(sq + sq[i], row, out=row)
        np.sqrt(np.maximum(table, 0.0, out=table), out=table)
    return np.multiply(table, weight, out=table)


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
    powered = increment_table(values, weight)
    powered **= p
    best = np.zeros(powered.shape[0])
    for j in range(1, best.size):
        best[j] = np.max(best[:j] + powered[:j, j])
    return float(best[-1] ** (1.0 / p))


def unrotated_from_rest(traj: Trajectory, component: int, sign: int) -> np.ndarray:
    """One component's chosen half with the free rotation factored out.

    A zero row is prepended, encoding a path that starts from rest before the
    first recorded time. The phase is taken once per distinct <xi> and
    gathered onto the grid, one row per sample that traj.half yields. The
    result is the path that v2_pm_norm and xs_proxy_norm read.
    """
    bracket = traj.lattice.bracket(traj.masses[component])
    values, where = np.unique(bracket, return_inverse=True)
    phase = np.exp(-sign * 1j * traj.times[:, None] * values)
    stack = np.empty((traj.times.size + 1,) + bracket.shape, dtype=complex)
    stack[0] = 0.0
    rows = stack[1:].reshape(traj.times.size, -1)
    for row, angle, sample in zip(rows, phase, traj.half(component, sign)):
        np.take(angle, where.reshape(-1), out=row, mode="clip")
        # phase * half, in this order: the complex product rounds differently
        # with its operands swapped
        row *= sample.reshape(-1)
    return stack


def v2_pm_norm(lattice: FrequencyLattice, path: np.ndarray) -> float:
    """2-variation of one unrotated half-wave path from rest.

    The path starts at a prepended zero, so a free wave scores exactly the
    spatial L2 norm of its profile (one jump) and anything beyond that is
    genuine Duhamel output.
    """
    return p_variation(path, 2.0, math.sqrt(lattice.cell_volume))


def xs_proxy_norm(lattice: FrequencyLattice, path: np.ndarray, s: float) -> float:
    """Dyadic-weighted square sum of blockwise 2-variation norms.

    Each dyadic block N contributes max(N, 1)^(2s) times the squared
    2-variation of the block-projected unrotated path from rest; the zero
    block carries unit weight. A block is projected onto its support only,
    the modes of nonzero weight, since the rest add nothing to its
    increments; all blocks share one buffer, sized to the largest support.
    """
    flat = path.reshape(path.shape[0], -1)
    blocks = []
    for n in dyadic_scales(lattice):
        w = lp_weights(lattice, n).reshape(-1)
        support = np.flatnonzero(w)
        blocks.append((n, support, w[support]))
    widest = max(support.size for _, support, _ in blocks)
    buffer = np.empty(flat.shape[0] * widest, dtype=flat.dtype)
    weight = math.sqrt(lattice.cell_volume)
    total = 0.0
    for n, support, w in blocks:
        block = buffer[: flat.shape[0] * support.size].reshape(flat.shape[0], -1)
        # "clip" writes into the buffer directly, "raise" stages a copy;
        # a fresh array per block costs more resident memory
        np.take(flat, support, axis=1, out=block, mode="clip")
        block *= w
        total += max(int(n), 1) ** (2.0 * s) * p_variation(block, 2.0, weight) ** 2
    return math.sqrt(total)


def modulation_weights(traj: Trajectory, component: int, index, sign: int) -> np.ndarray:
    """Dyadic modulation block `index` of the (tau, xi) grid, at tau - sign*<xi>_m.

    tau runs over the temporal DFT frequencies of the trajectory's samples
    and m is the component's mass. Block 0 is bump(2x) and block N >= 1 is
    annulus(x/N), so the blocks 0, 1, 2, ..., N sum to bump(x/N).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    index = DyadicIndex(index)
    lattice = traj.lattice
    step = traj.times[1] - traj.times[0]
    tau = 2.0 * np.pi * np.fft.fftfreq(traj.times.size, d=step)
    tau = tau.reshape((-1,) + (1,) * lattice.spec.dim)
    x = tau - sign * lattice.bracket(traj.masses[component])[None, ...]
    w = bump_profile(2.0 * x) if index == 0 else annulus_profile(x / float(index))
    w[:, lattice.nyquist_mask] = 0.0
    return w


def modulation_energy(traj: Trajectory, component: int, index, sign: int) -> float:
    """Space-time L2 mass of one modulation block of one trajectory half.

    The half u^+ (sign +1) or u^- (sign -1) of the component is weighted by
    modulation_weights with the same sign. A Hann window (RMS-normalized)
    tapers the horizon before the temporal DFT so that off-grid tau content
    does not leak across dyadic blocks.
    """
    J = traj.times.size
    dt = float(traj.times[1] - traj.times[0])
    if index != 0 and 2.0 * float(index) > np.pi / dt:
        raise ValueError(
            f"sampling too coarse for modulation {int(index)}: "
            f"tau-Nyquist is {np.pi / dt:.3g}"
        )
    # periodic Hann, so an on-grid tone spreads over exactly three bins
    win = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(J) / J))
    win = win / np.sqrt(np.mean(win**2))
    half = traj.half(component, sign)
    data = half * win.reshape((-1,) + (1,) * traj.lattice.spec.dim)
    hat = np.fft.fft(data, axis=0, norm="ortho")
    w = modulation_weights(traj, component, index, sign)
    total = np.sum(np.abs(w * hat) ** 2)
    return float(np.sqrt(dt * traj.lattice.cell_volume * total))
