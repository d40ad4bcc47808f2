"""Test helpers shared by the test modules, and the complex reference.

The package evolves real fields only.  A complex system is run in its real
form: each complex component w = a + ib becomes the two real components a and
b of the same mass, a at index i and b at index K + i.  ComplexSystem,
complex_products and the two whole-state solvers below are the test-local
complex reference that the real form is checked against; complex_products is
the package's former complex branch of N, and whole_transform_products is
its real branch as it was with whole n-D transforms, the bit-for-bit oracle
of the band-pruned one.  band cuts an oracle spectrum to
the band that N returns, and loop_frequency_pairs is the frequency-pair sweep
written as a loop, one pair at a time.  transforms_find_real and
reconstructed_energy are the realness test and the energy computed from the
rebuilt fields u and u_t over the whole grid, the oracles of the package's
forms on u^± and on the kept half; rotation is the free flow over the whole
grid, and
unwindowed_modulation_energy is the raw periodic modulation energy that the
Hann window's leak is judged against.  smallest_bracket is the weight of the
lower-bound probe; direct_unrotated_from_rest, complex_gram_table and
full_grid_xs_proxy_norm are the variation layer written as it was with one
phase per grid point, a complex Gram product and every block on the whole
grid.  whole_box_cap_mode_set is cap_mode_set as it was, every test on
every point of the integer box.
"""

import math
from dataclasses import dataclass

import numpy as np

from halfwave import dynamics, harness
from halfwave.grid import FrequencyLattice, SpectralField, dyadic_scales, lp_weights
from halfwave.system import MassSystem, Monomial, bracket
from halfwave.variation import modulation_weights


def dealias_mask(lattice: FrequencyLattice) -> np.ndarray:
    """The 2/3 band of the full layout as 0/1 weights: |xi| <= 2/3 Nyquist per axis."""
    spec = lattice.spec
    cutoff = (2.0 / 3.0) * math.pi * spec.points_per_axis / spec.box_length
    kept = (np.abs(lattice.axis_frequencies) <= cutoff + 1e-12).astype(float)
    keep = np.ones(spec.shape)
    for d in range(spec.dim):
        keep = keep * kept.reshape([-1 if e == d else 1 for e in range(spec.dim)])
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


def random_real_field(
    lattice: FrequencyLattice, rng: np.random.Generator, decay: float = 0.0
) -> SpectralField:
    """Full spectrum of a random real field, damped by <xi>^-decay, Nyquist-free."""
    c = np.fft.fftn(rng.standard_normal(lattice.spec.shape), norm="ortho")
    if decay:
        c = c * lattice.bracket(1.0) ** (-decay)
    c[lattice.nyquist_mask] = 0.0
    return SpectralField(lattice, c)


def random_real_data(lattice, rng, k=1, decay=0.0):
    """k random real positions, then k velocities: (K, *grid) spectra each."""
    return tuple(
        np.stack([random_real_field(lattice, rng, decay).coeffs for _ in range(k)])
        for _ in range(2)
    )


def unwindowed_modulation_energy(traj, component, index, sign) -> float:
    """modulation_energy without its Hann window: the raw periodic measurement."""
    hat = np.fft.fft(traj.half(component, sign), axis=0, norm="ortho")
    w = modulation_weights(traj, component, index, sign)
    dt = float(traj.times[1] - traj.times[0])
    return float(np.sqrt(dt * traj.lattice.cell_volume * np.sum(np.abs(w * hat) ** 2)))


def read_halves(traj) -> np.ndarray:
    """The (n_times, K, 2, *grid) halves of a trajectory, each sample as half() yields it."""
    return np.stack(
        [
            np.stack([np.stack(list(traj.half(i, sign))) for sign in (1, -1)], axis=1)
            for i in range(traj.n_components)
        ],
        axis=1,
    )


def smallest_bracket(triple, xi, eta):
    """min(<xi>_m, <eta>_n, <xi+eta>_o), the weight in the lower-bound probe."""
    m, n, o = triple
    xi, eta = np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    return np.minimum(np.minimum(bracket(m, xi), bracket(n, eta)), bracket(o, xi + eta))


def whole_box_cap_mode_set(scale, pole, transverse_radius, thickness=2.0):
    """harness.cap_mode_set as it was: norms, axial and transverse parts of every
    point of the integer box, then the three tests at once."""
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    halfwidth = harness._cap_halfwidth(transverse_radius, thickness)
    axes = [np.arange(int(c) - halfwidth, int(c) + halfwidth + 1) for c in np.round(scale * pole)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    norms = np.sqrt(np.sum(pts.astype(float) ** 2, axis=1))
    axial = pts.astype(float) @ pole
    transverse = np.sqrt(np.maximum(norms**2 - axial**2, 0.0))
    keep = (
        (np.abs(norms - scale) <= thickness / 2.0)
        & (transverse <= transverse_radius)
        & (axial > 0)
    )
    return pts[keep]


def direct_unrotated_from_rest(traj, component, sign) -> np.ndarray:
    """The unrotated half from rest with one complex exp per sample and grid point.

    The product is taken as phase * half.  The complex multiply is not
    commutative in the last bit, and numpy's temporary elision already ran
    `half * np.exp(...)` in this order from 256 KiB on.
    """
    half = traj.half(component, sign)
    times = traj.times.reshape((-1,) + (1,) * traj.lattice.spec.dim)
    br = traj.lattice.bracket(traj.masses[component])
    phase = np.exp(-sign * 1j * times * br)
    stack = np.zeros((half.shape[0] + 1,) + half.shape[1:], dtype=complex)
    stack[1:] = phase * half
    return stack


def complex_gram_table(values) -> np.ndarray:
    """Squared increments |a_i - a_j|^2 from the complex Gram matrix of the samples."""
    vals = np.asarray(values)
    flat = np.ascontiguousarray(vals.reshape(vals.shape[0], -1))
    sq = np.einsum("ij,ij->i", flat, flat.conj()).real
    gram = flat @ flat.conj().T
    return sq[None, :] + sq[:, None] - 2.0 * gram.real


def full_grid_xs_proxy_norm(traj, component, s, sign=1) -> float:
    """xs_proxy_norm with every block on the whole grid, from complex Gram tables."""
    stack = direct_unrotated_from_rest(traj, component, sign)
    lattice = traj.lattice
    total = 0.0
    for n in dyadic_scales(lattice):
        d2 = complex_gram_table(stack * lp_weights(lattice, n))
        table = lattice.cell_volume * np.clip(d2, 0.0, None)
        best = np.zeros(table.shape[0])
        for j in range(1, best.size):
            best[j] = np.max(best[:j] + table[:j, j])
        total += max(int(n), 1) ** (2.0 * s) * best[-1]
    return math.sqrt(total)


def band(lattice: FrequencyLattice, spectrum) -> np.ndarray:
    """A full or half spectrum, (..., *grid), cut to lattice.band_flat: (..., n_band)."""
    spectrum = np.asarray(spectrum)
    dim = lattice.spec.dim
    half = spectrum[..., : lattice.spec.points_per_axis // 2 + 1]
    return half.reshape(half.shape[:-dim] + (-1,))[..., lattice.band_flat]


def mirror(a, dim):
    """a(-k) on the last dim axes, index 0 of each to itself and i > 0 to n - i."""
    axes = tuple(range(a.ndim - dim, a.ndim))
    return np.roll(np.flip(a, axes), 1, axes)


def transforms_find_real(lattice: FrequencyLattice, state, masses) -> bool:
    """The realness test through inverse transforms: u and u_t of the state on the grid.

    True when every field's imaginary part is within 1e-12 of its norm, or
    is not finite; the solvers' spectral test must decide alike.
    """
    fields = np.concatenate(dynamics.reconstruct(lattice, state, masses))
    values = np.fft.ifftn(fields, axes=range(1, fields.ndim)).reshape(len(fields), -1)
    imag, norms = np.linalg.norm(values.imag, axis=1), np.linalg.norm(values, axis=1)
    return not np.any(imag > 1e-12 * norms)


def reconstructed_energy(lattice: FrequencyLattice, state, system: MassSystem) -> float:
    """conserved_energy summed over the whole grid from the rebuilt u and u_t.

    The cubic part takes N from complex_products on the whole spectra.
    """
    u, u_t = dynamics.reconstruct(lattice, state, system.masses)
    cubic = np.sum(np.real(complex_products(lattice, ComplexSystem.of(system), u) * np.conj(u)))
    br = np.stack([lattice.bracket(m) for m in system.masses])
    quad = np.sum(np.abs(u_t) ** 2) + np.sum(br**2 * np.abs(u) ** 2)
    return float(lattice.cell_volume * (0.5 * quad - cubic / 3.0))


def rotation(lattice: FrequencyLattice, masses, t):
    """Free flow e^{±it<D>} over a whole (K, 2, *grid) state, zero on Nyquist modes."""
    br = np.stack([lattice.bracket(m) for m in masses])[:, None]
    phase = np.exp(1j * t * br)
    phase[:, :, lattice.nyquist_mask] = 0.0
    return np.concatenate([phase, np.conj(phase)], axis=1)


# ---------------------------------------------------------------------------
# complex systems and their real form


@dataclass(frozen=True)
class ComplexSystem:
    """K masses and, per component, terms (c, (j, conj_j), (l, conj_l)).

    Each term is c z_j z_l with a complex c, a factor conjugated where its flag
    is set.
    """

    masses: tuple
    polynomials: tuple

    @classmethod
    def of(cls, system: MassSystem) -> "ComplexSystem":
        """A real system's terms, no factor conjugated."""
        def term(mono):
            j, k = mono.factors
            return mono.coefficient, (j, False), (k, False)

        polys = tuple(tuple(map(term, poly)) for poly in system.polynomials)
        return cls(tuple(system.masses), polys)


def complex_products(lattice, system: ComplexSystem, z) -> np.ndarray:
    """N_i(z) of (K, *grid) full spectra, dealiased, as full spectra.

    The fields are cut to the 2/3 band, multiplied on the physical grid with
    their conjugation flags, and the products cut to the band again.
    """
    if z.shape[1:] != lattice.spec.shape:
        raise ValueError("the complex products need full spectra")
    keep = dealias_mask(lattice)
    axes = tuple(range(1, z.ndim))
    values = np.fft.ifftn(z * keep, axes=axes, norm="ortho")
    totals = np.zeros(z.shape, dtype=complex)
    for total, poly in zip(totals, system.polynomials):
        for c, (j, conj_j), (l, conj_l) in poly:
            zj = np.conj(values[j]) if conj_j else values[j]
            zl = np.conj(values[l]) if conj_l else values[l]
            total += c * (zj * zl)
    return np.fft.fftn(totals, axes=axes, norm="ortho") * keep


def whole_transform_products(system: MassSystem, fields) -> np.ndarray:
    """evaluate_nonlinearity through one irfftn per field and one rfftn per product."""
    lattice = fields[0].lattice
    shape = lattice.spec.shape
    axes = tuple(range(len(shape)))
    index = lattice.band_flat
    layout = shape[:-1] + (shape[-1] // 2 + 1,)
    spectrum = np.zeros(layout, dtype=complex)
    needed = {i for poly in system.polynomials for m in poly for i in m.factors}
    physical = {}
    for idx in needed:
        coeffs = fields[idx].coeffs
        if coeffs.shape != index.shape:
            coeffs = coeffs[..., : layout[-1]].reshape(-1)[index]
        spectrum.reshape(-1)[index] = coeffs
        physical[idx] = np.fft.irfftn(spectrum, shape, axes, norm="ortho")
    out = []
    for poly in system.polynomials:
        total = None if poly else np.zeros(shape)
        for mono in poly:
            j, k = mono.factors
            product = mono.coefficient * (physical[j] * physical[k])
            total = product if total is None else np.add(total, product, out=total)
        out.append(np.fft.rfftn(total, norm="ortho").reshape(-1)[index])
    return np.stack(out)


def real_form(system: ComplexSystem) -> MassSystem:
    """The real system of 2K components (a_i at i, b_i at K + i) of z_i = a_i + i b_i.

    With s = -1 for a conjugated factor and +1 else, c z_j z_l is
    c (a_j a_l - s_j s_l b_j b_l + i s_l a_j b_l + i s_j b_j a_l); its real
    part goes to a_i's polynomial and its imaginary part to b_i's.
    """
    k = len(system.masses)
    polys = [[] for _ in range(2 * k)]
    for i, poly in enumerate(system.polynomials):
        for c, (j, conj_j), (l, conj_l) in poly:
            c = complex(c)
            s_j, s_l = (-1.0 if conj_j else 1.0), (-1.0 if conj_l else 1.0)
            real = ((1.0, j, l), (-s_j * s_l, k + j, k + l))
            imag = ((s_l, j, k + l), (s_j, k + j, l))
            terms = [(i, c.real * w, x, y) for w, x, y in real]
            terms += [(k + i, c.imag * w, x, y) for w, x, y in real]
            terms += [(i, -c.imag * w, x, y) for w, x, y in imag]
            terms += [(k + i, c.real * w, x, y) for w, x, y in imag]
            for target, coefficient, x, y in terms:
                if coefficient:
                    polys[target].append(Monomial(coefficient, (x, y)))
    return MassSystem(tuple(system.masses) * 2, tuple(tuple(p) for p in polys))


def split(z, dim, state=False):
    """The real form (a, b), stacked on the first axis, of complex z = a + ib.

    z is (K, *grid) field spectra, or with state=True a (K, 2, *grid) state:
    a^± = (z^± + zbar^±)/2 and b^± = (z^± - zbar^±)/2i, where the conjugate
    field's halves are zbar^±(xi) = conj(z^∓(-xi)).
    """
    bar = np.conj(mirror(z[:, ::-1] if state else z, dim))
    return np.concatenate([(z + bar) / 2, (z - bar) / 2j])


def join(real, axis=0):
    """a + ib of a real form whose axis holds a_0..a_{K-1}, then b_0..b_{K-1}."""
    a, b = np.split(real, 2, axis=axis)
    return a + 1j * b


# ---------------------------------------------------------------------------
# whole-state reference solvers driven by any full-spectrum N


def full_lawson(lat, state, masses, products, dt, steps):
    """Textbook Lawson-RK4 on the whole (K, 2, *grid) state; products(u) is N."""
    br = np.stack([lat.bracket(m) for m in masses])[:, None]
    live = ~lat.nyquist_mask
    sign = np.array([1.0, -1.0]).reshape((1, 2) + (1,) * lat.spec.dim)
    half, whole = (np.exp(1j * sign * t * br) * live for t in (0.5 * dt, dt))
    weight = -0.5j * sign * live / br

    def slope(y):
        return weight * products(y.sum(axis=1))[:, None]

    y = state.astype(complex)
    for _ in range(steps):
        k1 = slope(y)
        k2 = slope(half * (y + 0.5 * dt * k1))
        k3 = slope(half * y + 0.5 * dt * k2)
        k4 = slope(whole * y + dt * half * k3)
        y = whole * y + dt / 6.0 * (whole * k1 + 2.0 * half * (k2 + k3) + k4)
    return y


def two_buffer_picard(lat, state, masses, products, T, dt, iters, s=0.5):
    """Picard sweeps with two whole iterates and a full rotation table.

    products(u) is N; returns the last iterate and the distances.
    """
    dim = lat.spec.dim
    signs = np.array([1.0, -1.0]).reshape((1, 2) + (1,) * dim)
    br = np.stack([lat.bracket(m) for m in masses])[:, None]
    inv2br = ~lat.nyquist_mask / (2.0 * br)
    weights = lat.cell_volume * br ** (2.0 * s)
    times = np.arange(max(1, int(round(T / dt))) + 1) * dt

    def rotation(t):
        phase = np.exp(1j * signs * t * br)
        phase[:, :, lat.nyquist_mask] = 0.0
        return phase

    rotations = np.stack([rotation(t) for t in times])
    current = state * rotations
    distances = []
    for _ in range(iters):
        nxt = np.empty_like(current)
        acc = np.zeros_like(state)
        prev = None
        distance = 0.0
        for j in range(times.size):
            scaled = products(current[j].sum(axis=1))[:, None] * inv2br
            cur = np.conj(rotations[j]) * scaled
            if j > 0:
                acc = acc + 0.5 * dt * (prev + cur)
            prev = cur
            nxt[j] = rotations[j] * (state - 1j * signs * acc)
            step = np.sqrt(np.sum(weights * np.abs(nxt[j] - current[j]) ** 2))
            distance = max(distance, float(step))
        distances.append(distance)
        current = nxt
    return current, distances


# ---------------------------------------------------------------------------
# the frequency-pair sweep, one pair at a time


def loop_frequency_pairs(dim, max_radius, directions, seed):
    """harness._frequency_pairs as a loop that builds each pair in turn."""
    ladder = [0.0] + [float(2**k) for k in range(int(math.log2(max_radius)) + 1)]
    draws = max(1, directions // 8)
    rng = np.random.default_rng(seed)
    e1, e2 = np.eye(2, dim)
    rows = [(np.zeros(dim), np.zeros(dim)), (e1, e1)]
    for t in ladder[1:]:
        rows += [(t * e1, t * e1), (t * e1, -t * e1), (t * e1, max_radius * e1)]
        if dim >= 2:
            rows.append((t * e1, t * e2))
    for ra in ladder:
        for rb in ladder:
            for _ in range(draws):
                da = rng.standard_normal(dim)
                db = rng.standard_normal(dim)
                da /= np.linalg.norm(da)
                db /= np.linalg.norm(db)
                rows.append((ra * da, rb * db))
    xi, eta = zip(*rows)
    return np.array(xi), np.array(eta)
