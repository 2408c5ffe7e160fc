"""Exact simulation of the dissipatively coupled Gaussian pointer.

The apparatus starts in a momentum-space Gaussian phi(p) with position std
sigma, so the momentum std is sigma' = 1/(2 sigma). Coupling an observable A
to the pointer momentum with strength 1/T for total time N*T evolves each
momentum matrix element of the joint state independently:

    rho (x) |p><p'|  ->  (exp(L_{p,p'} N T) rho) (x) |p><p'|,
    L_{p,p'} X = L X - (i/T) (p A X - p' X A).

The pointer position density is reconstructed from the one-dimensional
characteristic function

    K(p, p') = tr(exp(L_{p,p'} N T) rho_ss),
    C(x)     = int dp phi(p) phi(p - x) K(p, p - x),
    Pr(q)    = (1/2pi) int dx exp(i x q) C(x).

K is needed on the half plane p >= p' only (x = p - p' a grid multiple);
the other half follows from the conjugation identity K(p', p) = conj K(p, p').
Grids exponentiate the generator on its minimal realization: the subspace
reachable from vec(rho_ss) and observable from vec(I). Where A X = X A on
that subspace, K depends on x alone and a grid needs one exponential per
offset; so does the ideal phase, and the perturbative kernel when Im c is
exactly 0 (``_x_only``). ``_grid_blocks`` is the one pair definition: one
block of (k dp, 0) per offset, or the half-plane pairs (p_i, p_i - k dp)
streamed in blocks of whole offsets of at most ``_BLOCK_PAIRS`` = 4,096
pairs (``_half_plane_blocks``), so x is the Fourier stage's offset k dp up
to one rounding of p_i, and no array that depends on N spans the grid.
``_kernels`` gives every source's kernels block by block, and
``_offset_sums`` reduces them to S_k = sum_i f_i f_{i-k} K_ik per offset, by
one correlation of f on the offsets or one bincount per block of pairs; an
offset lies wholly in one block, so its sum runs in the same order however
the grid is cut. ``pointer_distribution`` takes C(x_k) = dp S_k with f =
phi, ``nonadiabaticity`` Delta^2 = S_0 + 2 sum_{k>0} S_k. Both grids are
uniform, so the final transform onto the q grid is a chirp-z transform,
computed by Bluestein's algorithm with one FFT convolution.

Only the factor N depends on N: K = w . exp(N G) . v with the N-free
generator G = T L - i (p A . - p' . A). A grid's realization and its
dominant-mode table (``_kernels_py.mode_table_blocks``, filled from the
same block stream: per pair the eigenvalue lam of G of largest real part
and the weight c of its mode, K = c exp(N lam)) are therefore built once
per (model, theta, observable, T, apparatus) and kept in a memo of the
``_MODE_MEMO_SIZE`` = 4 most recently used keys, so the runs of an N sweep
share them. An entry holds the reduced matrices and two complex numbers
per computed pair (408 KiB for a full 13,041-pair grid, 5 KiB for an
x-only one), no p or p' arrays and no exponentials. Pairs the table
refuses (its rank-one guard or its gap test) take the Pade
``trace_kernels`` at N, block by block. A table does not depend on the
runs before it, so neither does any kernel.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
# numpy loads it lazily; load it with damlab, not inside the first run
import numpy.fft

from .backend import kernels
from .models import LindbladModel, dissipation_coefficient, steady_state_bundle
from .operators import is_hermitian, left_mult, mat_exp, right_mult, vectorize
from .rng import Stream

__all__ = [
    "ApparatusConfig",
    "DamRun",
    "PointerDistribution",
    "default_apparatus",
    "coupled_generator",
    "trace_kernel",
    "perturbative_kernel",
    "pointer_distribution",
    "variance_closed_form",
    "nonadiabaticity",
    "sample_pointer",
]

TAIL_MASS_LIMIT = 1e-8
NORMALIZATION_LIMIT = 1e-4
NEGATIVE_DENSITY_LIMIT = -1e-8
REDUCTION_RTOL = 1e-12


@dataclass(frozen=True)
class ApparatusConfig:
    """Gaussian pointer and its momentum/position grids.

    sigma is the position-space std; the p grid spans [-p_halfwidth,
    p_halfwidth] with p_points nodes; the q grid spans q_halfwidth on both
    sides of a run-dependent center (N times the steady expectation of the
    coupled observable).
    """

    sigma: float
    p_halfwidth: float
    p_points: int
    q_halfwidth: float
    q_points: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.p_halfwidth <= 0 or self.q_halfwidth <= 0:
            raise ValueError("grid halfwidths must be positive")
        if self.p_points < 3 or self.q_points < 3:
            raise ValueError("grids need at least 3 points")

    @property
    def sigma_p(self):
        """Momentum-space std, 1 / (2 sigma)."""
        return 1.0 / (2.0 * self.sigma)

    def p_grid(self):
        return np.linspace(-self.p_halfwidth, self.p_halfwidth, self.p_points)

    def q_grid(self, center=0.0):
        return np.linspace(
            center - self.q_halfwidth, center + self.q_halfwidth, self.q_points
        )

    def tail_mass(self):
        """Gaussian momentum weight lying outside the p grid."""
        return math.erfc(self.p_halfwidth / (self.sigma_p * math.sqrt(2.0)))


def default_apparatus(sigma=0.1):
    """p grid of 161 points over +-6 sigma', q grid of 2048 points over +-8 sigma."""
    sigma = float(sigma)
    # the config checks sigma before sigma_p divides by it
    app = ApparatusConfig(
        sigma=sigma,
        p_halfwidth=1.0,
        p_points=161,
        q_halfwidth=8.0 * sigma,
        q_points=2048,
    )
    return replace(app, p_halfwidth=6.0 * app.sigma_p)


@dataclass(frozen=True, eq=False)
class DamRun:
    """One measurement configuration: model, observable, T, N and apparatus.

    ``bundle`` is the steady-state bundle of (model, theta), built on first
    use and kept with the run.
    """

    model: LindbladModel
    theta: np.ndarray
    observable: np.ndarray
    t: float
    n: float
    apparatus: ApparatusConfig

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        obs = np.asarray(self.observable, dtype=complex)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "observable", obs)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "n", float(self.n))
        if not self.model.contains(theta):
            raise ValueError(f"theta {theta.tolist()} outside model domain")
        d = self.model.system_dim
        if obs.shape != (d, d):
            raise ValueError(f"observable shape {obs.shape} does not match dim {d}")
        if not is_hermitian(obs):
            raise ValueError("observable must be Hermitian")
        if not self.t > 0:
            raise ValueError("T must be positive")
        if not self.n >= 1:
            raise ValueError("N must be >= 1")

    @functools.cached_property
    def bundle(self):
        return steady_state_bundle(self.model, self.theta)


def coupled_generator(run, p, pp):
    """L - (i/T) (p A . - pp . A) as a superoperator matrix."""
    lmat = run.model.liouvillian(run.theta)
    a = run.observable
    return lmat - (1j / run.t) * (p * left_mult(a) - pp * right_mult(a))


def trace_kernel(run, p, pp):
    """tr(exp(L_{p,pp} N T) rho_ss), by a single dense matrix exponential.

    Reference implementation for one pair; grids go through the batched
    backend instead.
    """
    b = run.bundle
    e = mat_exp(coupled_generator(run, p, pp), run.n * run.t)
    w = vectorize(np.eye(b.dim))
    return complex(w @ (e @ vectorize(b.rho_ss)))


def perturbative_kernel(run, p, pp):
    """Second-order kernel exp(l1 + l2) built from the steady-state bundle.

    With c = tr(A S(A rho_ss)) and x = p - pp this is
    exp(-i x N <A> + (N/T) x^2 Re c + i (N/T) x (p + pp) Im c); the
    remainder of the exact kernel is O(N/T^2).
    """
    return _perturbative_kernels(run)(p, pp)


def _perturbative_kernels(run):
    """``perturbative_kernel`` of a run as a function of (p, pp), its
    coefficients computed once for every block of a grid."""
    b = run.bundle
    coeff = dissipation_coefficient(b, run.observable)
    mean_a = b.expectation(run.observable)

    def kernel(p, pp):
        p = np.asarray(p, dtype=float)
        pp = np.asarray(pp, dtype=float)
        x = p - pp
        arg = (
            -1j * x * run.n * mean_a
            + (run.n / run.t) * x * x * coeff.real
            + 1j * (run.n / run.t) * x * (p + pp) * coeff.imag
        )
        return np.exp(arg)

    return kernel


def _phi(app):
    """phi on the p grid and the step dp; refuses a grid that cuts off more
    than TAIL_MASS_LIMIT of the Gaussian."""
    tail = app.tail_mass()
    if tail > TAIL_MASS_LIMIT:
        raise ValueError(
            f"p grid too narrow: Gaussian tail mass {tail:.3g} exceeds {TAIL_MASS_LIMIT}"
        )
    p, sp = app.p_grid(), app.sigma_p
    phi = (2.0 * np.pi * sp * sp) ** -0.25 * np.exp(-(p * p) / (4.0 * sp * sp))
    return phi, p[1] - p[0]


def _invariant_basis(start, generators):
    """Orthonormal columns spanning the smallest subspace that contains
    ``start`` and is invariant under every generator.

    Block Krylov with two-pass Gram-Schmidt: a new direction is kept when its
    residual exceeds REDUCTION_RTOL times its generator's Frobenius norm.
    """
    m = start.size
    basis = [start / np.linalg.norm(start)]
    floors = [REDUCTION_RTOL * np.linalg.norm(g) for g in generators]
    j = 0
    while j < len(basis):
        for g, floor in zip(generators, floors):
            y = g @ basis[j]
            q = np.array(basis)
            for _ in range(2):
                y = y - (q.conj() @ y) @ q
            norm = np.linalg.norm(y)
            if norm > floor and len(basis) < m:
                basis.append(y / norm)
        j += 1
    return np.array(basis).T


def _generator_terms(run):
    """(base, lin_p, lin_pp, w, v) of the N-free generator: the kernel of N
    interactions is K_N(p, pp) = w . exp(N (base + p lin_p + pp lin_pp)) . v."""
    a = run.observable
    bundle = run.bundle
    return (
        bundle.liouvillian * run.t,
        -1j * left_mult(a),
        1j * right_mult(a),
        vectorize(np.eye(bundle.dim)),
        vectorize(bundle.rho_ss),
    )


def _minimal_realization(base, lin_p, lin_pp, w, v):
    """Cut K = w . exp(base + p lin_p + pp lin_pp) . v to its minimal state space.

    Projects every matrix onto the part of the space that is reachable from v
    and observable from w (Kalman's minimal realization). Returns the
    (base, lin_p, lin_pp, w, v) to pass to ``trace_kernels`` and whether
    lin_p + lin_pp vanishes there, in which case K depends on p - pp alone.
    When nothing reduces, the original matrices are returned unchanged.
    """
    gens = (base, lin_p, lin_pp)
    reach = _invariant_basis(v, gens)
    projected = [reach.conj().T @ g @ reach for g in gens]
    observe = _invariant_basis((w @ reach).conj(), [g.conj().T for g in projected])
    basis = reach @ observe
    if basis.shape[1] == v.size:
        reduced = (base, lin_p, lin_pp, w, v)
    else:
        reduced = tuple(basis.conj().T @ g @ basis for g in gens)
        reduced += (w @ basis, basis.conj().T @ v)
    drift = np.linalg.norm(reduced[1] + reduced[2])
    return reduced, bool(drift <= REDUCTION_RTOL * np.linalg.norm(lin_p))


class _Block(NamedTuple):
    """Whole offsets of a grid: the pairs ``pairs`` of the table order, with
    their grid indices (idx_i, idx_k), None on an x-only grid, and momenta."""

    offsets: slice
    pairs: slice
    idx_i: np.ndarray
    idx_k: np.ndarray
    p: np.ndarray
    pp: np.ndarray


# half-plane pairs per block: a complex block array takes about 64 KiB
_BLOCK_PAIRS = 4_096


def _half_plane_blocks(app):
    """Yield the half-plane pairs p_i >= p_j, x = p_i - p_j = k dp, as
    ``_Block``s of whole offsets k of at most ``_BLOCK_PAIRS`` pairs (an
    offset of more pairs is a block alone). Pairs run by offset, then by i
    = k..p_points - 1, the memo table's order; p is p_i and pp is p_i - k
    dp, so x is the Fourier stage's offset k dp up to one rounding of p_i.
    At pp = p_j the linspace step would set x, and the phase error in x N
    <A> would grow with k."""
    grid = app.p_grid()
    dp = grid[1] - grid[0]
    k = grid.size
    # pairs before offset j: offset j holds i = j, ..., k-1
    starts = np.concatenate([[0], np.cumsum(np.arange(k, 0, -1))])
    first = 0
    while first < k:
        # the most whole offsets within the budget, and at least one
        last = np.searchsorted(starts, starts[first] + _BLOCK_PAIRS, "right") - 1
        stop = max(int(last), first + 1)
        offsets = np.arange(first, stop)
        idx_k = np.repeat(offsets, k - offsets)
        idx_i = idx_k + np.arange(starts[first], starts[stop]) - starts[idx_k]
        p = grid[idx_i]
        yield _Block(
            slice(first, stop), slice(int(starts[first]), int(starts[stop])),
            idx_i, idx_k, p, p - dp * idx_k,
        )
        first = stop


def _grid_blocks(app, x_only):
    """The pairs of a grid as ``_Block``s: when the kernel depends on p - pp
    alone, one block of one pair (k dp, 0) per offset k and no indices, else
    the ``_half_plane_blocks``."""
    if not x_only:
        return _half_plane_blocks(app)
    p = app.p_grid()
    x = (p[1] - p[0]) * np.arange(p.size)
    whole = slice(0, p.size)
    return [_Block(whole, whole, None, None, x, np.zeros_like(x))]


# (model, theta, observable, T, apparatus) -> (realization, x_only, table),
# least recently used first
_MODE_MEMO = {}
_MODE_MEMO_SIZE = 4


def _kernel_modes(run):
    """(minimal realization, x_only, mode table) of a run's grid, memoized.

    Nothing here depends on N, so the runs of an N sweep share one entry.
    The key holds the model itself, which compares by identity and stays
    alive while its entry does, and the bytes of theta and the observable.
    """
    key = (run.model, run.theta.tobytes(), run.observable.tobytes(), run.t,
           run.apparatus)
    entry = _MODE_MEMO.pop(key, None)
    if entry is None:
        mats, x_only = _minimal_realization(*_generator_terms(run))
        base, lin_p, lin_pp, w, v = mats
        app = run.apparatus
        k = app.p_points
        # one pair per offset, or every half-plane pair
        size = k if x_only else k * (k + 1) // 2
        blocks = ((b.p, b.pp) for b in _grid_blocks(app, x_only))
        table = kernels.mode_table_blocks(base, lin_p, lin_pp, blocks, size, w, v)
        entry = mats, x_only, table
        if len(_MODE_MEMO) >= _MODE_MEMO_SIZE:
            del _MODE_MEMO[next(iter(_MODE_MEMO))]
    _MODE_MEMO[key] = entry
    return entry


def _x_only(run, kernel_source):
    """Whether the run's kernel from ``kernel_source`` depends on x = p - p'
    alone: an exact grid whose minimal realization is x-only, the ideal
    phase, and the perturbative kernel when Im c, the factor of its only
    p + p' term, is exactly 0."""
    if kernel_source == "exact":
        return _kernel_modes(run)[1]
    if kernel_source == "perturbative":
        return dissipation_coefficient(run.bundle, run.observable).imag == 0.0
    return True


def _kernels(run, kernel_source):
    """Yield (block, K): the run's kernels from ``kernel_source`` on each
    ``_Block`` of its grid, one block of one pair per offset when ``_x_only``
    holds, else the half-plane pairs in blocks of whole offsets.

    The exact source reads K_N = c exp(N lam) from the block's slice of the
    memoized mode table; the pairs it refuses go through the Pade
    ``trace_kernels`` at N.
    """
    blocks = _grid_blocks(run.apparatus, _x_only(run, kernel_source))
    if kernel_source == "perturbative":
        kernel = _perturbative_kernels(run)
        for b in blocks:
            yield b, kernel(b.p, b.pp)
        return
    if kernel_source == "ideal":
        mean_a = run.bundle.expectation(run.observable)
        for b in blocks:
            yield b, np.exp(-1j * (b.p - b.pp) * run.n * mean_a)
        return
    (base, lin_p, lin_pp, w, v), _, table = _kernel_modes(run)
    n = run.n
    for b in blocks:
        lam, c = table[:, b.pairs]
        kv = np.exp(n * lam)
        kv *= c
        refused = np.flatnonzero(np.isnan(lam))
        if refused.size:
            kv[refused] = kernels.trace_kernels(
                n * base, n * lin_p, n * lin_pp, b.p[refused], b.pp[refused], w, v
            )
        yield b, kv


def _offset_sums(f, blocks, scale=1.0):
    """S_k = scale sum_i f_i f_{i-k} values_ik for every offset k = 0..f.size-1.

    ``blocks`` yields (block, values) as ``_kernels`` does. An x-only block
    holds one value per offset: then S_k = scale values_k R_k with R_k =
    sum_i f_i f_{i-k}, one correlation of f. Else each block holds one value
    per half-plane pair, summed per offset with one bincount; an offset lies
    wholly in one block, so its sum runs in table order.
    """
    sums = np.empty(f.size, dtype=complex)
    for b, values in blocks:
        if b.idx_i is None:
            return scale * values * np.correlate(f, f, "full")[f.size - 1:]
        contrib = f[b.idx_i] * f[b.idx_i - b.idx_k] * values
        local = b.idx_k - b.offsets.start
        count = b.offsets.stop - b.offsets.start
        sums[b.offsets] = (
            np.bincount(local, weights=contrib.real, minlength=count)
            + 1j * np.bincount(local, weights=contrib.imag, minlength=count)
        ) * scale
    return sums


@dataclass(frozen=True, eq=False)
class PointerDistribution:
    """Discretized pointer density with quadrature moments.

    normalization_defect is |quadrature sum - 1| before renormalization.
    """

    q_grid: np.ndarray
    density: np.ndarray
    mean: float
    variance: float
    normalization_defect: float

    @property
    def dq(self):
        return float(self.q_grid[1] - self.q_grid[0])

    def cell_masses(self):
        """Probability mass per grid cell (sums to 1)."""
        return self.density * self.dq

    def cdf(self, x):
        """Piecewise-linear CDF matching the cell-uniform sampling model."""
        edges = np.concatenate(
            [self.q_grid - self.dq / 2.0, [self.q_grid[-1] + self.dq / 2.0]]
        )
        cum = np.concatenate([[0.0], np.cumsum(self.cell_masses())])
        cum[-1] = 1.0
        return np.interp(x, edges, cum)


def _hermitian_chirp_sum(c, dp, q0, dq, count):
    """Re c[0] + 2 Re sum_{n>0} c[n] exp(i q_m n dp) at q_m = q0 + m dq, m < count.

    This is the real Fourier sum of the Hermitian sequence c[-n] = conj c[n].
    Bluestein's chirp-z transform writes m n = (m^2 + n^2 - (m - n)^2) / 2 and
    evaluates it as one circular convolution of power-of-two length. The chirp
    phases dq dp j^2 / 2 reach hundreds of radians, so they are reduced in
    turns: the high part of the rate, times the integer j^2, is exact.
    """
    k = c.size
    size = 1 << (count + k - 2).bit_length()
    jmax = max(count, k) - 1
    jj = np.arange(jmax + 1, dtype=float) ** 2
    rate = dq * dp / (4.0 * np.pi)
    frac, exp2 = math.frexp(rate)
    bits = 53 - (jmax * jmax).bit_length()
    hi = math.ldexp(round(math.ldexp(frac, bits)), exp2 - bits)
    chirp = np.exp(2j * np.pi * ((hi * jj) % 1.0 + (rate - hi) * jj))
    a = c * np.exp(1j * q0 * dp * np.arange(k)) * chirp[:k]
    b = np.zeros(size, dtype=complex)
    b[:count] = chirp[:count].conj()
    b[size - k + 1:] = chirp[k - 1:0:-1].conj()
    y = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b))[:count]
    return 2.0 * (chirp[:count] * y).real - c[0].real


def pointer_distribution(run, kernel_source="exact"):
    """Pointer density Pr(q) for a run, from one of three kernel sources.

    kernel_source:
        "exact":        batched matrix exponentials of L_{p,p'};
        "perturbative": the second-order closed form;
        "ideal":        the pure phase exp(-i (p-p') N <A>), which yields the
                        shifted Gaussian of width sigma.

    Raises "grid too coarse" errors when negativity or the normalization
    defect exceed their limits.
    """
    if kernel_source not in ("exact", "perturbative", "ideal"):
        raise ValueError(f"unknown kernel source {kernel_source!r}")
    app = run.apparatus
    phi, dp = _phi(app)
    c_half = _offset_sums(phi, _kernels(run, kernel_source), scale=dp)
    q = app.q_grid(center=run.n * run.bundle.expectation(run.observable))
    step = (q[-1] - q[0]) / (q.size - 1)
    density = (dp / (2.0 * np.pi)) * _hermitian_chirp_sum(
        c_half, dp, q[0], step, q.size
    )

    if density.min() < NEGATIVE_DENSITY_LIMIT:
        raise ValueError(
            f"grid too coarse: density reaches {density.min():.3g} "
            f"(limit {NEGATIVE_DENSITY_LIMIT})"
        )
    dq = q[1] - q[0]
    quad = float(density.sum() * dq)
    defect = abs(quad - 1.0)
    if defect > NORMALIZATION_LIMIT:
        # the q grid is centered on N <A>, the mean of the closed-form pointer
        sd = math.sqrt(variance_closed_form(run))
        outside = math.erfc(app.q_halfwidth / (sd * math.sqrt(2.0)))
        if outside > NORMALIZATION_LIMIT:
            raise ValueError(
                f"q window too narrow: normalization defect {defect:.3g} "
                f"(limit {NORMALIZATION_LIMIT}); a pointer of closed-form sd "
                f"{sd:.3g} has {outside:.2g} of its mass outside the window "
                f"+-{app.q_halfwidth:.3g} about N <A>; set [apparatus] "
                f"q_halfwidth to about {8.0 * sd:.3g} (8 sd)"
            )
        raise ValueError(
            f"grid too coarse: normalization defect {defect:.3g} "
            f"(limit {NORMALIZATION_LIMIT})"
        )
    density = np.clip(density, 0.0, None)
    density = density / (density.sum() * dq)
    mean = float((q * density).sum() * dq)
    variance = float((((q - mean) ** 2) * density).sum() * dq)
    return PointerDistribution(
        q_grid=q,
        density=density,
        mean=mean,
        variance=variance,
        normalization_defect=defect,
    )


def variance_closed_form(run):
    """Predicted pointer variance of a run at finite coupling time.

    sigma^2 - (2N/T) Re c + (N Im c / (T sigma))^2 with c = tr(A S(A rho)).
    """
    coeff = dissipation_coefficient(run.bundle, run.observable)
    sigma = float(run.apparatus.sigma)
    n, t = run.n, run.t
    return float(
        sigma * sigma
        - (2.0 * n / t) * coeff.real
        + (n * coeff.imag / (t * sigma)) ** 2
    )


def nonadiabaticity(run):
    """Root-mean-square kernel deviation Delta from the ideal phase (N=1).

    Delta^2 = int dp dp' |phi(p)|^2 |phi(p')|^2 |K(p,p') - exp(-i(p-p')<A>)|^2,
    by quadrature over the momentum grid, over offsets when K depends on
    p - p' alone. Scales as O(1/T).
    """
    if run.n != 1:
        raise ValueError("non-adiabaticity is defined for N=1 runs")
    phi, dp = _phi(run.apparatus)
    mean_a = run.bundle.expectation(run.observable)
    dev2 = (
        (b, np.abs(kv - np.exp(-1j * (b.p - b.pp) * mean_a)) ** 2)
        for b, kv in _kernels(run, "exact")
    )
    # Delta^2 = S_0 + 2 sum_{k>0} S_k with f_i = phi_i^2 dp
    s = _offset_sums(phi**2 * dp, dev2).real
    s[1:] *= 2.0
    return math.sqrt(float(np.sum(s)))


def sample_pointer(dist, seed, count):
    """i.i.d. pointer readings by inverse-CDF sampling on the grid.

    The density is treated as constant on each grid cell. ``seed`` is an
    int or a list of seed words (``rng.seed_words``); the readings are fully
    determined by it.
    """
    masses = dist.cell_masses()
    cum = np.cumsum(masses)
    cum[-1] = 1.0
    u = Stream(seed).random(int(count))
    cells = np.searchsorted(cum, u, side="right")
    prev = cum[cells] - masses[cells]
    frac = (u - prev) / masses[cells]
    return dist.q_grid[cells] + (frac - 0.5) * dist.dq
