"""Batched matrix exponentials and trace kernels (pure numpy backend).

exp(A) uses scaling and squaring with the degree-13 Pade approximant
(Higham, SIAM J. Matrix Anal. Appl. 26, 2005). The squaring count is chosen
per matrix, not per batch, and every sum over matrix entries runs in index
order (``_ordered_sum``), so a kernel or mode never depends on which of the
chunks its pair falls in, or on which other pairs share that chunk, down to
a chunk of one pair.

Every batch of n matrices of size m x m is indexed (m, m, n), pairs last.
One function, ``_mul``, forms the products, and it picks how from m alone.
Up to ``_BROADCAST_MAX_DIM`` = 4 (every qubit superoperator) a product is m
broadcast multiply-adds over the contiguous pair axis; above, it is BLAS,
through ``np.matmul`` on the (n, m, m) views. A small product costs less
than the BLAS call that would compute it, and a large one is faster in BLAS;
5x5 is near even, and no model damlab ships has one. Microseconds per
matrix product, in batches of the budget below (numpy 2.4, OpenBLAS 0.3.31
on one thread, x86-64 with AVX-512):

    m                          2     3     4     5     6     9     16
    broadcast                  0.02  0.09  0.20  0.40  0.71  2.4   16
    BLAS, (n, m, m) in memory  0.34  0.40  0.44  0.57  0.55  0.67  2.1
    BLAS, (m, m, n) in memory  0.32  0.49  0.54  0.64  0.64  0.81  2.8

``np.matmul`` copies operands whose memory is (m, m, n) before its BLAS
call, so BLAS products of BLAS products cost least. Its results equal
stacked ``@`` on contiguous (n, m, m) stacks bit for bit. The Pade solve is
LAPACK for every m, and the contraction with w and v is two sums over the
matrix axes.

``trace_kernels`` streams a grid through a working set of ``_BATCH_ELEMENTS``
complex numbers per batch array (64 KiB; 256 pairs of 4x4 matrices). The
Pade step keeps about ten such arrays alive at once, so a chunk stays in L2
cache, and a non-reducing 13,041-pair grid allocates about 1 MiB at a time
instead of 32 MiB.

``mode_table`` serves every N >= 1 of a grid from one pass over its N-free
generators G_j, for which the kernels are K_N = w . exp(N G_j) . v. For each
pair it takes the Pade step of ``_expm`` at that pair's scale t = 2^-s
(at most 1/2), E = exp(t G), and squares E, rescaled to largest entry 1,
until the rank-one guard

    ||E^2 - tr(E) E|| < MODE_TOL |tr E|^2  and  |tr E| >= MODE_TOL,

MODE_TOL = 1e-10, holds, with ||.|| the largest |Re| or |Im| of an entry. It
then reads lam = tr(G E^2) / tr(E^2) and c = w . E^2 . v / tr(E^2), so that
K_N = c exp(N lam). Why the guard bounds what is neglected: write
E = a P + R, with a = exp(t lam) the dominant eigenvalue, P its spectral
projector and R = E (I - P). Then E^2 - tr(E) E = R^2 - (a + tr R) R
- a tr(R) P, which to first order in R is -a (R + tr(R) P). The guard thus
puts R below about MODE_TOL |a|, times the conditioning of P. The mode is
read from E^2 = a^2 P + R^2, whose neglected part R^2 is below MODE_TOL^2
relative; at N >= 2t the neglected part of exp(N G) is
exp((N - 2t) G) R^2, which decays faster than the kept exp(N lam) P up to
the transient of the subdominant modes. That is why squaring stops at
t = 1/2: an accepted pair serves N >= 1, every N a run can have. A pair
still refused at t = 1/2, or whose trace falls below MODE_TOL of its largest
entry (a vanishing or underflowing trace), holds NaN and is computed by
``trace_kernels`` at each N. A trace pretest, |tr(E^2) - tr(E)^2| <
2 m MODE_TOL |tr E|^2, skips the full guard for pairs that must fail it,
since |tr X| <= sqrt(2) m ||X||.

Rounding, not truncation, sets the accuracy: lam carries about
eps ||G||_1 of rounding (times the conditioning of P), so c exp(N lam)
differs from the Pade kernel at N by about eps N ||G||_1, the order of the
Pade kernel's own error. On the driven 4x4 grid at T = 500 the table agrees
with Pade to 8.5e-13 at N = 5 and 1.6e-12 at N = 10 (|K| <= 1). There the
Pade scale is t = 1/256, the guard holds at t = 1/8 for all 13,041 pairs,
and the modes are read at t = 1/4, six squarings in: the table costs about
one Pade grid at N = 1, and each N one complex exponential per pair.
"""

import numpy as np

__all__ = ["expm_batch", "mode_table", "trace_kernels"]

# complex numbers per batch array: Pade temporaries of a batch fit in L2
_BATCH_ELEMENTS = 4_096
# largest m multiplied by broadcasting: up to it, a BLAS call costs more than a product
_BROADCAST_MAX_DIM = 4
_THETA13 = 5.371920351148152
# rank-one guard of ``mode_table``: neglected modes below MODE_TOL, read at MODE_TOL^2
MODE_TOL = 1e-10
_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def _mul(x, y):
    """x @ y for every pair of matrices of two (m, m, n) batches: m broadcast
    multiply-adds up to _BROADCAST_MAX_DIM, one BLAS call per matrix above."""
    m = x.shape[0]
    if m > _BROADCAST_MAX_DIM:
        return np.matmul(x.transpose(2, 0, 1), y.transpose(2, 0, 1)).transpose(1, 2, 0)
    out = x[:, 0, None] * y[None, 0]
    for j in range(1, m):
        out += x[:, j, None] * y[None, j]
    return out


def _pade13(a):
    """exp of every matrix of a batch by the degree-13 Pade approximant,
    accurate where 1-norms are at most _THETA13."""
    eye = np.eye(a.shape[0], dtype=complex)[..., None]
    a2 = _mul(a, a)
    a4 = _mul(a2, a2)
    a6 = _mul(a2, a4)
    u = _mul(
        a,
        _mul(a6, _B[13] * a6 + _B[11] * a4 + _B[9] * a2)
        + _B[7] * a6
        + _B[5] * a4
        + _B[3] * a2
        + _B[1] * eye,
    )
    v = (
        _mul(a6, _B[12] * a6 + _B[10] * a4 + _B[8] * a2)
        + _B[6] * a6
        + _B[4] * a4
        + _B[2] * a2
        + _B[0] * eye
    )
    q, p = (x.transpose(2, 0, 1) for x in (v - u, v + u))
    return np.ascontiguousarray(np.linalg.solve(q, p).transpose(1, 2, 0))


def _squarings(a):
    """Per matrix of a batch, the halvings that bring its 1-norm to at most
    _THETA13; raises on non-finite entries."""
    norms = np.abs(a).sum(axis=0).max(axis=0)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite entries in matrix batch")
    s = np.zeros(norms.size, dtype=np.int64)
    big = norms > _THETA13
    s[big] = np.ceil(np.log2(norms[big] / _THETA13)).astype(np.int64)
    return s


def _expm(a):
    """exp of every matrix in an (m, m, n) batch."""
    s = _squarings(a)
    out = np.empty_like(a)
    for sv in sorted(set(s.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(s == sv)
        r = _pade13(np.take(a, idx, axis=-1) * (2.0 ** -float(sv)))
        for _ in range(int(sv)):
            r = _mul(r, r)
        out[..., idx] = r
    return out


def expm_batch(a):
    """exp(A_j) for a stack of square complex matrices, shape (n, m, m)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    return _expm(a.transpose(1, 2, 0)).transpose(2, 0, 1)


def _generator_chunks(base, lin_p, lin_pp, p, pp):
    """Yield (lo, hi, g): g = base + p_j lin_p + pp_j lin_pp for the pairs
    lo..hi-1 of a grid, one (m, m, hi - lo) batch of ``_BATCH_ELEMENTS``."""
    base, lin_p, lin_pp = (
        np.asarray(x, dtype=complex)[..., None] for x in (base, lin_p, lin_pp)
    )
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    if p.shape != pp.shape:
        raise ValueError("p and pp must have equal length")
    chunk = max(1, _BATCH_ELEMENTS // base.shape[0] ** 2)
    for lo in range(0, p.size, chunk):
        hi = min(p.size, lo + chunk)
        yield lo, hi, base + p[lo:hi] * lin_p + pp[lo:hi] * lin_pp


def _ordered_sum(x):
    """x.sum(axis=0) in index order. numpy adds the rows in order when the
    pair axis, the last, runs over several pairs; for a single pair it sums
    the contiguous column in another order, so a pair's kernel would depend
    on the batch it falls in."""
    if x.shape[-1] > 1:
        return x.sum(axis=0)
    out = x[0].copy()
    for row in x[1:]:
        out += row
    return out


def _contract(e, w, v):
    """w . E_j . v for every matrix of a batch."""
    ev = _ordered_sum(np.swapaxes(e * v[:, None], 0, 1))
    return _ordered_sum(w[:, None] * ev)


def trace_kernels(base, lin_p, lin_pp, p, pp, w, v):
    """w . exp(base + p_j lin_p + pp_j lin_pp) . v for every pair (p_j, pp_j).

    All matrices are (m, m) complex; p/pp are equal-length real coefficient
    arrays; w and v are length-m complex vectors (w is applied as given, so
    pass it already conjugated if a sesquilinear form is wanted).
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    out = np.empty(np.size(p), dtype=complex)
    for lo, hi, g in _generator_chunks(base, lin_p, lin_pp, p, pp):
        out[lo:hi] = _contract(_expm(g), w, v)
    return out


def _largest_part(x):
    """Largest |Re| or |Im| of an entry of every matrix in a batch."""
    # a BLAS product (m > 4) is a strided view, which .view(float) refuses
    y = np.abs(np.ascontiguousarray(x).view(float))
    y = y.reshape(-1, y.shape[-1]).max(axis=0)
    return np.maximum(y[0::2], y[1::2])


def _modes(g, w, v):
    """Rows (lam, c) of the dominant mode of every G in a batch, NaN where
    the rank-one guard refuses the pair."""
    m, n = g.shape[1:]
    # E = exp(t G) from t = 2^log_t, the Pade scale of ``_expm`` but at most 1/2
    log_t = -np.maximum(_squarings(g), 1)
    e = _pade13(g * np.ldexp(1.0, log_t))
    table = np.full((2, n), np.nan, dtype=complex)
    live = np.arange(n)
    while live.size:
        e *= 1.0 / _largest_part(e)
        tr = _ordered_sum(np.diagonal(e).T)
        e2 = _mul(e, e)
        tr2 = _ordered_sum(np.diagonal(e2).T)
        size = np.abs(tr)
        bound = MODE_TOL * size * size
        # |tr(E^2) - tr(E)^2| <= sqrt(2) m resid: this pretest only skips
        # pairs the guard would refuse
        live_ok = size >= MODE_TOL
        ok = live_ok & (np.abs(tr2 - tr * tr) < 2 * m * bound)
        if ok.any():
            sel = np.flatnonzero(ok)
            tr_e = np.take(e, sel, axis=-1) * tr[sel]
            ok[sel] = _largest_part(np.take(e2, sel, axis=-1) - tr_e) < bound[sel]
            sel = sel[ok[sel]]
            e_ok = np.take(e2, sel, axis=-1)
            g_ok = np.take(g, live[sel], axis=-1)
            g_e = (g_ok * np.swapaxes(e_ok, 0, 1)).reshape(m * m, -1)
            g_e = _ordered_sum(g_e)
            table[:, live[sel]] = (g_e, _contract(e_ok, w, v))
            table[:, live[sel]] /= tr2[sel]
        # E^2 serves N >= 2t, and every run has N >= 1: stop at t = 1/2
        keep = live_ok & ~ok & (log_t < -1)
        if keep.all():
            e, log_t = e2, log_t + 1
            continue
        keep = np.flatnonzero(keep)
        live, log_t = live[keep], log_t[keep] + 1
        e = np.take(e2, keep, axis=-1)
    return table


def mode_table(base, lin_p, lin_pp, p, pp, w, v):
    """Dominant modes of G_j = base + p_j lin_p + pp_j lin_pp, shape (2, n).

    Row 0 holds lam_j and row 1 c_j, so that w . exp(N G_j) . v = c_j
    exp(N lam_j) for every N >= 1; pairs the guard refuses hold NaN in both
    rows. Arguments are those of ``trace_kernels``.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    table = np.empty((2, np.size(p)), dtype=complex)
    for lo, hi, g in _generator_chunks(base, lin_p, lin_pp, p, pp):
        table[:, lo:hi] = _modes(g, w, v)
    return table
