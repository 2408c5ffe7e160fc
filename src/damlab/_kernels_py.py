"""Batched matrix exponentials and trace kernels (pure numpy backend).

exp(A) uses scaling and squaring with the degree-13 Pade approximant
(Higham, SIAM J. Matrix Anal. Appl. 26, 2005). The squaring count is chosen
per matrix, not per batch, so a kernel never depends on which of
``trace_kernels``' chunks its pair falls in, or on which other pairs share
that chunk.

A batch of m x m matrices is stored in one of two layouts, chosen from m
alone. Up to ``_PAIRS_LAST_MAX_DIM`` = 4 (every qubit superoperator) it is
pairs-last, shape (m, m, n), and each product is m broadcast multiply-adds
over the contiguous pair axis. Above, it is pairs-first, shape (n, m, m),
and each product is numpy's stacked ``@``, one BLAS call per matrix. A small
product costs less than the call that would compute it, and a large one is
faster in BLAS. Microseconds per exponential at 10 squarings, in batches of
the budget below (numpy 2.4, OpenBLAS 0.3.31 on one thread, x86-64 with
AVX-512):

    m            2     3     4     5     6     9     16
    pairs-first  4.8   5.5   6.0   10.1  10.4  13.5  45.9
    pairs-last   0.8   2.5   4.5   9.5   13.9  37.7  210

Both layouts share the Pade polynomial, the squaring-count rule, the
non-finite check and the batch budget. The Pade solve is LAPACK in both.

``trace_kernels`` streams a grid through a working set of ``_BATCH_ELEMENTS``
complex numbers per batch array (64 KiB; 256 pairs of 4x4 matrices). The
Pade step keeps about ten such arrays alive at once, so a chunk stays in L2
cache, and a non-reducing 13,041-pair grid allocates about 1 MiB at a time
instead of 32 MiB. In the pairs-first layout the budget also keeps the
closing ``(chunk, m) @ w`` contraction, at most 2,048 elements for m > 4, a
single-threaded BLAS gemv: with OpenBLAS on 2 cores, a 4,096-element gemv
woke a second thread that then spun through the rest of the grid and
doubled its CPU time. In the pairs-last layout the contraction is two sums
over the matrix axes.

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

# complex numbers per batch array: Pade temporaries fit in L2, @ w stays on one thread
_BATCH_ELEMENTS = 4_096
# largest m stored pairs-last: up to it, a BLAS call costs more than its product
_PAIRS_LAST_MAX_DIM = 4
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


def _mul_pairs_last(x, y):
    """x @ y for stacks of (m, m) matrices stored pairs-last, shape (m, m, n)."""
    out = x[:, 0, None] * y[None, 0]
    for j in range(1, x.shape[0]):
        out += x[:, j, None] * y[None, j]
    return out


def _pade13(a, pairs_last):
    """exp of every matrix of a stored batch by the degree-13 Pade
    approximant, accurate where 1-norms are at most _THETA13."""
    mul = _mul_pairs_last if pairs_last else np.matmul
    m = _as_first(a, pairs_last).shape[1]
    eye = _as_stored(np.eye(m, dtype=complex)[None], pairs_last)
    a2 = mul(a, a)
    a4 = mul(a2, a2)
    a6 = mul(a2, a4)
    u = mul(
        a,
        mul(a6, _B[13] * a6 + _B[11] * a4 + _B[9] * a2)
        + _B[7] * a6
        + _B[5] * a4
        + _B[3] * a2
        + _B[1] * eye,
    )
    v = (
        mul(a6, _B[12] * a6 + _B[10] * a4 + _B[8] * a2)
        + _B[6] * a6
        + _B[4] * a4
        + _B[2] * a2
        + _B[0] * eye
    )
    q, p = (_as_first(x, pairs_last) for x in (v - u, v + u))
    return np.ascontiguousarray(_as_stored(np.linalg.solve(q, p), pairs_last))


def _as_first(x, pairs_last):
    """The (n, m, m) view of a batch stored pairs-first or pairs-last."""
    return x.transpose(2, 0, 1) if pairs_last else x


def _as_stored(x, pairs_last):
    """The inverse of ``_as_first``: an (n, m, m) view in the batch's layout."""
    return x.transpose(1, 2, 0) if pairs_last else x


def _squarings(a, pairs_last):
    """Per matrix of a stored batch, the halvings that bring its 1-norm to
    at most _THETA13; raises on non-finite entries."""
    norms = np.abs(_as_first(a, pairs_last)).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite entries in matrix batch")
    s = np.zeros(norms.size, dtype=np.int64)
    big = norms > _THETA13
    s[big] = np.ceil(np.log2(norms[big] / _THETA13)).astype(np.int64)
    return s


def _expm(a, pairs_last):
    """exp of every matrix in a batch stored (n, m, m), or (m, m, n) if pairs_last."""
    s = _squarings(a, pairs_last)
    mul = _mul_pairs_last if pairs_last else np.matmul
    out = np.empty_like(a)
    for sv in sorted(set(s.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(s == sv)
        scaled = np.take(a, idx, axis=-1 if pairs_last else 0) * (2.0 ** -float(sv))
        r = _pade13(scaled, pairs_last)
        for _ in range(int(sv)):
            r = mul(r, r)
        _as_first(out, pairs_last)[idx] = _as_first(r, pairs_last)
    return out


def expm_batch(a):
    """exp(A_j) for a stack of square complex matrices, shape (n, m, m)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    pairs_last = a.shape[1] <= _PAIRS_LAST_MAX_DIM
    return _as_first(_expm(_as_stored(a, pairs_last), pairs_last), pairs_last)


def _generator_chunks(base, lin_p, lin_pp, p, pp):
    """Yield (lo, hi, g, pairs_last): g = base + p_j lin_p + pp_j lin_pp for
    the pairs lo..hi-1 of a grid, one batch of ``_BATCH_ELEMENTS`` at a time."""
    base = np.asarray(base, dtype=complex)
    lin_p = np.asarray(lin_p, dtype=complex)
    lin_pp = np.asarray(lin_pp, dtype=complex)
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    if p.shape != pp.shape:
        raise ValueError("p and pp must have equal length")
    m = base.shape[0]
    pairs_last = m <= _PAIRS_LAST_MAX_DIM
    base, lin_p, lin_pp = (
        _as_stored(x[None], pairs_last) for x in (base, lin_p, lin_pp)
    )
    chunk = max(1, _BATCH_ELEMENTS // (m * m))
    for lo in range(0, p.size, chunk):
        hi = min(p.size, lo + chunk)
        cp, cpp = (_as_stored(x[lo:hi, None, None], pairs_last) for x in (p, pp))
        yield lo, hi, base + cp * lin_p + cpp * lin_pp, pairs_last


def _contract(e, w, v, pairs_last):
    """w . E_j . v for every matrix of a batch."""
    if pairs_last:
        return (w[:, None] * (e * v[:, None]).sum(axis=1)).sum(axis=0)
    return (e @ v) @ w


def trace_kernels(base, lin_p, lin_pp, p, pp, w, v):
    """w . exp(base + p_j lin_p + pp_j lin_pp) . v for every pair (p_j, pp_j).

    All matrices are (m, m) complex; p/pp are equal-length real coefficient
    arrays; w and v are length-m complex vectors (w is applied as given, so
    pass it already conjugated if a sesquilinear form is wanted).
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    out = np.empty(np.size(p), dtype=complex)
    for lo, hi, g, pairs_last in _generator_chunks(base, lin_p, lin_pp, p, pp):
        out[lo:hi] = _contract(_expm(g, pairs_last), w, v, pairs_last)
    return out


def _largest_part(x, pairs_last):
    """Largest |Re| or |Im| of an entry of every matrix in a stored batch."""
    y = np.abs(x.view(float))
    if pairs_last:
        y = y.reshape(-1, y.shape[-1]).max(axis=0)
        return np.maximum(y[0::2], y[1::2])
    return y.max(axis=(1, 2))


def _modes(g, w, v, pairs_last):
    """Rows (lam, c) of the dominant mode of every G in a stored batch, NaN
    where the rank-one guard refuses the pair."""
    n, m = _as_first(g, pairs_last).shape[:2]
    # E = exp(t G) from t = 2^log_t, the Pade scale of ``_expm`` but at most 1/2
    log_t = -np.maximum(_squarings(g, pairs_last), 1)
    mul = _mul_pairs_last if pairs_last else np.matmul
    axis = -1 if pairs_last else 0
    mats = (0, 1) if pairs_last else (1, 2)

    def per_pair(x):
        return _as_stored(x[:, None, None], pairs_last)

    e = _pade13(g * per_pair(np.ldexp(1.0, log_t)), pairs_last)
    table = np.full((2, n), np.nan, dtype=complex)
    live = np.arange(n)
    while live.size:
        e *= per_pair(1.0 / _largest_part(e, pairs_last))
        tr = np.trace(e, axis1=mats[0], axis2=mats[1])
        e2 = mul(e, e)
        tr2 = np.trace(e2, axis1=mats[0], axis2=mats[1])
        size = np.abs(tr)
        bound = MODE_TOL * size * size
        # |tr(E^2) - tr(E)^2| <= sqrt(2) m resid: this pretest only skips
        # pairs the guard would refuse
        live_ok = size >= MODE_TOL
        ok = live_ok & (np.abs(tr2 - tr * tr) < 2 * m * bound)
        if ok.any():
            sel = np.flatnonzero(ok)
            tr_e = np.take(e, sel, axis=axis) * per_pair(tr[sel])
            resid = _largest_part(np.take(e2, sel, axis=axis) - tr_e, pairs_last)
            ok[sel] = resid < bound[sel]
            sel = sel[ok[sel]]
            e_ok = np.take(e2, sel, axis=axis)
            g_ok = np.take(g, live[sel], axis=axis)
            g_e = (g_ok * np.swapaxes(e_ok, *mats)).sum(axis=mats)
            table[:, live[sel]] = (g_e, _contract(e_ok, w, v, pairs_last))
            table[:, live[sel]] /= tr2[sel]
        # E^2 serves N >= 2t, and every run has N >= 1: stop at t = 1/2
        keep = live_ok & ~ok & (log_t < -1)
        if keep.all():
            e, log_t = e2, log_t + 1
            continue
        keep = np.flatnonzero(keep)
        live, log_t = live[keep], log_t[keep] + 1
        e = np.take(e2, keep, axis=axis)
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
    for lo, hi, g, pairs_last in _generator_chunks(base, lin_p, lin_pp, p, pp):
        table[:, lo:hi] = _modes(g, w, v, pairs_last)
    return table
