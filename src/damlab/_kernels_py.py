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
"""

import numpy as np

__all__ = ["expm_batch", "trace_kernels"]

# complex numbers per batch array: Pade temporaries fit in L2, @ w stays on one thread
_BATCH_ELEMENTS = 4_096
# largest m stored pairs-last: up to it, a BLAS call costs more than its product
_PAIRS_LAST_MAX_DIM = 4
_THETA13 = 5.371920351148152
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


def _pade13(a, mul, eye):
    """Denominator and numerator of the degree-13 Pade approximant of exp(a)."""
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
    return v - u, v + u


def _as_first(x, pairs_last):
    """The (n, m, m) view of a batch stored pairs-first or pairs-last."""
    return x.transpose(2, 0, 1) if pairs_last else x


def _as_stored(x, pairs_last):
    """The inverse of ``_as_first``: an (n, m, m) view in the batch's layout."""
    return x.transpose(1, 2, 0) if pairs_last else x


def _expm(a, pairs_last):
    """exp of every matrix in a batch stored (n, m, m), or (m, m, n) if pairs_last."""
    first = _as_first(a, pairs_last)
    norms = np.abs(first).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite entries in matrix batch")
    s = np.zeros(norms.size, dtype=np.int64)
    big = norms > _THETA13
    s[big] = np.ceil(np.log2(norms[big] / _THETA13)).astype(np.int64)
    mul = _mul_pairs_last if pairs_last else np.matmul
    eye = _as_stored(np.eye(first.shape[1], dtype=complex)[None], pairs_last)
    out = np.empty_like(a)
    for sv in sorted(set(s.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(s == sv)
        scaled = np.take(a, idx, axis=-1 if pairs_last else 0) * (2.0 ** -float(sv))
        q, p = (_as_first(x, pairs_last) for x in _pade13(scaled, mul, eye))
        r = np.ascontiguousarray(_as_stored(np.linalg.solve(q, p), pairs_last))
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


def trace_kernels(base, lin_p, lin_pp, p, pp, w, v):
    """w . exp(base + p_j lin_p + pp_j lin_pp) . v for every pair (p_j, pp_j).

    All matrices are (m, m) complex; p/pp are equal-length real coefficient
    arrays; w and v are length-m complex vectors (w is applied as given, so
    pass it already conjugated if a sesquilinear form is wanted).
    """
    base = np.asarray(base, dtype=complex)
    lin_p = np.asarray(lin_p, dtype=complex)
    lin_pp = np.asarray(lin_pp, dtype=complex)
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if p.shape != pp.shape:
        raise ValueError("p and pp must have equal length")
    m = base.shape[0]
    pairs_last = m <= _PAIRS_LAST_MAX_DIM
    base, lin_p, lin_pp = (
        _as_stored(x[None], pairs_last) for x in (base, lin_p, lin_pp)
    )
    out = np.empty(p.size, dtype=complex)
    chunk = max(1, _BATCH_ELEMENTS // (m * m))
    for lo in range(0, p.size, chunk):
        hi = min(p.size, lo + chunk)
        cp, cpp = (_as_stored(x[lo:hi, None, None], pairs_last) for x in (p, pp))
        e = _expm(base + cp * lin_p + cpp * lin_pp, pairs_last)
        if pairs_last:
            out[lo:hi] = (w[:, None] * (e * v[:, None]).sum(axis=1)).sum(axis=0)
        else:
            out[lo:hi] = (e @ v) @ w
    return out
