"""Batched matrix exponentials and trace kernels (pure numpy backend).

exp(A) uses scaling and squaring with the degree-13 Pade approximant
(Higham, SIAM J. Matrix Anal. Appl. 26, 2005). The squaring count is chosen
per matrix, not per batch, so a kernel never depends on which of
``trace_kernels``' chunks its pair falls in, or on which other pairs share
that chunk.

``trace_kernels`` streams a grid through a working set of ``_BATCH_ELEMENTS``
complex numbers per batch array (64 KiB; 256 pairs of 4x4 matrices). The
Pade step keeps about ten such arrays alive at once, so a chunk stays in L2
cache, and a non-reducing 13,041-pair grid allocates under 1 MiB at a time
instead of 35 MiB. The budget also keeps the closing ``(chunk, m) @ w``
contraction, at most 2,048 elements for m >= 2, a single-threaded BLAS gemv:
with OpenBLAS on 2 cores, a 4,096-element gemv woke a second thread that then
spun through the rest of the grid and doubled its CPU time.
"""

import numpy as np

__all__ = ["expm_batch", "trace_kernels"]

# complex numbers per batch array: Pade temporaries fit in L2, @ w stays on one thread
_BATCH_ELEMENTS = 4_096
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


def _pade13(a):
    eye = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (_B[13] * a6 + _B[11] * a4 + _B[9] * a2)
        + _B[7] * a6
        + _B[5] * a4
        + _B[3] * a2
        + _B[1] * eye
    )
    v = (
        a6 @ (_B[12] * a6 + _B[10] * a4 + _B[8] * a2)
        + _B[6] * a6
        + _B[4] * a4
        + _B[2] * a2
        + _B[0] * eye
    )
    return np.linalg.solve(v - u, v + u)


def expm_batch(a):
    """exp(A_j) for a stack of square complex matrices, shape (n, m, m)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    norms = np.abs(a).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite entries in matrix batch")
    s = np.zeros(a.shape[0], dtype=np.int64)
    big = norms > _THETA13
    s[big] = np.ceil(np.log2(norms[big] / _THETA13)).astype(np.int64)
    out = np.empty_like(a)
    for sv in sorted(set(s.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(s == sv)
        r = _pade13(a[idx] * (2.0 ** -float(sv)))
        for _ in range(int(sv)):
            r = r @ r
        out[idx] = r
    return out


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
    out = np.empty(p.size, dtype=complex)
    chunk = max(1, _BATCH_ELEMENTS // (m * m))
    for lo in range(0, p.size, chunk):
        hi = min(p.size, lo + chunk)
        g = (
            base[None, :, :]
            + p[lo:hi, None, None] * lin_p[None, :, :]
            + pp[lo:hi, None, None] * lin_pp[None, :, :]
        )
        out[lo:hi] = (expm_batch(g) @ v) @ w
    return out
