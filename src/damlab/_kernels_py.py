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
generators G_j = base + p_j lin_p + pp_j lin_pp, for which the kernels are
K_N = w . exp(N G_j) . v, by shifted inverse iteration (Wilkinson, The
Algebraic Eigenvalue Problem, 1965); it takes no exponential.

Per table, one ``np.linalg.eig`` gives the eigenvalues beta_k and the
eigenvectors X of the base, beta_0 of largest real part first. In that
basis G' = X^-1 G X = D + p A' + pp B', and the second-order
Rayleigh-Schroedinger estimate of the eigenvalue that continues beta_0,

    sigma = beta_0 + V_00 + sum_{k >= 1} V_0k V_k0 / (beta_0 - beta_k),
    V = p A' + pp B',

is a quadratic in (p, pp). On the driven 4x4 grid at T = 500 it puts
|lam - sigma| / |mu - sigma| below 3.6e-4 for every other eigenvalue mu
(1.9e-2 at first order; 1.7e-2 at second order at T = 200). A base whose X
has a 1-norm condition number above 1/sqrt(eps), a defective base among
them, or whose beta_0 is repeated gets an all-NaN table.

Per batch, one LAPACK ``inv`` gives the resolvent E = (G - s)^-1 at
s = sigma + 1e-8 ||G||_1: the offset keeps every shifted matrix regular
(at p = pp, lam = 0 = beta_0 and sigma is exact) and, being real and to
the right of lam, keeps lam the eigenvalue nearest s. E is then squared,
rescaled to largest entry 1 each time, until the rank-one guard

    ||E^2 - tr(E) E|| < MODE_TOL |tr E|^2  and  |tr E| >= MODE_TOL,

MODE_TOL = 1e-10, holds, with ||.|| the largest |Re| or |Im| of an entry,
for at most ``_MODE_ROUNDS`` = 4 rounds. The mode is read from E^2:
lam = tr(G E^2) / tr(E^2) and c = w . E^2 . v / tr(E^2). Why the guard
bounds what is neglected: write E = a P + R, with a the eigenvalue of E
that belongs to lam, P its spectral projector and R = E (I - P). Then
E^2 - tr(E) E = R^2 - (a + tr R) R - a tr(R) P, which to first order in R
is -a (R + tr(R) P). The guard thus puts R below about MODE_TOL |a|, times
the conditioning of P, and E^2 = a^2 P + R^2 is a^2 P to about MODE_TOL^2.
A trace pretest, |tr(E^2) - tr(E)^2| < 2 m MODE_TOL |tr E|^2, skips the
full guard for pairs that must fail it, since |tr X| <= sqrt(2) m ||X||.
A pair still refused after the last round, or whose trace falls below
MODE_TOL of its largest entry, holds NaN.

The resolvent picks the eigenvalue nearest s, which need not have the
largest real part, and its convergence says nothing about how fast the
other modes decay in N. So a pair the guard accepts is served only when a
gap test passes as well. The columns of E^2 are the right eigenvector r of
lam; in X's basis it is r' = X^-1 r, scaled to r'_0 = 1, and the deflated
block M = G'[1:, 1:] - r'[1:] G'[0, 1:] of T^-1 G' T, with T the identity
whose first column is r', has exactly the other m - 1 eigenvalues of G.
Gershgorin's theorem (1931) bounds them: every disc of M's rows, or every
disc of its columns, must lie ``_MODE_GAP`` = 2 ln(1/MODE_TOL) = 46.05 left
of Re lam. Each neglected mode of exp(N G) is then below
exp(-46.05 N) = MODE_TOL^(2N) of the kept one at every N >= 1, up to the
transient of the subdominant modes (the conditioning of their projectors):
the decay at which exp(G / 2) is rank one to MODE_TOL. For m = 1, M is
empty and every accepted pair is served. X^-1 G X carries rounding of about
eps cond(X) ||G||, at most sqrt(eps) ||G|| here, which moves a disc edge by
far less than the margin. A refused pair is computed by ``trace_kernels``
at each N.

Rounding, not truncation, sets the accuracy: lam = tr(G P) is exact for
the eigenprojector, so it carries about eps ||G||_1 of rounding (times the
conditioning of P), and c exp(N lam) differs from the Pade kernel at N by
about eps N ||G||_1, the order of the Pade kernel's own error. On the
driven 4x4 grid at T = 500 the table agrees with Pade to 9.3e-13 at N = 5,
1.8e-12 at N = 10 and 3.3e-12 at N = 20 (|K| <= 1). There the guard holds
after two squarings for 4,295 of the 13,041 pairs and after three for the
rest; at T = 200, 1,172 pairs take a fourth. No sum over matrix entries
depends on the batch, and every operand is contiguous, so a pair's mode is
the same bits in any batch, down to a batch of one pair.
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
# gap test of ``mode_table``: other modes decay by exp(-_MODE_GAP) = MODE_TOL^2 at N = 1
_MODE_GAP = 2 * np.log(1 / MODE_TOL)
# guard rounds of ``mode_table``, which read powers 2, 4, 8 and 16 of the resolvent
_MODE_ROUNDS = 4
# the shift sits this far right of its estimate, relative to ||G||_1
_SHIFT_OFFSET = 1e-8
# largest 1-norm condition number of a base's eigenvectors X: X^-1 G X then
# rounds by at most about sqrt(eps) ||G|| an entry, far inside the gap test's margin
_EIGENBASIS_COND_MAX = 1 / np.sqrt(np.finfo(float).eps)
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


def _one_norms(a):
    """1-norm of every matrix of a batch; raises on non-finite entries."""
    norms = np.abs(a).sum(axis=0).max(axis=0)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite entries in matrix batch")
    return norms


def _squarings(a):
    """Per matrix of a batch, the halvings that bring its 1-norm to at most
    _THETA13; raises on non-finite entries."""
    norms = _one_norms(a)
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


def _matvec(a, x):
    """a . x for every pair: a batch (m, m, n) or one matrix (m, m, 1), and
    x one vector (m, 1) or one per pair (m, n)."""
    return _ordered_sum(np.swapaxes(a * x, 0, 1))


def _contract(e, w, v):
    """w . E_j . v for every matrix of a batch."""
    return _ordered_sum(w[:, None] * _matvec(e, v[:, None]))


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


def _eigenbasis(base, lin_p, lin_pp):
    """(X, X^-1, X^-1 G X terms, shift coefficients) of a table, or None.

    X holds the eigenvectors of base, the one of largest real part beta_0
    first. The shift of a pair is the second-order Rayleigh-Schroedinger
    estimate of the eigenvalue that continues beta_0, a quadratic in
    (p, pp) whose six coefficients are returned. None when X is
    ill-conditioned (as for a defective base) or beta_0 is repeated: then no
    basis serves the table.
    """
    _one_norms(base[..., None])
    beta, x = np.linalg.eig(base)
    order = np.argsort(-beta.real, kind="stable")
    beta, x = beta[order], x[:, order]
    gap = beta[0] - beta[1:]
    # the 1-norm condition number needs no SVD, so it loads no more LAPACK code
    if not (np.linalg.cond(x, 1) < _EIGENBASIS_COND_MAX and np.all(gap != 0)):
        return None
    y = np.linalg.inv(x)
    terms = tuple(y @ mat @ x for mat in (base, lin_p, lin_pp))
    a, b = terms[1], terms[2]
    shift = (
        beta[0],
        a[0, 0],
        b[0, 0],
        (a[0, 1:] * a[1:, 0] / gap).sum(),
        ((a[0, 1:] * b[1:, 0] + b[0, 1:] * a[1:, 0]) / gap).sum(),
        (b[0, 1:] * b[1:, 0] / gap).sum(),
    )
    return x, y, terms, shift


def _gap_ok(e, lam, p, pp, basis):
    """Whether every other eigenvalue of each G lies _MODE_GAP left of lam.

    The columns of e, a converged power of the resolvent, are the right
    eigenvector r of lam. In the eigenbasis X of the base, G' = X^-1 G X and
    r' = X^-1 r with r'_0 = 1; the deflated block
    M = G'[1:, 1:] - r'[1:] G'[0, 1:] has exactly the other eigenvalues of G,
    and Gershgorin's discs of its rows, or of its columns, bound them.
    """
    x, y, (d, a, b), _ = basis
    r = _matvec(y[..., None], _matvec(e, x[:, :1]))
    gp = d[..., None] + p * a[..., None] + pp * b[..., None]
    # a vanishing r'_0 leaves non-finite discs, which fail the test
    with np.errstate(divide="ignore", invalid="ignore"):
        mm = gp[1:, 1:] - (r[1:] / r[0])[:, None] * gp[0, 1:]
        size = np.abs(mm)
        diag = np.diagonal(mm).T
        # right edge of a disc: Re M_ii + sum of |M_ij| over j != i
        right = diag.real - np.abs(diag) - (lam.real - _MODE_GAP)
        rows = (right + size.sum(axis=1) <= 0).all(axis=0)
        cols = (right + size.sum(axis=0) <= 0).all(axis=0)
    return rows | cols


def _modes(g, p, pp, basis, w, v):
    """Rows (lam, c) of the dominant mode of every G in a batch, NaN where
    the rank-one guard or the gap test refuses the pair."""
    m, n = g.shape[1:]
    beta0, a1, b1, a2, ab2, b2 = basis[3]
    # a real offset to the right keeps every shifted matrix regular, even
    # where sigma is lam (p = pp, or a diagonal G)
    shift = beta0 + p * (a1 + p * a2) + pp * (b1 + p * ab2 + pp * b2)
    shift += _SHIFT_OFFSET * _one_norms(g) + np.finfo(float).tiny
    h = g.copy()
    h[np.arange(m), np.arange(m)] -= shift
    e = np.ascontiguousarray(np.linalg.inv(h.transpose(2, 0, 1)).transpose(1, 2, 0))
    # E^2 and tr(E^2) of the pairs the guard accepts, at the round it does
    e_read = np.empty_like(e)
    tr_read = np.empty(n, dtype=complex)
    accepted = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for rounds in range(_MODE_ROUNDS, 0, -1):
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
            e2_sel = np.take(e2, sel, axis=-1)
            ok[sel] = _largest_part(e2_sel - tr_e) < bound[sel]
            got = ok[sel]
            sel = sel[got]
            e_read[..., live[sel]] = e2_sel[..., got]
            tr_read[live[sel]] = tr2[sel]
            accepted[live[sel]] = True
        keep = np.flatnonzero(live_ok & ~ok)
        if rounds == 1 or not keep.size:
            break
        live = live[keep]
        e = np.take(e2, keep, axis=-1)
    table = np.full((2, n), np.nan, dtype=complex)
    sel = np.flatnonzero(accepted)
    if sel.size:
        if sel.size < n:
            e_read, tr_read, g, p, pp = (
                np.take(x, sel, axis=-1) for x in (e_read, tr_read, g, p, pp)
            )
        g_e = _ordered_sum((g * np.swapaxes(e_read, 0, 1)).reshape(m * m, -1))
        lam = g_e / tr_read
        gap = _gap_ok(e_read, lam, p, pp, basis)
        table[0, sel[gap]] = lam[gap]
        table[1, sel[gap]] = _contract(e_read, w, v)[gap] / tr_read[gap]
    return table


def mode_table(base, lin_p, lin_pp, p, pp, w, v):
    """Dominant modes of G_j = base + p_j lin_p + pp_j lin_pp, shape (2, n).

    Row 0 holds lam_j and row 1 c_j, so that w . exp(N G_j) . v = c_j
    exp(N lam_j) for every N >= 1. Pairs the rank-one guard or the gap test
    refuses, and every pair of a base without a usable eigenbasis, hold NaN
    in both rows. Arguments are those of ``trace_kernels``.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    basis = _eigenbasis(*(np.asarray(x, dtype=complex) for x in (base, lin_p, lin_pp)))
    table = np.full((2, p.size), np.nan, dtype=complex)
    for lo, hi, g in _generator_chunks(base, lin_p, lin_pp, p, pp):
        if basis is not None:
            table[:, lo:hi] = _modes(g, p[lo:hi], pp[lo:hi], basis, w, v)
    return table
