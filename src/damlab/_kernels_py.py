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

Both kernel paths stream a grid through batches. ``trace_kernels`` takes
``_BATCH_ELEMENTS`` complex numbers per batch array (64 KiB; 256 pairs of
4x4 matrices) and allocates its arrays per batch: the Pade step keeps about
ten alive at once, so a chunk stays in L2 cache, and a non-reducing
13,041-pair grid allocates about 1 MiB at a time instead of 32 MiB. A mode
table takes twice as many pairs a batch (512 of 4x4) into one workspace of
five arrays that all its batches reuse (see below), about the memory of one
Pade step.

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

Per batch, the resolvent E = (G - s)^-1 is taken at s = sigma + 1e-8
||G||_1: the offset keeps every shifted matrix regular (at p = pp,
lam = 0 = beta_0 and sigma is exact) and, being real and to the right of
lam, keeps lam the eigenvalue nearest s. Up to m = 4, the size rule of
products, E is the adjugate adj(G - s) = det(G - s) (G - s)^-1 by cofactors
(``_adjugate``), broadcast multiply-adds over the pair axis; above, one
batched LAPACK ``inv``. At 512 pairs of 4x4 matrices the cofactors take
about 0.13 ms and ``inv`` with its copy 0.35 ms, mostly call overhead per
matrix (numpy 2.4, one thread, x86-64). The factor det never shows: the
first guard round rescales E to largest entry 1. E is then squared,
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
Every round runs over the whole batch: a pair leaves the iteration once
the guard accepts it or once its trace falls below MODE_TOL of its largest
entry, and one still refused after the last round holds NaN.

The batches of one table share a workspace: five complex (m, m, n) arrays,
n = min(pairs per batch, table size), which hold g, E, E^2, the accepted
E^2 and a temporary. Every product, difference and matrix-vector step of
``_modes`` and ``_gap_ok``, the adjugate's cofactors among them, writes
into them with ``out=``. E and E^2 trade places between rounds, a BLAS
product or inverse is copied in, and |Re|, |Im| and the 1-norm take a float
view of whichever array is free at the moment. Up to m = 4 a batch then
allocates only vectors of length n; above, the result of ``inv`` as well.
Scratch allocated per batch sat at the heap top, and glibc trimmed it
after the batch only for the next batch to fault it in again: a fresh
``scaling`` call on perfbench's steady-link scenario took 4,100-6,200 minor
page faults instead of 1,100-1,900. Five arrays of at most 128 KiB each
come from the heap; one arena of their size would be mmapped, and
unmapping it raises glibc's trim threshold for the rest of the process.

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
driven 4x4 grid at T = 500 the table agrees with Pade to 7.3e-13 at N = 5,
1.4e-12 at N = 10 and 2.5e-12 at N = 20 (|K| <= 1), and with a 40-digit
eigendecomposition to 0.32 eps ||G||_1 in lam and 2 eps in c on 41 pairs
(``||G||_1`` up to 1,075). There the guard holds after two squarings for
4,295 of the 13,041 pairs and after three for the rest; at T = 200, 1,183
pairs take a fourth. No sum over matrix entries depends on the batch, and
every other step is elementwise along the pair axis, contiguous in every
operand, a workspace array among them, so a pair's mode is the same bits
in any batch, down to a batch of one pair.
"""

import itertools
import math

import numpy as np

__all__ = ["expm_batch", "mode_table", "mode_table_blocks", "trace_kernels"]

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


def _mul(x, y, out=None, scratch=None):
    """x @ y for every pair of matrices of two (m, m, n) batches: m broadcast
    multiply-adds up to _BROADCAST_MAX_DIM, one BLAS call per matrix above.

    Given out (and, for the multiply-adds, scratch), both contiguous
    (m, m, n), the product is written to out; without, it is allocated, and
    a BLAS product is a strided view.
    """
    m = x.shape[0]
    if m > _BROADCAST_MAX_DIM:
        prod = np.matmul(x.transpose(2, 0, 1), y.transpose(2, 0, 1)).transpose(1, 2, 0)
        if out is None:
            return prod
        np.copyto(out, prod)
        return out
    out = np.multiply(x[:, 0, None], y[None, 0], out=out)
    for j in range(1, m):
        out += np.multiply(x[:, j, None], y[None, j], out=scratch)
    return out


def _adjugate(a, out=None, scratch=None):
    """adj(A) = det(A) A^-1 for every matrix of a contiguous (m, m, n) batch,
    m <= _BROADCAST_MAX_DIM, by cofactors: broadcast multiply-adds over the
    pair axis, which need no regular A.

    adj[j, i] is (-1)^(i + j) times the minor of A without row i and column
    j. At m = 4 that minor is expanded along row i ^ 1, against the 2 x 2
    minors of the two rows of the other half, and rows i and i + 2 share
    each step. Given out, (m, m, n), and scratch, a flat complex buffer of
    m * m * n entries, adj is written to out.
    """
    m, n = a.shape[0], a.shape[-1]
    out = np.empty_like(a) if out is None else out
    if m == 1:
        out.fill(1)
        return out
    if m == 2:
        for i, j in itertools.product(range(2), repeat=2):
            (np.negative if i != j else np.positive)(a[1 - i, 1 - j], out=out[j, i])
        return out
    scratch = np.empty(m * m * n, dtype=complex) if scratch is None else scratch
    if m == 3:
        prod = _view(scratch, (n,))
        for i, j in itertools.product(range(3), repeat=2):
            (r0, r1), (x, y) = ([k for k in range(3) if k != skip] for skip in (i, j))
            # the cofactor's sign swaps the minor's columns
            if (i + j) % 2:
                x, y = y, x
            np.multiply(a[r0, x], a[r1, y], out=out[j, i])
            out[j, i] -= np.multiply(a[r0, y], a[r1, x], out=prod)
        return out
    # the 2 x 2 minors of rows (2, 3) and of rows (0, 1), in that order, by
    # column pair: (2, n) arrays, then a product of that shape
    buf = _view(scratch, (7, 2, n))
    minor = dict(zip(itertools.combinations(range(4), 2), buf))
    prod = buf[6]
    top, bottom = a[2::-2], a[3::-2]
    for (x, y), dest in minor.items():
        np.multiply(top[:, x], bottom[:, y], out=dest)
        dest -= np.multiply(top[:, y], bottom[:, x], out=prod)
    for k, j in itertools.product(range(2), range(4)):
        # the minors without rows i = k and k + 2, expanded along rows k ^ 1
        # and k ^ 1 + 2 against the other half's minors; by column, the
        # terms take the signs +, -, +
        row = a[k ^ 1::2]
        c0, c1, c2 = (c for c in range(4) if c != j)
        terms = [
            (row[:, c0], minor[c1, c2]),
            (row[:, c1], minor[c0, c2]),
            (row[:, c2], minor[c0, c1]),
        ]
        # the cofactor's sign swaps the first two terms and flips the third
        odd = (k + j) % 2
        if odd:
            terms[:2] = terms[1::-1]
        dest = out[j, k::2]
        np.multiply(*terms[0], out=dest)
        dest -= np.multiply(*terms[1], out=prod)
        (np.subtract if odd else np.add)(dest, np.multiply(*terms[2], out=prod), out=dest)
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


def _one_norms(a, scratch=None):
    """1-norm of every matrix of a batch; raises on non-finite entries.
    scratch, a float array of a's shape, takes |a| if given."""
    norms = np.abs(a, out=scratch).sum(axis=0).max(axis=0)
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


def _batch_pairs(m):
    """Pairs per batch of (m, m) matrices: ``_BATCH_ELEMENTS`` complex numbers."""
    return max(1, _BATCH_ELEMENTS // m**2)


def _batches(chunk, p, pp):
    """Yield (lo, hi, p[lo:hi], pp[lo:hi]) for the batches of chunk pairs
    of a grid."""
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pp, dtype=float)
    if p.shape != pp.shape:
        raise ValueError("p and pp must have equal length")
    for lo in range(0, p.size, chunk):
        hi = min(p.size, lo + chunk)
        yield lo, hi, p[lo:hi], pp[lo:hi]


def _generators(base, lin_p, lin_pp, p, pp, out=None, scratch=None):
    """base + p_j lin_p + pp_j lin_pp for every pair, an (m, m, n) batch from
    (m, m, 1) terms; formed in out, with scratch, if they are given."""
    g = np.multiply(p, lin_p, out=out)
    np.add(base, g, out=g)
    g += np.multiply(pp, lin_pp, out=scratch)
    return g


def _view(buf, shape, dtype=complex):
    """The contiguous array of shape and dtype at the start of a flat buffer."""
    return buf.view(dtype)[:math.prod(shape)].reshape(shape)


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


def _matvec(a, x, scratch=None):
    """a . x for every pair: a batch (m, m, n) or one matrix (m, m, 1), and
    x one vector (m, 1) or one per pair (m, n). scratch, (m, m, n), takes
    the products if given."""
    return _ordered_sum(np.swapaxes(np.multiply(a, x, out=scratch), 0, 1))


def _contract(e, w, v, scratch=None):
    """w . E_j . v for every matrix of a batch."""
    return _ordered_sum(w[:, None] * _matvec(e, v[:, None], scratch))


def trace_kernels(base, lin_p, lin_pp, p, pp, w, v):
    """w . exp(base + p_j lin_p + pp_j lin_pp) . v for every pair (p_j, pp_j).

    All matrices are (m, m) complex; p/pp are equal-length real coefficient
    arrays; w and v are length-m complex vectors (w is applied as given, so
    pass it already conjugated if a sesquilinear form is wanted).
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    terms = [np.asarray(x, dtype=complex)[..., None] for x in (base, lin_p, lin_pp)]
    out = np.empty(np.size(p), dtype=complex)
    for lo, hi, p_j, pp_j in _batches(_batch_pairs(terms[0].shape[0]), p, pp):
        out[lo:hi] = _contract(_expm(_generators(*terms, p_j, pp_j)), w, v)
    return out


def _largest_part(x, scratch=None):
    """Largest |Re| or |Im| of an entry of every matrix in a contiguous
    batch. scratch, a float array of x.view(float)'s shape, may be x's own
    memory; it takes the absolute values if given."""
    y = np.abs(x.view(float), out=scratch)
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
    # inv(x) by the LU solve np.linalg.inv makes; inv serves only m > 4 resolvents
    y = np.linalg.solve(x, np.eye(x.shape[0], dtype=complex))
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


def _gap_ok(e, lam, p, pp, basis, free):
    """Whether every other eigenvalue of each G lies _MODE_GAP left of lam.

    The columns of e, a converged power of the resolvent, are the right
    eigenvector r of lam. In the eigenbasis X of the base, G' = X^-1 G X and
    r' = X^-1 r with r'_0 = 1; the deflated block
    M = G'[1:, 1:] - r'[1:] G'[0, 1:] has exactly the other eigenvalues of G,
    and Gershgorin's discs of its rows, or of its columns, bound them.
    free holds three flat workspace buffers of at least e's size, which take
    G', the products and M, and |M|.
    """
    x, y, (d, a, b), _ = basis
    m, n = e.shape[1:]
    gp_buf, tmp_buf, size_buf = free
    tmp = _view(tmp_buf, e.shape)
    r = _matvec(y[..., None], _matvec(e, x[:, :1], tmp), tmp)
    gp = _view(gp_buf, e.shape)
    _generators(d[..., None], a[..., None], b[..., None], p, pp, gp, tmp)
    # a vanishing r'_0 leaves non-finite discs, which fail the test
    with np.errstate(divide="ignore", invalid="ignore"):
        mm = _view(tmp_buf, (m - 1, m - 1, n))
        np.multiply((r[1:] / r[0])[:, None], gp[0, 1:], out=mm)
        np.subtract(gp[1:, 1:], mm, out=mm)
        size = np.abs(mm, out=_view(size_buf, mm.shape, float))
        diag = np.diagonal(mm).T
        # right edge of a disc: Re M_ii + sum of |M_ij| over j != i
        right = diag.real - np.abs(diag) - (lam.real - _MODE_GAP)
        rows = (right + size.sum(axis=1) <= 0).all(axis=0)
        cols = (right + size.sum(axis=0) <= 0).all(axis=0)
    return rows | cols


def _modes(terms, p, pp, basis, w, v, ws):
    """Rows (lam, c) of the dominant mode of every G = base + p_j lin_p +
    pp_j lin_pp in a batch, NaN where the rank-one guard or the gap test
    refuses the pair. terms are the (m, m, 1) base, lin_p and lin_pp, and
    ws the five flat buffers of the table's workspace."""
    m, n = terms[0].shape[0], p.size
    g, e, e2, e_read, tmp = (_view(buf, (m, m, n)) for buf in ws)
    _generators(*terms, p, pp, g, tmp)
    beta0, a1, b1, a2, ab2, b2 = basis[3]
    # a real offset to the right keeps every shifted matrix regular, even
    # where sigma is lam (p = pp, or a diagonal G)
    shift = beta0 + p * (a1 + p * a2) + pp * (b1 + p * ab2 + pp * b2)
    # E's memory is free until the inverse fills it
    norms = _one_norms(g, _view(ws[1], g.shape, float))
    shift += _SHIFT_OFFSET * norms + np.finfo(float).tiny
    np.copyto(tmp, g)
    tmp.reshape(m * m, n)[:: m + 1] -= shift
    if m > _BROADCAST_MAX_DIM:
        np.copyto(e, np.linalg.inv(tmp.transpose(2, 0, 1)).transpose(1, 2, 0))
    else:
        # adj(G - s) = det(G - s) (G - s)^-1; the first round's rescaling drops det
        _adjugate(tmp, e, ws[2])
    # E^2 and tr(E^2) of the pairs the guard accepts, at the round it does
    e_read.fill(0)
    tr_read = np.zeros(n, dtype=complex)
    accepted = np.zeros(n, dtype=bool)
    live = np.ones(n, dtype=bool)
    for _ in range(_MODE_ROUNDS):
        # E^2's memory is free until the product fills it
        e *= 1.0 / _largest_part(e, e2.view(float))
        tr = _ordered_sum(np.ascontiguousarray(np.diagonal(e).T))
        _mul(e, e, e2, tmp)
        size = np.abs(tr)
        live &= size >= MODE_TOL
        np.subtract(e2, np.multiply(e, tr, out=tmp), out=tmp)
        ok = live & (_largest_part(tmp, tmp.view(float)) < MODE_TOL * size * size)
        np.copyto(e_read, e2, where=ok)
        tr_read[ok] = _ordered_sum(np.ascontiguousarray(np.diagonal(e2).T))[ok]
        accepted |= ok
        live &= ~ok
        if not live.any():
            break
        e, e2 = e2, e
    # pairs never accepted read 0 / 0 here and are refused below
    with np.errstate(divide="ignore", invalid="ignore"):
        g_e = np.multiply(g, np.swapaxes(e_read, 0, 1), out=tmp)
        lam = _ordered_sum(g_e.reshape(m * m, -1)) / tr_read
        c = _contract(e_read, w, v, tmp) / tr_read
    # after the rounds, g, E, E^2 and the temporary are all free
    served = accepted & _gap_ok(e_read, lam, p, pp, basis, (ws[0], ws[4], ws[1]))
    return np.where(served, np.stack([lam, c]), np.nan)


def mode_table(base, lin_p, lin_pp, p, pp, w, v):
    """Dominant modes of G_j = base + p_j lin_p + pp_j lin_pp, shape (2, n).

    Row 0 holds lam_j and row 1 c_j, so that w . exp(N G_j) . v = c_j
    exp(N lam_j) for every N >= 1. Pairs the rank-one guard or the gap test
    refuses, and every pair of a base without a usable eigenbasis, hold NaN
    in both rows. Arguments are those of ``trace_kernels``.
    """
    p = np.asarray(p, dtype=float)
    return mode_table_blocks(base, lin_p, lin_pp, [(p, pp)], p.size, w, v)


def mode_table_blocks(base, lin_p, lin_pp, blocks, size, w, v):
    """``mode_table`` of a grid of ``size`` pairs given as a stream of blocks.

    ``blocks`` yields (p, pp) coefficient arrays, consecutive parts of the
    grid in table order, so no array of the whole grid is needed. One
    eigenbasis and one workspace serve the table; each block is computed in
    batches of 2 ``_BATCH_ELEMENTS`` complex numbers an array, and a pair's
    mode does not depend on its batch, so the table is the same bits however
    the grid is cut.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    terms = [np.asarray(x, dtype=complex) for x in (base, lin_p, lin_pp)]
    basis = _eigenbasis(*terms)
    table = np.full((2, size), np.nan, dtype=complex)
    m = terms[0].shape[0]
    # twice trace_kernels' batch: five arrays weigh about what its Pade step does
    chunk = 2 * _batch_pairs(m)
    # g, E, E^2, the accepted E^2 and a temporary, reused by every batch so
    # that glibc does not trim and refault them; five arrays, not one arena,
    # so that each comes from the heap (see the module docstring)
    ws = [np.empty(m * m * min(chunk, size), dtype=complex) for _ in range(5)]
    terms = [x[..., None] for x in terms]
    start = 0
    for p, pp in blocks:
        p = np.asarray(p, dtype=float)
        if start + p.size > size:
            raise ValueError(f"blocks hold more than {size} pairs")
        for lo, hi, p_j, pp_j in _batches(chunk, p, pp):
            if basis is not None:
                table[:, start + lo:start + hi] = _modes(
                    terms, p_j, pp_j, basis, w, v, ws
                )
        start += p.size
    if start != size:
        raise ValueError(f"blocks hold {start} pairs, not {size}")
    return table
