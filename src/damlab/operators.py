"""Dense complex linear algebra for operators and superoperators.

Operators are plain complex numpy arrays of shape (d, d). Superoperators are
(d*d, d*d) complex arrays acting on column-stacked operators:

    vec(X)[i + d*j] = X[i, j]                 (column stacking)
    vec(A @ X)     = kron(I, A)   @ vec(X)
    vec(X @ B)     = kron(B.T, I) @ vec(X)
    vec(A @ X @ B) = kron(B.T, A) @ vec(X)

Every superoperator built in this package follows this single convention, so
composition of maps is ordinary matrix multiplication. Target dimensions are
small (d <= 8, so d^2 <= 64) and everything is dense.
"""

import warnings

import numpy as np

__all__ = [
    "vectorize",
    "devectorize",
    "left_mult",
    "right_mult",
    "is_hermitian",
    "is_density_matrix",
    "hamiltonian_term",
    "dissipator",
    "lindblad_superoperator",
    "mat_exp",
]


def _as_square(x, name="operator"):
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def vectorize(x):
    """Column-stack a d x d operator into a length d^2 vector."""
    return _as_square(x).reshape(-1, order="F")


def devectorize(v, dim=None):
    """Inverse of :func:`vectorize`. ``dim`` is inferred when omitted."""
    v = np.asarray(v, dtype=complex).ravel()
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked {dim}x{dim} operator")
    return v.reshape((dim, dim), order="F")


def left_mult(a):
    """Superoperator for X -> A @ X."""
    a = _as_square(a)
    return np.kron(np.eye(a.shape[0]), a)


def right_mult(b):
    """Superoperator for X -> X @ B."""
    b = _as_square(b)
    return np.kron(b.T, np.eye(b.shape[0]))


def is_hermitian(x, tol=1e-10):
    x = _as_square(x)
    return bool(np.max(np.abs(x - x.conj().T), initial=0.0) <= tol)


def is_density_matrix(x, tol=1e-10):
    """Hermitian, unit trace and eigenvalues >= -tol."""
    x = _as_square(x)
    if not is_hermitian(x, tol):
        return False
    if abs(np.trace(x) - 1.0) > tol:
        return False
    evals = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
    return bool(evals.min() >= -tol)


def _gkls_operators(h, ops, tol=1e-10):
    """Validated (H, jump operators) of one GKLS generator.

    ``h`` may be None for a purely dissipative map; it becomes the zero
    matrix. Raises ValueError on a non-square, non-finite or non-Hermitian
    operand or on mismatched dimensions.
    """
    ops = [_as_square(op, "jump operator") for op in ops]
    if h is None:
        if not ops:
            raise ValueError("need a Hamiltonian or at least one jump operator")
        h = np.zeros_like(ops[0])
    h = _as_square(h, "Hamiltonian")
    if not is_hermitian(h, tol):
        raise ValueError("Hamiltonian is not Hermitian within tolerance")
    if any(op.shape[0] != h.shape[0] for op in ops):
        raise ValueError("jump operator dimension mismatch")
    return h, ops


def hamiltonian_term(h):
    """Superoperator for X -> -i[H, X]."""
    return -1j * (left_mult(h) - right_mult(h))


def dissipator(op):
    """Superoperator for X -> L X L^+ - {L^+ L, X}/2 at unit rate."""
    ldl = op.conj().T @ op
    return np.kron(op.conj(), op) - 0.5 * left_mult(ldl) - 0.5 * right_mult(ldl)


def lindblad_superoperator(h, jumps=(), tol=1e-10):
    """Assemble the GKLS generator as a d^2 x d^2 matrix.

    Args:
        h: Hermitian Hamiltonian (may be None for purely dissipative maps).
        jumps: iterable of (jump operator, nonnegative rate) pairs.
        tol: Hermiticity tolerance for ``h``.

    The map is X -> -i[H, X] + sum_k g_k (L_k X L_k^+ - {L_k^+ L_k, X}/2),
    summed term by term in the order given.
    """
    jumps = list(jumps)
    h, ops = _gkls_operators(h, [op for op, _ in jumps], tol)
    rates = [float(rate) for _, rate in jumps]
    for rate in rates:
        if rate < 0:
            raise ValueError(f"negative jump rate {rate}")
    gen = hamiltonian_term(h)
    for op, rate in zip(ops, rates):
        gen = gen + rate * dissipator(op)
    return gen


def mat_exp(m, t):
    """exp(M t) for a superoperator matrix M and time t >= 0.

    scipy's scaling and squaring with Pade approximants, robust for
    non-normal and defective generators. It is independent of the batched
    kernel in ``_kernels_py``, which makes it the oracle of ``trace_kernel``;
    scipy.linalg is imported on first use, so importing damlab does not load
    it. Overflow is reported (OverflowError), never silently clamped.
    """
    import scipy.linalg

    m = _as_square(m, "superoperator")
    t = float(t)
    if t < 0:
        raise ValueError(f"negative evolution time {t}")
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = scipy.linalg.expm(m * t)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed (t={t}, norm={np.abs(m).max():.3g})")
    return out
