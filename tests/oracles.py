"""Hand-rolled reference implementations the tests pin expected values against.

Everything here works directly on 2-D arrays with explicit matrix products,
independent of the package's superoperator machinery.
"""

import numpy as np

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def apply_gkls(h, jumps, x):
    """-i[H, X] + sum_k g_k (L X L+ - {L+L, X}/2), by direct products."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    if h is not None:
        out = out - 1j * (h @ x - x @ h)
    for op, rate in jumps:
        ldl = op.conj().T @ op
        out = out + rate * (op @ x @ op.conj().T - 0.5 * (ldl @ x + x @ ldl))
    return out


def gad_jumps(theta):
    return [(SIGMA_MINUS, theta), (SIGMA_PLUS, 1.0 - theta)]


def superop_from_action(action, d):
    """Matrix of a superoperator assembled column by column from basis images
    (column stacking: column i + d*j holds vec(action(|i><j|)))."""
    cols = []
    for j in range(d):
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            cols.append(np.asarray(action(e), dtype=complex).reshape(-1, order="F"))
    return np.stack(cols, axis=1)


def dense_bundle(lmat):
    """Steady state and dense group pseudoinverse of a Liouvillian, by full
    eigendecomposition: rho from the zero-mode eigenvector (Hermitized,
    trace-normalized, eigenvalue dust clipped) and S = Q (L + P)^-1 Q with
    P = |vec rho><vec I| and Q = 1 - P."""
    d2 = lmat.shape[0]
    d = int(round(np.sqrt(d2)))
    evals, evecs = np.linalg.eig(lmat)
    rho = evecs[:, int(np.argmin(np.abs(evals)))].reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    w, v = np.linalg.eigh(rho)
    rho = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho = rho / np.trace(rho).real
    p = np.outer(rho.reshape(-1, order="F"), np.eye(d).reshape(-1, order="F"))
    q = np.eye(d2) - p
    return rho, q @ np.linalg.solve(lmat + p, q)


def gad_pinv_action(x, theta):
    """Closed-form pseudoinverse for the GAD qubit, written out longhand."""
    x = np.asarray(x, dtype=complex)
    rho = np.diag([theta, 1.0 - theta]).astype(complex)
    return np.trace(x) * rho - x - P0 @ x @ P1 - P1 @ x @ P0


def half_plane(app):
    """Index pairs (idx_i, idx_k) of every half-plane pair p_i >= p_{i-k} of
    an apparatus's p grid, by offset k, then by i = k, ..., p_points - 1, in
    one pass over the whole grid."""
    k = app.p_points
    idx_k = np.repeat(np.arange(k), np.arange(k, 0, -1))
    # offset off holds i = off, ..., k-1; it starts at off*k - off*(off-1)/2
    starts = idx_k * k - idx_k * (idx_k - 1) // 2
    idx_i = idx_k + np.arange(idx_k.size) - starts
    return idx_i, idx_k


def dense_hermitian_sum(c, dp, q0, dq, count):
    """Re c[0] + 2 Re sum_{n>0} c[n] exp(i q_m n dp) at q_m = q0 + m dq, m < count,
    by mirroring c to c[-n] = conj c[n] and one dense exp(i q x) phase matrix."""
    k = c.size
    c_full = np.concatenate([c[:0:-1].conj(), c])
    x_full = dp * np.arange(1 - k, k)
    q = q0 + dq * np.arange(count)
    return (np.exp(1j * np.outer(q, x_full)) @ c_full).real


def extended_hermitian_sum(c, dp, q0, dq, count):
    """dense_hermitian_sum with the phases and sums in np.longdouble."""
    ld = np.longdouble
    phase = np.outer(ld(q0) + ld(dq) * np.arange(count), ld(dp) * np.arange(c.size))
    re, im = c.real.astype(ld), c.imag.astype(ld)
    terms = np.cos(phase) * re - np.sin(phase) * im
    return 2 * terms[:, 1:].sum(axis=1) + re[0]


def chi2_quantile_error(x, q, dof):
    """First-order relative error of x as the q quantile of chi-squared with
    dof degrees of freedom, (F(x) - q) / (x F'(x)), in 40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        a, y = mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2
        if q > 0.5:  # against the upper tail, as 1 - q is exact there
            res = (1 - mpmath.mpf(q)) - mpmath.gammainc(a, y, mpmath.inf, regularized=True)
        else:
            res = mpmath.gammainc(a, 0, y, regularized=True) - mpmath.mpf(q)
        return float(res / mpmath.exp(a * mpmath.log(y) - y - mpmath.loggamma(a)))


def dominant_mode(g, w, v):
    """(lam, c) of the eigenvalue lam of g of largest real part, in 40-digit
    arithmetic: from its right and left eigenvectors r and l,
    c = (w . r)(l . v) / (l . r), the weight of exp(N lam) in w . exp(N g) . v."""
    import mpmath

    def dot(x, y):
        return mpmath.fsum(complex(a) * b for a, b in zip(x, y))

    with mpmath.workdps(40):
        e, left, right = mpmath.eig(mpmath.matrix(np.asarray(g).tolist()), left=True)
        k = max(range(len(e)), key=lambda i: mpmath.re(e[i]))
        r, l = list(right[:, k]), list(left[k, :])
        return complex(e[k]), complex(dot(w, r) * dot(v, l) / dot(l, r))


def random_operator(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    g = random_operator(rng, d)
    return (g + g.conj().T) / 2.0


def random_density(rng, d):
    g = random_operator(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
