"""Parameterized Lindblad models, steady states and the group pseudoinverse.

A model maps a parameter vector theta to a GKLS triple (H, jump operators,
rates). For a model with a unique steady state rho and dissipative gap g > 0
the bundle below holds rho, g and the Liouvillian L, and applies the group
pseudoinverse S, the inverse of L on traceless operators (L S = S L = Q with
Q x = x - tr(x) rho, and tr S(x) = 0).

Both rho and S(x) come from one bordered solve: L y = b with the first row
of L replaced by the trace row vec(I)^T and the first entry of b by the
target trace (1 for rho, 0 for S(x) with b = Q x). Trace preservation makes
the replaced row redundant whenever tr b = 0, so the solve is exact. The
steady link in ``estimation`` batches the same solve over theta. The
zero-mode/gap rule (:func:`_steady_gaps`) guards every steady state; no
dense P, Q or S is formed. The integral -int exp(t L) Q dt is kept as a
test oracle only.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import devectorize, is_hermitian, lindblad_superoperator, vectorize

__all__ = [
    "LindbladModel",
    "SteadyStateBundle",
    "gad_model",
    "product_gad_model",
    "steady_state_bundle",
    "gad_pseudoinverse_closed_form",
    "dissipation_coefficient",
]

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
EXCITED_PROJECTOR = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

# zero modes and the gap are measured against STEADY_TOL times the spectral
# radius; steady-state eigenvalues in [-STEADY_TOL, 0) are rounding dust
STEADY_TOL = 1e-9


@dataclass(frozen=True)
class LindbladModel:
    """A family theta -> Lindblad generator with a declared parameter box."""

    name: str
    param_dim: int
    system_dim: int
    generator: Callable
    param_domain: tuple

    def contains(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.param_dim:
            return False
        return all(lo < v < hi for v, (lo, hi) in zip(theta, self.param_domain))

    def liouvillian(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if not self.contains(theta):
            raise ValueError(
                f"theta {theta.tolist()} outside the domain of model {self.name!r}"
            )
        h, jumps = self.generator(theta)
        return lindblad_superoperator(h, jumps)


def _steady_gaps(lmats, name, thetas):
    """Dissipative gaps of a stack of Liouvillians (n, d^2, d^2).

    Each must have exactly one eigenvalue with |lambda| <= STEADY_TOL times
    its spectral radius, and a gap -max Re lambda over the others above that
    threshold. Raises ValueError at the first theta (row of ``thetas``) that
    fails, naming model ``name``.
    """
    evals = np.linalg.eigvals(lmats)
    cutoff = STEADY_TOL * np.abs(evals).max(axis=-1)
    zero = np.abs(evals) <= cutoff[:, None]
    modes = zero.sum(axis=-1)
    gaps = -np.where(zero, -np.inf, evals.real).max(axis=-1)
    bad = (modes != 1) | (gaps <= cutoff)
    if bad.any():
        k = int(np.argmax(bad))
        if modes[k] == evals.shape[-1]:
            why = "no dissipative gap: no nonzero eigenvalue"
        elif modes[k] != 1:
            why = f"degenerate steady space: {modes[k]} zero modes"
        else:
            why = f"no dissipative gap (gap {gaps[k]:.3g})"
        raise ValueError(
            f"model {name!r} has no unique gapped steady state at "
            f"theta={np.atleast_1d(thetas[k]).tolist()}: {why}"
        )
    return gaps


def _bordered_solve(lmats, rhs, trace):
    """Solve L y = rhs with tr(y) = trace, batched over leading axes.

    ``lmats`` is (..., d^2, d^2) and ``rhs`` is (..., d^2, k). Row 0 of L
    becomes vec(I)^T and row 0 of the right-hand side becomes ``trace``.
    Since vec(I)^T L = 0, the dropped row follows from the others whenever
    tr(rhs) = 0, so y is exact for a unique steady state.
    """
    d = int(round(np.sqrt(lmats.shape[-1])))
    border = np.array(lmats, dtype=complex)
    border[..., 0, :] = np.eye(d).ravel()  # vec(I), in either stacking order
    rhs = np.array(rhs, dtype=complex)
    rhs[..., 0, :] = trace
    return np.linalg.solve(border, rhs)


def _check_probe_gap(model, probe):
    _steady_gaps(model.liouvillian(probe)[None], model.name, [probe])
    return model


def gad_model():
    """Generalized amplitude damping qubit: decay rate theta, pumping 1-theta.

    Steady state diag(theta, 1-theta), dissipative gap 1/2, for any
    theta in (0, 1).
    """

    def generator(theta):
        th = float(theta[0])
        return None, [(SIGMA_MINUS, th), (SIGMA_PLUS, 1.0 - th)]

    model = LindbladModel(
        name="gad",
        param_dim=1,
        system_dim=2,
        generator=generator,
        param_domain=((0.0, 1.0),),
    )
    return _check_probe_gap(model, np.array([0.5]))


def _embed(op, site, m):
    mats = [np.eye(2, dtype=complex)] * m
    mats[site] = op
    out = mats[0]
    for a in mats[1:]:
        out = np.kron(out, a)
    return out


def product_gad_model(m):
    """M independent GAD qubits with theta = (theta_1, ..., theta_M).

    The steady state is the tensor product of diag(theta_i, 1-theta_i). M is
    capped at 3 to keep the dense superoperators small.
    """
    m = int(m)
    if m < 1:
        raise ValueError("need at least one qubit")
    if m > 3:
        raise ValueError(f"M={m} exceeds the dimension cap (M <= 3)")

    def generator(theta):
        jumps = []
        for site in range(m):
            th = float(theta[site])
            jumps.append((_embed(SIGMA_MINUS, site, m), th))
            jumps.append((_embed(SIGMA_PLUS, site, m), 1.0 - th))
        return None, jumps

    model = LindbladModel(
        name=f"product_gad_{m}",
        param_dim=m,
        system_dim=2**m,
        generator=generator,
        param_domain=tuple((0.0, 1.0) for _ in range(m)),
    )
    return _check_probe_gap(model, np.full(m, 0.5))


@dataclass(frozen=True)
class SteadyStateBundle:
    """Steady state rho_ss, dissipative gap and Liouvillian of a model."""

    rho_ss: np.ndarray
    gap: float
    liouvillian: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.rho_ss.shape[0]

    def expectation(self, a):
        """Steady-state expectation value tr(A rho_ss) (real part)."""
        return float(np.trace(np.asarray(a) @ self.rho_ss).real)

    def s_apply(self, x):
        """Apply the pseudoinverse S: solve L y = Q x with tr(y) = 0."""
        vx = vectorize(x)
        trace = vx[:: self.dim + 1].sum()  # the diagonal of x
        qx = vx - trace * self.rho_ss.ravel(order="F")
        y = _bordered_solve(self.liouvillian, qx[:, None], 0.0)
        return devectorize(y[:, 0], self.dim)


def steady_state_bundle(model, theta):
    """Steady state, gap and Liouvillian for ``model`` at ``theta``.

    Raises on a degenerate steady space (two eigenvalues inside the zero
    tolerance) or a vanishing gap. The steady state comes from the bordered
    solve with trace 1; it is Hermitized, checked for positivity, cleaned of
    eigenvalue dust in [-STEADY_TOL, 0) and renormalized.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lmat = model.liouvillian(theta)
    gap = _steady_gaps(lmat[None], model.name, theta[None])[0]
    d = model.system_dim
    rho = devectorize(_bordered_solve(lmat, np.zeros((d * d, 1)), 1.0)[:, 0], d)
    rho = (rho + rho.conj().T) / 2.0
    w, v = np.linalg.eigh(rho)
    if w.min() < -STEADY_TOL:
        raise ValueError(f"steady state not positive (min eigenvalue {w.min():.3g})")
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ v.conj().T
    rho = rho / np.trace(rho).real
    return SteadyStateBundle(rho_ss=rho, gap=float(gap), liouvillian=lmat)


def gad_pseudoinverse_closed_form(x, theta):
    """Closed-form pseudoinverse action for the GAD qubit.

    S(X) = P(X) - X - |0><0| X |1><1| - |1><1| X |0><0|, with
    P(X) = tr(X) diag(theta, 1-theta). Serves as the independent oracle for
    the numeric bundle.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (2, 2):
        raise ValueError(f"closed form is for qubits, got shape {x.shape}")
    theta = float(theta)
    rho = np.diag([theta, 1.0 - theta]).astype(complex)
    out = np.trace(x) * rho - x
    out[0, 1] -= x[0, 1]
    out[1, 0] -= x[1, 0]
    return out


def dissipation_coefficient(bundle, a):
    """tr(A S(A rho_ss)), the backaction moment in the variance formulas.

    Its real part widens the pointer distribution at finite coupling time and
    its imaginary part skews the phase of the kernel.
    """
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        raise ValueError("observable must be Hermitian")
    return complex(np.trace(a @ bundle.s_apply(a @ bundle.rho_ss)))
