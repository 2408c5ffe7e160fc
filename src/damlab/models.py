"""Parameterized Lindblad models, steady states and the group pseudoinverse.

A model is affine in its parameters: L(theta) = L_H + sum_k g_k(theta) D_k
with jump rates g_k(theta) = c_k + s_k . theta. It assembles the Hamiltonian
term L_H and the dissipators D_k once, when it is built, so a Liouvillian at
any theta is a weighted sum of stored matrices and dL/dtheta_i is the fixed
sum_k s_k[i] D_k. For a model with a unique steady state rho and
dissipative gap g > 0 the bundle below holds rho, g and the Liouvillian L,
and applies the group pseudoinverse S, the inverse of L on traceless
operators (L S = S L = Q with Q x = x - tr(x) rho, and tr S(x) = 0).

Both rho and S(x) come from one bordered solve: L y = b with the first row
of L replaced by the trace row vec(I)^T and the first entry of b by the
target trace (1 for rho, 0 for S(x) with b = Q x). Trace preservation makes
the replaced row redundant whenever tr b = 0, so the solve is exact. The
steady link in ``estimation`` batches the same solve over theta. The
zero-mode/gap rule (:func:`_steady_gaps`) guards every steady state; no
dense P, Q or S is formed. The integral -int exp(t L) Q dt is kept as a
test oracle only.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    _gkls_operators,
    devectorize,
    dissipator,
    hamiltonian_term,
    is_hermitian,
)

__all__ = [
    "LindbladModel",
    "SteadyStateBundle",
    "gad_model",
    "is_gad",
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


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Lindblad generators L(theta) = L_H + sum_k g_k(theta) D_k on a box.

    ``jumps`` holds (operator, const, slopes) triples: jump k has the rate
    g_k(theta) = const + slopes . theta, with one slope per parameter. The
    Hamiltonian (None for none) does not depend on theta. The Hamiltonian
    term L_H (None without a Hamiltonian) and the unit-rate dissipators D_k
    are assembled once, when the model is built, and stored read-only; a
    Liouvillian only scales and adds them, in the order of
    ``operators.lindblad_superoperator``.
    """

    name: str
    param_domain: tuple
    hamiltonian: object
    jumps: tuple
    _h_term: object = field(init=False, repr=False)
    _dissipators: tuple = field(init=False, repr=False)
    _consts: np.ndarray = field(init=False, repr=False)
    _slopes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        domain = tuple((float(lo), float(hi)) for lo, hi in self.param_domain)
        m = len(domain)
        h, ops = _gkls_operators(self.hamiltonian, [op for op, _, _ in self.jumps])
        consts = np.array([float(c) for _, c, _ in self.jumps])
        slopes = np.zeros((len(ops), m))
        for k, (_, _, slope) in enumerate(self.jumps):
            slope = np.asarray(slope, dtype=float)
            if slope.shape != (m,):
                raise ValueError(
                    f"model {self.name!r}: jump {k} needs {m} slopes, one per "
                    f"parameter, got shape {slope.shape}"
                )
            slopes[k] = slope
        # copies, so that the caller's arrays stay writable and ours do not change
        ops = [_read_only(np.array(op)) for op in ops]
        h = _read_only(np.array(h))
        built = {
            "param_domain": domain,
            "hamiltonian": None if self.hamiltonian is None else h,
            "jumps": tuple(
                (op, float(c), tuple(float(v) for v in s))
                for op, c, s in zip(ops, consts, slopes)
            ),
            "_h_term": (
                None if self.hamiltonian is None else _read_only(hamiltonian_term(h))
            ),
            "_dissipators": tuple(_read_only(dissipator(op)) for op in ops),
            "_consts": _read_only(consts),
            "_slopes": _read_only(slopes),
        }
        for name, value in built.items():
            object.__setattr__(self, name, value)

    @property
    def param_dim(self):
        return len(self.param_domain)

    @property
    def system_dim(self):
        h = self.hamiltonian
        return (self.jumps[0][0] if h is None else h).shape[0]

    def contains(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.param_dim:
            return False
        return all(lo < v < hi for v, (lo, hi) in zip(theta, self.param_domain))

    def rates(self, theta):
        """Jump rates const_k + slopes_k . theta, shape (..., K) for (..., M).

        The dot product is summed in parameter order, elementwise, so a rate
        does not depend on how thetas are batched.
        """
        theta = np.asarray(theta, dtype=float)
        return self._consts + (theta[..., None, :] * self._slopes).sum(axis=-1)

    def assemble(self, rates):
        """L_H + sum_k rates[..., k] D_k; raises on a negative rate."""
        rates = np.asarray(rates, dtype=float)
        if np.any(rates < 0):
            raise ValueError(f"negative jump rate {float(rates[rates < 0][0])}")
        gen = self._h_term
        for k, dk in enumerate(self._dissipators):
            term = rates[..., k, None, None] * dk
            gen = term if gen is None else gen + term
        # without jumps gen is still the stored term, which callers must not get
        return gen if self._dissipators else gen.copy()

    def liouvillian(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if not self.contains(theta):
            raise ValueError(
                f"theta {theta.tolist()} outside the domain of model {self.name!r}"
            )
        return self.assemble(self.rates(theta))

    def liouvillian_derivatives(self):
        """dL/dtheta_i = sum_k slopes_k[i] D_k, stacked to (M, d^2, d^2)."""
        d2 = self.system_dim**2
        out = np.zeros((self.param_dim, d2, d2), dtype=complex)
        for s, dk in zip(self._slopes, self._dissipators):
            out += s[:, None, None] * dk
        return out


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


@functools.cache
def gad_model():
    """Generalized amplitude damping qubit: decay rate theta, pumping 1-theta.

    Steady state diag(theta, 1-theta), dissipative gap 1/2, for any
    theta in (0, 1). Built once; every call returns the same model.
    """
    model = LindbladModel(
        name="gad",
        param_domain=((0.0, 1.0),),
        hamiltonian=None,
        jumps=((SIGMA_MINUS, 0.0, (1.0,)), (SIGMA_PLUS, 1.0, (-1.0,))),
    )
    return _check_probe_gap(model, np.array([0.5]))


def is_gad(model):
    """Whether ``model`` is the registered gad model, not a model file that
    takes its name. The name test spares building gad for other models."""
    return model.name == "gad" and model is gad_model()


def _embed(op, site, m):
    mats = [np.eye(2, dtype=complex)] * m
    mats[site] = op
    out = mats[0]
    for a in mats[1:]:
        out = np.kron(out, a)
    return out


@functools.cache
def product_gad_model(m):
    """M independent GAD qubits with theta = (theta_1, ..., theta_M).

    The steady state is the tensor product of diag(theta_i, 1-theta_i). M is
    capped at 3 to keep the dense superoperators small. Built once per M.
    """
    m = int(m)
    if m < 1:
        raise ValueError("need at least one qubit")
    if m > 3:
        raise ValueError(f"M={m} exceeds the dimension cap (M <= 3)")
    jumps = []
    for site, unit in enumerate(np.eye(m)):
        jumps.append((_embed(SIGMA_MINUS, site, m), 0.0, unit))
        jumps.append((_embed(SIGMA_PLUS, site, m), 1.0, -unit))
    model = LindbladModel(
        name=f"product_gad_{m}",
        param_domain=tuple((0.0, 1.0) for _ in range(m)),
        hamiltonian=None,
        jumps=tuple(jumps),
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
        """Apply the pseudoinverse S: solve L y = Q x with tr(y) = 0.

        ``x`` is one operator (d, d) or a stack (..., d, d); a stack is one
        bordered solve with a column per operator.
        """
        x = np.asarray(x, dtype=complex)
        d = self.dim
        if x.shape[-2:] != (d, d) or not np.all(np.isfinite(x)):
            raise ValueError(f"expected finite {d}x{d} operators, got shape {x.shape}")
        vx = np.swapaxes(x, -1, -2).reshape(-1, d * d).T  # vec of each, as columns
        trace = vx[:: d + 1].sum(axis=0)  # the diagonal of each x
        qx = vx - trace * self.rho_ss.reshape(-1, 1, order="F")
        y = _bordered_solve(self.liouvillian, qx, 0.0)
        return np.swapaxes(y.T.reshape(x.shape), -1, -2)


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
    the numeric bundle. ``x`` is one operator or a stack (..., 2, 2).
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (2, 2):
        raise ValueError(f"closed form is for qubits, got shape {x.shape}")
    theta = float(theta)
    rho = np.diag([theta, 1.0 - theta]).astype(complex)
    out = np.trace(x, axis1=-2, axis2=-1)[..., None, None] * rho - x
    out[..., 0, 1] -= x[..., 0, 1]
    out[..., 1, 0] -= x[..., 1, 0]
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
