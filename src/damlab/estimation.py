"""Estimators, error formulas, the projective baseline and QFI checks.

The estimator reads the pointer as theta_hat = f^{-1}(q / N), where f maps
parameters to steady-state expectation values of the coupled observables.
Predicted errors come from the pointer variance at finite coupling time; the
multi-parameter error measure is the root of the summed componentwise mean
squared deviations.
"""

import functools
import math
import warnings
from dataclasses import InitVar, dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._kernels_py import expm_batch
from .models import STEADY_TOL, _bordered_solve, _steady_gaps
from .models import gad_model, product_gad_model
from .operators import devectorize, is_density_matrix, is_hermitian, vectorize
from .pointer import DamRun, pointer_distribution, sample_pointer, variance_closed_form
from .rng import Stream, seed_words

__all__ = [
    "LinkFunction",
    "Estimate",
    "EstimationReport",
    "identity_link",
    "steady_expectation_link",
    "dam_estimate",
    "dam_error_formula",
    "multiparam_error_formula",
    "ideal_error_floor",
    "mc_dam_error",
    "conventional_povm_error",
    "qfi_state",
    "cramer_rao_bound",
    "gad_channel_decomposition_check",
    "qfi_output_bound_check",
    "qfi_random_probe_bounds",
    "BoundCheckReport",
]

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class LinkFunction:
    """Invertible map between parameters and observable expectations.

    forward: theta (..., m) -> expectations (..., m). inverse maps an (n, m)
    block of expectation rows to the (n, m) block of parameters in
    ``domain``, the per-axis (lo, hi) box of estimates, where a reading
    outside the image lands on a face. jacobian_inverse(theta) is the
    (m, m) Jacobian of the inverse map at f(theta).
    """

    m: int
    forward: Callable
    inverse: Callable
    jacobian_inverse: Callable
    domain: tuple
    # accepted and dropped: perfbench/tracer.py still passes it to
    # dataclasses.replace when it wraps a link
    inverse_batch: InitVar[Callable] = None


def identity_link(domain=((0.0, 1.0),)):
    """Link for models whose expectations equal the parameters themselves."""
    domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    m = len(domain)
    lo, hi = np.array(domain).T

    return LinkFunction(
        m=m,
        forward=lambda th: np.atleast_1d(np.asarray(th, dtype=float)).copy(),
        inverse=lambda rows: np.clip(np.asarray(rows, dtype=float), lo, hi),
        jacobian_inverse=lambda theta: np.eye(m),
        domain=domain,
    )


NEWTON_MAX_STEPS = 60
NEWTON_RTOL = 1e-13
# the steady link's seeds: round(LINK_SEEDS^(1/M)) thetas per axis, evenly on
# the domain shrunk by LINK_MARGIN_REL of its width at each end
LINK_SEEDS = 401
LINK_MARGIN_REL = 1e-6


def _steady_response(model, observables, thetas):
    """f (n, M) and J (n, M, M) of f_j = tr(A_j rho_ss) at thetas (n, M).

    rho_ss is the models' bordered solve with trace 1, batched over thetas;
    J_jk = df_j / dtheta_k is its linear response, the same solve with the
    right-hand sides -L_k rho_ss, L_k = dL / dtheta_k, and trace 0.
    """
    lmats = model.assemble(model.rates(thetas))
    a_rows = np.stack([vectorize(aj.T) for aj in observables], axis=1)
    rho = _bordered_solve(lmats, np.zeros(lmats.shape[:2] + (1,)), 1.0)
    rhs = -np.concatenate([lk @ rho for lk in model.liouvillian_derivatives()], axis=-1)
    jac = (np.swapaxes(_bordered_solve(lmats, rhs, 0.0), 1, 2) @ a_rows).real
    return (rho[..., 0] @ a_rows).real, np.swapaxes(jac, 1, 2)


def steady_expectation_link(model, observables):
    """Exact link theta -> f_j = tr(A_j rho_ss(theta)), one A_j per parameter.

    f and its Jacobian J come from ``_steady_response``. The seeds
    pass the models' zero-mode/gap rule, and det J must keep one sign, clear
    of rounding, over them, else the observables cannot identify theta. A
    reading starts at the seed nearest in f, takes a linearized step on its
    J, then Newton steps clipped to the shrunk box until |f - a| <=
    NEWTON_RTOL max_j ||A_j||, or RuntimeError after NEWTON_MAX_STEPS. One
    pushed out through a face twice running, the second time by no less than
    the first, is outside the image and stays on the face.
    """
    m = model.param_dim
    a = np.asarray(observables, dtype=complex)
    if a.ndim != 3 or len(a) != m:
        raise ValueError(f"model {model.name!r} needs {m} observables, one each")
    for j, aj in enumerate(a):
        if not is_hermitian(aj):
            raise ValueError(f"observable {j} of the link on model {model.name!r} "
                             f"must be Hermitian")
    dom_lo, dom_hi = np.array(model.param_domain).T
    margin = LINK_MARGIN_REL * (dom_hi - dom_lo)
    lo, hi = dom_lo + margin, dom_hi - margin
    # max_j ||A_j||, the largest |eigenvalue|, bounds every |f_j|
    tol = NEWTON_RTOL * float(np.abs(np.linalg.eigvalsh(a)).max())

    axes = [np.linspace(l, h, round(LINK_SEEDS ** (1 / m))) for l, h in zip(lo, hi)]
    seeds = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    _steady_gaps(model.assemble(model.rates(seeds)), model.name, seeds)
    f_seed, j_seed = _steady_response(model, a, seeds)
    # det J within STEADY_TOL of its Hadamard bound, the product of the row
    # norms, is a rounded zero
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(j_seed) / np.linalg.norm(j_seed, axis=-1).prod(axis=-1)
    if not (np.all(det > STEADY_TOL) or np.all(det < -STEADY_TOL)):
        raise ValueError(
            f"the observables cannot identify theta of model {model.name!r}: "
            f"det J of the link vanishes or changes sign (non-identifiable)"
        )
    jinv_seed = np.linalg.inv(j_seed)

    def forward(th):
        th = np.asarray(th, dtype=float)
        if np.any((th <= dom_lo) | (th >= dom_hi)):
            raise ValueError(f"theta {th.tolist()} outside {model.name!r}'s domain")
        return _steady_response(model, a, th.reshape(-1, m))[0].reshape(th.shape)

    def inverse(rows):
        y = np.asarray(rows, dtype=float).reshape(-1, m)
        # 64 readings at a time bound the distance array
        near = np.concatenate([
            np.argmin(((y[s:s + 64, None] - f_seed) ** 2).sum(-1), axis=1)
            for s in range(0, len(y), 64)
        ])
        step = seeds[near] + (jinv_seed[near] @ (y - f_seed[near])[..., None])[..., 0]
        th = np.clip(step, lo, hi)
        # how far each coordinate was pushed back into the box: > 0 from
        # below, < 0 from above
        push = th - step
        todo = np.arange(len(y))
        for _ in range(NEWTON_MAX_STEPS + 1):
            f, jac = _steady_response(model, a, th[todo])
            r = f - y[todo]
            done = np.abs(r).max(axis=1) <= tol
            step = th[todo] - np.linalg.solve(jac, r[..., None])[..., 0]
            # converged readings keep the Newton step from their last residual
            th[todo] = np.clip(step, lo, hi)
            pushed, last = th[todo] - step, push[todo]
            # an in-image reading overshoots a face by less at every step
            out = np.any((pushed * last > 0) & (np.abs(pushed) >= np.abs(last)), axis=1)
            push[todo] = pushed
            todo = todo[~(done | out)]
            if todo.size == 0:
                return th
        raise RuntimeError(
            f"steady link: Newton did not converge for {todo.size} of {len(y)} "
            f"readings in {NEWTON_MAX_STEPS} steps (worst residual "
            f"{np.abs(r).max():.3g}, tolerance {tol:.3g})"
        )

    def jacobian_inverse(theta):
        return np.linalg.inv(_steady_response(model, a, np.reshape(theta, (1, m)))[1][0])

    return LinkFunction(
        m=m,
        forward=forward,
        inverse=inverse,
        jacobian_inverse=jacobian_inverse,
        domain=tuple(zip(lo.tolist(), hi.tolist())),
    )


class Estimate(NamedTuple):
    theta: object
    clamped: bool


def dam_estimate(q, n, link):
    """theta_hat = inverse(q / N), clamped when on a face of the link's domain.

    ``q`` may be a scalar (m=1) or a length-m vector of pointer readings.
    Returns an Estimate(theta, clamped) pair.
    """
    q_in = np.asarray(q, dtype=float)
    if q_in.size != link.m:
        raise ValueError(f"expected {link.m} readings, got {q_in.size}")
    thetas, clamp_mask = _estimate_batch(q_in.reshape(1, -1), n, link)
    theta = float(thetas[0, 0]) if q_in.ndim == 0 else thetas[0]
    return Estimate(theta=theta, clamped=bool(clamp_mask[0]))


def _estimate_batch(qs, n, link):
    """dam_estimate over an (n_trials, m) block of readings: every row's
    inverse, and the mask of rows on a face of the link's domain."""
    a = np.asarray(qs, dtype=float) / float(n)
    thetas = np.asarray(link.inverse(a), dtype=float).reshape(a.shape)
    lo, hi = np.array(link.domain).T
    return thetas, np.any((thetas <= lo) | (thetas >= hi), axis=1)


def _shared_runs(runs, link):
    """One run or a list of runs, one per link parameter, as a list; the runs
    must share N, T and sigma."""
    runs = [runs] if isinstance(runs, DamRun) else list(runs)
    if link.m != len(runs):
        raise ValueError(f"link expects {link.m} runs, got {len(runs)}")
    if len({(r.n, r.t, r.apparatus.sigma) for r in runs}) > 1:
        raise ValueError("runs must share N, T and sigma")
    return runs


def _link_theta(runs, m):
    """The theta that M runs estimate: run j gives component j, its one
    parameter or entry j of the M parameters that all runs share."""
    if any(r.theta.size not in (1, m) for r in runs):
        raise ValueError(f"each run must carry 1 or {m} parameters")
    return np.array([r.theta[j if r.theta.size > 1 else 0] for j, r in enumerate(runs)])


def _jacobian_inverse(runs, link):
    """The link's inverse Jacobian at the runs' theta."""
    jinv = np.asarray(link.jacobian_inverse(_link_theta(runs, link.m)), dtype=float)
    if jinv.shape != (link.m, link.m) or not np.all(np.isfinite(jinv)):
        raise ValueError("singular link Jacobian")
    return jinv


def multiparam_error_formula(runs, link):
    """Predicted error for M jointly estimated parameters, one run each.

    (1/N) sqrt( sum_ij J_ij^2 [sigma^2 - (2N/T) Re c_j + (N Im c_j/(T sigma))^2] )
    with J the Jacobian of the inverse link at the operating point and
    c_j = tr(A_j S(A_j rho)). Reduces to the single-parameter formula at M=1.
    """
    runs = _shared_runs(runs, link)
    return _error_formula(runs, _jacobian_inverse(runs, link))


def _error_formula(runs, jinv):
    total = 0.0
    for j, run in enumerate(runs):
        total += float(np.sum(jinv[:, j] ** 2)) * variance_closed_form(run)
    return float(np.sqrt(total) / runs[0].n)


def dam_error_formula(run, link):
    """Predicted single-parameter error, sqrt(Var q) / (N |df/dtheta|)."""
    runs = _shared_runs(run, link)
    jinv = _jacobian_inverse(runs, link)
    error = _error_formula(runs, jinv)
    if np.abs(jinv).max() > 1e12:
        raise ValueError("non-identifiable at theta: link derivative vanishes")
    return error


def ideal_error_floor(runs, link):
    """The infinite-time pointer floor sigma ||J||_F / N of one run per link
    parameter, J the Jacobian of the inverse link."""
    runs = _shared_runs(runs, link)
    jinv = _jacobian_inverse(runs, link)
    return float(runs[0].apparatus.sigma * np.sqrt((jinv**2).sum()) / runs[0].n)


@dataclass(frozen=True)
class EstimationReport:
    """Monte Carlo estimation summary with its formula prediction."""

    theta_hat: np.ndarray
    predicted_error: float
    empirical_error: float
    ci: tuple
    trials: int
    notes: dict


CHI2_MAX_STEPS = 40
CHI2_STEP_TOL = 1e-11
CHI2_CI_ALPHA = 0.05  # two-sided: a 95 % confidence interval

# B_2k / (2k (2k - 1)), k = 1..7: lgamma(a + 1) = (a + 1/2) log a - a
# + log(2 pi) / 2 + sum_k c_k a^(1 - 2k); the first omitted term is below
# 3e-17 for a >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _gamma_prefactor(a, x):
    """x^a e^-x / Gamma(a + 1), to a few ulp also for large a."""
    if a < 10.0:
        return math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
    # a log(x / a) - (x - a) = -a (u - log1p u), u = (x - a) / a; the terms
    # of a log x - x - lgamma(a + 1) would cancel to about a log a ulp, while
    # the rounding of log1p, about |x - a| ulp, is large only in the tails,
    # where P depends least on x
    u = (x - a) / a
    corr = 0.0
    for c in reversed(_STIRLING):
        corr = corr / (a * a) + c
    return math.exp(-a * (u - math.log1p(u)) - corr / a) / math.sqrt(2.0 * math.pi * a)


def _gamma_lower_series(a, x):
    """P(a, x) / prefactor = sum_n x^n / ((a + 1) ... (a + n)), for x < a + 1."""
    term = total = 1.0
    n = 1.0
    while term > 1e-17 * total:
        term *= x / (a + n)
        total += term
        n += 1.0
    return total


def _gamma_upper_fraction(a, x):
    """Q(a, x) / (a prefactor) by the Lentz continued fraction, for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = h = 1.0 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 3e-16:
            return h


@functools.cache
def _chi2_ppf(q, dof):
    """Quantile of the chi-squared law, x = 2 P^{-1}(dof / 2, q).

    Newton steps in log x on the regularized incomplete gamma function P, or
    on Q = 1 - P when q > 1/2 (1 - q is exact there), from a Wilson-Hilferty
    start. P comes from its series below x = a + 1 and Q from its continued
    fraction above. For dof >= 1 the result is within 5e-15 relative of the
    exact quantile. Raises ValueError unless 0 < q < 1 and dof is finite and
    positive, and RuntimeError when the steps do not settle within
    CHI2_MAX_STEPS. Results are cached: a Monte Carlo sweep asks for the
    same few quantiles at every point.
    """
    q = float(q)
    dof = float(dof)
    if not (0.0 < q < 1.0 and math.isfinite(dof) and dof > 0.0):
        raise ValueError(
            f"chi-squared quantile needs 0 < q < 1 and a finite dof > 0, "
            f"got q={q!r}, dof={dof!r}"
        )
    a = 0.5 * dof
    upper = q > 0.5
    qc = 1.0 - q
    if a > 1.0:
        # normal quantile of min(q, 1 - q) by Abramowitz-Stegun 26.2.22
        t = math.sqrt(-2.0 * math.log(qc if upper else q))
        z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
        z = z if upper else -z
        x = max(1e-3 * a, a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))) ** 3)
    else:
        # P is close to x^a / Gamma(a + 1) low and to 1 - e^-x high
        t = 1.0 - a * (0.253 + 0.12 * a)
        x = (q / t) ** (1.0 / a) if q < t else 1.0 - math.log(qc / (1.0 - t))
    for _ in range(CHI2_MAX_STEPS):
        pre = _gamma_prefactor(a, x)
        if x < a + 1.0:
            r = pre * _gamma_lower_series(a, x) - q
        else:
            upper_q = a * pre * _gamma_upper_fraction(a, x)
            r = qc - upper_q if upper else (1.0 - upper_q) - q
        # r / (dP / d log x); a step changes x by at most a factor e, also
        # where the density underflows
        r = max(-1.0, min(1.0, r / (a * pre))) if pre > 0.0 else math.copysign(1.0, r)
        x *= math.exp(-r)
        if abs(r) <= CHI2_STEP_TOL:
            return 2.0 * x
    raise RuntimeError(
        f"chi-squared quantile did not converge in {CHI2_MAX_STEPS} steps "
        f"(q={q!r}, dof={dof!r})"
    )


def _chi2_ci(err, dof):
    lo = err * np.sqrt(dof / _chi2_ppf(1.0 - CHI2_CI_ALPHA / 2.0, dof))
    hi = err * np.sqrt(dof / _chi2_ppf(CHI2_CI_ALPHA / 2.0, dof))
    return (float(lo), float(hi))


def mc_dam_error(runs, link, trials, seed):
    """Monte Carlo error of the pointer estimator against the formula.

    ``runs`` is one DamRun or a list of runs, one per link parameter, each
    with its own pointer and all sharing N, T and apparatus. Readings are
    sampled from the exact pointer distributions, observable j's from the
    stream keyed by ``seed``'s words and j; runs with more than 1% clamped
    readings are rejected instead of silently biasing the estimate.
    """
    trials = int(trials)
    if trials < 100:
        raise ValueError("need at least 100 trials")
    runs = _shared_runs(runs, link)
    theta_true = _link_theta(runs, link.m)
    dists = [pointer_distribution(r, "exact") for r in runs]
    words = seed_words(seed)
    qs = np.column_stack(
        [sample_pointer(d, words + [j], trials) for j, d in enumerate(dists)]
    )
    thetas, clamp_mask = _estimate_batch(qs, runs[0].n, link)
    clamp_fraction = float(clamp_mask.mean())
    if clamp_fraction > 0.01:
        raise ValueError(
            f"{clamp_fraction:.2%} of trials clamped to a face of the link domain "
            f"(limit 1%)"
        )
    dev2 = ((thetas - theta_true) ** 2).sum(axis=1)
    empirical = float(np.sqrt(dev2.mean()))
    predicted = multiparam_error_formula(runs, link)
    return EstimationReport(
        theta_hat=thetas.mean(axis=0),
        predicted_error=predicted,
        empirical_error=empirical,
        ci=_chi2_ci(empirical, trials * link.m),
        trials=trials,
        notes={
            "clamp_fraction": clamp_fraction,
            "mean_shift": [float(d.mean - r.n * r.bundle.expectation(r.observable))
                           for d, r in zip(dists, runs)],
        },
    )


def conventional_povm_error(theta, n, trials, seed):
    """Projective-measurement baseline: N Bernoulli(theta) outcomes per trial.

    theta_hat is the frequency of excited outcomes; the predicted error is
    sqrt(theta (1 - theta) / N).
    """
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    n = int(n)
    if n < 1:
        raise ValueError("N must be a positive integer")
    trials = int(trials)
    hats = Stream(seed).binomial(n, theta, trials) / n
    predicted = float(np.sqrt(theta * (1.0 - theta) / n))
    empirical = float(np.sqrt(((hats - theta) ** 2).mean()))
    return EstimationReport(
        theta_hat=np.array([float(hats.mean())]),
        predicted_error=predicted,
        empirical_error=empirical,
        ci=_chi2_ci(empirical, trials),
        trials=trials,
        notes={"clamp_fraction": 0.0},
    )


QFI_EIGEN_TOL = 1e-12
QFI_BOUND_SLACK = 1e-4


def qfi_state(rho, drho):
    """Quantum Fisher information of a state via the SLD eigenbasis sum.

    F = 2 sum_{ij} |<i|drho|j>|^2 / (l_i + l_j) over eigenpairs of rho with
    l_i + l_j > QFI_EIGEN_TOL; dropped terms carrying weight above 1e-6
    trigger a rank-deficiency warning.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if not is_hermitian(rho, 1e-9) or not is_hermitian(drho, 1e-9):
        raise ValueError("rho and drho must be Hermitian")
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    melem2 = np.abs(evecs.conj().T @ drho @ evecs) ** 2
    denom = evals[:, None] + evals[None, :]
    mask = denom > QFI_EIGEN_TOL
    dropped = float(melem2[~mask].sum())
    if dropped > 1e-6:
        warnings.warn(
            f"rank-deficient state: dropped QFI weight {dropped:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(2.0 * (melem2[mask] / denom[mask]).sum())


def cramer_rao_bound(f):
    """Estimation error lower bound 1 / sqrt(F)."""
    f = float(f)
    if f <= 0:
        raise ValueError("Fisher information must be positive")
    return 1.0 / np.sqrt(f)


def _bloch_affine_channel(diag3, offset3):
    """Qubit superoperator from an affine Bloch action r -> D r + b."""
    d3 = np.asarray(diag3, dtype=float)
    b3 = np.asarray(offset3, dtype=float)
    cols = []
    for j in range(2):
        for i in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            r = np.array([s[j, i] for s in PAULI])
            out = 0.5 * float(i == j) * (np.eye(2, dtype=complex)
                                         + sum(b * s for b, s in zip(b3, PAULI)))
            out = out + 0.5 * sum(dr * s for dr, s in zip(d3 * r, PAULI))
            cols.append(vectorize(out))
    return np.stack(cols, axis=1)


def amplitude_damping_pair(t):
    """Channels relaxing toward |0><0| and |1><1| after time t, from their
    Bloch actions r_xy -> exp(-t/2) r_xy, r_z -> +-(1 - exp(-t)) + exp(-t) r_z."""
    t = float(t)
    shrink = np.array([np.exp(-t / 2.0), np.exp(-t / 2.0), np.exp(-t)])
    kick = 1.0 - np.exp(-t)
    lam0 = _bloch_affine_channel(shrink, [0.0, 0.0, kick])
    lam1 = _bloch_affine_channel(shrink, [0.0, 0.0, -kick])
    return lam0, lam1


def _channels(liouvillians, t):
    """exp(L t) for a stack of Liouvillians, by the batched Pade-13 kernel.

    Raises OverflowError when an entry of the result is not finite.
    """
    t = float(t)
    if t < 0:
        raise ValueError(f"negative evolution time {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm_batch(np.asarray(liouvillians) * t)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"channel exponential overflowed (t={t})")
    return out


def gad_channel_decomposition_check(theta, t):
    """Max-entry defect of exp(L_theta t) = theta Lam0(t) + (1-theta) Lam1(t).

    Lam0/Lam1 are built independently from their Bloch actions, so the check
    exercises both constructions. ``theta`` is one value, with a float
    result, or an array of them, with one defect each from one batched
    exponential.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 < theta) & (theta < 1.0)):
        raise ValueError("theta must lie in (0, 1)")
    model = gad_model()
    lam_theta = _channels(model.assemble(model.rates(theta.reshape(-1, 1))), t)
    lam0, lam1 = amplitude_damping_pair(t)
    th = theta.reshape(-1, 1, 1)
    defect = np.abs(lam_theta - th * lam0 - (1.0 - th) * lam1).max(axis=(1, 2))
    return float(defect[0]) if theta.ndim == 0 else defect.reshape(theta.shape)


@dataclass(frozen=True)
class BoundCheckReport:
    """Per-probe QFI values against the channel-output bound."""

    bound: float
    qfi: tuple
    fd_disagreement: tuple
    flagged: tuple
    passed: bool


def qfi_output_bound_check(theta, t, probes, copies=1):
    """Check F[channel output] <= copies / (theta (1-theta)) + QFI_BOUND_SLACK
    for each probe.

    The output-state derivative in theta uses central differences (step
    1e-5) with one Richardson refinement; probes whose two difference
    stencils disagree by more than 1e-5 are flagged.
    """
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if copies not in (1, 2):
        raise ValueError("copies must be 1 or 2")
    # product_gad_model(1) has gad's Liouvillians bit for bit, but gad's
    # are already assembled for the suite
    model = gad_model() if copies == 1 else product_gad_model(2)

    h = 1e-5
    offsets = (0.0, h, -h, h / 2, -h / 2)
    lmats = [model.liouvillian([theta + dt] * copies) for dt in offsets]
    chan = dict(zip(offsets, _channels(lmats, t)))
    bound = copies / (theta * (1.0 - theta))
    qfis = []
    gaps = []
    flags = []
    for probe in probes:
        probe = np.asarray(probe, dtype=complex)
        if not is_density_matrix(probe, 1e-8):
            raise ValueError("probes must be density matrices")
        v = vectorize(probe)
        rho_out = devectorize(chan[0.0] @ v)
        d1 = devectorize((chan[h] - chan[-h]) @ v) / (2.0 * h)
        d2 = devectorize((chan[h / 2] - chan[-h / 2]) @ v) / h
        gap = float(np.abs(d2 - d1).max())
        drho = (4.0 * d2 - d1) / 3.0
        drho = (drho + drho.conj().T) / 2.0
        qfis.append(qfi_state(rho_out, drho))
        gaps.append(gap)
        flags.append(gap > 1e-5)
    passed = all(f <= bound + QFI_BOUND_SLACK for f in qfis)
    return BoundCheckReport(
        bound=float(bound),
        qfi=tuple(qfis),
        fd_disagreement=tuple(gaps),
        flagged=tuple(flags),
        passed=passed,
    )


def _random_qubit_states(seed, count):
    # G G^dagger / tr, G with standard normal real and imaginary parts
    g = Stream(seed).normal((count, 2, 2, 2))
    g = g[:, 0] + 1j * g[:, 1]
    rho = g @ np.swapaxes(g, 1, 2).conj()
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def qfi_random_probe_bounds(theta, t, single_seed, pair_seed, singles, pairs):
    """qfi_output_bound_check on random probes: ``singles`` one-qubit states
    drawn from ``single_seed`` (copies 1) and ``pairs`` products of two drawn
    from ``pair_seed`` (copies 2); the seeds are seed words. Returns the two
    reports."""
    single = qfi_output_bound_check(
        theta, t, _random_qubit_states(single_seed, singles), copies=1
    )
    pair = _random_qubit_states(pair_seed, 2 * pairs).reshape(pairs, 2, 2, 2)
    products = np.einsum("nij,nkl->nikjl", pair[:, 0], pair[:, 1]).reshape(pairs, 4, 4)
    double = qfi_output_bound_check(theta, t, products, copies=2)
    return single, double
