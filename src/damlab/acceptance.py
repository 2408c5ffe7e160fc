"""Ten-check verification suite behind the ``verify`` command.

Each check reproduces one quantitative claim of the measurement scheme with
pinned tolerances (module constants, deliberately not configurable):

     1  conventional-baseline       projective readout hits sqrt(th(1-th)/N)
     2  steady-state-gap            rho_ss = diag(th, 1-th), gap 1/2
     3  pseudoinverse-closed-form   numeric S against the qubit closed form
     4  pointer-moments             exact pointer mean/variance at T = 200
     5  nonadiabaticity-scaling     Delta(T) halves with T; Delta(1e5) small
     6  heisenberg-scaling          MC error tracks the formula, slope ~ -1
     7  perturbative-kernel         second-order kernel valid at T = 500
     8  qfi-suite                   F formula, channel mixture, output bound
     9  multiparameter              two-qubit error formula and MC
    10  determinism-reduction       M=1 formula reduction, byte-stable CSV

Operating points (theta, sigma, T grids, trial counts) are the defaults of
VerifyParams, pinned like the tolerances; a scenario sets only the seed and
the checks to run. Tests move a point with dataclasses.replace to drive a
check into honest failure. Report CSV metric values are deterministic for a
fixed seed (runtimes are nan there and appear only in JSON/console output).
"""

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .estimation import (
    conventional_povm_error,
    dam_error_formula,
    gad_channel_decomposition_check,
    identity_link,
    mc_dam_error,
    multiparam_error_formula,
    qfi_random_probe_bounds,
    qfi_state,
)
from .models import (
    EXCITED_PROJECTOR,
    dissipation_coefficient,
    gad_model,
    gad_pseudoinverse_closed_form,
    steady_state_bundle,
)
from .pointer import DamRun, default_apparatus, nonadiabaticity, pointer_distribution, sample_pointer
from .rng import Stream
from .scenario import load_scenario
from .sweeps import least_squares_slope, nonadiabaticity_sweep, sweep_csv, write_csv

__all__ = [
    "VerifyParams",
    "Metric",
    "CheckResult",
    "CHECK_NAMES",
    "run_checks",
    "report_rows",
    "write_report",
]

# pinned tolerances; loosening any of these is changing what "verified" means
POVM_REL_TOL = 0.05
POVM_RUNTIME_S = 5.0
RHO_TOL = 1e-12
GAP_TOL = 1e-10
PSEUDOINVERSE_TOL = 1e-9
BRACKET_TOL = 1e-10
POINTER_MEAN_TOL = 2e-3
POINTER_VAR_REL_TOL = 0.10
POINTER_RUNTIME_S = 60.0
HALVING_RANGE = (0.375, 0.625)
DELTA_LONG_LIMIT = 1e-4
SCALING_POINT_REL_TOL = 0.05
DAM_SLOPE_RANGE = (-1.0, -0.93)
POVM_SLOPE_RANGE = (-0.53, -0.47)
PERT_TV_LIMIT = 1e-3
PERT_RATIO_RANGE = (2.0, 8.0)
QFI_TOL = 1e-8
DECOMPOSITION_TOL = 1e-10
MULTI_FORMULA_TOL = 1e-10
MULTI_MC_REL_TOL = 0.07
BIAS_Z_LIMIT = 3.0
REDUCTION_TOL = 0.0

STEADY_THETAS = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class VerifyParams:
    """The suite's operating points, pinned; only the seed follows the scenario."""

    seed: int = 20260817
    theta: float = 0.3
    sigma: float = 0.1
    pointer_t: float = 200.0
    povm_n: int = 10_000
    povm_trials: int = 2000
    pseudo_draws: int = 200
    nonadiabatic_sigma: float = 0.2
    nonadiabatic_ts: tuple = (100.0, 200.0, 400.0)
    nonadiabatic_t_long: float = 1e5
    scaling_theta: float = 0.5
    scaling_sigma: float = 0.18
    scaling_t: float = 2000.0
    scaling_ns: tuple = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    scaling_trials: int = 4000
    pert_t: float = 500.0
    pert_n: float = 5.0
    qfi_thetas: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)
    qfi_ts: tuple = (0.2, 0.5, 1.0, 2.0, 5.0)
    qfi_bound_theta: float = 0.3
    qfi_bound_t: float = 1.0
    qfi_probes: int = 20
    qfi_product_probes: int = 5
    multi_theta: tuple = (0.2, 0.6)
    multi_sigma: float = 0.1
    multi_n: float = 10.0
    multi_t: float = 500.0
    multi_trials: int = 2000


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    threshold: str
    passed: bool
    volatile: bool = False  # runtimes: reported as nan in the CSV


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    metrics: list = field(default_factory=list)
    error: str = ""
    runtime_s: float = float("nan")


def _le(name, value, limit, volatile=False):
    return Metric(name, float(value), f"<= {limit:g}", float(value) <= limit, volatile)


def _in(name, value, rng):
    lo, hi = rng
    return Metric(name, float(value), f"in [{lo:g}, {hi:g}]", lo <= float(value) <= hi)


def _bias_z(theta_hat, theta_true, per_component_error, trials):
    dev = np.abs(np.atleast_1d(theta_hat) - np.atleast_1d(theta_true))
    scale = np.atleast_1d(per_component_error) / math.sqrt(trials)
    return float((dev / scale).max())


def _gad_run(theta, t, n, sigma):
    """The qubit GAD model at theta, read through the excited-state projector."""
    return DamRun(
        model=gad_model(),
        theta=np.array([theta]),
        observable=EXCITED_PROJECTOR,
        t=t,
        n=n,
        apparatus=default_apparatus(sigma),
    )


def _check_conventional_baseline(p):
    rep = conventional_povm_error(p.theta, p.povm_n, p.povm_trials, [p.seed, 1])
    rel = abs(rep.empirical_error / rep.predicted_error - 1.0)
    z = _bias_z(rep.theta_hat, p.theta, rep.empirical_error, p.povm_trials)
    return [
        _le("relative_error_vs_formula", rel, POVM_REL_TOL),
        _le("bias_z_score", z, BIAS_Z_LIMIT),
    ]


def _check_steady_state_gap(p):
    model = gad_model()
    worst_rho = 0.0
    worst_gap = 0.0
    for th in STEADY_THETAS:
        b = steady_state_bundle(model, [th])
        target = np.diag([th, 1.0 - th])
        worst_rho = max(worst_rho, float(np.abs(b.rho_ss - target).max()))
        worst_gap = max(worst_gap, abs(b.gap - 0.5))
    return [
        _le("steady_state_defect", worst_rho, RHO_TOL),
        _le("gap_defect", worst_gap, GAP_TOL),
    ]


def _check_pseudoinverse_closed_form(p):
    model = gad_model()
    bundle = steady_state_bundle(model, [p.theta])
    # per draw a real and an imaginary 2x2 part, in the order of one draw each
    g = Stream([p.seed, 3]).normal((p.pseudo_draws, 2, 2, 2))
    x = g[:, 0] + 1j * g[:, 1]
    worst = float(np.abs(
        bundle.s_apply(x) - gad_pseudoinverse_closed_form(x, p.theta)
    ).max(initial=0.0))
    coeff = dissipation_coefficient(bundle, EXCITED_PROJECTOR)
    bracket = abs(coeff - (-p.theta * (1.0 - p.theta)))
    return [
        _le("pseudoinverse_defect", worst, PSEUDOINVERSE_TOL),
        _le("backaction_defect", bracket, BRACKET_TOL),
    ]


def _check_pointer_moments(p):
    dist = pointer_distribution(_gad_run(p.theta, p.pointer_t, 1.0, p.sigma), "exact")
    var_target = p.sigma**2 + 2.0 * p.theta * (1.0 - p.theta) / p.pointer_t
    return [
        _le("mean_defect", abs(dist.mean - p.theta), POINTER_MEAN_TOL),
        _le(
            "variance_relative_defect",
            abs(dist.variance / var_target - 1.0),
            POINTER_VAR_REL_TOL,
        ),
    ]


def _check_nonadiabaticity_scaling(p):
    def delta(t):
        return nonadiabaticity(_gad_run(p.theta, t, 1.0, p.nonadiabatic_sigma))

    deltas = [delta(t) for t in p.nonadiabatic_ts]
    metrics = []
    for (t0, d0), (t1, d1) in zip(
        zip(p.nonadiabatic_ts, deltas), zip(p.nonadiabatic_ts[1:], deltas[1:])
    ):
        metrics.append(_in(f"halving_ratio_{t0:g}_to_{t1:g}", d1 / d0, HALVING_RANGE))
    metrics.append(
        _le(f"delta_at_{p.nonadiabatic_t_long:g}", delta(p.nonadiabatic_t_long),
            DELTA_LONG_LIMIT)
    )
    return metrics


def _check_heisenberg_scaling(p):
    link = identity_link()
    rels = []
    zs = []
    dam_err = []
    povm_err = []
    for idx, n in enumerate(p.scaling_ns):
        run = _gad_run(p.scaling_theta, p.scaling_t, n, p.scaling_sigma)
        rep = mc_dam_error(run, link, p.scaling_trials, [p.seed, 6, idx])
        rels.append(abs(rep.empirical_error / rep.predicted_error - 1.0))
        zs.append(
            _bias_z(rep.theta_hat, p.scaling_theta, rep.empirical_error, p.scaling_trials)
        )
        dam_err.append(rep.empirical_error)
        povm = conventional_povm_error(
            p.scaling_theta, int(round(n)), p.scaling_trials, [p.seed, 6, idx, 1]
        )
        povm_err.append(povm.empirical_error)
    log_n = np.log(np.asarray(p.scaling_ns, dtype=float))
    dam_slope = least_squares_slope(log_n, np.log(dam_err))
    povm_slope = least_squares_slope(log_n, np.log(povm_err))
    return [
        _le("max_point_deviation", max(rels), SCALING_POINT_REL_TOL),
        _in("dam_slope", dam_slope, DAM_SLOPE_RANGE),
        _in("povm_slope", povm_slope, POVM_SLOPE_RANGE),
        _le("max_bias_z_score", max(zs), BIAS_Z_LIMIT),
    ]


def _tv_distance(p, t):
    run = _gad_run(p.theta, t, p.pert_n, p.sigma)
    exact = pointer_distribution(run, "exact")
    pert = pointer_distribution(run, "perturbative")
    return 0.5 * float(np.abs(exact.density - pert.density).sum() * exact.dq)


def _check_perturbative_kernel(p):
    tv = _tv_distance(p, p.pert_t)
    tv_doubled = _tv_distance(p, 2.0 * p.pert_t)
    return [
        _le("total_variation", tv, PERT_TV_LIMIT),
        _in("doubling_ratio", tv / tv_doubled, PERT_RATIO_RANGE),
    ]


def _check_qfi_suite(p):
    drho = np.diag([1.0, -1.0]).astype(complex)
    worst_f = 0.0
    for th in p.qfi_thetas:
        f = qfi_state(np.diag([th, 1.0 - th]), drho)
        worst_f = max(worst_f, abs(f - 1.0 / (th * (1.0 - th))))
    thetas = np.array(p.qfi_thetas, dtype=float)
    worst_decomp = max(
        (float(gad_channel_decomposition_check(thetas, t).max()) for t in p.qfi_ts),
        default=0.0,
    )

    single, double = qfi_random_probe_bounds(
        p.qfi_bound_theta,
        p.qfi_bound_t,
        [p.seed, 8, 1],
        [p.seed, 8, 2],
        p.qfi_probes,
        p.qfi_product_probes,
    )
    single_margin = max(single.qfi) - single.bound
    double_margin = max(double.qfi) - double.bound
    fd_worst = max(max(single.fd_disagreement), max(double.fd_disagreement))
    return [
        _le("qfi_formula_defect", worst_f, QFI_TOL),
        _le("decomposition_defect", worst_decomp, DECOMPOSITION_TOL),
        _le("bound_margin_single", single_margin, 1e-4),
        _le("bound_margin_product", double_margin, 1e-4),
        _le("fd_disagreement", fd_worst, 1e-5),
    ]


def _check_multiparameter(p):
    link1 = identity_link()
    runs = [_gad_run(th, p.multi_t, p.multi_n, p.multi_sigma) for th in p.multi_theta]
    singles = [dam_error_formula(r, link1) for r in runs]
    link = identity_link(domain=tuple((0.0, 1.0) for _ in runs))
    combined = multiparam_error_formula(runs, link)
    hypot = math.sqrt(sum(s * s for s in singles))
    rep = mc_dam_error(runs, link, p.multi_trials, [p.seed, 9])
    z = _bias_z(rep.theta_hat, np.asarray(p.multi_theta), np.asarray(singles),
                p.multi_trials)
    return [
        _le("formula_vs_hypot", abs(combined - hypot), MULTI_FORMULA_TOL),
        _le(
            "mc_relative_deviation",
            abs(rep.empirical_error / combined - 1.0),
            MULTI_MC_REL_TOL,
        ),
        _le("max_bias_z_score", z, BIAS_Z_LIMIT),
    ]


def _check_determinism_reduction(p):
    run5 = _gad_run(p.theta, p.pointer_t, 5.0, p.sigma)
    link = identity_link()
    single = dam_error_formula(run5, link)
    reduction = abs(single - multiparam_error_formula(run5, link))

    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp) / "sweep.ini"
        scenario_path.write_text(
            f"[model]\nname = gad\ntheta = {p.theta!r}\nobservable = excited\n"
            f"[apparatus]\nsigma = {p.nonadiabatic_sigma!r}\n"
            f"[run]\nt = 50\ntrials = 200\nseed = {p.seed}\n"
            "[sweep]\naxis = T\nvalues = 50, 100\n"
        )
        scn = load_scenario(scenario_path)
        for k in range(3):
            result = nonadiabaticity_sweep(scn)
            path = Path(tmp) / f"sweep_{k}.csv"
            sweep_csv(result, path)
            blobs.append(path.read_bytes())
    stable = blobs[0] == blobs[1] == blobs[2]

    dist = pointer_distribution(_gad_run(p.theta, p.pointer_t, 1.0, p.sigma), "exact")
    s1 = sample_pointer(dist, [p.seed, 10], 5000)
    s2 = sample_pointer(dist, [p.seed, 10], 5000)
    replay = bool(np.array_equal(s1, s2))
    return [
        _le("m1_reduction_defect", reduction, REDUCTION_TOL),
        Metric("sweep_csv_byte_stable", float(stable), "== 1", stable),
        Metric("sampling_replay_identical", float(replay), "== 1", replay),
    ]


# number -> (name, function) of every check
_CHECKS = {
    1: ("conventional-baseline", _check_conventional_baseline),
    2: ("steady-state-gap", _check_steady_state_gap),
    3: ("pseudoinverse-closed-form", _check_pseudoinverse_closed_form),
    4: ("pointer-moments", _check_pointer_moments),
    5: ("nonadiabaticity-scaling", _check_nonadiabaticity_scaling),
    6: ("heisenberg-scaling", _check_heisenberg_scaling),
    7: ("perturbative-kernel", _check_perturbative_kernel),
    8: ("qfi-suite", _check_qfi_suite),
    9: ("multiparameter", _check_multiparameter),
    10: ("determinism-reduction", _check_determinism_reduction),
}
CHECK_NAMES = {num: name for num, (name, _) in _CHECKS.items()}

_RUNTIME_LIMITS = {1: POVM_RUNTIME_S, 4: POINTER_RUNTIME_S}


def run_checks(params, checks=None):
    """Run the selected checks (all by default) and collect their reports."""
    selected = sorted(checks) if checks else sorted(_CHECKS)
    if len(set(selected)) != len(selected):
        raise ValueError(f"repeated check numbers in {list(checks)}")
    results = []
    for num in selected:
        if num not in _CHECKS:
            raise ValueError(f"unknown check number {num}")
        start = time.perf_counter()
        try:
            metrics = _CHECKS[num][1](params)
            error = ""
        except Exception as exc:  # honest failure, not a crash of the suite
            metrics = []
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        limit = _RUNTIME_LIMITS.get(num)
        if limit is not None and not error:
            metrics.append(_le("runtime_s", elapsed, limit, volatile=True))
        passed = not error and all(m.passed for m in metrics)
        results.append(
            CheckResult(
                number=num,
                name=CHECK_NAMES[num],
                passed=passed,
                metrics=metrics,
                error=error,
                runtime_s=elapsed,
            )
        )
    return results


def report_rows(results):
    """Rows for the verify report CSV; volatile metric values become nan."""
    rows = []
    for res in results:
        if res.error:
            rows.append(
                (res.number, res.name, "error", float("nan"),
                 "no exception", "no")
            )
            continue
        for m in res.metrics:
            rows.append(
                (
                    res.number,
                    res.name,
                    m.name,
                    float("nan") if m.volatile else m.value,
                    m.threshold,
                    "yes" if m.passed else "no",
                )
            )
    return rows


def write_report(results, path):
    write_csv(
        path,
        ("check", "name", "metric", "value", "threshold", "passed"),
        report_rows(results),
        comments=("verification report; values are dimensionless",),
    )
