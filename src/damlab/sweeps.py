"""Parameter sweeps over N, T or theta with a shared result table.

Every sweep command emits the same row schema

    series, axis, value, predicted_error, empirical_error,
    ci_lo, ci_hi, delta, mean_shift

so downstream tooling can parse any sweep CSV the same way. Cells that do not
apply to a series hold nan. Per-row runtimes go to the --json report only:
the console summary prints none, and the CSV never holds them, which keeps
reruns of the same scenario byte-identical regardless of machine load.

Series emitted by the error-scaling sweep:

    dam    pointer-measurement error, formula (predicted) and Monte Carlo
           (empirical, with a chi-squared confidence interval);
    povm   projective-readout baseline for the single-qubit thermal model
           under the identity link, sqrt(theta (1-theta) / N);
    ideal  the infinite-time pointer floor sigma ||J||_F / N, formula only.

The non-adiabaticity sweep fills the delta column with the exact kernel
deviation Delta(T) and the predicted column with its leading form
(2 sigma'^2 / T) sqrt(3 (Re c)^2 + (Im c)^2), c = tr(A S(A rho_ss)).
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    _steady_response,
    conventional_povm_error,
    identity_link,
    ideal_error_floor,
    mc_dam_error,
    steady_expectation_link,
)
from .models import STEADY_TOL, dissipation_coefficient, is_gad
from .pointer import nonadiabaticity
from .scenario import scenario_runs

__all__ = [
    "SweepRow",
    "SweepResult",
    "SWEEP_COLUMNS",
    "scenario_link",
    "scaling_sweep",
    "nonadiabaticity_sweep",
    "leading_nonadiabaticity",
    "format_cell",
    "least_squares_slope",
    "write_csv",
]

SWEEP_COLUMNS = (
    "series",
    "axis",
    "value",
    "predicted_error",
    "empirical_error",
    "ci_lo",
    "ci_hi",
    "delta",
    "mean_shift",
)

NAN = float("nan")


def least_squares_slope(x, y):
    """Slope of the least-squares line through (x, y), in closed form."""
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


@dataclass(frozen=True)
class SweepRow:
    series: str
    axis: str
    value: float
    predicted: float = NAN
    empirical: float = NAN
    ci_lo: float = NAN
    ci_hi: float = NAN
    delta: float = NAN
    mean_shift: float = NAN
    runtime_ms: float = NAN  # --json only, never in the CSV

    def cells(self):
        return (
            self.series,
            self.axis,
            self.value,
            self.predicted,
            self.empirical,
            self.ci_lo,
            self.ci_hi,
            self.delta,
            self.mean_shift,
        )


@dataclass
class SweepResult:
    command: str
    axis: str
    scenario_sha256: str
    rows: list = field(default_factory=list)

    def series(self, name):
        return [r for r in self.rows if r.series == name]

    def loglog_slope(self, name, col="empirical"):
        """Least-squares slope of log(col) against log(value) for a series."""
        rows = self.series(name)
        xs = np.array([r.value for r in rows], dtype=float)
        ys = np.array([getattr(r, col) for r in rows], dtype=float)
        keep = np.isfinite(ys) & (ys > 0)
        if keep.sum() < 2:
            raise ValueError(f"series {name!r} has fewer than two positive points")
        return least_squares_slope(np.log(xs[keep]), np.log(ys[keep]))

    def to_jsonable(self):
        return {
            "command": self.command,
            "axis": self.axis,
            "scenario_sha256": self.scenario_sha256,
            "columns": list(SWEEP_COLUMNS),
            "rows": [
                [c if isinstance(c, str) else float(c) for c in r.cells()]
                for r in self.rows
            ],
            "runtime_ms": [float(r.runtime_ms) for r in self.rows],
        }


def format_cell(v):
    """CSV cell: strings pass through, ints stay ints, floats are %.12g."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12g" % float(v)


def write_csv(path, columns, rows, comments=()):
    """Write rows with %.12g floats and LF endings; no timestamps, ever.

    Comment lines go out raw; cells holding a comma are quoted.
    """
    cells = [[format_cell(c) for c in row] for row in rows]
    with open(path, "w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)


def sweep_csv(result, path):
    write_csv(
        path,
        SWEEP_COLUMNS,
        [r.cells() for r in result.rows],
        comments=(
            f"scenario sha256 {result.scenario_sha256}",
            "errors and delta are dimensionless; value is in axis units "
            "(interactions for N, inverse coupling strength for T)",
        ),
    )


def scenario_link(scn):
    """The estimator link declared by a scenario."""
    if scn.link_kind == "identity":
        return identity_link(domain=scn.model.param_domain)
    return steady_expectation_link(scn.model, [a for _, a in scn.observables])


def _check_identity_link(scn, runs):
    """Raise ValueError unless the identity link holds at the runs' theta.

    The identity link reads each expectation tr(A_j rho_ss) as theta_j. So
    tr(A_j rho_ss) must be theta_j and its linear-response Jacobian the
    identity, both to STEADY_TOL, the accuracy of the steady state; both
    come from the steady link's solve, once the first run's bundle has
    refused a steady state that is not unique.
    """
    runs[0].bundle
    theta = runs[0].theta
    f, j = _steady_response(scn.model, [run.observable for run in runs], theta[None])
    value, jac = f[0], j[0]
    off = max(np.abs(value - theta).max(), np.abs(jac - np.eye(len(runs))).max())
    if not off <= STEADY_TOL:
        names = ", ".join(label for label, _ in scn.observables)
        value, jac = ((np.round(x, 6) + 0.0).tolist() for x in (value, jac))
        raise ValueError(
            f"the identity link does not hold for model {scn.model.name!r} read "
            f"through {names}: at theta = {theta.tolist()} the steady "
            f"expectations are {value} with Jacobian {jac}, not theta and the "
            f"identity; set [run] link = steady"
        )


def _is_integral(v):
    return abs(v - round(v)) < 1e-9


def scaling_sweep(scn):
    """Estimation error against N, T or theta: formula, Monte Carlo, baselines.

    Each sweep point runs ``scn.trials`` Monte Carlo trials seeded from the
    scenario seed and the point index, so the full table is reproducible from
    the scenario file alone. On a T sweep with ``n_over_t`` set, N follows the
    axis as N = n_over_t * T.
    """
    axis = scn.sweep_axis
    if axis is None:
        raise ValueError("scenario has no [sweep] section")
    if axis == "theta" and scn.model.param_dim != 1:
        raise ValueError("theta sweeps are single-parameter only")
    link = scenario_link(scn)
    want_povm = is_gad(scn.model) and scn.link_kind == "identity"
    result = SweepResult(command="scaling", axis=axis, scenario_sha256=scn.sha256)
    # the identity link holds or not per theta, which only a theta sweep moves
    checked = set()

    for idx, value in enumerate(scn.sweep_values):
        t, n, theta = scn.t, scn.n, scn.theta
        if axis == "N":
            n = float(value)
        elif axis == "T":
            t = float(value)
            if scn.n_over_t is not None:
                n = scn.n_over_t * t
        else:
            theta = np.array([float(value)])
        if n < 1:
            raise ValueError(f"sweep point {value}: N = {n} below 1")

        start = time.perf_counter()
        runs = scenario_runs(scn, t=t, n=n, theta=theta)
        key = runs[0].theta.tobytes()
        if scn.link_kind == "identity" and key not in checked:
            _check_identity_link(scn, runs)
            checked.add(key)
        report = mc_dam_error(runs, link, scn.trials, [scn.seed, idx])
        elapsed = (time.perf_counter() - start) * 1e3
        shifts = report.notes.get("mean_shift", [NAN])
        result.rows.append(
            SweepRow(
                series="dam",
                axis=axis,
                value=float(value),
                predicted=report.predicted_error,
                empirical=report.empirical_error,
                ci_lo=report.ci[0],
                ci_hi=report.ci[1],
                mean_shift=float(np.max(np.abs(shifts))),
                runtime_ms=elapsed,
            )
        )

        floor = ideal_error_floor(runs, link)
        result.rows.append(
            SweepRow(series="ideal", axis=axis, value=float(value), predicted=floor)
        )

        if want_povm and _is_integral(n):
            start = time.perf_counter()
            povm = conventional_povm_error(
                theta[0], int(round(n)), scn.trials, [scn.seed, idx, 1]
            )
            elapsed = (time.perf_counter() - start) * 1e3
            result.rows.append(
                SweepRow(
                    series="povm",
                    axis=axis,
                    value=float(value),
                    predicted=povm.predicted_error,
                    empirical=povm.empirical_error,
                    ci_lo=povm.ci[0],
                    ci_hi=povm.ci[1],
                    runtime_ms=elapsed,
                )
            )
    return result


def leading_nonadiabaticity(run):
    """Leading Delta at N = 1: (2 sigma'^2 / T) sqrt(3 (Re c)^2 + (Im c)^2)."""
    coeff = dissipation_coefficient(run.bundle, run.observable)
    return float(
        2.0
        * run.apparatus.sigma_p**2
        / run.t
        * math.sqrt(3.0 * coeff.real**2 + coeff.imag**2)
    )


def nonadiabaticity_sweep(scn):
    """Exact kernel deviation Delta(T) against its leading 1/T form.

    Runs at N = 1 (where Delta is defined) for the first scenario observable;
    the axis must be T.
    """
    if scn.sweep_axis != "T":
        raise ValueError("non-adiabaticity sweeps run over the T axis")
    if scn.model.param_dim != 1:
        raise ValueError("non-adiabaticity sweeps are single-parameter only")
    result = SweepResult(
        command="nonadiabaticity", axis="T", scenario_sha256=scn.sha256
    )
    for value in scn.sweep_values:
        start = time.perf_counter()
        run = scenario_runs(scn, t=float(value), n=1.0)[0]
        delta = nonadiabaticity(run)
        elapsed = (time.perf_counter() - start) * 1e3
        result.rows.append(
            SweepRow(
                series="delta",
                axis="T",
                value=float(value),
                predicted=leading_nonadiabaticity(run),
                delta=delta,
                runtime_ms=elapsed,
            )
        )
    return result
