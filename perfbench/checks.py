"""Output checks for the benchmark workloads, computed apart from damlab.

Nothing here imports damlab. The scaling checks compare the program's CSV
against closed forms (independent thermal qubits) or against a small
steady-state solver written below from the model file's matrices and rates.
The Monte Carlo error must lie within five standard errors of the predicted
error, where the standard error of a root-mean-square estimate over
``trials`` independent readings is 1 / sqrt(2 trials) of its value.
"""

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

FORMULA_RTOL = 1e-6
MC_SIGMAS = 5.0
VERIFY_CHECKS = 10


def read_sweep(path):
    """Rows of a sweep CSV as dicts of floats (series kept as a string)."""
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    out = []
    for row in rows:
        out.append({k: (v if k in ("series", "axis") else float(v)) for k, v in row.items()})
    return out


def _close(got, want):
    return math.isfinite(got) and abs(got - want) <= FORMULA_RTOL * abs(want)


def _mc_ok(empirical, predicted, trials):
    return math.isfinite(empirical) and abs(empirical / predicted - 1.0) <= (
        MC_SIGMAS / math.sqrt(2.0 * trials)
    )


def check_scaling(rows, expected, trials):
    """Failures (strings) of a scaling table against ``expected``.

    ``expected`` maps each sweep value N to (predicted error, ideal floor).
    """
    problems = []
    dam = {r["value"]: r for r in rows if r["series"] == "dam"}
    ideal = {r["value"]: r for r in rows if r["series"] == "ideal"}
    if sorted(dam) != sorted(expected) or sorted(ideal) != sorted(expected):
        return [f"sweep values {sorted(dam)} != {sorted(expected)}"]
    for n, (predicted, floor) in expected.items():
        row = dam[n]
        if not _close(row["predicted_error"], predicted):
            problems.append(f"N={n:g}: predicted {row['predicted_error']!r} != {predicted!r}")
        if not _close(ideal[n]["predicted_error"], floor):
            problems.append(f"N={n:g}: floor {ideal[n]['predicted_error']!r} != {floor!r}")
        if not _mc_ok(row["empirical_error"], predicted, trials):
            problems.append(
                f"N={n:g}: empirical {row['empirical_error']!r} not within "
                f"{MC_SIGMAS:g} standard errors of {predicted!r}"
            )
    return problems


def product_expected(thetas, sigma, t, ns):
    """Closed forms for independent thermal qubits under the identity link.

    Predicted error (1/N) sqrt(sum_j [sigma^2 + 2 N theta_j (1 - theta_j) / T]);
    ideal floor sigma sqrt(M) / N.
    """
    m = len(thetas)
    out = {}
    for n in ns:
        total = sum(sigma**2 + 2.0 * n * th * (1.0 - th) / t for th in thetas)
        out[float(n)] = (math.sqrt(total) / n, sigma * math.sqrt(m) / n)
    return out


# ---------------------------------------------------------- driven qubit


def _cmatrix(raw):
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _liouvillian(h, jumps):
    """Row-major vec convention: vec(A X B) = kron(A, B.T) vec(X)."""
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in jumps:
        ll = op.conj().T @ op
        out += rate * (
            np.kron(op, op.conj()) - 0.5 * np.kron(ll, eye) - 0.5 * np.kron(eye, ll.T)
        )
    return out


def _bordered_solve(lmat, rhs, d):
    """X with L vec(X) = rhs and tr X = 0, by least squares on [L; tr]."""
    trace_row = np.eye(d).reshape(1, -1)
    a = np.vstack([lmat, trace_row])
    b = np.concatenate([rhs, [0.0]])
    return np.linalg.lstsq(a, b, rcond=None)[0]


class DrivenQubit:
    """Steady state of a JSON model with rates affine in one parameter."""

    def __init__(self, model_path, observable):
        doc = json.loads(Path(model_path).read_text())
        self.d = int(doc["dim"])
        h = _cmatrix(doc["hamiltonian"])
        ops = [_cmatrix(j["matrix"]) for j in doc["jumps"]]
        const = [float(j["rate"]["const"]) for j in doc["jumps"]]
        slope = [float(j["rate"]["slope_per_param"][0]) for j in doc["jumps"]]
        self.l0 = _liouvillian(h, list(zip(ops, const)))
        self.l1 = _liouvillian(0.0 * h, list(zip(ops, slope)))
        self.a = _cmatrix(doc["observables"][observable])

    def _steady(self, theta):
        lmat = self.l0 + theta * self.l1
        d = self.d
        trace_row = np.eye(d).reshape(1, -1)
        a = np.vstack([lmat, trace_row])
        b = np.zeros(d * d + 1, dtype=complex)
        b[-1] = 1.0
        rho = np.linalg.lstsq(a, b, rcond=None)[0]
        return lmat, rho

    def response(self, theta):
        """<A>, d<A>/dtheta by linear response, and c = tr(A S(A rho))."""
        d = self.d
        lmat, rho = self._steady(theta)
        rho_m = rho.reshape(d, d)
        mean = np.trace(self.a @ rho_m).real
        drho = _bordered_solve(lmat, -(self.l1 @ rho), d).reshape(d, d)
        slope = np.trace(self.a @ drho).real
        x = self.a @ rho_m
        qx = x - np.trace(x) * rho_m
        sx = _bordered_solve(lmat, qx.reshape(-1), d).reshape(d, d)
        coeff = complex(np.trace(self.a @ sx))
        return float(mean), float(slope), coeff


def steady_expected(model_path, observable, theta, sigma, t, ns):
    """Single-parameter predicted error and ideal floor for the steady link.

    Predicted (1/(N |f'|)) sqrt(sigma^2 - (2N/T) Re c + (N Im c / (T sigma))^2),
    floor sigma / (N |f'|), with f(theta) = <A> at the steady state.
    """
    _, slope, coeff = DrivenQubit(model_path, observable).response(theta)
    out = {}
    for n in ns:
        bracket = (
            sigma**2 - (2.0 * n / t) * coeff.real + (n * coeff.imag / (t * sigma)) ** 2
        )
        out[float(n)] = (
            math.sqrt(bracket) / (n * abs(slope)),
            sigma / (n * abs(slope)),
        )
    return out


def scaling_expected(config):
    """(expected, trials) for an N sweep scenario, from the scenario file.

    The steady link gets the driven-qubit solver; the identity link gets the
    closed forms, which hold for the registered product thermal-qubit models.
    """
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read(config)

    def floats(section, key):
        return [float(v) for v in cfg[section][key].replace(",", " ").split()]

    if cfg["sweep"]["axis"].strip() != "N":
        raise ValueError(f"{config}: the checks cover N sweeps only")
    thetas = floats("model", "theta")
    sigma = float(cfg["apparatus"]["sigma"])
    t = float(cfg["run"]["t"])
    ns = floats("sweep", "values")
    trials = int(cfg["run"]["trials"])
    if cfg["run"].get("link", "identity").strip() == "steady":
        model = Path(config).parent / cfg["model"]["file"].strip()
        observable = cfg["model"]["observable"].strip()
        return steady_expected(model, observable, thetas[0], sigma, t, ns), trials
    if not cfg["model"]["name"].strip().startswith("product_gad_"):
        raise ValueError(f"{config}: closed forms cover product_gad models only")
    return product_expected(thetas, sigma, t, ns), trials


# ---------------------------------------------------------------- verify


def read_report(path):
    """(check, metric, passed) per verify report row.

    The threshold cell of a range metric ("in [lo, hi]") holds an unquoted
    comma, so a row is read as its first three fields and its last one.
    """
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))[1:]
    return [(int(r[0]), r[2], r[-1] == "yes") for r in rows]


def check_verify(report_path, exit_code):
    """(failed check numbers, problems) of a verify report.

    A check fails when any of its metrics fails or it raised (an error row);
    the command must exit 0 exactly when no check failed, and the report
    must cover all ten checks.
    """
    rows = read_report(report_path)
    problems = []
    numbers = sorted({check for check, _, _ in rows})
    if numbers != list(range(1, VERIFY_CHECKS + 1)):
        problems.append(f"report covers checks {numbers}")
    failed = sorted({check for check, metric, ok in rows if not ok or metric == "error"})
    if (exit_code == 0) != (not failed):
        problems.append(f"verify exited with {exit_code} with failed checks {failed}")
    return failed, problems
