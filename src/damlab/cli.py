"""damlab command line: scenario-driven sweeps, reports and figures.

    damlab <command> --config <file> [--seed <u64>] [--out <dir>] [--json]

Commands: steady, dam-distribution, scaling, nonadiabaticity, qfi-bound,
verify. Every command reads one scenario file, writes CSV (and SVG where a
figure makes sense) into the output directory, and prints a short summary;
--json replaces the summary with a machine-readable object. Exit codes:
0 success, 1 a verified claim failed, 2 configuration error.
"""

import argparse
import json
# argparse's gettext loads it lazily; load it with damlab, not inside the run
import locale  # noqa: F401
import sys
from pathlib import Path

import numpy as np

from .acceptance import VerifyParams, run_checks, write_report
from .backend import KERNEL_BACKEND
from .estimation import qfi_random_probe_bounds
from .models import dissipation_coefficient, is_gad, steady_state_bundle
from .pointer import pointer_distribution
from .scenario import ScenarioError, load_scenario, scenario_runs
from .svgplot import LineChart
from .sweeps import (
    nonadiabaticity_sweep,
    scaling_sweep,
    sweep_csv,
    write_csv,
)

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="damlab",
        description="dissipative pointer-measurement simulation and estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("steady", cmd_steady, "steady state, gap and backaction diagnostics"),
        ("dam-distribution", cmd_dam_distribution,
         "pointer densities: exact, perturbative, ideal"),
        ("scaling", cmd_scaling, "estimation error sweep with baselines"),
        ("nonadiabaticity", cmd_nonadiabaticity,
         "kernel deviation Delta against its leading 1/T form"),
        ("qfi-bound", cmd_qfi_bound, "channel-output Fisher information bound"),
        ("verify", cmd_verify, "run the ten-check verification suite"),
    )
    for name, fn, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="scenario file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="print a machine-readable report")
        sp.set_defaults(func=fn)
    return parser


def _emit(args, payload, text_lines):
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_steady(scn, args, out_dir):
    bundle = steady_state_bundle(scn.model, scn.theta)
    d = bundle.dim
    rows = []
    for i in range(d):
        for j in range(d):
            rows.append(("rho_re", i, j, bundle.rho_ss[i, j].real))
    for i in range(d):
        for j in range(d):
            rows.append(("rho_im", i, j, bundle.rho_ss[i, j].imag))
    rows.append(("gap", "", "", bundle.gap))
    coeffs = {}
    for label, a in scn.observables:
        c = dissipation_coefficient(bundle, a)
        coeffs[label] = c
        rows.append((f"backaction_re[{label}]", "", "", c.real))
        rows.append((f"backaction_im[{label}]", "", "", c.imag))
    # S on the basis operators E_k, vec(E_k) = e_k: L S = Q with tr S = 0
    basis = np.eye(d * d).reshape(d * d, d, d).transpose(0, 2, 1)
    s_mat = bundle.s_apply(basis).transpose(0, 2, 1).reshape(d * d, d * d).T
    q = np.eye(d * d) - np.outer(bundle.rho_ss.T, np.eye(d))  # vec(rho) vec(I)^T
    residual = float(np.abs(bundle.liouvillian @ s_mat - q).max())
    rows.append(("pseudoinverse_residual", "", "", residual))
    csv_path = out_dir / "steady.csv"
    write_csv(
        csv_path,
        ("quantity", "i", "j", "value"),
        rows,
        comments=(f"scenario sha256 {scn.sha256}",
                  "steady-state diagnostics; dimensionless"),
    )
    payload = {
        "model": scn.model.name,
        "theta": [float(v) for v in scn.theta],
        "gap": bundle.gap,
        "rho_diag": [float(bundle.rho_ss[i, i].real) for i in range(d)],
        "backaction": {k: [c.real, c.imag] for k, c in coeffs.items()},
        "pseudoinverse_residual": residual,
        "csv": str(csv_path),
    }
    lines = [
        f"model {scn.model.name} at theta = {[float(v) for v in scn.theta]}",
        f"steady state diagonal: {[f'{bundle.rho_ss[i, i].real:.6g}' for i in range(d)]}",
        f"dissipative gap: {bundle.gap:.6g}",
    ]
    for k, c in coeffs.items():
        lines.append(f"backaction tr(A S(A rho)) [{k}]: {c.real:.6g} + {c.imag:.6g}i")
    lines.append(f"pseudoinverse residual |L S - Q|: {residual:.3g}")
    lines.append(f"wrote {csv_path}")
    _emit(args, payload, lines)
    return 0


def cmd_dam_distribution(scn, args, out_dir):
    run = scenario_runs(scn)[0]
    exact = pointer_distribution(run, "exact")
    pert = pointer_distribution(run, "perturbative")
    ideal = pointer_distribution(run, "ideal")
    q = exact.q_grid
    dev = exact.density - ideal.density
    l1_dev = float(np.abs(dev).sum() * exact.dq)
    tv_pert = 0.5 * float(np.abs(exact.density - pert.density).sum() * exact.dq)
    rows = list(zip(q, exact.density, pert.density, ideal.density, dev))
    csv_path = out_dir / "dam_distribution.csv"
    write_csv(
        csv_path,
        ("q", "pr_exact", "pr_pert", "pr_ideal", "dev_exact_ideal"),
        rows,
        comments=(
            f"scenario sha256 {scn.sha256}",
            "q in pointer position units, densities in 1/q units",
        ),
    )
    center = run.n * run.bundle.expectation(run.observable)
    chart = LineChart(
        title=f"pointer density, {scn.model.name}, T={run.t:g}, N={run.n:g}",
        xlabel="pointer position q",
        ylabel="probability density",
    )
    chart.add("exact", q, exact.density)
    chart.add("perturbative", q, pert.density, dashed=True)
    chart.add("ideal", q, ideal.density, dashed=True)
    chart.add_vline(center, "N<A>")
    svg_path = out_dir / "dam_distribution.svg"
    chart.write(svg_path, desc=f"scenario sha256 {scn.sha256}")
    payload = {
        "mean": exact.mean,
        "variance": exact.variance,
        "normalization_defect": exact.normalization_defect,
        "l1_exact_vs_ideal": l1_dev,
        "tv_exact_vs_perturbative": tv_pert,
        "csv": str(csv_path),
        "svg": str(svg_path),
    }
    lines = [
        f"pointer mean {exact.mean:.6g}, variance {exact.variance:.6g}",
        f"L1 deviation from the ideal Gaussian: {l1_dev:.3g}",
        f"total variation exact vs perturbative: {tv_pert:.3g}",
        f"wrote {csv_path}",
        f"wrote {svg_path}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_scaling(scn, args, out_dir):
    result = scaling_sweep(scn)
    csv_path = out_dir / "scaling.csv"
    sweep_csv(result, csv_path)
    dam = result.series("dam")
    chart = LineChart(
        title=f"estimation error vs {result.axis}, {scn.model.name}",
        xlabel=result.axis,
        ylabel="parameter error",
        xlog=True,
        ylog=True,
    )
    chart.add("dam (MC)", [r.value for r in dam], [r.empirical for r in dam])
    chart.add("dam (formula)", [r.value for r in dam], [r.predicted for r in dam],
              dashed=True)
    povm = result.series("povm")
    if povm:
        chart.add("povm (MC)", [r.value for r in povm], [r.empirical for r in povm])
    ideal = result.series("ideal")
    chart.add("ideal pointer", [r.value for r in ideal],
              [r.predicted for r in ideal], dashed=True)
    svg_path = out_dir / "scaling.svg"
    chart.write(svg_path, desc=f"scenario sha256 {scn.sha256}")

    payload = result.to_jsonable()
    payload["csv"] = str(csv_path)
    payload["svg"] = str(svg_path)
    lines = [f"{len(result.rows)} rows over {result.axis} ="
             f" {[r.value for r in dam]}"]
    slopes = {}
    if len(dam) >= 2 and result.axis in ("N", "T"):
        slopes["dam_empirical"] = result.loglog_slope("dam")
        slopes["dam_formula"] = result.loglog_slope("dam", col="predicted")
        lines.append(f"dam slope (MC): {slopes['dam_empirical']:.4f}, "
                     f"formula: {slopes['dam_formula']:.4f}")
    if len(povm) >= 2 and result.axis in ("N", "T"):
        slopes["povm_empirical"] = result.loglog_slope("povm")
        lines.append(f"povm slope (MC): {slopes['povm_empirical']:.4f}")
    payload["slopes"] = slopes
    lines.append(f"wrote {csv_path}")
    lines.append(f"wrote {svg_path}")
    _emit(args, payload, lines)
    return 0


def cmd_nonadiabaticity(scn, args, out_dir):
    result = nonadiabaticity_sweep(scn)
    csv_path = out_dir / "nonadiabaticity.csv"
    sweep_csv(result, csv_path)
    rows = result.series("delta")
    chart = LineChart(title=f"kernel deviation vs T, {scn.model.name}",
                      xlabel="T", ylabel="Delta", xlog=True, ylog=True)
    chart.add("exact", [r.value for r in rows], [r.delta for r in rows])
    chart.add("leading 1/T form", [r.value for r in rows],
              [r.predicted for r in rows], dashed=True)
    svg_path = out_dir / "nonadiabaticity.svg"
    chart.write(svg_path, desc=f"scenario sha256 {scn.sha256}")
    payload = result.to_jsonable()
    payload["csv"] = str(csv_path)
    payload["svg"] = str(svg_path)
    lines = []
    for r in rows:
        lines.append(f"T = {r.value:<8g} Delta = {r.delta:.6g}  "
                     f"(leading form {r.predicted:.6g})")
    lines.append(f"wrote {csv_path}")
    lines.append(f"wrote {svg_path}")
    _emit(args, payload, lines)
    return 0


def cmd_qfi_bound(scn, args, out_dir):
    if not is_gad(scn.model):
        raise ScenarioError(
            "the output-bound check is defined for the registered gad model"
        )
    theta = float(scn.theta[0])
    single, double = qfi_random_probe_bounds(
        theta,
        scn.t,
        [scn.seed, 81],
        [scn.seed, 82],
        20,
        5,
    )

    rows = []
    for copies, rep in ((1, single), (2, double)):
        for k, (f, gap, flag) in enumerate(
            zip(rep.qfi, rep.fd_disagreement, rep.flagged)
        ):
            rows.append(
                (copies, k, f, rep.bound, rep.bound - f, gap,
                 "yes" if flag else "no")
            )
    csv_path = out_dir / "qfi_bound.csv"
    write_csv(
        csv_path,
        ("copies", "probe", "qfi", "bound", "margin", "fd_disagreement",
         "flagged"),
        rows,
        comments=(f"scenario sha256 {scn.sha256}",
                  "Fisher information in 1/theta^2 units"),
    )
    ok = single.passed and double.passed and not any(
        single.flagged + double.flagged
    )
    payload = {
        "theta": theta,
        "t": scn.t,
        "single": {"bound": single.bound, "max_qfi": max(single.qfi),
                   "passed": single.passed},
        "product": {"bound": double.bound, "max_qfi": max(double.qfi),
                    "passed": double.passed},
        "passed": ok,
        "csv": str(csv_path),
    }
    lines = [
        f"single copies: max F = {max(single.qfi):.6g} vs bound {single.bound:.6g}",
        f"product pairs: max F = {max(double.qfi):.6g} vs bound {double.bound:.6g}",
        f"wrote {csv_path}",
        "bound holds" if ok else "BOUND VIOLATED",
    ]
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_verify(scn, args, out_dir):
    results = run_checks(VerifyParams(seed=scn.seed), checks=scn.checks)
    csv_path = out_dir / "verify_report.csv"
    write_report(results, csv_path)
    payload = []
    for res in results:
        payload.append(
            {
                "check": res.number,
                "name": res.name,
                "passed": res.passed,
                "runtime_s": res.runtime_s,
                "error": res.error,
                "metrics": [
                    {
                        "metric": m.name,
                        "value": m.value,
                        "threshold": m.threshold,
                        "passed": m.passed,
                    }
                    for m in res.metrics
                ],
            }
        )
    lines = [f"backend: {KERNEL_BACKEND}"]
    for res in results:
        status = "pass" if res.passed else "FAIL"
        lines.append(f"check {res.number:>2}  {res.name:<28} {status}"
                     f"  ({res.runtime_s:.2f} s)")
        if res.error:
            lines.append(f"          {res.error}")
    failed = [res.name for res in results if not res.passed]
    if failed:
        lines.append("FAILED: " + ", ".join(failed))
    else:
        lines.append(f"all {len(results)} checks passed")
    lines.append(f"wrote {csv_path}")
    _emit(args, payload, lines)
    return 0 if not failed else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scn = load_scenario(args.config, seed=args.seed, out_dir=args.out)
        out_dir = Path(scn.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(scn, args, out_dir)
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
