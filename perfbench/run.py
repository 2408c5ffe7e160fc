"""damlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; damlab is imported from ``src/``,
not from an installed copy. Each workload is one scenario run through
``damlab.cli`` by one caller in a closed loop: the benchmark launches a
fresh interpreter per CLI call (perfbench/child.py), waits for it, checks
its outputs, and launches the next. It makes at least ``MIN_CALLS`` calls
and starts no call that would, at the pace of the previous one, end after
``--seconds``. Every call pays the set-up a user pays.

--trace 0 prints the end-to-end metrics, each the median over the calls:
    setup_s      launch of the interpreter to damlab.cli imported and the
                 scenario loaded
    run_s        the damlab.cli.main call after set-up
    peak_rss_mb  peak resident memory of the interpreter that ran the call

--trace 1 alternates untraced and traced calls and prints the per-layer
metrics of perfbench/tracer.py: counts from the first traced call, times as
medians over the traced calls, the import times parsed from
``python -X importtime -c "import damlab"``, and the tracing overhead
(median traced run_s minus median untraced run_s).

Outputs (CSV, SVG, temporary files) go to a scratch directory inside the
checkout, removed at exit. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work"
MIN_CALLS = 3
TIME_LIMIT_S = 170  # a run must end within 180 s, whatever a call does

# verify runs at the suite's pinned seed from its scenario file: its
# statistical checks fail on a few seeds (seed 77 fails check 1, see
# README.md), which would count failures that have nothing to do with speed.
WORKLOADS = {
    "verify": {"command": "verify", "config": "configs/verify.ini", "pass_seed": False},
    "steady-link": {
        "command": "scaling",
        "config": "perfbench/scenarios/steady_link.ini",
        "pass_seed": True,
    },
    "product-scaling": {
        "command": "scaling",
        "config": "perfbench/scenarios/product_scaling.ini",
        "pass_seed": True,
    },
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"))


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def require_checkout():
    missing = [
        p for p in ("src/damlab/cli.py", "configs/verify.ini", "configs/driven_gad.json")
        if not (ROOT / p).is_file()
    ]
    if missing:
        sys.exit(f"perfbench: not a damlab checkout, missing {', '.join(missing)}")


def child_env(work):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(work)
    return env


def launch(argv, work, limit, **kwargs):
    """Run argv in its own process group; kill the group at the time limit."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(work),
                            start_new_session=True, **kwargs)
    try:
        _, err = proc.communicate(timeout=max(1.0, limit - time.monotonic()))
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{argv[-1]!r} passed the {TIME_LIMIT_S} s time limit")
        raise
    return proc.returncode, err


def cli_call(spec, work, seed, trace, index, limit):
    """Launch one CLI call in a fresh interpreter; return its result dict."""
    out = work / f"out{index}"
    argv = [spec["command"], "--config", str(ROOT / spec["config"]), "--out", str(out)]
    scenario_seed = seed if spec["pass_seed"] else None
    if scenario_seed is not None:
        argv += ["--seed", str(scenario_seed)]
    call = {
        "argv": argv,
        "config": str(ROOT / spec["config"]),
        "seed": scenario_seed,
        "out": str(out),
        "result": str(work / f"result{index}.json"),
        "trace": bool(trace),
    }
    spec_path = work / f"call{index}.json"
    spec_path.write_text(json.dumps(call))
    launched = time.monotonic()
    code, _ = launch([sys.executable, str(HERE / "child.py"), str(spec_path)],
                     work, limit, stdout=subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"benchmark child exited with {code}")
    result = json.loads(Path(call["result"]).read_text())
    result["setup_s"] = result["ready_monotonic"] - launched
    result["out"] = out
    return result


def check_call(spec, result):
    """(operations attempted, failed, problems) for one finished call."""
    out = result["out"]
    if spec["command"] == "verify":
        failed, problems = checks.check_verify(
            out / "verify_report.csv", result["exit_code"]
        )
        return checks.VERIFY_CHECKS, len(failed), problems
    expected, trials = checks.scaling_expected(ROOT / spec["config"])
    if result["exit_code"] != 0:
        return len(expected), len(expected), []
    if not (out / "scaling.svg").is_file():
        return len(expected), 0, ["scaling.svg missing"]
    rows = checks.read_sweep(out / "scaling.csv")
    return len(expected), 0, checks.check_scaling(rows, expected, trials)


def import_times(work, limit):
    """Cumulative import seconds of damlab and scipy.stats from -X importtime."""
    code, err = launch([sys.executable, "-X", "importtime", "-c", "import damlab"],
                       work, limit, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if code != 0:
        raise RuntimeError(f"import damlab failed: {err[-500:]}")
    found = {}
    for line in err.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            found[parts[2]] = int(parts[1]) * 1e-6
    return found["damlab"], found.get("scipy.stats", 0.0)


def layer_units():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def main():
    args = parse_args()
    require_checkout()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    spec = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=SCRATCH))
    attempted = failed = 0
    problems = []
    plain, traced, imports = [], [], []
    info = None
    try:
        start = time.monotonic()
        deadline = start + args.seconds
        limit = start + TIME_LIMIT_S
        index = 0
        last = 0.0  # duration of the previous round
        # whole rounds only: stop before a round that would end past the deadline
        while index < MIN_CALLS or time.monotonic() + last <= deadline:
            began = time.monotonic()
            for trace in (False, True) if args.trace else (False,):
                result = cli_call(spec, work, args.seed, trace, index, limit)
                n_ops, n_failed, found = check_call(spec, result)
                attempted += n_ops
                failed += n_failed
                problems += found
                (traced if trace else plain).append(result)
                info = info or result
                shutil.rmtree(result["out"], ignore_errors=True)
                index += 1
            if args.trace:
                imports.append(import_times(work, limit))
            last = time.monotonic() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    med = statistics.median
    if args.trace:
        units = layer_units()
        layers = dict(traced[0]["layers"])
        for key in layers:
            if units[key] in ("s", "us"):
                layers[key] = med(r["layers"][key] for r in traced)
            elif any(r["layers"][key] != layers[key] for r in traced):
                print(f"warning: {key} differs between traced calls", file=sys.stderr)
        layers["import.damlab_s"] = med(i[0] for i in imports)
        layers["import.scipy_stats_s"] = med(i[1] for i in imports)
        layers["scenario.load_s"] = med(r["load_s"] for r in plain + traced)
        layers["trace.overhead_s"] = med(r["run_s"] for r in traced) - med(
            r["run_s"] for r in plain
        )
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in sorted(units)}
        calls = len(traced)
    else:
        metrics = {
            name: {"value": med(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END
        }
        calls = len(plain)
    versions = info["versions"]
    print(
        f"# workload {args.workload}: {calls} calls, backend {info['backend']}, "
        f"python {versions['python']}, numpy {versions['numpy']}, "
        f"scipy {versions['scipy']}, cores {os.cpu_count()}"
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
