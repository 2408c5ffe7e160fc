"""Record a perfbench comparison of two revisions as one BENCH_<n>.json.

    python3 benchmarks/bench_record.py <parent-rev> <change-rev>
        [--pairs 10] [--seconds 40] [--seed 1] [--out BENCH_<n>.json]

Each revision is unpacked from ``git archive`` into its own temporary
directory, and every run is ``python3 perfbench/run.py`` of that revision,
started as a subprocess in its directory; this script imports neither
damlab nor perfbench. For every workload of the change's BENCHMARK.json it
makes ``--pairs`` untraced pairs of runs, the side that runs first
alternating from pair to pair, then one ``--trace 1`` run per side. One run
goes at a time.

The record holds both SHAs, the command, the machine (the core count and
library versions from perfbench's info line), every raw run, per
workload and metric of the untraced runs both medians, the inclusive
quartiles and their IQR, and the pairs each side won, as k/n (a tie is a
win for neither), and the per-layer metrics of both traced runs side by
side. Without ``--out`` it is written to the repository root as
the next free BENCH_<n>.json.
"""

import argparse
import json
import re
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="revision of the parent commit")
    ap.add_argument("change", help="revision of the commit with the change")
    ap.add_argument("--pairs", type=int, default=10,
                    help="untraced pairs of runs per workload (default 10)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="length of each perfbench run (default 40)")
    ap.add_argument("--seed", type=int, default=1, help="perfbench --seed (default 1)")
    ap.add_argument("--out", type=Path,
                    help="output file (default: the next free BENCH_<n>.json)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def git(*argv):
    return subprocess.run(["git", *argv], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(sha, dest):
    """The files of commit ``sha``, as ``git archive`` writes them, in dest."""
    tar = dest.with_suffix(".tar")
    git("archive", "--output", str(tar), sha)
    with tarfile.open(tar) as fh:
        fh.extractall(dest, filter="data")
    tar.unlink()


def next_record():
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def parse_info(line):
    """The fields of perfbench's ``# workload <w>: 80 calls, cores 2, ...`` line."""
    head, _, rest = line.partition(": ")
    info = {"workload": head.removeprefix("# workload ")}
    for part in rest.split(", "):
        words = part.split(" ", 1)
        if words[0].isdigit():  # "80 calls"
            words.reverse()
        key, value = words
        info[key] = int(value) if value.isdigit() else value
    return info


def perfbench(tree, workload, seed, seconds, trace):
    """One perfbench run in ``tree``: its info line and its JSON result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"bench_record: {' '.join(argv[1:])} in {tree} exited with "
                 f"{out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    info = next(parse_info(l) for l in lines if l.startswith("# workload "))
    return info, json.loads(lines[-1])


def quartiles(values):
    """Inclusive first and third quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs, better):
    """Per workload and end-to-end metric of the untraced runs: medians,
    quartiles, IQRs and each side's wins over the pairs.

    ``runs`` are raw run records; ``better`` maps a metric to "lower" or
    "higher".
    """
    grouped = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], {}).setdefault(run["pair"], {})[
                run["side"]] = run["result"]
    summary = {}
    for workload, pairs in grouped.items():
        results = [pairs[k] for k in sorted(pairs)]
        row = {"pairs": len(results)}
        for metric in results[0]["change"]["metrics"]:
            values = {s: [r[s]["metrics"][metric]["value"] for r in results]
                      for s in SIDES}
            wins = {s: 0 for s in SIDES}
            for p, c in zip(values["parent"], values["change"]):
                if p != c:
                    change_won = (c < p) == (better[metric] == "lower")
                    wins["change" if change_won else "parent"] += 1
            entry = {"unit": results[0]["change"]["metrics"][metric]["unit"],
                     "better": better[metric]}
            for s in SIDES:
                q1, q3 = quartiles(values[s])
                entry[f"{s}_median"] = statistics.median(values[s])
                entry[f"{s}_quartiles"] = [q1, q3]
                entry[f"{s}_iqr"] = q3 - q1
            for s in SIDES:
                entry[f"{s}_wins"] = f"{wins[s]}/{len(results)}"
            row[metric] = entry
        for key in ("attempted", "failed"):
            row[key] = {s: sum(r[s][key] for r in results) for s in SIDES}
        row["correct"] = {s: all(r[s]["correct"] for r in results) for s in SIDES}
        summary[workload] = row
    return summary


def traced(runs):
    """Per workload and per-layer metric, the value of each side's traced run."""
    out = {}
    for run in runs:
        if run["trace"]:
            rows = out.setdefault(run["workload"], {})
            for metric, m in run["result"]["metrics"].items():
                rows.setdefault(metric, {})[run["side"]] = m["value"]
    return out


def main():
    args = parse_args()
    out_path = args.out or next_record()
    shas = {s: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for s, rev in zip(SIDES, (args.parent, args.change))}
    command = "python3 benchmarks/bench_record.py " + shlex.join(
        [args.parent, args.change, "--pairs", str(args.pairs),
         "--seconds", f"{args.seconds:g}", "--seed", str(args.seed)])
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for side in SIDES:
            unpack(shas[side], trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        plan = [(w["name"], pair, SIDES[::-1] if pair % 2 else SIDES, 0)
                for w in spec["workloads"] for pair in range(args.pairs)]
        plan += [(w["name"], None, SIDES, 1) for w in spec["workloads"]]
        for workload, pair, order, trace in plan:
            for side in order:
                info, result = perfbench(trees[side], workload, args.seed,
                                         args.seconds, trace)
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "first": order[0], "trace": trace, "info": info,
                             "result": result})
                print(f"{workload} {'traced' if trace else f'pair {pair}'} "
                      f"{side}: correct {result['correct']}, "
                      f"failed {result['failed']}", file=sys.stderr)
    info = runs[0]["info"]
    record = {
        "parent": shas["parent"],
        "change": shas["change"],
        "command": command,
        "perfbench_command": "python3 perfbench/run.py --workload <w> "
                            f"--seed {args.seed} --seconds {args.seconds:g} --trace <0|1>",
        "machine": {k: v for k, v in info.items() if k not in ("workload", "calls")},
        "summary": summarize(runs, better),
        "traced": traced(runs),
        "runs": runs,
    }
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
