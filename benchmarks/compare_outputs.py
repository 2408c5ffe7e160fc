"""Compare the CLI outputs of two revisions, file by file.

    python3 benchmarks/compare_outputs.py <parent-rev> <change-rev> [--seeds 3 4]

Each revision is unpacked from ``git archive`` into its own temporary
directory. There every CLI command (steady, dam-distribution, scaling,
nonadiabaticity, qfi-bound, verify) runs on every ``configs/*.ini`` and
``perfbench/scenarios/*.ini`` of that revision at every seed, one run at a
time, as ``python3 -m damlab.cli <command> --config <ini> --seed <s> --out
<dir>`` with ``PYTHONPATH=src``. A run's directory keeps the files it
wrote, its stdout, its stderr and its exit code.

The report names every run whose exit code differs, and every CSV, SVG,
stdout and stderr file that differs or exists on one side only. For a CSV
of the same shape it gives, per column, the largest absolute and relative
change of the numeric cells and how many cells changed. Before the comparison, the run's
own directory is replaced by ``<out>`` in stdout and stderr, and the check
times ``verify`` prints become ``(<t> s)``. Comparing a revision with itself
checks that reruns are byte-identical. Exits 0 when every file and exit
code is identical, else 1.
"""

import argparse
import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import git, unpack

COMMANDS = ("steady", "dam-distribution", "scaling", "nonadiabaticity",
            "qfi-bound", "verify")
CONFIG_DIRS = ("configs", "perfbench/scenarios")
SIDES = ("parent", "change")
CHECK_TIME = re.compile(r"^(check +\d+ .*)\(\d+\.\d+ s\)$", re.MULTILINE)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="revision of the parent commit")
    ap.add_argument("change", help="revision of the commit with the change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 4],
                    help="CLI --seed values (default 3 4)")
    return ap.parse_args()


def normalize(text, out):
    """A run's stdout or stderr with its directory ``out`` and the check
    times of ``verify`` masked."""
    return CHECK_TIME.sub(r"\1(<t> s)", text.replace(str(out), "<out>"))


def run_all(tree, out_root, seeds):
    """Every command on every config of ``tree`` at every seed; the outputs
    of each go to out_root/<command>/<config dir>-<config>/seed<s>."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    configs = [p.relative_to(tree) for d in CONFIG_DIRS
               for p in sorted((tree / d).glob("*.ini"))]
    for command in COMMANDS:
        for config in configs:
            name = f"{config.parent.name}-{config.stem}"
            for seed in seeds:
                out = out_root / command / name / f"seed{seed}"
                out.mkdir(parents=True)
                argv = [sys.executable, "-m", "damlab.cli", command, "--config",
                        str(config), "--seed", str(seed), "--out", str(out)]
                done = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                                      text=True)
                for stream, text in (("stdout", done.stdout), ("stderr", done.stderr)):
                    (out / f"{stream}.txt").write_text(normalize(text, out))
                (out / "exit_code").write_text(f"{done.returncode}\n")
                print(f"{out.relative_to(out_root)}: exit {done.returncode}",
                      file=sys.stderr)


def read_table(path):
    """Header and rows of a CSV, without its ``#`` comment lines."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return (rows[0], rows[1:]) if rows else ([], [])


def column_changes(path_a, path_b):
    """How two differing CSVs differ: per changed column of the same shape,
    the largest absolute and the largest relative change of its numeric
    cells, and how many cells changed. A cell's relative change is
    |b - a| / max(|a|, |b|)."""
    head_a, rows_a = read_table(path_a)
    head_b, rows_b = read_table(path_b)
    if head_a != head_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return f"header or shape differs ({len(rows_a)} -> {len(rows_b)} rows)"
    out = []
    for j, column in enumerate(head_a):
        largest, relative, changed = 0.0, 0.0, 0
        for ra, rb in zip(rows_a, rows_b):
            if ra[j] == rb[j]:
                continue
            changed += 1
            try:
                a, b = float(ra[j]), float(rb[j])
            except ValueError:
                largest = relative = float("nan")
                continue
            largest = max(largest, abs(b - a))
            if a != b:
                relative = max(relative, abs(b - a) / max(abs(a), abs(b)))
        if changed:
            out.append(f"{column} max |change| {largest:.3g}, relative "
                       f"{relative:.3g} ({changed} cells)")
    return ", ".join(out) or "comment lines differ"


def compare(root_a, root_b):
    """Report lines for every exit code and output file that differs
    between two output roots written by ``run_all``."""
    files = {side: {p.relative_to(root): p for p in root.rglob("*") if p.is_file()}
             for side, root in zip(SIDES, (root_a, root_b))}
    lines = []
    for rel in sorted(set(files["parent"]) | set(files["change"])):
        a, b = files["parent"].get(rel), files["change"].get(rel)
        if a is None or b is None:
            lines.append(f"{rel}: only in {'change' if a is None else 'parent'}")
        elif a.read_bytes() == b.read_bytes():
            continue
        elif rel.name == "exit_code":
            lines.append(f"{rel.parent}: exit {a.read_text().strip()} -> "
                         f"{b.read_text().strip()}")
        elif rel.suffix == ".csv":
            lines.append(f"{rel}: {column_changes(a, b)}")
        else:
            lines.append(f"{rel}: differs")
    return lines


def main():
    args = parse_args()
    shas = [git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for rev in (args.parent, args.change)]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        roots = []
        for side, sha in zip(SIDES, shas):
            tree, out = Path(tmp) / side, Path(tmp) / f"{side}-out"
            unpack(sha, tree)
            run_all(tree, out, args.seeds)
            roots.append(out)
        runs = len(list(roots[1].rglob("exit_code")))
        lines = compare(*roots)
    print(f"parent {shas[0]}, change {shas[1]}, seeds "
          f"{' '.join(map(str, args.seeds))}: {runs} runs per side")
    for line in lines:
        print(line)
    print("all outputs and exit codes identical" if not lines
          else f"{len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
