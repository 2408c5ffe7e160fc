"""Time the batched trace kernels and the exact kernel grids.

The dense rows mirror the unreduced Pade path of the pointer-distribution
computation: a half-plane of (p, p') pairs turned into batched matrix
exponentials of the full coupled generator at the case's first N,
contracted with vec(I) and vec(rho_ss). The grid rows time one full
161-point half-plane through pointer._grid_kernels, which cuts the N-free
generator to its minimal realization and reads every kernel from the
dominant-mode table of the run, built once per (model, theta, observable,
T, apparatus); they print the reduced dimension, whether the grid needed
one kernel per offset x = p - p' only, and how many pairs the table
refused to the Pade kernels (its rank-one guard or its gap test). Each grid
row clears the table memo before every repeat of the case's first N, so it
times the table build; a second N of the same sweep reads the table the
first one left. The driven table rows build the table of the driven grid at
T = 100, 200 and 500, where the spectral gap of its generators grows with T
and the table refuses fewer pairs.

The cases: `qubit` (thermal qubit, excited-state projector; its grid reduces
to 2x2 kernels of x alone), `driven` (configs/driven_gad.json read through
`tilted` at T = 500, swept over N = 5, 10; its 4x4 grid does not reduce, so
every pair is exponentiated, with broadcast products) and `two-site` (two
thermal qubits, dense 16x16 superoperators, with one BLAS product per
matrix). Run as

    python3 benchmarks/bench_kernels.py [--pairs 13041] [--repeats 3]

Reports the best wall time over the repeats and the cost per pair. The BLAS
thread settings it ran under are printed first: the 16x16 dense row changes
with them.
"""

import argparse
import os
import time
from pathlib import Path

import numpy as np

from damlab import _kernels_py, pointer
from damlab.models import gad_model, product_gad_model
from damlab.pointer import (
    DamRun,
    _generator_terms,
    _grid_kernels,
    _half_plane,
    _kernel_modes,
    default_apparatus,
)
from damlab.scenario import load_model_file

EXCITED = np.diag([1.0, 0.0]).astype(complex)
DRIVEN, OBSERVABLES = load_model_file(
    Path(__file__).resolve().parent.parent / "configs" / "driven_gad.json"
)
# label, model, theta, observable, T, the N of one sweep, share of --pairs
# in the dense row
CASES = (
    ("qubit", gad_model(), [0.3], EXCITED, 200.0, (1.0,), 1),
    ("driven", DRIVEN, [0.3], OBSERVABLES["tilted"], 500.0, (5.0, 10.0), 1),
    ("two-site", product_gad_model(2), [0.3, 0.6], np.kron(EXCITED, np.eye(2)),
     200.0, (1.0,), 4),
)
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# T of the driven table rows
DRIVEN_TABLE_T = (100.0, 200.0, 500.0)


def dense_workload(run, pairs):
    """The full generator at N at uniformly drawn (p, p') pairs of the grid's span."""
    base, lin_p, lin_pp, w, v = _generator_terms(run)
    half = run.apparatus.p_halfwidth
    rng = np.random.default_rng(2026)
    p1 = rng.uniform(-half, half, size=pairs)
    p2 = rng.uniform(-half, half, size=pairs)
    n = run.n
    return n * base, n * lin_p, n * lin_pp, p1, p2, w, v


def best_time(fun, repeats, setup=lambda: None):
    best = float("inf")
    for _ in range(repeats):
        setup()
        t0 = time.perf_counter()
        fun()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=13041,
                    help="number of (p, p') pairs per dense workload (default: "
                         "one full 161-point half-plane)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats, best-of is reported")
    args = ap.parse_args()

    print("BLAS threads: " + ", ".join(
        f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_THREAD_VARIABLES
    ))
    app = default_apparatus(0.1)
    idx_i, idx_k = _half_plane(app)
    for label, model, theta, a, t, sweep, share in CASES:
        run = DamRun(model, theta, a, t=t, n=sweep[0], apparatus=app)
        pairs = args.pairs // share
        work = dense_workload(run, pairs)
        m = work[0].shape[0]
        elapsed = best_time(lambda: _kernels_py.trace_kernels(*work), args.repeats)
        print(f"{label} dense {m}x{m} superoperators at N = {run.n:g}: {pairs} pairs")
        print(f"  {elapsed * 1e3:9.1f} ms  ({elapsed / pairs * 1e6:7.2f} us/pair)")

        pointer._MODE_MEMO.clear()
        mats, x_only, (lam, _) = _kernel_modes(run)
        exps = lam.size
        print(f"{label} grid, {idx_i.size} pairs in {exps} exponentials: "
              f"reduced dimension {m} -> {mats[0].shape[0]}, x-only {x_only}; "
              f"refused {int(np.isnan(lam).sum())}")
        for k, n in enumerate(sweep):
            run_n = DamRun(model, theta, a, t=t, n=n, apparatus=app)
            run_n.bundle  # the steady state is not part of the grid's time
            # the sweep's first N builds the mode table, later ones reuse it
            setup = pointer._MODE_MEMO.clear if k == 0 else lambda: None
            elapsed = best_time(
                lambda: _grid_kernels(run_n, idx_k), args.repeats, setup
            )
            step = "table built" if k == 0 else "table reused"
            print(f"  {elapsed * 1e3:9.1f} ms  ({elapsed / idx_i.size * 1e6:7.2f} "
                  f"us/pair)  N = {n:g}, {step}")

    for t in DRIVEN_TABLE_T:
        run = DamRun(DRIVEN, [0.3], OBSERVABLES["tilted"], t=t, n=1.0, apparatus=app)
        run.bundle
        elapsed = best_time(lambda: _kernel_modes(run), args.repeats,
                            pointer._MODE_MEMO.clear)
        lam = _kernel_modes(run)[2][0]
        print(f"driven table at T = {t:g}: {lam.size} pairs, refused "
              f"{int(np.isnan(lam).sum())}")
        print(f"  {elapsed * 1e3:9.1f} ms  ({elapsed / lam.size * 1e6:7.2f} us/pair)")


if __name__ == "__main__":
    main()
