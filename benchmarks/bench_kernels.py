"""Time the batched trace kernels and the exact kernel grids.

The dense rows mirror the unreduced hot path of the pointer-distribution
computation: a half-plane of (p, p') pairs turned into batched matrix
exponentials of the full coupled generator, contracted with vec(I) and
vec(rho_ss). The grid rows time one full 161-point half-plane through
pointer._grid_kernels, which first cuts the generator to its minimal
realization; they print the reduced dimension and whether the grid needed
one kernel per offset x = p - p' only.

The cases: `qubit` (thermal qubit, excited-state projector; its grid reduces
to 2x2 kernels of x alone), `driven` (configs/driven_gad.json read through
`tilted` at T = 500, N = 5; its 4x4 grid does not reduce, so every pair is
exponentiated in the pairs-last layout) and `two-site` (two thermal qubits,
dense 16x16 superoperators on the per-matrix layout). Run as

    python3 benchmarks/bench_kernels.py [--pairs 13041] [--repeats 3]

Reports the best wall time over the repeats and the cost per pair.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from damlab import _kernels_py
from damlab.models import gad_model, product_gad_model
from damlab.pointer import (
    DamRun,
    _generator_terms,
    _grid_kernels,
    _half_plane,
    _minimal_realization,
    default_apparatus,
)
from damlab.scenario import load_model_file

EXCITED = np.diag([1.0, 0.0]).astype(complex)
DRIVEN, OBSERVABLES = load_model_file(
    Path(__file__).resolve().parent.parent / "configs" / "driven_gad.json"
)
# label, model, theta, observable, T, N, share of --pairs in the dense row
CASES = (
    ("qubit", gad_model(), [0.3], EXCITED, 200.0, 1.0, 1),
    ("driven", DRIVEN, [0.3], OBSERVABLES["tilted"], 500.0, 5.0, 1),
    ("two-site", product_gad_model(2), [0.3, 0.6], np.kron(EXCITED, np.eye(2)),
     200.0, 1.0, 4),
)


def dense_workload(run, pairs):
    """The full generator at uniformly drawn (p, p') pairs of the grid's span."""
    base, lin_p, lin_pp, w, v = _generator_terms(run)
    half = run.apparatus.p_halfwidth
    rng = np.random.default_rng(2026)
    p1 = rng.uniform(-half, half, size=pairs)
    p2 = rng.uniform(-half, half, size=pairs)
    return base, lin_p, lin_pp, p1, p2, w, v


def best_time(fun, repeats):
    best = float("inf")
    for _ in range(repeats):
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

    app = default_apparatus(0.1)
    p = app.p_grid()
    idx_i, idx_k = _half_plane(app)
    p1, p2 = p[idx_i], p[idx_i - idx_k]
    for label, model, theta, a, t, n, share in CASES:
        run = DamRun(model, theta, a, t=t, n=n, apparatus=app)
        pairs = args.pairs // share
        work = dense_workload(run, pairs)
        m = work[0].shape[0]
        t = best_time(lambda: _kernels_py.trace_kernels(*work), args.repeats)
        print(f"{label} dense {m}x{m} superoperators: {pairs} pairs")
        print(f"  {t * 1e3:9.1f} ms  ({t / pairs * 1e6:7.2f} us/pair)")

        mats, x_only = _minimal_realization(*_generator_terms(run))
        t = best_time(lambda: _grid_kernels(run, p1, p2, idx_k), args.repeats)
        exps = p.size if x_only else idx_i.size
        print(f"{label} grid, {idx_i.size} pairs in {exps} exponentials: "
              f"reduced dimension {m} -> {mats[0].shape[0]}, x-only {x_only}")
        print(f"  {t * 1e3:9.1f} ms  ({t / idx_i.size * 1e6:7.2f} us/pair)")


if __name__ == "__main__":
    main()
