"""Time the batched trace kernels.

Workloads mirror the hot path of the pointer-distribution computation: a
half-plane of (p, p') pairs turned into batched matrix exponentials of the
coupled generator, contracted with vec(I) and vec(rho_ss). Run as

    python3 benchmarks/bench_kernels.py [--pairs 13041] [--repeats 3]

Reports the best wall time over the repeats and the cost per pair.
"""

import argparse
import time

import numpy as np

from damlab import _kernels_py
from damlab.models import gad_model, product_gad_model, steady_state_bundle
from damlab.operators import left_mult, right_mult, vectorize


def gad_workload(pairs, sigma=0.1, t=200.0, n=1.0):
    model = gad_model()
    bundle = steady_state_bundle(model, np.array([0.3]))
    a = np.diag([1.0, 0.0]).astype(complex)
    return _assemble(bundle, a, pairs, sigma, t, n)


def product_workload(pairs, sigma=0.1, t=200.0, n=1.0):
    model = product_gad_model(2)
    bundle = steady_state_bundle(model, np.array([0.3, 0.6]))
    single = np.diag([1.0, 0.0]).astype(complex)
    a = np.kron(single, np.eye(2, dtype=complex))
    return _assemble(bundle, a, pairs, sigma, t, n)


def _assemble(bundle, a, pairs, sigma, t, n):
    sigma_p = 1.0 / (2.0 * sigma)
    half = 6.0 * sigma_p
    rng = np.random.default_rng(2026)
    p1 = rng.uniform(-half, half, size=pairs)
    p2 = rng.uniform(-half, half, size=pairs)
    base = bundle.liouvillian * (n * t)
    lin_p = -1j * n * left_mult(a)
    lin_pp = 1j * n * right_mult(a)
    w = vectorize(np.eye(bundle.dim))
    v = vectorize(bundle.rho_ss)
    return base, lin_p, lin_pp, p1, p2, w, v


def best_time(args, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernels_py.trace_kernels(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=13041,
                    help="number of (p, p') pairs per workload (default: one "
                         "full 161-point half-plane)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats, best-of is reported")
    args = ap.parse_args()

    cases = [
        ("qubit 4x4 superoperators", gad_workload(args.pairs)),
        ("two-site 16x16 superoperators", product_workload(args.pairs // 4)),
    ]
    for label, work in cases:
        npairs = work[3].size
        t = best_time(work, args.repeats)
        print(f"{label}: {npairs} pairs")
        print(f"  {t * 1e3:9.1f} ms  ({t / npairs * 1e6:7.2f} us/pair)")


if __name__ == "__main__":
    main()
