"""Spans and counters around damlab's public functions, installed from outside.

The tracer replaces each traced function at every binding inside the loaded
``damlab`` modules (``from .models import steady_state_bundle`` makes one
binding per importing module) with a wrapper that records a span. Nothing
under ``src/`` is edited. A span's self time is its duration minus the
durations of its direct child spans; the program is single-threaded in the
traced process, so children never overlap.

Kernel grids that ``--workers`` sends to a process pool run in the pool's
children, where this tracer does not run: their kernel time lands in the
self time of the pointer function that started the pool.
"""

import concurrent.futures
import dataclasses
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Aggregated span durations, self times, call counts and counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.check_runtimes = {}
        self._stack = []  # [name, start, child seconds]

    @contextmanager
    def span(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            dur = time.perf_counter() - frame[1]
            self._stack.pop()
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += dur

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(args, kwargs, result) adds counters."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced


def _rebind(original, replacement):
    """Point every damlab module attribute bound to ``original`` at the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "damlab" or mod_name.startswith("damlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the traced damlab functions; call after ``import damlab.cli``."""
    from damlab import acceptance, backend, estimation, models, operators, pointer
    from damlab import svgplot, sweeps

    def bundle_count(args, kwargs, result):
        if tracer.inside("estimation.link_inverse"):
            tracer.counts["bundles_in_inverse"] += 1

    _rebind(models.steady_state_bundle,
            tracer.wrap("models.bundle", models.steady_state_bundle, bundle_count))

    kernels = backend.kernels

    def kernel_count(args, kwargs, result):
        base, p = args[0], args[3]
        tracer.counts["kernels.pairs"] += len(p)
        dim = tracer.counts["kernels.superop_dim"]
        tracer.counts["kernels.superop_dim"] = max(dim, len(base))

    kernels.trace_kernels = tracer.wrap("kernels", kernels.trace_kernels, kernel_count)

    _rebind(operators.mat_exp, tracer.wrap("operators.mat_exp", operators.mat_exp))
    _rebind(pointer.pointer_distribution,
            tracer.wrap("pointer.distribution", pointer.pointer_distribution))
    _rebind(pointer.nonadiabaticity,
            tracer.wrap("pointer.nonadiabaticity", pointer.nonadiabaticity))

    def sample_count(args, kwargs, result):
        tracer.counts["pointer.readings"] += len(result)

    _rebind(pointer.sample_pointer,
            tracer.wrap("pointer.sample", pointer.sample_pointer, sample_count))

    base_pool = concurrent.futures.ProcessPoolExecutor

    class CountedPool(base_pool):
        def __init__(self, *args, **kwargs):
            tracer.counts["pointer.process_pools"] += 1
            super().__init__(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = CountedPool

    def reading_count(args, kwargs, result):
        tracer.counts["estimation.link_inverse_readings"] += len(result)

    def traced_link(*args, **kwargs):
        with tracer.span("estimation.link_build"):
            link = original_link(*args, **kwargs)
        return dataclasses.replace(
            link,
            inverse=tracer.wrap("estimation.link_inverse", link.inverse, reading_count),
            inverse_batch=tracer.wrap(
                "estimation.link_inverse", link.inverse_batch, reading_count
            ),
            jacobian_inverse=tracer.wrap(
                "estimation.link_jacobian", link.jacobian_inverse
            ),
        )

    original_link = estimation.steady_expectation_link
    _rebind(original_link, traced_link)
    _rebind(estimation.mc_dam_error,
            tracer.wrap("estimation.mc", estimation.mc_dam_error))

    def csv_count(args, kwargs, result):
        tracer.counts["sweeps.csv_bytes"] += os.path.getsize(args[0])

    _rebind(sweeps.write_csv, tracer.wrap("sweeps.csv", sweeps.write_csv, csv_count))
    svgplot.LineChart.write = tracer.wrap("svgplot.svg", svgplot.LineChart.write)

    def check_times(args, kwargs, results):
        for res in results:
            tracer.check_runtimes[res.name] = res.runtime_s

    _rebind(acceptance.run_checks,
            tracer.wrap("acceptance.checks", acceptance.run_checks, check_times))


def layer_metrics(tracer):
    """Per-layer metrics of one traced command, keyed by benchmark name."""
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    pairs = c["kernels.pairs"]
    readings = c["estimation.link_inverse_readings"]
    out = {
        "models.bundle_calls": n["models.bundle"],
        "models.bundle_s": t["models.bundle"],
        "kernels.calls": n["kernels"],
        "kernels.pairs": pairs,
        "kernels.s": t["kernels"],
        "kernels.us_per_pair": 1e6 * t["kernels"] / pairs if pairs else 0.0,
        "kernels.superop_dim": c["kernels.superop_dim"],
        "operators.mat_exp_calls": n["operators.mat_exp"],
        "operators.mat_exp_s": t["operators.mat_exp"],
        "pointer.distributions": n["pointer.distribution"],
        "pointer.distribution_self_s": s["pointer.distribution"],
        "pointer.nonadiabaticity_calls": n["pointer.nonadiabaticity"],
        "pointer.nonadiabaticity_self_s": s["pointer.nonadiabaticity"],
        "pointer.readings": c["pointer.readings"],
        "pointer.sample_s": t["pointer.sample"],
        "pointer.process_pools": c["pointer.process_pools"],
        "estimation.link_build_s": t["estimation.link_build"],
        "estimation.link_inverse_readings": readings,
        "estimation.link_inverse_s": t["estimation.link_inverse"],
        "estimation.link_jacobian_calls": n["estimation.link_jacobian"],
        "estimation.link_jacobian_s": t["estimation.link_jacobian"],
        "estimation.bundles_per_reading": (
            c["bundles_in_inverse"] / readings if readings else 0.0
        ),
        "estimation.mc_self_s": s["estimation.mc"],
        "sweeps.csv_s": t["sweeps.csv"],
        "sweeps.csv_bytes": c["sweeps.csv_bytes"],
        "svgplot.svg_s": t["svgplot.svg"],
    }
    from damlab.acceptance import CHECK_NAMES

    for name in CHECK_NAMES.values():
        out[f"acceptance.{name}_s"] = tracer.check_runtimes.get(name, 0.0)
    return out
