"""One damlab CLI call in a fresh interpreter, timed from the inside.

    python3 child.py <spec.json>

The spec names the CLI arguments, the scenario, the output directory, the
result file and whether to trace. Set-up ends when ``damlab.cli`` is
imported and the scenario is loaded; the parent takes the set-up time as
the monotonic time written here minus the monotonic time at which it
launched this interpreter. The run is one ``damlab.cli.main`` call, which
parses the scenario again (milliseconds) before running the command.
"""

import json
import resource
import sys
import time


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import damlab.cli
    from damlab.scenario import load_scenario

    start = time.perf_counter()
    load_scenario(spec["config"], seed=spec["seed"], out_dir=spec["out"])
    load_s = time.perf_counter() - start
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    start = time.perf_counter()
    code = damlab.cli.main(spec["argv"])
    run_s = time.perf_counter() - start

    import numpy
    import scipy

    result = {
        "ready_monotonic": ready,
        "run_s": run_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "load_s": load_s,
        "backend": damlab.KERNEL_BACKEND,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
