import importlib.util
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def result(setup, rss, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    }


def raw_runs(parent, change, workload="w", trace=0):
    return [
        {"workload": workload, "pair": pair, "side": side, "trace": trace,
         "result": result(*values)}
        for pair, (p, c) in enumerate(zip(parent, change))
        for side, values in (("parent", p), ("change", c))
    ]


def test_summary_quartiles_medians_and_wins_with_ties():
    parent = [(0.30, 40.0), (0.32, 41.0), (0.29, 40.0), (0.35, 42.0), (0.31, 40.5)]
    change = [(0.22, 40.0), (0.32, 41.5), (0.30, 39.0), (0.21, 42.0), (0.20, 40.5)]
    runs = raw_runs(parent, change)
    # a traced run never enters the summary
    runs += raw_runs([(9.0, 99.0)], [(0.0, 0.0)], trace=1)
    better = {"setup_s": "lower", "peak_rss_mb": "lower"}
    row = bench_record.summarize(runs, better)["w"]
    assert row["pairs"] == 5

    setup = row["setup_s"]
    # inclusive quartiles of 0.29, 0.30, 0.31, 0.32, 0.35
    assert setup["parent_quartiles"] == pytest.approx([0.30, 0.32])
    assert setup["parent_iqr"] == pytest.approx(0.02)
    assert setup["parent_median"] == 0.31
    assert setup["change_median"] == 0.22
    assert setup["change_quartiles"] == pytest.approx([0.21, 0.30])
    # 0.32 = 0.32 is a tie: a win for neither side
    assert (setup["change_wins"], setup["parent_wins"]) == ("3/5", "1/5")
    assert (setup["unit"], setup["better"]) == ("s", "lower")

    rss = row["peak_rss_mb"]
    assert (rss["change_wins"], rss["parent_wins"]) == ("1/5", "1/5")
    assert row["failed"] == {"parent": 0, "change": 0}
    assert row["attempted"] == {"parent": 50, "change": 50}
    assert row["correct"] == {"parent": True, "change": True}
    assert bench_record.traced(runs) == {
        "w": {"setup_s": {"parent": 9.0, "change": 0.0},
              "peak_rss_mb": {"parent": 99.0, "change": 0.0}}
    }


def test_summary_of_one_pair_and_higher_is_better():
    runs = raw_runs([(0.3, 40.0)], [(0.4, 40.0, 2)])
    row = bench_record.summarize(runs, {"setup_s": "higher", "peak_rss_mb": "lower"})["w"]
    assert row["setup_s"]["change_quartiles"] == [0.4, 0.4]
    assert row["setup_s"]["change_iqr"] == 0.0
    assert row["setup_s"]["change_wins"] == "1/1"
    assert row["failed"] == {"parent": 0, "change": 2}
    assert row["correct"] == {"parent": True, "change": False}


def test_quartiles_are_the_inclusive_method():
    values = [0.25, 0.1, 0.4, 0.33, 0.27, 0.31]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert bench_record.quartiles(values) == [q1, q3]


def test_info_line_fields():
    info = bench_record.parse_info(
        "# workload steady-link: 80 calls, backend python, python 3.11.7, "
        "numpy 2.4.6, scipy 1.17.1, cores 2"
    )
    assert info == {"workload": "steady-link", "calls": 80, "backend": "python",
                    "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                    "cores": 2}
