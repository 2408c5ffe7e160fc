import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def compare_outputs(monkeypatch):
    # the script imports its git helpers from bench_record, next to it
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", BENCHMARKS / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


CSV = "# scenario sha256 abc\nseries,value,density\ndam,1,{a}\ndam,2,{b}\n"


def test_identical_trees_report_nothing(tmp_path, compare_outputs):
    files = {
        "scaling/configs-demo/seed3/scaling.csv": CSV.format(a="0.5", b="0.25"),
        "scaling/configs-demo/seed3/scaling.svg": "<svg/>\n",
        "scaling/configs-demo/seed3/stderr.txt": "",
        "scaling/configs-demo/seed3/exit_code": "0\n",
    }
    a = write_tree(tmp_path / "a", files)
    b = write_tree(tmp_path / "b", files)
    assert compare_outputs.compare(a, b) == []


def test_report_names_columns_exit_codes_and_one_sided_files(tmp_path, compare_outputs):
    run = "dam-distribution/scenarios-steady_link/seed4/"
    a = write_tree(tmp_path / "a", {
        run + "dam_distribution.csv": CSV.format(a="0.5", b="0.25"),
        run + "dam_distribution.svg": "<svg>1</svg>\n",
        run + "stderr.txt": "",
        run + "exit_code": "0\n",
        "verify/configs-verify/seed4/verify_report.csv": CSV.format(a="1", b="2"),
        "verify/configs-verify/seed4/exit_code": "0\n",
    })
    b = write_tree(tmp_path / "b", {
        run + "dam_distribution.csv": CSV.format(a="0.5000000000001", b="0.2"),
        run + "dam_distribution.svg": "<svg>2</svg>\n",
        run + "stderr.txt": "error: grid too coarse\n",
        run + "exit_code": "2\n",
        "verify/configs-verify/seed4/verify_report.csv": CSV.replace("abc", "def")
        .format(a="1", b="2"),
        "verify/configs-verify/seed4/exit_code": "0\n",
        "verify/configs-verify/seed4/extra.csv": "x\n1\n",
    })
    lines = compare_outputs.compare(a, b)
    assert lines[0].startswith(run + "dam_distribution.csv: density max |change| 0.05")
    assert lines[0].endswith("(2 cells)")
    assert lines[1:] == [
        run + "dam_distribution.svg: differs",
        "dam-distribution/scenarios-steady_link/seed4: exit 0 -> 2",
        run + "stderr.txt: differs",
        "verify/configs-verify/seed4/extra.csv: only in change",
        "verify/configs-verify/seed4/verify_report.csv: comment lines differ",
    ]


def test_csv_of_another_shape_is_named_not_diffed(tmp_path, compare_outputs):
    a = write_tree(tmp_path / "a", {"t.csv": "x,y\n1,2\n"})
    b = write_tree(tmp_path / "b", {"t.csv": "x,y\n1,2\n3,4\n"})
    assert compare_outputs.compare(a, b) == [
        "t.csv: header or shape differs (1 -> 2 rows)"
    ]


def test_paths_and_check_times_are_masked(compare_outputs):
    out = Path("/tmp/compare_outputs_x/parent-out/verify/configs-verify/seed3")
    text = (
        "check  1  conventional-baseline        pass  (0.03 s)\n"
        "check 10  determinism-reduction        pass  (12.50 s)\n"
        "all 10 checks passed\n"
        f"wrote {out}/verify_report.csv\n"
    )
    assert compare_outputs.normalize(text, out) == (
        "check  1  conventional-baseline        pass  (<t> s)\n"
        "check 10  determinism-reduction        pass  (<t> s)\n"
        "all 10 checks passed\n"
        "wrote <out>/verify_report.csv\n"
    )


def test_columns_report_the_largest_absolute_and_relative_change(tmp_path, compare_outputs):
    # the largest absolute and relative changes come from different cells;
    # relative is |b - a| / max(|a|, |b|), so a cell leaving 0 reads 1
    a = write_tree(tmp_path / "a", {"t.csv": "x,y,z,name\n1000,0,5,a\n1e-6,1,5,b\n"})
    b = write_tree(tmp_path / "b", {"t.csv": "x,y,z,name\n1001,3,5,a\n2e-6,1,5,c\n"})
    assert compare_outputs.compare(a, b) == [
        "t.csv: x max |change| 1, relative 0.5 (2 cells), "
        "y max |change| 3, relative 1 (1 cells), "
        "name max |change| nan, relative nan (1 cells)"
    ]
