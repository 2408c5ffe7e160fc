import csv
import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import damlab
from damlab import cli, pointer
from damlab.acceptance import VerifyParams
from damlab.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

QUICK = """
[model]
name = gad
theta = 0.3
observable = excited

[apparatus]
sigma = 0.1
q_points = 512

[run]
t = {t}
n = 1
trials = 200
seed = 99
{extra}
"""


def write_cfg(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.reader(lines))


def read_csv(path):
    header, *rows = csv_rows(path)
    return [dict(zip(header, row)) for row in rows]


def test_steady_outputs_match_model(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "steady", "--config", CONFIG_DIR / "verify.ini", "--out", tmp_path
    )
    assert code == 0
    assert "dissipative gap: 0.5" in out
    rows = read_csv(tmp_path / "steady.csv")
    cell = {(r["quantity"], r["i"], r["j"]): float(r["value"]) for r in rows}
    assert cell[("rho_re", "0", "0")] == pytest.approx(0.3, abs=1e-12)
    assert cell[("rho_re", "1", "1")] == pytest.approx(0.7, abs=1e-12)
    assert cell[("gap", "", "")] == pytest.approx(0.5, abs=1e-10)
    assert cell[("backaction_re[excited]", "", "")] == pytest.approx(-0.21, abs=1e-10)


def test_steady_json_payload(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "steady", "--config", CONFIG_DIR / "verify.ini", "--out", tmp_path,
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == pytest.approx(0.5)
    assert payload["rho_diag"] == pytest.approx([0.3, 0.7])


@pytest.mark.parametrize("config", ["verify.ini", "driven_demo.ini"])
def test_steady_pseudoinverse_residual_is_tiny(tmp_path, capsys, config):
    argv = ("steady", "--config", CONFIG_DIR / config)
    code, _, _ = run_cli(capsys, *argv, "--out", tmp_path / "csv")
    assert code == 0
    rows = read_csv(tmp_path / "csv" / "steady.csv")
    cell = {r["quantity"]: float(r["value"]) for r in rows}
    assert cell["pseudoinverse_residual"] <= 1e-12
    code, out, _ = run_cli(capsys, *argv, "--out", tmp_path / "json", "--json")
    assert code == 0
    assert json.loads(out)["pseudoinverse_residual"] <= 1e-12


def test_dam_distribution_csv_and_svg(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUICK.format(t=300, extra=""))
    code, out, _ = run_cli(
        capsys, "dam-distribution", "--config", cfg, "--out", tmp_path / "o"
    )
    assert code == 0
    rows = read_csv(tmp_path / "o" / "dam_distribution.csv")
    assert set(rows[0]) == {"q", "pr_exact", "pr_pert", "pr_ideal",
                           "dev_exact_ideal"}
    assert len(rows) == 512
    svg = (tmp_path / "o" / "dam_distribution.svg").read_text()
    assert svg.startswith("<svg ")
    assert "scenario sha256" in svg
    assert "N&lt;A&gt;" in svg


def test_dam_distribution_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUICK.format(t=300, extra=""))
    blobs = []
    for sub in ("a", "b"):
        code, _, _ = run_cli(
            capsys, "dam-distribution", "--config", cfg, "--out", tmp_path / sub
        )
        assert code == 0
        blobs.append((tmp_path / sub / "dam_distribution.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_dam_distribution_deviation_shrinks_with_t(tmp_path, capsys):
    l1 = {}
    for t in (60, 600):
        cfg = write_cfg(tmp_path, QUICK.format(t=t, extra=""), name=f"s{t}.ini")
        code, out, _ = run_cli(
            capsys, "dam-distribution", "--config", cfg,
            "--out", tmp_path / f"o{t}", "--json",
        )
        assert code == 0
        l1[t] = json.loads(out)["l1_exact_vs_ideal"]
    assert l1[600] < 0.2 * l1[60]


def test_scaling_command_emits_all_series(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        QUICK.format(t=2000, extra="[sweep]\naxis = N\nvalues = 1, 4, 16\n")
        .replace("theta = 0.3", "theta = 0.5")
        .replace("sigma = 0.1", "sigma = 0.12"),
    )
    code, out, _ = run_cli(
        capsys, "scaling", "--config", cfg, "--out", tmp_path / "o", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "dam_empirical" in payload["slopes"]
    rows = read_csv(tmp_path / "o" / "scaling.csv")
    assert {r["series"] for r in rows} == {"dam", "povm", "ideal"}
    assert (tmp_path / "o" / "scaling.svg").exists()


def test_scaling_on_shipped_driven_demo(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "scaling", "--config", CONFIG_DIR / "driven_demo.ini",
        "--out", tmp_path,
    )
    assert code == 0, err
    rows = read_csv(tmp_path / "scaling.csv")
    assert {r["series"] for r in rows} == {"dam", "ideal"}
    assert [float(r["value"]) for r in rows if r["series"] == "dam"] == [
        200.0, 400.0, 800.0
    ]


def test_nonadiabaticity_command(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        QUICK.format(t=100, extra="[sweep]\naxis = T\nvalues = 50, 100\n")
        .replace("sigma = 0.1", "sigma = 0.2"),
    )
    code, _, _ = run_cli(
        capsys, "nonadiabaticity", "--config", cfg, "--out", tmp_path / "o"
    )
    assert code == 0
    rows = read_csv(tmp_path / "o" / "nonadiabaticity.csv")
    deltas = [float(r["delta"]) for r in rows]
    assert 0.35 < deltas[1] / deltas[0] < 0.7


def test_qfi_bound_command(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "qfi-bound", "--config", CONFIG_DIR / "verify.ini",
        "--out", tmp_path,
    )
    assert code == 0
    rows = read_csv(tmp_path / "qfi_bound.csv")
    assert len(rows) == 25
    assert all(r["flagged"] == "no" for r in rows)
    assert all(float(r["margin"]) >= -1e-4 for r in rows)


def test_verify_subset_passes_and_reports(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, QUICK.format(t=200, extra="[verify]\nchecks = 1, 2, 8\n")
    )
    code, out, _ = run_cli(
        capsys, "verify", "--config", cfg, "--out", tmp_path / "o"
    )
    assert code == 0
    assert "all 3 checks passed" in out
    rows = read_csv(tmp_path / "o" / "verify_report.csv")
    assert all(r["passed"] == "yes" for r in rows)
    # runtime metrics stay volatile: nan in the CSV, real numbers in the JSON
    runtime_rows = [r for r in rows if r["metric"] == "runtime_s"]
    assert runtime_rows and all(r["value"] == "nan" for r in runtime_rows)


def test_verify_report_rows_match_header(tmp_path, capsys):
    # check 7 reports a range threshold such as "in [0.375, 0.625]"
    cfg = write_cfg(
        tmp_path, QUICK.format(t=200, extra="[verify]\nchecks = 2, 7\n")
    )
    code, _, _ = run_cli(capsys, "verify", "--config", cfg, "--out", tmp_path / "o")
    assert code == 0
    header, *rows = csv_rows(tmp_path / "o" / "verify_report.csv")
    assert rows and all(len(row) == len(header) for row in rows)
    assert any("," in row[header.index("threshold")] for row in rows)
    assert all(row[header.index("passed")] == "yes" for row in rows)


def test_verify_json_one_object_per_check(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, QUICK.format(t=200, extra="[verify]\nchecks = 2, 3\n")
    )
    code, out, _ = run_cli(
        capsys, "verify", "--config", cfg, "--out", tmp_path / "o", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [obj["check"] for obj in payload] == [2, 3]
    for obj in payload:
        assert obj["passed"] is True
        assert obj["runtime_s"] >= 0.0
        assert obj["metrics"]


def test_verify_tampered_anchor_fails_by_name(tmp_path, capsys, monkeypatch):
    # no scenario key moves an anchor, so the test moves it in the code
    monkeypatch.setattr(
        cli, "VerifyParams", functools.partial(VerifyParams, nonadiabatic_t_long=5.0)
    )
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra="[verify]\nchecks = 5\n"))
    code, out, _ = run_cli(
        capsys, "verify", "--config", cfg, "--out", tmp_path / "o"
    )
    assert code == 1
    assert "FAILED: nonadiabaticity-scaling" in out
    rows = read_csv(tmp_path / "o" / "verify_report.csv")
    assert any(r["passed"] == "no" for r in rows)


def test_verify_seed_reaches_the_suite(tmp_path, capsys, monkeypatch):
    # the suite runs at --seed, else [run] seed, at its pinned operating points
    seen = []

    def spy(params, checks=None):
        seen.append((params, checks))
        return real(params, checks)

    real = cli.run_checks
    monkeypatch.setattr(cli, "run_checks", spy)
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra="[verify]\nchecks = 2\n"))
    for extra in ((), ("--seed", 7)):
        code, _, _ = run_cli(
            capsys, "verify", "--config", cfg, "--out", tmp_path / "o", *extra
        )
        assert code == 0
    assert seen == [(VerifyParams(seed=99), (2,)), (VerifyParams(seed=7), (2,))]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(VerifyParams)])
def test_verify_operating_point_keys_exit_2(tmp_path, capsys, name):
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra=f"[verify]\n{name} = 1\n"))
    code, _, err = run_cli(capsys, "verify", "--config", cfg, "--out", tmp_path)
    assert code == 2 and f"unknown [verify] key {name!r}" in err
    assert not list(tmp_path.glob("*.csv"))


def test_verify_report_identical_on_rerun(tmp_path, capsys, monkeypatch):
    # each run starts from an empty mode-table memo, so the rerun recomputes
    # every table instead of reading the first run's
    cfg = write_cfg(
        tmp_path, QUICK.format(t=200, extra="[verify]\nchecks = 4, 5\n")
        .replace("sigma = 0.1", "sigma = 0.2"),
    )
    blobs = []
    for k in range(2):
        monkeypatch.setattr(pointer, "_MODE_MEMO", {})
        code, _, _ = run_cli(
            capsys, "verify", "--config", cfg, "--out", tmp_path / f"o{k}"
        )
        assert code == 0
        blobs.append((tmp_path / f"o{k}" / "verify_report.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_configuration_errors_exit_2(tmp_path, capsys):
    # theta outside the domain
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra="").replace(
        "theta = 0.3", "theta = 1.5"))
    code, _, err = run_cli(capsys, "steady", "--config", cfg, "--out", tmp_path)
    assert code == 2 and "outside the model domain" in err

    # scaling without a sweep section
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra=""), name="nosweep.ini")
    code, _, err = run_cli(capsys, "scaling", "--config", cfg, "--out", tmp_path)
    assert code == 2 and "no [sweep] section" in err

    # an apparatus value the grid rejects
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra="").replace(
        "sigma = 0.1", "sigma = -0.1"), name="negsigma.ini")
    code, _, err = run_cli(capsys, "steady", "--config", cfg, "--out", tmp_path)
    assert code == 2 and "sigma must be positive" in err
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra="").replace(
        "sigma = 0.1", "sigma = 0"), name="zerosigma.ini")
    code, _, err = run_cli(
        capsys, "dam-distribution", "--config", cfg, "--out", tmp_path
    )
    assert code == 2 and "sigma must be positive" in err

    # unknown verify key
    cfg = write_cfg(
        tmp_path, QUICK.format(t=200, extra="[verify]\nbogus_knob = 1\n"),
        name="bogus.ini",
    )
    code, _, err = run_cli(capsys, "verify", "--config", cfg, "--out", tmp_path)
    assert code == 2 and "unknown [verify] key" in err

    # unreadable model file
    cfg = write_cfg(
        tmp_path,
        QUICK.format(t=200, extra="").replace("name = gad", "file = nope.json"),
        name="missing.ini",
    )
    code, _, err = run_cli(capsys, "steady", "--config", cfg, "--out", tmp_path)
    assert code == 2 and "nope.json" in err


def test_model_file_named_gad_is_not_the_builtin(tmp_path, capsys):
    # only the registered gad model gets the gad bound and the povm baseline,
    # whatever name a model file gives itself
    text = (CONFIG_DIR / "driven_gad.json").read_text()
    (tmp_path / "fake.json").write_text(text.replace('"driven_gad"', '"gad"'))
    cfg = write_cfg(
        tmp_path,
        QUICK.format(
            t=2000, extra="link = steady\n[sweep]\naxis = N\nvalues = 4, 16\n"
        ).replace("name = gad", "file = fake.json"),
    )
    code, _, err = run_cli(capsys, "qfi-bound", "--config", cfg, "--out", tmp_path)
    assert code == 2 and "registered gad model" in err
    code, _, err = run_cli(capsys, "scaling", "--config", cfg, "--out", tmp_path)
    assert code == 0, err
    rows = read_csv(tmp_path / "scaling.csv")
    assert {r["series"] for r in rows} == {"dam", "ideal"}


@pytest.mark.parametrize(
    "model, theta, observable",
    [
        ("name = product_gad_2", "0.3, 0.6", "excited@2, excited@1"),
        ("file = driven_gad.json", "0.3", "excited"),
    ],
)
def test_scaling_refuses_an_identity_link_that_does_not_hold(
    tmp_path, capsys, model, theta, observable
):
    # swapped sites read theta_2 as theta_1; the driven qubit's excited
    # population is 0.399 at theta = 0.3
    shutil.copy(CONFIG_DIR / "driven_gad.json", tmp_path)
    text = QUICK.format(t=500, extra="[sweep]\naxis = N\nvalues = 4\n")
    text = text.replace("name = gad", model).replace("theta = 0.3", f"theta = {theta}")
    cfg = write_cfg(tmp_path, text.replace("excited", observable))
    code, _, err = run_cli(capsys, "scaling", "--config", cfg, "--out", tmp_path)
    assert code == 2 and "the identity link does not hold" in err
    assert not list(tmp_path.glob("*.csv"))


def test_two_parameter_steady_link_scaling(tmp_path, capsys):
    cfg = CONFIG_DIR / "driven_gad2_scaling.ini"
    code, _, err = run_cli(capsys, "scaling", "--config", cfg, "--out", tmp_path)
    assert code == 0, err
    dam = [r for r in read_csv(tmp_path / "scaling.csv") if r["series"] == "dam"]
    assert [float(r["value"]) for r in dam] == [20.0, 50.0, 100.0]
    for r in dam:
        # 500 trials of two readings: the empirical error is good to about 2 %
        got, want = float(r["empirical_error"]), float(r["predicted_error"])
        assert abs(got - want) <= 0.1 * want
    # tilted reads <excited> - 1/2 on this model, so it adds nothing
    shutil.copy(CONFIG_DIR / "driven_gad2.json", tmp_path)
    text = cfg.read_text().replace("excited, sigma_y", "excited, tilted")
    bad = write_cfg(tmp_path, text, name="tilted.ini")
    out_dir = tmp_path / "tilted"
    code, _, err = run_cli(capsys, "scaling", "--config", bad, "--out", out_dir)
    assert code == 2 and "non-identifiable" in err
    assert not out_dir.exists() or not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize(
    "anchor, added, name",
    [
        ("trials = 200", "tirals = 5", "'tirals'"),
        ("sigma = 0.1", "sigam_p = 3", "'sigam_p'"),
        ("seed = 99", "workers = 2", "'workers'"),
        ("seed = 99", "\n[sweeep]\naxis = N", "[sweeep]"),
    ],
)
def test_unknown_scenario_keys_exit_2(tmp_path, capsys, anchor, added, name):
    text = QUICK.format(t=200, extra="").replace(anchor, f"{anchor}\n{added}")
    cfg = write_cfg(tmp_path, text)
    code, _, err = run_cli(capsys, "steady", "--config", cfg, "--out", tmp_path)
    assert code == 2 and name in err


@pytest.mark.parametrize("command", ["steady", "dam-distribution", "verify"])
def test_unknown_verify_key_exits_2_for_every_command(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, QUICK.format(t=200, extra="[verify]\nbogus = 1\n"))
    code, _, err = run_cli(capsys, command, "--config", cfg, "--out", tmp_path)
    assert code == 2 and "unknown [verify] key 'bogus'" in err
    assert not list(tmp_path.glob("*.csv"))


def test_misspelled_model_file_key_exits_2(tmp_path, capsys):
    text = (CONFIG_DIR / "driven_gad.json").read_text()
    assert '"hamiltonian"' in text
    (tmp_path / "driven_gad.json").write_text(
        text.replace('"hamiltonian"', '"hamiltonain"')
    )
    shutil.copy(CONFIG_DIR / "driven_demo.ini", tmp_path / "driven_demo.ini")
    code, _, err = run_cli(
        capsys, "steady", "--config", tmp_path / "driven_demo.ini", "--out", tmp_path
    )
    assert code == 2 and "unknown key 'hamiltonain'" in err and "hamiltonian" in err


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
def test_non_finite_model_file_number_exits_2(tmp_path, capsys, literal):
    text = (CONFIG_DIR / "driven_gad.json").read_text()
    const = '"const": 0.0'
    assert const in text
    (tmp_path / "driven_gad.json").write_text(
        text.replace(const, f'"const": {literal}', 1)
    )
    shutil.copy(CONFIG_DIR / "driven_demo.ini", tmp_path / "driven_demo.ini")
    code, _, err = run_cli(
        capsys, "steady", "--config", tmp_path / "driven_demo.ini", "--out", tmp_path
    )
    assert code == 2, err
    assert "driven_gad.json" in err and f"non-finite value '{literal}'" in err


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("[[0.0, 1.0]]", "[[false, true]]", "param_domain[0][0]"),
        ('"const": 1.0', '"const": true', "jumps[1].rate.const"),
    ],
    ids=["param-domain", "rate-const"],
)
def test_model_file_boolean_exits_2(tmp_path, capsys, old, new, where):
    # float(True) is 1.0: a boolean must not load as a number
    text = (CONFIG_DIR / "driven_gad.json").read_text()
    assert old in text
    (tmp_path / "driven_gad.json").write_text(text.replace(old, new, 1))
    shutil.copy(CONFIG_DIR / "driven_demo.ini", tmp_path / "driven_demo.ini")
    code, _, err = run_cli(
        capsys, "steady", "--config", tmp_path / "driven_demo.ini", "--out", tmp_path
    )
    assert code == 2, err
    assert "driven_gad.json" in err and f"{where}: expected a number, got" in err


HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "old, new",
    [('"const": 0.0', f'"const": {HUGE_INT}'), ("[0.35, 0.0]", f"[{HUGE_INT}, 0]")],
    ids=["rate-const", "hamiltonian-entry"],
)
def test_model_file_integer_beyond_float_range_exits_2(tmp_path, capsys, old, new):
    text = (CONFIG_DIR / "driven_gad.json").read_text()
    assert old in text
    (tmp_path / "driven_gad.json").write_text(text.replace(old, new, 1))
    shutil.copy(CONFIG_DIR / "driven_demo.ini", tmp_path / "driven_demo.ini")
    code, _, err = run_cli(
        capsys, "steady", "--config", tmp_path / "driven_demo.ini", "--out", tmp_path
    )
    assert code == 2, err
    assert "driven_gad.json" in err
    assert "integer of 401 digits beyond the float range" in err


def test_module_entry_point_runs(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "damlab.cli", "steady",
         "--config", str(CONFIG_DIR / "verify.ini"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "dissipative gap" in out.stdout


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_env(**blas):
    """The test environment with src/ on the path and only the given BLAS
    thread variables set."""
    src = str(Path(damlab.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    env.update(blas)
    return env


def blas_variables_after_import(env):
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, os, damlab; "
         f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREAD_VARIABLES}}}))"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_pins_one_blas_thread():
    got = blas_variables_after_import(fresh_env())
    assert got == {
        "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None
    }


@pytest.mark.parametrize("name, value", [("OMP_NUM_THREADS", "3"),
                                         ("OPENBLAS_NUM_THREADS", "2")])
def test_a_user_blas_thread_setting_wins(name, value):
    got = blas_variables_after_import(fresh_env(**{name: value}))
    assert got == {k: value if k == name else None for k in BLAS_THREAD_VARIABLES}


def test_blas_threads_do_not_change_the_csv(tmp_path):
    # driven_demo's tilted grid is 4x4 and depends on p + p': the pair path
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run = subprocess.run(
            [sys.executable, "-m", "damlab.cli", "dam-distribution",
             "--config", str(CONFIG_DIR / "driven_demo.ini"), "--out", str(out)],
            capture_output=True, text=True,
            env=fresh_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert run.returncode == 0, run.stderr
        written.append((out / "dam_distribution.csv").read_bytes())
    assert written[0] == written[1]


def test_console_script_installed():
    exe = shutil.which("damlab")
    if exe is None:
        pytest.skip("damlab script not on PATH")
    out = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "verify" in out.stdout
