import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

from damlab.models import EXCITED_PROJECTOR
from damlab.scenario import (
    _SCHEMA,
    ScenarioError,
    load_model_file,
    load_scenario,
    scenario_runs,
)

GOOD = """
[model]
name = gad
theta = 0.3
observable = excited

[apparatus]
sigma = 0.1

[run]
t = 200
n = 1
trials = 500
seed = 42
"""


def write(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_scenario_parses(tmp_path):
    scn = load_scenario(write(tmp_path, GOOD))
    assert scn.model.name == "gad"
    assert scn.theta.tolist() == [0.3]
    assert scn.link_kind == "identity"
    assert scn.t == 200.0 and scn.n == 1.0
    assert scn.trials == 500 and scn.seed == 42
    assert scn.sweep_axis is None
    assert scn.observables[0][0] == "excited"
    assert np.array_equal(scn.observables[0][1], EXCITED_PROJECTOR)


def test_sha256_matches_file_bytes(tmp_path):
    path = write(tmp_path, GOOD)
    scn = load_scenario(path)
    assert scn.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_apparatus_defaults_follow_sigma(tmp_path):
    scn = load_scenario(write(tmp_path, GOOD.replace("sigma = 0.1", "sigma = 0.2")))
    app = scn.apparatus
    assert app.sigma == 0.2
    assert app.p_halfwidth == pytest.approx(6.0 / (2.0 * 0.2))
    assert app.p_points == 161
    assert app.q_halfwidth == pytest.approx(1.6)
    assert app.q_points == 2048


def test_apparatus_keys_override_defaults(tmp_path):
    text = GOOD.replace("sigma = 0.1", "sigma = 0.1\np_points = 81\nq_points = 512")
    app = load_scenario(write(tmp_path, text)).apparatus
    assert app.p_points == 81 and app.q_points == 512


def test_cli_arguments_win_over_file_keys(tmp_path):
    scn = load_scenario(write(tmp_path, GOOD), seed=7, out_dir="elsewhere")
    assert scn.seed == 7
    assert scn.out_dir == "elsewhere"


def test_missing_seed_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="seed is mandatory"):
        load_scenario(write(tmp_path, GOOD.replace("seed = 42", "")))


def test_seed_argument_repairs_missing_key(tmp_path):
    scn = load_scenario(write(tmp_path, GOOD.replace("seed = 42", "")), seed=5)
    assert scn.seed == 5


def test_domain_and_value_validation(tmp_path):
    for breaker, msg in (
        (("theta = 0.3", "theta = 1.5"), "outside the model domain"),
        (("theta = 0.3", "theta = 0.3, 0.5"), "theta needs 1"),
        (("name = gad", "name = sad"), "unknown model"),
        (("t = 200", "t = -3"), "t must be positive"),
        (("n = 1", "n = 0.5"), "n must be at least 1"),
        (("trials = 500", "trials = 10"), "trials must be at least 100"),
        (("observable = excited", "observable = parity"), "unknown observable"),
        (("sigma = 0.1", "sigma = nan"), r"\[apparatus\] sigma: cannot parse 'nan'"),
        (("t = 200", "t = inf"), r"\[run\] t: cannot parse 'inf'"),
        (("seed = 42", "seed = 42\n[sweep]\naxis = T\nvalues = 1, inf"),
         r"\[sweep\] values: cannot parse '1, inf'"),
    ):
        with pytest.raises(ScenarioError, match=msg):
            load_scenario(write(tmp_path, GOOD.replace(*breaker)))


def test_model_name_and_file_are_exclusive(tmp_path):
    text = GOOD.replace("name = gad", "name = gad\nfile = m.json")
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(write(tmp_path, text))


def test_product_model_site_observables(tmp_path):
    text = GOOD.replace("name = gad", "name = product_gad_2")
    text = text.replace("theta = 0.3", "theta = 0.2, 0.6")
    text = text.replace("observable = excited", "observable = excited@1, excited@2")
    scn = load_scenario(write(tmp_path, text))
    assert scn.model.param_dim == 2
    eye = np.eye(2)
    assert np.array_equal(scn.observables[0][1], np.kron(EXCITED_PROJECTOR, eye))
    assert np.array_equal(scn.observables[1][1], np.kron(eye, EXCITED_PROJECTOR))


def test_site_index_validation(tmp_path):
    text = GOOD.replace("name = gad", "name = product_gad_2")
    text = text.replace("theta = 0.3", "theta = 0.2, 0.6")
    bad = text.replace("observable = excited", "observable = excited@1, excited@3")
    with pytest.raises(ScenarioError, match="site out of range"):
        load_scenario(write(tmp_path, bad))
    bare = text.replace("observable = excited", "observable = excited@1, excited")
    with pytest.raises(ScenarioError, match="needs a site index"):
        load_scenario(write(tmp_path, bare))


def test_observable_count_must_match_parameters(tmp_path):
    text = GOOD.replace("name = gad", "name = product_gad_2")
    text = text.replace("theta = 0.3", "theta = 0.2, 0.6")
    text = text.replace("observable = excited", "observable = excited@1")
    with pytest.raises(ScenarioError, match="need 2 observables"):
        load_scenario(write(tmp_path, text))


def test_sweep_section_validation(tmp_path):
    base = GOOD + "\n[sweep]\naxis = N\nvalues = 1, 2, 5\n"
    scn = load_scenario(write(tmp_path, base))
    assert scn.sweep_axis == "N"
    assert scn.sweep_values == (1.0, 2.0, 5.0)
    for breaker, msg in (
        (("values = 1, 2, 5", "values = 5, 2, 1"), "ascending"),
        (("values = 1, 2, 5", "values = 1, 1, 5"), "distinct"),
        (("axis = N", "axis = Q"), "axis must be"),
        (("seed = 42", "seed = 42\nn_over_t = 0.01"), r"\[run\] n_over_t"),
    ):
        with pytest.raises(ScenarioError, match=msg):
            load_scenario(write(tmp_path, base.replace(*breaker)))
    tied = base.replace("axis = N", "axis = T")
    tied = tied.replace("seed = 42", "seed = 42\nn_over_t = 0.01")
    assert load_scenario(write(tmp_path, tied)).n_over_t == 0.01


def test_verify_section_checks_and_overrides(tmp_path):
    # [verify] takes only the checks to run: the operating points are pinned
    text = GOOD + "\n[verify]\nchecks = 2, 3\n"
    scn = load_scenario(write(tmp_path, text))
    assert scn.checks == (2, 3)
    assert _SCHEMA["verify"].keys() == {"checks"}
    assert sum(len(keys) for keys in _SCHEMA.values()) == 19
    for bad, msg in (
        ("checks = 0", "1..10"),
        ("checks = 2, 3, 2", "distinct"),
        ("checks = 2, 3\npert_t = 100", r"unknown \[verify\] key 'pert_t'"),
    ):
        with pytest.raises(ScenarioError, match=msg):
            load_scenario(write(tmp_path, text.replace("checks = 2, 3", bad)))


def test_unknown_verify_key_rejected_at_load(tmp_path):
    path = write(tmp_path, GOOD + "\n[verify]\nbogus = 1\n")
    with pytest.raises(ScenarioError, match=r"unknown \[verify\] key 'bogus'") as info:
        load_scenario(path)
    assert str(path) in str(info.value)


def test_unparseable_verify_value_rejected_at_load(tmp_path):
    text = GOOD + "\n[verify]\nchecks = a, b\n"
    with pytest.raises(ScenarioError, match=r"\[verify\] checks: cannot parse"):
        load_scenario(write(tmp_path, text))


def test_scenario_runs_builds_one_run_per_observable(tmp_path):
    scn = load_scenario(write(tmp_path, GOOD))
    runs = scenario_runs(scn)
    assert len(runs) == 1
    assert runs[0].t == 200.0 and runs[0].n == 1.0
    override = scenario_runs(scn, t=50.0, n=4.0)[0]
    assert override.t == 50.0 and override.n == 4.0


MODEL = {
    "name": "tilted_qubit",
    "dim": 2,
    "param_domain": [[0.0, 1.0]],
    "hamiltonian": [[[0.0, 0.0], [0.35, 0.0]], [[0.35, 0.0], [0.0, 0.0]]],
    "jumps": [
        {
            "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "rate": {"const": 0.0, "slope_per_param": [1.0]},
        },
        {
            "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "rate": {"const": 1.0, "slope_per_param": [-1.0]},
        },
    ],
    "observables": {
        "tilted": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-0.5, 0.0]]]
    },
}


def write_model(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_model_file_parses_matrices_and_rates(tmp_path):
    model, named = load_model_file(write_model(tmp_path, MODEL))
    assert model.name == "tilted_qubit"
    assert model.param_dim == 1 and model.system_dim == 2
    h = model.hamiltonian
    assert h[0, 1] == pytest.approx(0.35)
    assert list(model.rates(np.array([0.3]))) == pytest.approx([0.3, 0.7])
    assert np.array_equal(
        named["tilted"], np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex)
    )


def test_model_file_used_from_scenario(tmp_path):
    write_model(tmp_path, MODEL)
    text = GOOD.replace("name = gad", "file = m.json")
    text = text.replace("observable = excited", "observable = tilted")
    scn = load_scenario(write(tmp_path, text))
    assert scn.model.name == "tilted_qubit"
    assert scn.observables[0][0] == "tilted"


def test_model_file_rejects_negative_rate_corner(tmp_path):
    doc = json.loads(json.dumps(MODEL))
    doc["jumps"][0]["rate"] = {"const": -0.1, "slope_per_param": [1.0]}
    with pytest.raises(ScenarioError, match="negative at domain corner"):
        load_model_file(write_model(tmp_path, doc))


def test_model_file_shape_and_type_errors(tmp_path):
    doc = json.loads(json.dumps(MODEL))
    doc["hamiltonian"] = [[0.0, 0.35], [0.35, 0.0]]
    with pytest.raises(ScenarioError, match="expected shape 2x2x2"):
        load_model_file(write_model(tmp_path, doc))

    doc = json.loads(json.dumps(MODEL))
    doc["jumps"][0]["rate"]["slope_per_param"] = [1.0, 2.0]
    with pytest.raises(ScenarioError, match="must have 1 entries"):
        load_model_file(write_model(tmp_path, doc))

    doc = json.loads(json.dumps(MODEL))
    doc["dim"] = 12
    with pytest.raises(ScenarioError, match=r"dim must be an integer in \[2, 8\]"):
        load_model_file(write_model(tmp_path, doc))

    doc = json.loads(json.dumps(MODEL))
    doc["observables"]["tilted"][0][1] = [0.5, 0.2]
    with pytest.raises(ScenarioError, match="not Hermitian"):
        load_model_file(write_model(tmp_path, doc))

    doc = json.loads(json.dumps(MODEL))
    doc["jumps"] = []
    with pytest.raises(ScenarioError, match="jumps must be a nonempty list"):
        load_model_file(write_model(tmp_path, doc))

    # a list or a string of observables, a domain entry that is an object, a
    # string, three numbers or booleans, and a boolean matrix entry
    pair = r"param_domain\[0\]: expected \[lo, hi\]"
    for key, value, match in [
        ("observables", [MODEL["observables"]["tilted"]], "must be an object"),
        ("observables", "tilted", "must be an object"),
        ("param_domain", [{"lo": 0.0, "hi": 1.0}], pair),
        ("param_domain", ["01"], pair),
        ("param_domain", [[0.0, 1.0, 2.0]], pair),
        ("param_domain", [[False, True]], r"param_domain\[0\]\[0\]: expected a number"),
        ("hamiltonian", [[[0.0, 0.0], [True, 0.0]], [[0.35, 0.0], [0.0, 0.0]]],
         r"hamiltonian\[0\]\[1\]\[0\]: expected a number"),
    ]:
        doc = json.loads(json.dumps(MODEL))
        doc[key] = value
        with pytest.raises(ScenarioError, match=match) as info:
            load_model_file(write_model(tmp_path, doc, name="malformed.json"))
        assert "malformed.json" in str(info.value)


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: doc.update(hamiltonain=doc.pop("hamiltonian")), "'hamiltonain'"),
        (lambda doc: doc["jumps"][1].update(rates={}), "jumps[1]: unknown key 'rates'"),
        (
            lambda doc: doc["jumps"][0]["rate"].update(slope=[1.0]),
            "jumps[0].rate: unknown key 'slope'",
        ),
    ],
)
def test_model_file_rejects_unknown_keys(tmp_path, edit, where):
    doc = json.loads(json.dumps(MODEL))
    edit(doc)
    with pytest.raises(ScenarioError, match=r"unknown key") as info:
        load_model_file(write_model(tmp_path, doc))
    assert where in str(info.value) and "(keys: " in str(info.value)


def test_model_file_syntax_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  "dim": ,\n}\n')
    with pytest.raises(ScenarioError, match="line 3"):
        load_model_file(path)


def test_shipped_configs_load():
    shipped = sorted(CONFIG_DIR.glob("*.ini"))
    assert len(shipped) >= 5
    for path in shipped:
        scn = load_scenario(path)
        assert scn.seed is not None
    driven = load_scenario(CONFIG_DIR / "driven_demo.ini")
    assert driven.model.name == "driven_gad"
    h = driven.model.hamiltonian
    assert h is not None and h[0, 1] == pytest.approx(0.35)
