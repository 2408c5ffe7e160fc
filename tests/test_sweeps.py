import dataclasses
import json
import math
import sys

import pytest

import damlab.models
from damlab import sweeps
from damlab.models import EXCITED_PROJECTOR, gad_model, steady_state_bundle
from damlab.pointer import DamRun, default_apparatus
from damlab.scenario import load_scenario
from damlab.svgplot import LineChart
from damlab.sweeps import (
    SWEEP_COLUMNS,
    SweepResult,
    SweepRow,
    format_cell,
    leading_nonadiabaticity,
    nonadiabaticity_sweep,
    scaling_sweep,
    sweep_csv,
    write_csv,
)


def gad_run(t, sigma):
    return DamRun(
        model=gad_model(),
        theta=(0.3,),
        observable=EXCITED_PROJECTOR,
        t=t,
        n=1,
        apparatus=default_apparatus(sigma),
    )


def scenario(tmp_path, extra="", **overrides):
    base = {
        "theta": "0.5",
        "sigma": "0.18",
        "t": "2000",
        "n": "1",
        "trials": "200",
        "seed": "12",
    }
    base.update(overrides)
    text = f"""
[model]
name = gad
theta = {base["theta"]}
observable = excited

[apparatus]
sigma = {base["sigma"]}

[run]
t = {base["t"]}
n = {base["n"]}
trials = {base["trials"]}
seed = {base["seed"]}
{extra}
"""
    path = tmp_path / "scn.ini"
    path.write_text(text)
    return load_scenario(path)


def test_format_cell_types():
    assert format_cell("dam") == "dam"
    assert format_cell(3) == "3"
    assert format_cell(0.1) == "0.1"
    assert format_cell(float("nan")) == "nan"
    assert format_cell(1.0 / 3.0) == "0.333333333333"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), ("x", float("nan"))],
              comments=("hello",))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == "# hello\na,b\n1,0.5\nx,nan\n"


def test_scaling_sweep_series_and_values(tmp_path):
    scn = scenario(tmp_path, extra="[sweep]\naxis = N\nvalues = 1, 4, 16\n")
    result = scaling_sweep(scn)
    dam = result.series("dam")
    povm = result.series("povm")
    ideal = result.series("ideal")
    assert [r.value for r in dam] == [1.0, 4.0, 16.0]
    assert len(povm) == 3 and len(ideal) == 3
    for r in dam:
        # 200 trials: the MC estimate sits within a generous band of the formula
        assert abs(r.empirical / r.predicted - 1.0) < 0.25
        assert r.ci_lo < r.empirical < r.ci_hi
    for r in ideal:
        assert r.predicted == pytest.approx(0.18 / r.value)
    slope = result.loglog_slope("dam")
    assert -1.1 < slope < -0.75


def test_scaling_sweep_is_deterministic(tmp_path):
    scn = scenario(tmp_path, extra="[sweep]\naxis = N\nvalues = 2, 8\n")
    a = scaling_sweep(scn)
    b = scaling_sweep(scn)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.cells() == rb.cells()


def test_scaling_sweep_t_axis_with_locked_ratio(tmp_path):
    scn = scenario(
        tmp_path,
        extra="[sweep]\naxis = T\nvalues = 1000, 2000, 4000\n",
    )
    scn = dataclasses.replace(scn, n_over_t=0.005)
    result = scaling_sweep(scn)
    dam = result.series("dam")
    # N = T/200 locks the backaction bracket, so predicted error times N
    # is the same number at every T
    products = [r.predicted * 0.005 * r.value for r in dam]
    assert max(products) - min(products) <= 1e-12


def test_scaling_sweep_theta_axis(tmp_path):
    scn = scenario(
        tmp_path,
        t="500",
        n="10",
        extra="[sweep]\naxis = theta\nvalues = 0.3, 0.5\n",
    )
    result = scaling_sweep(scn)
    dam = result.series("dam")
    assert [r.value for r in dam] == [0.3, 0.5]
    povm = result.series("povm")
    assert [round(r.predicted, 12) for r in povm] == [
        round(math.sqrt(0.21 / 10.0), 12),
        round(math.sqrt(0.25 / 10.0), 12),
    ]


def test_scaling_sweep_builds_one_bundle_per_run(tmp_path, monkeypatch):
    # two pointers (one per qubit) at each of two N points: four runs, and
    # each run's steady state is built once, wherever in damlab it is read
    path = tmp_path / "product.ini"
    path.write_text(
        "[model]\nname = product_gad_2\ntheta = 0.3, 0.6\n"
        "observable = excited@1, excited@2\n[apparatus]\nsigma = 0.1\n"
        "[run]\nt = 500\nn = 10\ntrials = 200\nseed = 1\n"
        "[sweep]\naxis = N\nvalues = 10, 20\n"
    )
    scn = load_scenario(path)
    calls, solves = [], []
    solve = damlab.models._solve_steady_state

    def counted(model, theta, *args, **kwargs):
        calls.append(tuple(theta))
        return steady_state_bundle(model, theta, *args, **kwargs)

    def counted_solve(model, theta):
        solves.append(tuple(theta))
        return solve(model, theta)

    monkeypatch.setattr(damlab.models, "_BUNDLE_MEMO", {})
    monkeypatch.setattr(damlab.models, "_solve_steady_state", counted_solve)

    for name, mod in list(sys.modules.items()):
        if name.startswith("damlab") and mod is not None:
            if getattr(mod, "steady_state_bundle", None) is steady_state_bundle:
                monkeypatch.setattr(mod, "steady_state_bundle", counted)
    assert damlab.models.steady_state_bundle is counted
    result = scaling_sweep(scn)
    assert len([r for r in result.rows if r.series == "dam"]) == 2
    assert calls == [(0.3, 0.6)] * 4
    # and all four share one steady-state solve
    assert solves == [(0.3, 0.6)]


@pytest.mark.parametrize(
    "axis, values, checked",
    [("N", "10, 20", [(0.5,)]), ("theta", "0.3, 0.5", [(0.3,), (0.5,)])],
)
def test_scaling_sweep_checks_the_identity_link_once_per_theta(
    tmp_path, monkeypatch, axis, values, checked
):
    # the check solves for the steady response at the point's theta, which
    # only a theta sweep moves
    extra = f"[sweep]\naxis = {axis}\nvalues = {values}\n"
    scn = scenario(tmp_path, t="500", n="10", extra=extra)
    seen = []
    response = sweeps._steady_response

    def counted(model, observables, thetas):
        seen.append(tuple(thetas[0]))
        return response(model, observables, thetas)

    monkeypatch.setattr(sweeps, "_steady_response", counted)
    result = scaling_sweep(scn)
    assert len(result.series("dam")) == len(values.split(","))
    assert seen == checked


def test_scaling_sweep_needs_sweep_section(tmp_path):
    scn = scenario(tmp_path)
    with pytest.raises(ValueError, match="no \\[sweep\\] section"):
        scaling_sweep(scn)


def test_sweep_csv_schema(tmp_path):
    scn = scenario(tmp_path, extra="[sweep]\naxis = N\nvalues = 1, 4\n")
    result = scaling_sweep(scn)
    path = tmp_path / "s.csv"
    sweep_csv(result, path)
    lines = path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == ",".join(SWEEP_COLUMNS)
    assert lines[0] == f"# scenario sha256 {scn.sha256}"
    # runtimes never leak into the file
    assert "runtime" not in path.read_text()


def test_nonadiabaticity_sweep_tracks_leading_form(tmp_path):
    scn = scenario(
        tmp_path,
        theta="0.3",
        sigma="0.2",
        extra="[sweep]\naxis = T\nvalues = 100, 200\n",
    )
    result = nonadiabaticity_sweep(scn)
    rows = result.series("delta")
    assert len(rows) == 2
    ratio = rows[1].delta / rows[0].delta
    assert 0.4 < ratio < 0.65
    for r in rows:
        assert abs(r.delta / r.predicted - 1.0) < 0.12
    run = gad_run(t=100.0, sigma=0.2)
    assert rows[0].predicted == pytest.approx(leading_nonadiabaticity(run))


def test_leading_nonadiabaticity_value():
    # 2 sigma'^2 sqrt(3) theta(1-theta) / T with sigma' = 2.5
    got = leading_nonadiabaticity(gad_run(t=100.0, sigma=0.2))
    assert got == pytest.approx(2.0 * 6.25 * math.sqrt(3.0) * 0.21 / 100.0,
                                rel=1e-9)


def test_nonadiabaticity_sweep_axis_validation(tmp_path):
    scn = scenario(tmp_path, extra="[sweep]\naxis = N\nvalues = 1, 2\n")
    with pytest.raises(ValueError, match="over the T axis"):
        nonadiabaticity_sweep(scn)


def test_loglog_slope_on_synthetic_rows():
    result = SweepResult(command="scaling", axis="N", scenario_sha256="0" * 64)
    for n in (1.0, 10.0, 100.0):
        result.rows.append(
            SweepRow(series="dam", axis="N", value=n, empirical=2.0 / n)
        )
    assert result.loglog_slope("dam") == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="fewer than two"):
        result.loglog_slope("povm")


def test_to_jsonable_is_serializable(tmp_path):
    scn = scenario(tmp_path, extra="[sweep]\naxis = N\nvalues = 1, 4\n")
    result = scaling_sweep(scn)
    blob = json.dumps(result.to_jsonable())
    back = json.loads(blob)
    assert back["columns"] == list(SWEEP_COLUMNS)
    assert len(back["rows"]) == len(result.rows)


def test_linechart_renders_series_and_desc():
    chart = LineChart(title="a <b>", xlabel="x", ylabel="y", xlog=True, ylog=True)
    chart.add("first", [1.0, 10.0, 100.0], [1.0, 0.1, 0.01])
    chart.add("second", [1.0, 10.0, 100.0], [2.0, 0.2, 0.02], dashed=True)
    chart.add_vline(10.0, "mark")
    svg = chart.render(desc="sha xyz")
    assert svg.startswith("<svg ")
    assert "<desc>sha xyz</desc>" in svg
    assert "a &lt;b&gt;" in svg
    assert svg.count("<polyline") == 2
    assert 'stroke-dasharray="6,4"' in svg
    assert 'stroke-dasharray="2,3"' in svg
    assert "mark" in svg


@pytest.mark.parametrize("text", ["a & b", "<&amp;>", "\"q\" 'r' >"])
def test_linechart_escapes_text_as_html_escape_without_quotes(text):
    from html import escape

    chart = LineChart(title=text, xlabel=text, ylabel=text)
    chart.add(text, [1.0, 2.0], [1.0, 2.0])
    chart.add_vline(1.5, text)
    svg = chart.render(desc=text)
    assert svg.count(f">{escape(text, quote=False)}</") == 6


def test_linechart_skips_nonfinite_and_nonpositive():
    chart = LineChart(ylog=True)
    chart.add("s", [1.0, 2.0, 3.0, 4.0], [1.0, float("nan"), -1.0, 2.0])
    svg = chart.render()
    # only the two usable points survive
    line = [l for l in svg.splitlines() if "<polyline" in l][0]
    assert line.count(",") == 2


def test_linechart_empty_raises():
    chart = LineChart()
    chart.add("s", [1.0], [float("nan")])
    with pytest.raises(ValueError, match="no plottable points"):
        chart.render()


def test_linechart_write_lf(tmp_path):
    chart = LineChart()
    chart.add("s", [0.0, 1.0], [0.0, 1.0])
    path = tmp_path / "c.svg"
    chart.write(path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"</svg>\n")
