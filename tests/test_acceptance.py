"""Acceptance gate: the ten primary checks, one pass/fail line each.

Runs the full verification suite once at module scope with its default
anchors and pinned tolerances, then asserts each check individually so
`pytest -v` reports a line per criterion. On failure the assert message
lists every metric that missed its threshold.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from damlab import models
from damlab.acceptance import CHECK_NAMES, VerifyParams, run_checks
from damlab.scenario import load_scenario

VERIFY_INI = Path(__file__).resolve().parent.parent / "configs" / "verify.ini"


@pytest.fixture(scope="module")
def suite():
    results = run_checks(VerifyParams())
    return {res.number: res for res in results}


def _require(suite, number):
    res = suite[number]
    assert res.name == CHECK_NAMES[number]
    if res.passed:
        return
    if res.error:
        pytest.fail(f"check {number} raised: {res.error}")
    bad = [f"{m.name}={m.value:.6g} (needs {m.threshold})"
           for m in res.metrics if not m.passed]
    pytest.fail(f"check {number} {res.name} failed: " + "; ".join(bad))


def test_c01_conventional_baseline(suite):
    _require(suite, 1)


def test_c02_steady_state_gap(suite):
    _require(suite, 2)


def test_c03_pseudoinverse_closed_form(suite):
    _require(suite, 3)


def test_c04_pointer_moments(suite):
    _require(suite, 4)


def test_c05_nonadiabaticity_scaling(suite):
    _require(suite, 5)


def test_c06_heisenberg_scaling(suite):
    _require(suite, 6)


def test_c07_perturbative_kernel(suite):
    _require(suite, 7)


def test_c08_qfi_suite(suite):
    _require(suite, 8)


def test_c09_multiparameter(suite):
    _require(suite, 9)


def test_c10_determinism_reduction(suite):
    _require(suite, 10)


def test_moved_operating_point_fails_its_check_by_name():
    results = run_checks(replace(VerifyParams(), nonadiabatic_t_long=5.0), checks=[5])
    assert [(res.number, res.name, res.passed) for res in results] == [
        (5, "nonadiabaticity-scaling", False)
    ]
    assert not results[0].error
    assert [m.name for m in results[0].metrics if not m.passed] == ["delta_at_5"]


def test_run_checks_refuses_repeated_numbers():
    with pytest.raises(ValueError, match="repeated check numbers"):
        run_checks(VerifyParams(), checks=[2, 2])


def test_pseudoinverse_draws_are_the_one_at_a_time_draws():
    # check 3 draws its matrices in one call: the same numbers in the same
    # order as a real and an imaginary 2x2 draw per matrix
    def rng():
        return np.random.default_rng(np.random.SeedSequence([VerifyParams().seed, 3]))

    g = rng().standard_normal((50, 2, 2, 2))
    one = rng()
    for draw in g:
        assert np.array_equal(draw[0], one.standard_normal((2, 2)))
        assert np.array_equal(draw[1], one.standard_normal((2, 2)))


def test_suite_assembles_each_models_dissipators_once(monkeypatch):
    """The suite's models are built once and shared by every check, and a
    Liouvillian at any theta reuses their stored dissipators."""
    models.gad_model.cache_clear()
    models.product_gad_model.cache_clear()
    assembled = []

    def counted(op):
        assembled.append(op.shape[0])
        return real(op)

    real = models.dissipator
    monkeypatch.setattr(models, "dissipator", counted)
    scn = load_scenario(VERIFY_INI)
    results = run_checks(VerifyParams(seed=scn.seed), checks=scn.checks)
    assert all(res.passed for res in results)
    assert models.gad_model() is models.gad_model()
    used = (models.gad_model(), models.product_gad_model(2))
    assert len(assembled) == sum(len(m.jumps) for m in used) == 6
