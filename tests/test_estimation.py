import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import damlab
from damlab import estimation, models
from damlab.estimation import (
    LinkFunction,
    _chi2_ci,
    _chi2_ppf,
    amplitude_damping_pair,
    conventional_povm_error,
    cramer_rao_bound,
    dam_error_formula,
    dam_estimate,
    gad_channel_decomposition_check,
    identity_link,
    ideal_error_floor,
    mc_dam_error,
    multiparam_error_formula,
    qfi_output_bound_check,
    qfi_state,
    steady_expectation_link,
)
from damlab.models import (
    EXCITED_PROJECTOR,
    SIGMA_MINUS,
    SIGMA_PLUS,
    LindbladModel,
    gad_model,
    product_gad_model,
    steady_state_bundle,
)
from damlab.operators import devectorize, lindblad_superoperator, vectorize
from damlab.pointer import DamRun, default_apparatus
from damlab.scenario import load_model_file

from oracles import chi2_quantile_error, dense_bundle, random_density

A = EXCITED_PROJECTOR


def gad_run(theta, n, t, sigma=0.1):
    return DamRun(
        model=gad_model(),
        theta=(theta,),
        observable=A,
        t=t,
        n=n,
        apparatus=default_apparatus(sigma),
    )


# ---------------------------------------------------------------- links


def test_identity_link_roundtrip():
    link = identity_link()
    assert link.m == 1
    th = np.array([0.37])
    assert np.array_equal(link.inverse(link.forward(th)[None]), th[None])
    assert np.array_equal(link.jacobian_inverse(np.array([0.4])), np.eye(1))
    rows = np.array([[0.1], [0.5], [0.9]])
    assert np.array_equal(link.inverse(rows), rows)
    rows = np.array([[0.1, 0.2], [0.5, 0.6]])
    assert np.array_equal(identity_link(((0, 1), (0, 1))).inverse(rows), rows)


def test_link_has_one_inverse_and_accepts_the_retired_keyword():
    # perfbench/tracer.py wraps a link by dataclasses.replace(link, inverse=...,
    # inverse_batch=..., jacobian_inverse=...): inverse_batch is dropped
    link = identity_link()

    def double(rows):
        return 2.0 * rows

    wrapped = dataclasses.replace(link, inverse=double, inverse_batch=len)
    assert [f.name for f in dataclasses.fields(wrapped)] == [
        "m", "forward", "inverse", "jacobian_inverse", "domain"
    ]
    # estimates read the one inverse
    assert dam_estimate(0.2, 1, wrapped).theta == pytest.approx(0.4)


def test_steady_expectation_link_on_gad_is_identity():
    link = steady_expectation_link(gad_model(), [A])
    for th in (0.05, 0.3, 0.62, 0.95):
        f = link.forward(np.array([th]))
        assert abs(f[0] - th) <= 1e-9
        assert abs(link.inverse(f[None])[0, 0] - th) <= 1e-8
    assert abs(link.jacobian_inverse(np.array([0.3]))[0, 0] - 1.0) <= 1e-6
    # a reading outside the image lands on the face of the domain, flagged
    (lo, hi), = link.domain
    assert link.inverse(np.array([[1.5], [-0.5]]))[:, 0].tolist() == [hi, lo]
    assert dam_estimate(1.5, 1, link) == (hi, True)
    assert not dam_estimate(0.4, 1, link).clamped


@st.composite
def affine_models(draw, max_params=1):
    """Random GKLS model of dim 2-3 with a Hamiltonian and 1-``max_params``
    parameters on (0, 1)^M, rates affine in them, and a random Hermitian
    observable per parameter. Entries are quarter-integers."""
    d = draw(st.integers(2, 3))
    m = draw(st.integers(1, max_params)) if max_params > 1 else 1

    def matrix():
        re = draw(arrays(np.int8, (d, d), elements=st.integers(-4, 4)))
        im = draw(arrays(np.int8, (d, d), elements=st.integers(-4, 4)))
        return (re + 1j * im) / 4.0

    def hermitian():
        g = matrix()
        return (g + g.conj().T) / 2.0

    h = hermitian()
    jumps = []
    for _ in range(draw(st.integers(1, 3))):
        const = draw(st.integers(0, 4))
        slopes, budget = [], const
        for _ in range(m):
            slope = draw(st.integers(-budget, 4))  # rate >= 0 on [0, 1]^M
            budget += min(slope, 0)
            slopes.append(slope / 4.0)
        jumps.append((matrix(), const / 4.0, tuple(slopes)))

    model = LindbladModel(
        name="random_affine",
        param_domain=tuple((0.0, 1.0) for _ in range(m)),
        hamiltonian=h,
        jumps=tuple(jumps),
    )
    return model, [hermitian() for _ in range(m)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    affine_models(max_params=2),
    st.lists(st.floats(0.02, 0.98), min_size=2, max_size=2),
)
def test_steady_link_matches_bundle_oracle(model_and_a, point):
    model, a = model_and_a
    m = model.param_dim
    theta = np.array(point[:m])
    try:
        link = steady_expectation_link(model, a)
    except ValueError as exc:
        if "unique gapped steady state" in str(exc) or "cannot identify" in str(exc):
            reject()
        raise

    def oracle(th):
        rho, _ = dense_bundle(model.liouvillian(th))
        return np.array([np.trace(aj @ rho).real for aj in a])

    f = link.forward(theta)
    assert np.abs(f - oracle(theta)).max() <= 1e-10
    h = 1e-5
    jac = np.column_stack(
        [(oracle(theta + d) - oracle(theta - d)) / (2.0 * h) for d in h * np.eye(m)]
    )
    if np.linalg.cond(jac) > 1e4:
        reject()  # the difference quotient is good to about 1e-10
    assert np.abs(link.jacobian_inverse(theta) @ jac - np.eye(m)).max() <= 1e-6
    assert np.abs(link.inverse(f[None])[0] - theta).max() <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    affine_models(max_params=2),
    st.lists(st.floats(0.02, 0.98), min_size=2, max_size=2),
)
def test_model_liouvillian_matches_lindblad_superoperator(model_and_a, point):
    model, _ = model_and_a
    theta = np.array(point[: model.param_dim])
    jumps = [
        (op, c + sum(sk * tk for sk, tk in zip(s, theta))) for op, c, s in model.jumps
    ]
    assert np.array_equal(
        model.liouvillian(theta), lindblad_superoperator(model.hamiltonian, jumps)
    )
    # L is affine, so the central difference is exact up to rounding
    h = 1e-3
    derivs = model.liouvillian_derivatives()
    assert derivs.shape == (model.param_dim,) + model.liouvillian(theta).shape
    for i, step in enumerate(h * np.eye(model.param_dim)):
        lo, hi = theta - step, theta + step
        central = (model.liouvillian(hi) - model.liouvillian(lo)) / (hi - lo)[i]
        assert np.abs(derivs[i] - central).max() <= 1e-9


def test_liouvillian_assembles_no_superoperator(monkeypatch):
    built = (gad_model(), product_gad_model(2))

    def forbidden(*args, **kwargs):
        raise AssertionError("superoperator assembled after construction")

    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(models, "dissipator", forbidden)
    monkeypatch.setattr(models, "hamiltonian_term", forbidden)
    for m in built:
        m.liouvillian(np.full(m.param_dim, 0.3))
        m.liouvillian_derivatives()
        # the factories share one model per argument, so nothing in it may change
        with pytest.raises(ValueError, match="read-only"):
            m.jumps[0][0][0, 0] = 1.0
    steady_expectation_link(gad_model(), [A])


def qubit_model(name, down, up):
    """Qubit with jumps sigma_-, sigma_+ at affine rates on (0, 1); ``down``
    and ``up`` are (const, slope) pairs."""
    return LindbladModel(
        name=name,
        param_domain=((0.0, 1.0),),
        hamiltonian=None,
        jumps=(
            (SIGMA_MINUS, down[0], (down[1],)),
            (SIGMA_PLUS, up[0], (up[1],)),
        ),
    )


def test_model_rejects_slopes_of_the_wrong_length():
    for slopes in ((), (1.0, 0.0), 1.0):
        with pytest.raises(ValueError, match="'bad'.*slopes"):
            LindbladModel(
                name="bad",
                param_domain=((0.0, 1.0),),
                hamiltonian=None,
                jumps=((SIGMA_MINUS, 0.0, slopes),),
            )


def test_model_rejects_negative_rates():
    model = qubit_model("falling", (0.5, -1.0), (1.0, 0.0))
    assert model.liouvillian([0.4]).shape == (4, 4)
    with pytest.raises(ValueError, match="negative jump rate"):
        model.liouvillian([0.6])
    with pytest.raises(ValueError, match="negative jump rate"):
        steady_expectation_link(model, [A])


def test_steady_link_raises_when_newton_does_not_converge(monkeypatch):
    # <A> = theta / (theta + 1/2): halfway between two seeds, the linearized
    # step from the nearest seed alone is not converged
    link = steady_expectation_link(qubit_model("pumped", (0.0, 1.0), (0.5, 0.0)), [A])
    thetas = np.array([0.31125, 0.71125])
    readings = link.forward(thetas)
    assert np.abs(readings - thetas / (thetas + 0.5)).max() <= 1e-15
    rows = readings[:, None]
    got = link.inverse(rows)
    assert got.shape == (2, 1) and np.abs(got[:, 0] - thetas).max() <= 1e-12
    monkeypatch.setattr(estimation, "NEWTON_MAX_STEPS", 0)
    with pytest.raises(RuntimeError, match="did not converge for 2 of 2"):
        link.inverse(rows)


def driven_gad2():
    """The shipped two-parameter driven qubit and its named observables."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    return load_model_file(configs / "driven_gad2.json")


def test_two_parameter_steady_link_round_trips():
    model, named = driven_gad2()
    link = steady_expectation_link(model, [named["excited"], named["sigma_y"]])
    assert link.m == 2
    rng = np.random.default_rng(4)
    thetas = rng.uniform((0.06, 0.56), (0.44, 0.99), (200, 2))
    assert np.abs(link.inverse(link.forward(thetas)) - thetas).max() <= 1e-10
    # the linear response matches the readings' central differences
    theta, h = np.array([0.25, 0.8]), 1e-6
    jac = np.column_stack([
        (link.forward(theta + d) - link.forward(theta - d)) / (2.0 * h)
        for d in h * np.eye(2)
    ])
    assert np.abs(link.jacobian_inverse(theta) @ jac - np.eye(2)).max() <= 1e-7


def test_steady_link_refuses_observables_that_cannot_identify_theta():
    # the steady state has <sigma_x> = 0, so tilted reads <excited> - 1/2
    model, named = driven_gad2()
    with pytest.raises(ValueError, match="cannot identify.*non-identifiable"):
        steady_expectation_link(model, [named["excited"], named["tilted"]])
    with pytest.raises(ValueError, match="needs 2 observables, one each"):
        steady_expectation_link(model, [named["excited"]])
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="observable 1 .* must be Hermitian"):
        steady_expectation_link(model, [named["excited"], raising])


def test_two_parameter_reading_outside_the_image_lands_on_a_face():
    model, named = driven_gad2()
    link = steady_expectation_link(model, [named["excited"], named["sigma_y"]])
    (lo1, hi1), (lo2, hi2) = link.domain
    inside = link.forward(np.array([0.25, 0.8]))
    est = dam_estimate(inside, 1, link)
    assert not est.clamped and np.abs(est.theta - [0.25, 0.8]).max() <= 1e-10
    # <excited> = 2 lies beyond every steady state
    est = dam_estimate(np.array([2.0, inside[1]]), 1, link)
    assert est.clamped
    assert est.theta[0] in (lo1, hi1) or est.theta[1] in (lo2, hi2)
    # 1e-5 inside a face: the seed step leaves the box once, then Newton
    # comes back, so one push alone does not clamp
    theta = np.array([0.42, lo2 + 1e-5])
    est = dam_estimate(link.forward(theta), 1, link)
    assert not est.clamped and np.abs(est.theta - theta).max() <= 1e-10


def test_two_parameter_reading_next_to_a_face_round_trips_unclamped():
    model, named = driven_gad2()
    link = steady_expectation_link(model, [named["excited"], named["sigma_y"]])
    (lo1, hi1), (lo2, hi2) = link.domain
    # 5e-6 inside a face: the first clipped iterate leaves theta_1 off by
    # enough that the next Newton step overshoots the face once more
    theta = np.array([0.4, lo2 + 5e-6])
    est = dam_estimate(link.forward(theta), 1, link)
    assert not est.clamped and np.abs(est.theta - theta).max() <= 1e-12
    # theta_2 between the model's domain and the link's box: the reading lies
    # outside the box's image, so it stops on the face, flagged
    est = dam_estimate(link.forward(np.array([0.4, 0.55 + 2e-7])), 1, link)
    assert est.clamped and est.theta[1] == lo2
    assert abs(est.theta[0] - 0.4) <= 1e-5


def test_estimate_applies_inverse_and_clamps():
    link = identity_link()
    est = dam_estimate(1.7, 5, link)
    assert est.theta == pytest.approx(0.34) and not est.clamped
    est = dam_estimate(-0.2, 1, link)
    assert est.theta == 0.0 and est.clamped
    est = dam_estimate(1.4, 1, link)
    assert est.theta == 1.0 and est.clamped
    with pytest.raises(ValueError):
        dam_estimate(np.array([0.2, 0.3]), 1, link)


# ------------------------------------------------------------- formulas


def test_error_formula_value():
    got = dam_error_formula(gad_run(0.3, 100, 1000.0), identity_link())
    assert got == pytest.approx(np.sqrt(0.052) / 100, rel=1e-12)


def test_error_formula_consistency_over_theta():
    rng = np.random.default_rng(0)
    link = identity_link()
    slink = steady_expectation_link(gad_model(), [A])
    for th in rng.uniform(0.05, 0.95, 20):
        run = gad_run(th, 10, 500.0)
        explicit = np.sqrt(0.1**2 + 2 * th * (1 - th) * 10 / 500.0) / 10
        assert abs(dam_error_formula(run, link) - explicit) <= 1e-12
        assert abs(dam_error_formula(run, slink) - explicit) <= 1e-9


def test_single_parameter_reduction_is_exact():
    run = gad_run(0.3, 10, 500.0)
    link = identity_link()
    single = dam_error_formula(run, link)
    multi = multiparam_error_formula([run], link)
    assert single == multi  # bitwise, same code path


def test_multiparam_product_value():
    runs = [
        DamRun(
            model=product_gad_model(2),
            theta=(0.2, 0.6),
            observable=a,
            t=500.0,
            n=10,
            apparatus=default_apparatus(0.1),
        )
        for a in (np.kron(A, np.eye(2)), np.kron(np.eye(2), A))
    ]
    link = identity_link(domain=((0.0, 1.0), (0.0, 1.0)))
    got = multiparam_error_formula(runs, link)
    per = [
        np.sqrt(0.1**2 + 2 * th * (1 - th) * 10 / 500.0) / 10 for th in (0.2, 0.6)
    ]
    assert abs(got - np.hypot(*per)) <= 1e-10
    assert got == pytest.approx(0.018973665961010275, rel=1e-12)


def test_error_formula_inverts_the_link_jacobian_once():
    link = steady_expectation_link(gad_model(), [A])
    calls = []

    def counted(theta):
        calls.append(theta)
        return link.jacobian_inverse(theta)

    wrapped = dataclasses.replace(link, jacobian_inverse=counted)
    run = gad_run(0.3, 10, 500.0)
    got = dam_error_formula(run, wrapped)
    assert len(calls) == 1
    assert got == dam_error_formula(run, link)


def test_singular_jacobian_is_rejected():
    run = gad_run(0.3, 10, 500.0)
    bad = LinkFunction(
        m=1,
        forward=lambda th: th,
        inverse=lambda rows: rows,
        jacobian_inverse=lambda theta: np.array([[np.inf]]),
        domain=((0.0, 1.0),),
    )
    with pytest.raises(ValueError):
        multiparam_error_formula([run], bad)
    with pytest.raises(ValueError):
        dam_error_formula(run, identity_link(domain=((0, 1), (0, 1))))


@pytest.mark.parametrize("n, t, sigma", [(20, 500.0, 0.1), (10, 400.0, 0.1),
                                          (10, 500.0, 0.2)])
def test_runs_must_share_n_t_and_sigma(n, t, sigma):
    link = identity_link(domain=((0.0, 1.0), (0.0, 1.0)))
    runs = [gad_run(0.2, 10, 500.0), gad_run(0.6, n, t, sigma=sigma)]
    for refuse in (
        lambda: multiparam_error_formula(runs, link),
        lambda: ideal_error_floor(runs, link),
        lambda: mc_dam_error(runs, link, 200, 1),
    ):
        with pytest.raises(ValueError, match="share N, T and sigma"):
            refuse()


def test_ideal_error_floor_value():
    # gad read through the excited projector has f(theta) = theta, so the
    # floor is sigma / N under either link
    run = gad_run(0.3, 10, 500.0)
    assert ideal_error_floor(run, identity_link()) == pytest.approx(0.01, rel=1e-15)
    slink = steady_expectation_link(gad_model(), [A])
    assert ideal_error_floor([run], slink) == pytest.approx(0.01, rel=1e-9)


# ---------------------------------------------------------- monte carlo


def test_mc_matches_formula():
    rep = mc_dam_error(gad_run(0.5, 25, 500.0, sigma=0.18), identity_link(), 1000, 21)
    rel = abs(rep.empirical_error - rep.predicted_error) / rep.predicted_error
    assert rel <= 0.07
    assert rep.ci[0] <= rep.predicted_error <= rep.ci[1]
    assert rep.notes["clamp_fraction"] <= 0.01
    # estimator is unbiased within Monte Carlo resolution
    se = rep.predicted_error / np.sqrt(rep.trials)
    assert abs(rep.theta_hat[0] - 0.5) <= 4.0 * se


def test_mc_is_deterministic():
    run = gad_run(0.3, 10, 500.0)
    rep1 = mc_dam_error(run, identity_link(), 200, 42)
    rep2 = mc_dam_error(run, identity_link(), 200, 42)
    assert rep1.empirical_error == rep2.empirical_error
    assert np.array_equal(rep1.theta_hat, rep2.theta_hat)


def test_mc_multiparam_product():
    link = identity_link(domain=((0.0, 1.0), (0.0, 1.0)))
    runs = [gad_run(0.2, 10, 500.0), gad_run(0.6, 10, 500.0)]
    rep = mc_dam_error(runs, link, 2000, 3)
    assert rep.predicted_error == pytest.approx(0.018973665961010275, rel=1e-12)
    rel = abs(rep.empirical_error - rep.predicted_error) / rep.predicted_error
    assert rel <= 0.07


def test_mc_accepts_joint_model_runs():
    # runs may carry the full parameter vector on the joint product model;
    # component j is then read against theta[j]
    from damlab.pointer import ApparatusConfig

    m2 = product_gad_model(2)
    app = ApparatusConfig(
        sigma=0.1, p_halfwidth=30.0, p_points=81, q_halfwidth=0.8, q_points=1024
    )
    a1 = np.kron(A, np.eye(2))
    a2 = np.kron(np.eye(2), A)
    runs = [
        DamRun(model=m2, theta=(0.2, 0.6), observable=a, t=100.0, n=2, apparatus=app)
        for a in (a1, a2)
    ]
    link = identity_link(domain=((0.0, 1.0), (0.0, 1.0)))
    rep = mc_dam_error(runs, link, 200, 3)
    per = [
        np.sqrt(0.1**2 + 2 * th * (1 - th) * 2 / 100.0) / 2 for th in (0.2, 0.6)
    ]
    assert rep.predicted_error == pytest.approx(np.hypot(*per), rel=1e-9)
    se = rep.predicted_error / np.sqrt(rep.trials)
    assert abs(rep.theta_hat[0] - 0.2) <= 5.0 * se
    assert abs(rep.theta_hat[1] - 0.6) <= 5.0 * se


def test_mc_improvement_over_projective_baseline():
    # same resources (N=25 probes per trial): the pointer estimator beats the
    # projective baseline by the predicted ~10.4x factor at T=500
    dam = mc_dam_error(gad_run(0.5, 25, 500.0, sigma=0.18), identity_link(), 1000, 21)
    povm = conventional_povm_error(0.5, 25, 1000, 21)
    formula_ratio = povm.predicted_error / dam.predicted_error
    assert formula_ratio == pytest.approx(10.434798389121028, rel=1e-9)
    mc_ratio = povm.empirical_error / dam.empirical_error
    assert abs(mc_ratio - formula_ratio) / formula_ratio <= 0.15


def test_mc_rejects_heavy_clamping():
    with pytest.raises(ValueError, match="clamped"):
        mc_dam_error(gad_run(0.5, 1, 500.0, sigma=0.3), identity_link(), 500, 9)


def test_mc_input_validation():
    link = identity_link()
    with pytest.raises(ValueError):
        mc_dam_error(gad_run(0.3, 10, 500.0), link, 50, 1)
    with pytest.raises(ValueError):
        mc_dam_error([gad_run(0.3, 10, 500.0), gad_run(0.5, 10, 500.0)], link, 200, 1)
    runs = [gad_run(0.3, 10, 500.0), gad_run(0.5, 20, 500.0)]
    link2 = identity_link(domain=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        mc_dam_error(runs, link2, 200, 1)


def test_chi2_quantiles_match_scipy_stats():
    from scipy.stats import chi2

    for dof in (1, 2, 7, 100, 1000, 2000, 4000):
        for q in (0.001, 0.025, 0.5, 0.975):
            assert _chi2_ppf(q, dof) == pytest.approx(chi2.ppf(q, dof), rel=1e-14)
    lo, hi = _chi2_ci(0.1, 1000)
    assert lo == pytest.approx(0.1 * np.sqrt(1000 / chi2.ppf(0.975, 1000)), rel=1e-14)
    assert hi == pytest.approx(0.1 * np.sqrt(1000 / chi2.ppf(0.025, 1000)), rel=1e-14)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 10**6), st.floats(1e-6, 1.0 - 1e-6))
@example(10**6, 1e-6)
@example(2 * 10**5, 0.5)
@example(20, 0.5)  # a = 10, the first dof of the Stirling prefactor
def test_chi2_quantile_matches_gammaincinv(dof, q):
    from scipy.special import gammaincinv

    got = _chi2_ppf(q, dof)
    ref = 2.0 * gammaincinv(dof / 2.0, q)
    if got != pytest.approx(ref, rel=1e-14):
        # scipy.special loses digits in the far lower tail above dof ~ 5e5
        # (5e-12 relative at dof 1e6, q 1e-6); there 40-digit arithmetic
        # decides, and must find ours the accurate one
        assert abs(chi2_quantile_error(got, q, dof)) <= 1e-14
        assert abs(chi2_quantile_error(ref, q, dof)) > 1e-14


@pytest.mark.parametrize(
    "q, dof",
    [(0.0, 10), (1.0, 10), (-0.5, 10), (1.5, 10), (0.5, 0), (0.5, -4),
     (np.nan, 10), (np.inf, 10), (0.5, np.nan), (0.5, np.inf)],
)
def test_chi2_quantile_rejects_bad_input(q, dof):
    with pytest.raises(ValueError, match="chi-squared quantile"):
        _chi2_ppf(q, dof)


@pytest.mark.parametrize("steps", [0, 1])
def test_chi2_quantile_raises_when_not_converged(monkeypatch, steps):
    monkeypatch.setattr(estimation, "CHI2_MAX_STEPS", steps)
    # quantiles are cached, and earlier tests have asked for this one
    _chi2_ppf.cache_clear()
    with pytest.raises(RuntimeError, match="did not converge"):
        _chi2_ppf(0.025, 1000)


def run_fresh(code):
    """Standard output of ``code`` in a fresh interpreter importing this damlab."""
    src_root = str(Path(damlab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src_root + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def loaded_after_cli_import(prefix):
    """Modules ``prefix`` and below it that ``import damlab.cli`` loads."""
    names = run_fresh("import sys, damlab.cli; print(*sys.modules)").split()
    return [m for m in names if m == prefix or m.startswith(prefix + ".")]


def test_import_leaves_scipy_unloaded():
    assert loaded_after_cli_import("scipy") == []


def test_import_leaves_scipy_stats_unloaded():
    assert loaded_after_cli_import("scipy.stats") == []


def test_import_leaves_scipy_linalg_unloaded():
    assert loaded_after_cli_import("scipy.linalg") == []


# urllib.parse is left out: the standard library's pathlib imports it
@pytest.mark.parametrize("prefix", ["urllib.request", "urllib.error", "http"])
def test_import_leaves_network_modules_unloaded(prefix):
    assert loaded_after_cli_import(prefix) == []


def test_scaling_run_imports_no_module(tmp_path):
    cfg = tmp_path / "scn.ini"
    cfg.write_text(
        "[model]\nname = gad\ntheta = 0.3\nobservable = excited\n"
        "[apparatus]\nsigma = 0.1\n"
        "[run]\nt = 500\nn = 1\ntrials = 100\nseed = 3\n"
        "[sweep]\naxis = N\nvalues = 1, 2\n"
    )
    argv = ["scaling", "--config", str(cfg), "--out", str(tmp_path / "out")]
    out = run_fresh(
        "import sys, damlab.cli\n"
        "before = set(sys.modules)\n"
        f"code = damlab.cli.main({argv!r})\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    assert out.splitlines()[-1] == "0"


def test_povm_baseline():
    rep = conventional_povm_error(0.3, 10**4, 2000, 20260817)
    assert rep.predicted_error == pytest.approx(np.sqrt(0.21 / 10**4), rel=1e-12)
    rel = abs(rep.empirical_error - rep.predicted_error) / rep.predicted_error
    assert rel <= 0.05
    with pytest.raises(ValueError):
        conventional_povm_error(0.0, 10, 100, 1)
    with pytest.raises(ValueError):
        conventional_povm_error(0.3, 0, 100, 1)


# ------------------------------------------------------------------ qfi


def test_qfi_diagonal_family():
    for th in (0.1, 0.3, 0.5, 0.77):
        f = qfi_state(np.diag([th, 1 - th]), np.diag([1.0, -1.0]))
        assert abs(f - 1.0 / (th * (1 - th))) <= 1e-8


def test_qfi_pure_state_family():
    # |psi(a)> = (cos a, sin a): F = 4 independent of a
    for a in (0.2, 0.7):
        psi = np.array([np.cos(a), np.sin(a)])
        dpsi = np.array([-np.sin(a), np.cos(a)])
        rho = np.outer(psi, psi)
        drho = np.outer(dpsi, psi) + np.outer(psi, dpsi)
        assert abs(qfi_state(rho, drho) - 4.0) <= 1e-10


def test_qfi_warns_on_rank_deficient_weight():
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        qfi_state(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def test_qfi_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qfi_state(np.array([[0.5, 0.6], [0.0, 0.5]]), np.eye(2))


def test_cramer_rao_bound():
    assert cramer_rao_bound(4.0) == 0.5
    with pytest.raises(ValueError):
        cramer_rao_bound(0.0)


def test_amplitude_damping_endpoints():
    lam0, lam1 = amplitude_damping_pair(60.0)
    rho = random_density(np.random.default_rng(2), 2)
    to0 = devectorize(lam0 @ vectorize(rho))
    to1 = devectorize(lam1 @ vectorize(rho))
    assert np.abs(to0 - np.diag([1.0, 0.0])).max() <= 1e-12
    assert np.abs(to1 - np.diag([0.0, 1.0])).max() <= 1e-12
    lam0, lam1 = amplitude_damping_pair(0.0)
    assert np.abs(lam0 - np.eye(4)).max() <= 1e-14
    assert np.abs(lam1 - np.eye(4)).max() <= 1e-14


def test_channel_decomposition_defect():
    for th in (0.1, 0.5, 0.9):
        for t in (0.1, 1.0, 5.0):
            assert gad_channel_decomposition_check(th, t) <= 1e-10
    # an array of thetas is one batched exponential, one defect each
    thetas = np.array([[0.1, 0.5], [0.9, 0.3]])
    got = gad_channel_decomposition_check(thetas, 1.0)
    assert got.shape == thetas.shape and got.max() <= 1e-10
    single = [gad_channel_decomposition_check(th, 1.0) for th in thetas.ravel()]
    assert all(isinstance(v, float) for v in single)
    assert np.abs(got.ravel() - single).max() <= 1e-15
    with pytest.raises(ValueError):
        gad_channel_decomposition_check(np.array([0.3, 1.0]), 1.0)
    with pytest.raises(ValueError):
        gad_channel_decomposition_check(1.0, 1.0)
    with pytest.raises(ValueError):
        gad_channel_decomposition_check(0.3, -1.0)


def test_channel_overflow_is_reported():
    growing = np.diag([2000.0, 2000.0]).astype(complex)
    with pytest.raises(OverflowError):
        estimation._channels([growing], 1.0)


def test_output_bound_random_probes():
    rng = np.random.default_rng(55)
    probes = [random_density(rng, 2) for _ in range(20)]
    rep = qfi_output_bound_check(0.3, 1.0, probes)
    assert rep.passed
    assert rep.bound == pytest.approx(1.0 / 0.21, rel=1e-12)
    assert max(rep.qfi) <= rep.bound + 1e-4
    assert max(rep.fd_disagreement) <= 1e-5
    assert not any(rep.flagged)


def test_output_bound_product_probes():
    rng = np.random.default_rng(56)
    probes = [
        np.kron(random_density(rng, 2), random_density(rng, 2)) for _ in range(5)
    ]
    rep = qfi_output_bound_check(0.3, 1.0, probes, copies=2)
    assert rep.passed
    assert rep.bound == pytest.approx(2.0 / 0.21, rel=1e-12)


def test_output_bound_saturates_at_long_times():
    # at t >> 1/gap every output is the steady state, whose family QFI equals
    # the bound exactly
    rng = np.random.default_rng(57)
    probes = [random_density(rng, 2) for _ in range(3)]
    rep = qfi_output_bound_check(0.3, 30.0, probes)
    assert rep.passed
    for f in rep.qfi:
        assert abs(f - rep.bound) <= 1e-3


def test_output_bound_validation():
    with pytest.raises(ValueError):
        qfi_output_bound_check(0.3, 1.0, [np.eye(2)], copies=3)
    with pytest.raises(ValueError):
        qfi_output_bound_check(0.3, 1.0, [np.eye(2)])  # trace 2, not a state


def test_output_bound_zero_time_carries_no_information():
    rng = np.random.default_rng(58)
    rep = qfi_output_bound_check(0.3, 0.0, [random_density(rng, 2)])
    assert rep.passed
    assert abs(rep.qfi[0]) <= 1e-10


def test_gad_bloch_z_offset():
    # evolving the maximally mixed state gives r_z = (2 theta - 1)(1 - e^-t)
    from damlab.operators import mat_exp

    for th in (0.2, 0.7):
        for t in (0.3, 2.0):
            lam = mat_exp(gad_model().liouvillian([th]), t)
            out = devectorize(lam @ vectorize(np.eye(2) / 2.0))
            rz = float(np.real(out[0, 0] - out[1, 1]))
            assert abs(rz - (2 * th - 1) * (1 - np.exp(-t))) <= 1e-12


def test_saturation_point_grows_with_t():
    # delta theta * N = sqrt(sigma^2 + 2 theta(1-theta) N/T) increases in N;
    # the N at which it doubles from sigma (the end of the useful region)
    # stretches proportionally to T
    link = identity_link()

    def scaled_errors(t, ns):
        return np.array([dam_error_formula(gad_run(0.3, n, t), link) * n for n in ns])

    for t in (200.0, 400.0):
        ns = np.arange(1, 10 * int(t) + 1, 13)
        assert np.all(np.diff(scaled_errors(t, ns)) > 0)
    ns = np.arange(1, 60)
    cross200 = ns[np.argmax(scaled_errors(200.0, ns) > 0.2)]
    cross400 = ns[np.argmax(scaled_errors(400.0, ns) > 0.2)]
    assert cross200 == 15 and cross400 == 29
    assert 1.5 <= cross400 / cross200 <= 2.5
