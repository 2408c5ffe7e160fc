import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from damlab.estimation import steady_expectation_link
from damlab.models import (
    EXCITED_PROJECTOR,
    LindbladModel,
    dissipation_coefficient,
    gad_model,
    gad_pseudoinverse_closed_form,
    product_gad_model,
    steady_state_bundle,
)
from damlab.operators import devectorize, lindblad_superoperator, mat_exp, vectorize

from oracles import (
    dense_bundle,
    gad_pinv_action,
    random_hermitian,
    random_operator,
    superop_from_action,
)
from test_estimation import affine_models


def projectors(b):
    """Dense P = |vec rho_ss><vec I| and Q = 1 - P of a bundle."""
    p = np.outer(vectorize(b.rho_ss), vectorize(np.eye(b.dim)))
    return p, np.eye(b.dim**2) - p


def test_gad_steady_state_is_diagonal_mixture():
    model = gad_model()
    for theta in (0.1, 0.3, 0.5, 0.77):
        b = steady_state_bundle(model, (theta,))
        assert np.abs(b.rho_ss - np.diag([theta, 1 - theta])).max() <= 1e-12
        assert abs(b.gap - 0.5) <= 1e-12


def test_product_steady_state_factorizes():
    model = product_gad_model(2)
    b = steady_state_bundle(model, (0.2, 0.6))
    expect = np.kron(np.diag([0.2, 0.8]), np.diag([0.6, 0.4]))
    assert np.abs(b.rho_ss - np.diag([0.12, 0.08, 0.48, 0.32])).max() <= 1e-12
    assert np.abs(b.rho_ss - expect).max() <= 1e-12
    assert abs(b.gap - 0.5) <= 1e-12


def test_single_site_product_matches_gad():
    la = gad_model().liouvillian((0.35,))
    lb = product_gad_model(1).liouvillian((0.35,))
    assert np.abs(la - lb).max() <= 1e-14


def test_model_domain_is_enforced():
    model = gad_model()
    for bad in ((0.0,), (1.0,), (-0.2,), (1.4,)):
        assert not model.contains(bad)
        with pytest.raises(ValueError):
            model.liouvillian(bad)
    with pytest.raises(ValueError):
        model.liouvillian((0.3, 0.4))


def test_product_model_site_cap():
    with pytest.raises(ValueError):
        product_gad_model(4)
    with pytest.raises(ValueError):
        product_gad_model(0)


def test_bundle_projector_invariants():
    for model, theta in (
        (gad_model(), (0.3,)),
        (product_gad_model(2), (0.2, 0.6)),
    ):
        b = steady_state_bundle(model, theta)
        lgen = model.liouvillian(theta)
        p, q = projectors(b)
        s = superop_from_action(b.s_apply, b.dim)
        assert np.abs(p @ p - p).max() <= 1e-9
        assert np.abs(p @ vectorize(b.rho_ss) - vectorize(b.rho_ss)).max() <= 1e-9
        assert np.abs(lgen @ s - q).max() <= 1e-9
        assert np.abs(s @ lgen - q).max() <= 1e-9
        assert np.abs(s @ p).max() <= 1e-9
        assert np.abs(p @ s).max() <= 1e-9


def test_pseudoinverse_matches_closed_form():
    rng = np.random.default_rng(17)
    for theta in (0.2, 0.5, 0.9):
        b = steady_state_bundle(gad_model(), (theta,))
        for _ in range(200 // 3):
            x = random_operator(rng, 2)
            got = b.s_apply(x)
            assert np.abs(got - gad_pinv_action(x, theta)).max() <= 1e-9
            assert np.abs(got - gad_pseudoinverse_closed_form(x, theta)).max() <= 1e-9


def test_pseudoinverse_and_closed_form_take_stacks():
    # a stack is one bordered solve, a column per operator; the closed form
    # stays the oracle
    theta = 0.3
    b = steady_state_bundle(gad_model(), (theta,))
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    got = b.s_apply(x)
    closed = gad_pseudoinverse_closed_form(x, theta)
    assert got.shape == closed.shape == x.shape
    assert np.abs(got - closed).max() <= 1e-12
    for idx in np.ndindex(3, 4):
        assert np.abs(got[idx] - b.s_apply(x[idx])).max() <= 1e-15
        assert np.array_equal(closed[idx], gad_pseudoinverse_closed_form(x[idx], theta))
    with pytest.raises(ValueError, match="2x2 operators"):
        b.s_apply(np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        b.s_apply(np.full((2, 2), np.nan))


def test_closed_form_examples():
    # off-diagonal elements flip sign at twice their weight
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    assert np.abs(gad_pseudoinverse_closed_form(e01, 0.3) + 2 * e01).max() <= 1e-14
    # the steady state itself is annihilated
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.abs(gad_pseudoinverse_closed_form(rho, 0.3)).max() <= 1e-14
    # traceless diagonal input maps to -X
    x = np.diag([0.5, -0.5]).astype(complex)
    assert np.abs(gad_pseudoinverse_closed_form(x, 0.3) + x).max() <= 1e-14


def test_dissipation_coefficient_excited_projector():
    for theta in (0.3, 0.5, 0.8):
        b = steady_state_bundle(gad_model(), (theta,))
        c = dissipation_coefficient(b, EXCITED_PROJECTOR)
        assert abs(c - (-theta * (1 - theta))) <= 1e-10


def test_dissipation_coefficient_requires_hermitian():
    b = steady_state_bundle(gad_model(), (0.3,))
    with pytest.raises(ValueError):
        dissipation_coefficient(b, np.array([[0, 1], [0, 0]], dtype=complex))


def test_pseudoinverse_integral_representation():
    # S(X) = -int_0^inf (e^{Lt} - P) X dt, truncated where the gap has killed
    # the integrand and evaluated by Simpson quadrature.
    rng = np.random.default_rng(29)
    b = steady_state_bundle(gad_model(), (0.4,))
    lgen = gad_model().liouvillian((0.4,))
    tmax = 40.0 / b.gap
    ts = np.linspace(0.0, tmax, 4001)
    p, _ = projectors(b)
    props = np.stack([mat_exp(lgen, t) - p for t in ts])
    from scipy.integrate import simpson

    s_quad = -simpson(props, x=ts, axis=0)
    assert np.abs(s_quad - superop_from_action(b.s_apply, 2)).max() <= 1e-6
    x = random_operator(rng, 2)
    got = devectorize(s_quad @ vectorize(x))
    assert np.abs(got - b.s_apply(x)).max() <= 1e-6


def test_steady_state_is_invariant_under_evolution():
    b = steady_state_bundle(product_gad_model(2), (0.2, 0.6))
    lgen = product_gad_model(2).liouvillian((0.2, 0.6))
    v = vectorize(b.rho_ss)
    for t in (1.0, 10.0, 100.0):
        assert np.abs(mat_exp(lgen, t) @ v - v).max() <= 1e-9


def dephasing_model():
    """Pure dephasing at rate theta: every diagonal state is steady."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    return LindbladModel(
        name="dephasing",
        param_domain=((0.0, 2.0),),
        hamiltonian=None,
        jumps=((sz, 0.0, (1.0,)),),
    )


def test_degenerate_steady_space_is_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        steady_state_bundle(dephasing_model(), (1.0,))


def test_steady_link_rejects_degenerate_steady_space():
    with pytest.raises(ValueError, match="'dephasing'.*degenerate"):
        steady_expectation_link(dephasing_model(), [EXCITED_PROJECTOR])


def test_gapless_generator_is_rejected():
    model = LindbladModel(
        name="null",
        param_domain=((0.0, 1.0),),
        hamiltonian=np.zeros((2, 2)),
        jumps=(),
    )
    with pytest.raises(ValueError):
        steady_state_bundle(model, (0.5,))


def test_closed_form_requires_qubit():
    with pytest.raises(ValueError):
        gad_pseudoinverse_closed_form(np.eye(4), 0.3)


def test_bundle_expectation():
    b = steady_state_bundle(gad_model(), (0.3,))
    assert abs(b.expectation(EXCITED_PROJECTOR) - 0.3) <= 1e-12
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 2)
    direct = np.trace(a @ b.rho_ss).real
    assert abs(b.expectation(a) - direct) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(affine_models(), st.floats(0.02, 0.98))
def test_bundle_matches_dense_oracle(model_and_a, theta):
    model, (a,) = model_and_a
    try:
        b = steady_state_bundle(model, [theta])
    except ValueError as exc:
        if "unique gapped steady state" in str(exc):
            reject()
        raise
    rho, s = dense_bundle(model.liouvillian([theta]))
    assert np.abs(b.rho_ss - rho).max() <= 1e-10
    assert np.abs(superop_from_action(b.s_apply, b.dim) - s).max() <= 1e-10
    c = np.trace(a @ devectorize(s @ vectorize(a @ rho)))
    assert abs(dissipation_coefficient(b, a) - c) <= 1e-10
