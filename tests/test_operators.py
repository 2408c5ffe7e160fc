import numpy as np
import pytest

from damlab.operators import (
    devectorize,
    is_density_matrix,
    is_hermitian,
    left_mult,
    lindblad_superoperator,
    mat_exp,
    right_mult,
    vectorize,
)
from damlab.models import _steady_gaps

from oracles import (
    apply_gkls,
    gad_jumps,
    random_density,
    random_hermitian,
    random_operator,
    superop_from_action,
)


def test_vectorize_identity():
    assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))


def test_vectorize_roundtrip():
    rng = np.random.default_rng(7)
    x = random_operator(rng, 3)
    assert np.array_equal(devectorize(vectorize(x), 3), x)
    assert np.array_equal(devectorize(vectorize(x)), x)


def test_vectorize_basis_order():
    # |0><1| = E_01 sits at stacked index i + d*j = 0 + 2*1 = 2.
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    v = vectorize(e01)
    assert v[2] == 1.0 and np.count_nonzero(v) == 1


def test_vectorize_rejects_non_square():
    with pytest.raises(ValueError):
        vectorize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        devectorize(np.zeros(5))


def test_mult_maps_match_direct_products():
    rng = np.random.default_rng(11)
    a = random_operator(rng, 3)
    x = random_operator(rng, 3)
    assert np.allclose(devectorize(left_mult(a) @ vectorize(x)), a @ x, atol=1e-13)
    assert np.allclose(devectorize(right_mult(a) @ vectorize(x)), x @ a, atol=1e-13)


def test_predicates():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_density_matrix(np.diag([0.3, 0.7]))
    assert not is_density_matrix(np.diag([0.5, 0.7]))
    assert not is_density_matrix(np.diag([1.3, -0.3]))


def test_sigma_minus_dissipator_on_excited_state():
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = lindblad_superoperator(None, [(sm, 1.0)])
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = devectorize(gen @ vectorize(excited))
    assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-14)


def test_zero_hamiltonian_no_jumps_is_zero_map():
    gen = lindblad_superoperator(np.zeros((2, 2)))
    assert np.array_equal(gen, np.zeros((4, 4), dtype=complex))


def test_gad_damps_coherence_at_half_rate():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    for theta in (0.1, 0.3, 0.8):
        gen = lindblad_superoperator(None, gad_jumps(theta))
        out = devectorize(gen @ vectorize(e01))
        assert np.allclose(out, -0.5 * e01, atol=1e-14)


def test_lindblad_matches_direct_gkls_action():
    rng = np.random.default_rng(23)
    for d in (2, 3):
        h = random_hermitian(rng, d)
        jumps = [(random_operator(rng, d), 0.7), (random_operator(rng, d), 1.3)]
        gen = lindblad_superoperator(h, jumps)
        oracle = superop_from_action(lambda x: apply_gkls(h, jumps, x), d)
        assert np.allclose(gen, oracle, atol=1e-12)


def test_lindblad_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 2)
    jumps = [(random_operator(rng, 2), 0.5), (random_operator(rng, 2), 1.1)]
    gen = lindblad_superoperator(h, jumps)
    for _ in range(100):
        x = random_operator(rng, 2)
        lx = devectorize(gen @ vectorize(x))
        lxd = devectorize(gen @ vectorize(x.conj().T))
        assert np.abs(lxd - lx.conj().T).max() <= 1e-12
        assert abs(np.trace(lx)) <= 1e-12 * np.abs(x).max()


def test_lindblad_rejects_bad_inputs():
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        lindblad_superoperator(sm, [])  # non-Hermitian H
    with pytest.raises(ValueError):
        lindblad_superoperator(None, [(sm, -0.1)])
    with pytest.raises(ValueError):
        lindblad_superoperator(None, [])


def test_mat_exp_of_zero_map_is_identity():
    assert np.array_equal(mat_exp(np.zeros((4, 4)), 3.7), np.eye(4, dtype=complex))


def test_mat_exp_rejects_negative_time():
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), -1.0)


def test_mat_exp_diagonal_generator():
    lam = np.array([-0.5, -1.0, -2.0])
    gen = np.diag(lam).astype(complex)
    out = mat_exp(gen, 1.7)
    assert np.allclose(np.diag(out), np.exp(lam * 1.7), atol=1e-14)


def test_mat_exp_semigroup_property():
    gen = lindblad_superoperator(None, gad_jumps(0.3))
    a = mat_exp(gen, 1.3) @ mat_exp(gen, 0.9)
    b = mat_exp(gen, 2.2)
    assert np.abs(a - b).max() <= 1e-12


def test_mat_exp_gad_converges_to_steady_state():
    rng = np.random.default_rng(5)
    theta = 0.3
    gen = lindblad_superoperator(None, gad_jumps(theta))
    rho0 = random_density(rng, 2)
    out = mat_exp(gen, 60.0) @ vectorize(rho0)
    assert np.abs(devectorize(out) - np.diag([theta, 1 - theta])).max() <= 1e-10


def test_mat_exp_overflow_is_reported():
    with pytest.raises(OverflowError):
        mat_exp(np.diag([2000.0, 2000.0]).astype(complex), 1.0)


def test_exp_of_lindblad_preserves_density_matrices():
    rng = np.random.default_rng(41)
    gens = [
        lindblad_superoperator(None, gad_jumps(0.25)),
        lindblad_superoperator(
            random_hermitian(rng, 2), [(random_operator(rng, 2), 0.8)]
        ),
    ]
    for gen in gens:
        for _ in range(20):
            t = rng.uniform(0.0, 50.0)
            rho = random_density(rng, 2)
            out = devectorize(mat_exp(gen, t) @ vectorize(rho))
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10


def test_spectrum_of_gad():
    gen = lindblad_superoperator(None, gad_jumps(0.3))
    evals = np.linalg.eigvals(gen)
    got = sorted(evals, key=lambda z: (z.real, z.imag))
    expect = [-1.0, -0.5, -0.5, 0.0]
    assert np.allclose(got, expect, atol=1e-12)
    # the gap rule accepts exactly one zero mode, with every other mode decaying
    gaps = _steady_gaps(gen[None], "gad", [0.3])
    assert abs(gaps[0] - 0.5) <= 1e-12
    assert np.sum(np.abs(evals) <= 1e-9 * np.abs(evals).max()) == 1
    assert np.all(np.sort(evals.real)[:-1] < 0)


def test_spectrum_zero_mode_vector_is_steady_state():
    gen = lindblad_superoperator(None, gad_jumps(0.3))
    evals, evecs = np.linalg.eig(gen)
    rho = devectorize(evecs[:, np.argmin(np.abs(evals))])
    rho = rho / np.trace(rho)
    assert np.abs(rho - np.diag([0.3, 0.7])).max() <= 1e-10


def test_spectrum_of_zero_map_raises():
    with pytest.raises(ValueError, match="no dissipative gap"):
        _steady_gaps(np.zeros((1, 4, 4)), "zero", [0.0])


def test_spectrum_consistent_with_mat_exp():
    for gen in (
        lindblad_superoperator(None, gad_jumps(0.3)),
        lindblad_superoperator(np.diag([0.3, -0.3]), gad_jumps(0.6)),
    ):
        t = 0.8
        lam = np.sort_complex(np.linalg.eigvals(gen))
        mu = np.sort_complex(np.linalg.eigvals(mat_exp(gen, t)))
        # match each exp(lam t) to the nearest eigenvalue of exp(gen t)
        for z in np.exp(lam * t):
            assert np.abs(mu - z).min() <= 1e-8
