import contextlib
import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from damlab import pointer
from damlab.backend import kernels
from damlab.models import (
    EXCITED_PROJECTOR,
    LindbladModel,
    dissipation_coefficient,
    gad_model,
    product_gad_model,
    steady_state_bundle,
)
from damlab.pointer import (
    ApparatusConfig,
    DamRun,
    _generator_terms,
    _hermitian_chirp_sum,
    _minimal_realization,
    coupled_generator,
    default_apparatus,
    nonadiabaticity,
    perturbative_kernel,
    pointer_distribution,
    sample_pointer,
    trace_kernel,
    variance_closed_form,
)
from damlab.scenario import load_model_file

from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    dense_hermitian_sum,
    extended_hermitian_sum,
    half_plane,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def driven_model(omega=0.35):
    """GAD with a transverse drive; tr[A S(A rho)] picks up an imaginary part
    for observables tilted out of the z axis."""
    return LindbladModel(
        name="driven_gad",
        param_domain=((0.0, 1.0),),
        hamiltonian=omega * SX,
        jumps=((SIGMA_MINUS, 0.0, (1.0,)), (SIGMA_PLUS, 1.0, (-1.0,))),
    )


A_TILTED = (SX + SZ) / 2.0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def gad_run(theta=0.3, t=200.0, n=1, sigma=0.1, apparatus=None):
    return DamRun(
        model=gad_model(),
        theta=(theta,),
        observable=EXCITED_PROJECTOR,
        t=t,
        n=n,
        apparatus=apparatus or default_apparatus(sigma),
    )


def test_apparatus_geometry():
    app = default_apparatus(0.1)
    assert app.sigma_p == 5.0
    assert app.p_halfwidth == 30.0 and app.p_points == 161
    assert app.q_halfwidth == pytest.approx(0.8) and app.q_points == 2048
    assert app.tail_mass() < 1e-8
    p = app.p_grid()
    assert p[0] == -30.0 and p[-1] == 30.0 and len(p) == 161
    q = app.q_grid(center=0.3)
    assert q[0] == pytest.approx(-0.5) and q[-1] == pytest.approx(1.1)


def test_apparatus_validation():
    with pytest.raises(ValueError):
        ApparatusConfig(sigma=0.0, p_halfwidth=1, p_points=9, q_halfwidth=1, q_points=9)
    with pytest.raises(ValueError):
        ApparatusConfig(sigma=0.1, p_halfwidth=-1, p_points=9, q_halfwidth=1, q_points=9)
    with pytest.raises(ValueError):
        ApparatusConfig(sigma=0.1, p_halfwidth=1, p_points=2, q_halfwidth=1, q_points=9)


def test_run_validation():
    with pytest.raises(ValueError):
        gad_run(theta=1.2)
    with pytest.raises(ValueError):
        gad_run(t=0.0)
    with pytest.raises(ValueError):
        gad_run(n=0.5)
    with pytest.raises(ValueError):
        DamRun(
            model=gad_model(),
            theta=(0.3,),
            observable=np.array([[0, 1], [0, 0]], dtype=complex),
            t=100.0,
            n=1,
            apparatus=default_apparatus(),
        )
    with pytest.raises(ValueError):
        DamRun(
            model=gad_model(),
            theta=(0.3,),
            observable=np.eye(3),
            t=100.0,
            n=1,
            apparatus=default_apparatus(),
        )


def test_coupled_generator_reduces_to_liouvillian():
    run = gad_run()
    g0 = coupled_generator(run, 0.0, 0.0)
    assert np.abs(g0 - gad_model().liouvillian((0.3,))).max() <= 1e-14
    # the coupling term scales as 1/T
    d1 = coupled_generator(run, 1.0, 0.5) - g0
    run2 = gad_run(t=400.0)
    d2 = coupled_generator(run2, 1.0, 0.5) - g0
    assert np.abs(d1 - 2.0 * d2).max() <= 1e-14


def test_kernel_symmetry_and_normalization():
    run = gad_run(t=100.0, n=2)
    k1 = trace_kernel(run, 1.3, -0.4)
    k2 = trace_kernel(run, -0.4, 1.3)
    assert abs(k1 - np.conj(k2)) <= 1e-12
    assert abs(trace_kernel(run, 0.7, 0.7) - 1.0) <= 1e-12
    assert abs(perturbative_kernel(run, 0.7, 0.7) - 1.0) <= 1e-14
    assert abs(k1) <= 1.0 + 1e-12


def test_perturbative_kernel_approaches_exact():
    for t, bound in ((200.0, 2e-4), (800.0, 2e-5)):
        run = gad_run(t=t)
        worst = 0.0
        for p, pp in ((0.5, -0.5), (2.0, 1.0), (-1.5, -3.0)):
            gap = abs(
                trace_kernel(run, p, pp)
                - complex(perturbative_kernel(run, p, pp))
            )
            worst = max(worst, gap)
        assert worst <= bound


def test_ideal_distribution_is_shifted_gaussian():
    run = gad_run(n=3)
    d = pointer_distribution(run, kernel_source="ideal")
    sigma = run.apparatus.sigma
    gauss = np.exp(-((d.q_grid - 0.9) ** 2) / (2 * sigma**2)) / (
        sigma * np.sqrt(2 * np.pi)
    )
    # the default +-6 sigma' momentum window leaves a ~1e-4 truncation floor
    # at the peak; moments are far tighter
    assert np.abs(d.density - gauss).max() <= 5e-4
    assert abs(d.mean - 0.9) <= 1e-9
    assert abs(d.variance - sigma**2) <= 5e-9
    wide = ApparatusConfig(
        sigma=sigma, p_halfwidth=40.0, p_points=213, q_halfwidth=0.8, q_points=2048
    )
    run_w = gad_run(n=3, apparatus=wide)
    d_w = pointer_distribution(run_w, kernel_source="ideal")
    assert np.abs(d_w.density - gauss).max() <= 1e-6


def test_exact_distribution_moments():
    d = pointer_distribution(gad_run())
    predicted = variance_closed_form(gad_run())
    assert predicted == pytest.approx(0.0121)
    assert abs(d.mean - 0.3) <= 1e-9
    assert abs(d.variance - predicted) / predicted <= 5e-3
    assert d.normalization_defect <= 1e-6


def test_distribution_quadrature_contracts():
    d = pointer_distribution(gad_run())
    assert abs(d.cell_masses().sum() - 1.0) <= 1e-12
    assert d.density.min() >= 0.0
    edges = d.q_grid
    assert d.cdf(edges[0] - 1.0) == 0.0
    assert d.cdf(edges[-1] + 1.0) == 1.0
    xs = np.linspace(edges[0], edges[-1], 301)
    cdfv = d.cdf(xs)
    assert np.all(np.diff(cdfv) >= -1e-15)


def test_variance_closed_form_gad_identity():
    # for undriven GAD, c = -theta(1-theta) exactly, so the closed form is
    # sigma^2 + 2 theta (1-theta) N / T
    for theta, n, t in ((0.3, 1, 200.0), (0.5, 10, 500.0)):
        got = variance_closed_form(gad_run(theta=theta, t=t, n=n))
        expect = 0.01 + 2.0 * theta * (1 - theta) * n / t
        assert abs(got - expect) <= 1e-12


def test_driven_variance_needs_imaginary_term():
    # the tilted observable has Im c != 0; the full closed form tracks the
    # exact variance while the truncated one visibly lags
    model = driven_model()
    b = steady_state_bundle(model, (0.3,))
    c = dissipation_coefficient(b, A_TILTED)
    assert abs(c.imag) > 0.05
    run = DamRun(
        model=model,
        theta=(0.3,),
        observable=A_TILTED,
        t=1000.0,
        n=5,
        apparatus=default_apparatus(0.1),
    )
    d = pointer_distribution(run)
    full = variance_closed_form(run)
    truncated = 0.01 - 2.0 * 5 / 1000.0 * c.real
    assert abs(d.variance - full) / full <= 3e-4
    assert abs(d.variance - truncated) / truncated >= 4e-4


def test_mean_shift_envelope():
    # |mean - N <A>| stays within the 5/T envelope and decreases monotonically
    # in T where it is resolvable (the driven model; GAD sits at roundoff)
    model = driven_model()
    b = steady_state_bundle(model, (0.3,))
    mean_a = b.expectation(A_TILTED)
    shifts = []
    for t in (200.0, 400.0, 800.0):
        run = DamRun(
            model=model,
            theta=(0.3,),
            observable=A_TILTED,
            t=t,
            n=1,
            apparatus=default_apparatus(0.1),
        )
        d = pointer_distribution(run)
        shift = abs(d.mean - mean_a)
        assert shift <= 5.0 / t + 1e-9
        shifts.append(shift)
    assert shifts[0] > shifts[1] > shifts[2]
    for t in (50.0, 100.0, 200.0, 400.0):
        n = max(1, int(t / 20))
        d = pointer_distribution(gad_run(t=t, n=n))
        assert abs(d.mean - n * 0.3) <= 5.0 / t + 1e-9


def test_variance_residual_scales_as_t_squared():
    coeffs = []
    for t in (200.0, 400.0):
        run = gad_run(t=t)
        resid = abs(pointer_distribution(run).variance - variance_closed_form(run))
        coeffs.append(resid * t * t)
    assert 0.5 <= coeffs[0] / coeffs[1] <= 2.0


def test_grid_refinement_stability():
    base = default_apparatus(0.1)
    fine_p = ApparatusConfig(
        sigma=0.1,
        p_halfwidth=base.p_halfwidth,
        p_points=2 * base.p_points - 1,
        q_halfwidth=base.q_halfwidth,
        q_points=base.q_points,
    )
    fine_q = ApparatusConfig(
        sigma=0.1,
        p_halfwidth=base.p_halfwidth,
        p_points=base.p_points,
        q_halfwidth=base.q_halfwidth,
        q_points=2 * base.q_points,
    )
    d0 = pointer_distribution(gad_run(apparatus=base))
    for app in (fine_p, fine_q):
        d1 = pointer_distribution(gad_run(apparatus=app))
        assert abs(d0.mean - d1.mean) < 1e-6
        assert abs(d0.variance - d1.variance) < 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(3, 400).flatmap(
        lambda k: arrays(np.float64, (2, k), elements=st.floats(-1.0, 1.0))
    ),
    st.integers(3, 4096),
    st.floats(0.01, 0.5),
    st.floats(-10.0, 10.0),
    st.floats(1e-4, 5e-3),
)
# the default grids, and count + k - 1 = 2049, one past a power of two
@example(np.ones((2, 161)), 2048, 0.375, -0.5, 1.6 / 2047)
@example(np.ones((2, 162)), 1888, 0.2, 1.0, 1e-3)
def test_chirp_sum_matches_dense_oracle(parts, count, dp, q0, dq):
    c = parts[0] + 1j * parts[1]
    c[0] = c[0].real
    got = _hermitian_chirp_sum(c, dp, q0, dq, count)
    want = dense_hermitian_sum(c, dp, q0, dq, count)
    scale = abs(c[0]) + 2.0 * np.abs(c[1:]).sum()
    assert np.abs(got - want).max() <= 1e-12 * scale


def test_chirp_sum_phases_keep_full_precision():
    # the chirp phases dq dp j^2 / 2 reach 600 rad on the default grids; forming
    # them as one rounded product loses an order of magnitude (about 1.3e-14)
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended-precision long double")
    app = default_apparatus(0.1)
    p = app.p_grid()
    dp = p[1] - p[0]
    x = dp * np.arange(app.p_points)
    for mean in (0.3, 1.5):
        c = np.exp(-x * x / (8.0 * app.sigma_p**2) - 1j * mean * x)
        q = app.q_grid(center=mean)
        args = (c, dp, q[0], (q[-1] - q[0]) / (q.size - 1), q.size)
        err = np.abs(_hermitian_chirp_sum(*args) - extended_hermitian_sum(*args))
        assert err.max() <= 4e-15 * (abs(c[0]) + 2.0 * np.abs(c[1:]).sum())


def test_distribution_matches_dense_fourier_oracle(monkeypatch):
    base = default_apparatus(0.1)
    driven = driven_model()
    for app in (
        base,
        dataclasses.replace(base, p_points=2 * base.p_points - 1),
        dataclasses.replace(base, q_points=2 * base.q_points),
    ):
        runs = (
            gad_run(apparatus=app),
            DamRun(driven, (0.3,), A_TILTED, t=1000.0, n=5, apparatus=app),
            DamRun(
                product_gad_model(2),
                (0.2, 0.6),
                np.kron(EXCITED_PROJECTOR, np.eye(2)),
                t=300.0,
                n=2,
                apparatus=app,
            ),
        )
        for run in runs:
            for source in ("exact", "perturbative", "ideal"):
                d = pointer_distribution(run, kernel_source=source)
                with monkeypatch.context() as m:
                    m.setattr(pointer, "_hermitian_chirp_sum", dense_hermitian_sum)
                    ref = pointer_distribution(run, kernel_source=source)
                assert np.abs(d.density - ref.density).max() <= 1e-12


def test_exact_vs_perturbative_total_variation():
    run = gad_run(t=500.0, n=5)
    de = pointer_distribution(run)
    dp = pointer_distribution(run, kernel_source="perturbative")
    tv = 0.5 * float(np.abs(de.cell_masses() - dp.cell_masses()).sum())
    assert tv <= 1e-3


def test_unknown_kernel_source():
    with pytest.raises(ValueError):
        pointer_distribution(gad_run(), kernel_source="magic")


def test_narrow_p_grid_is_rejected():
    app = ApparatusConfig(
        sigma=0.1, p_halfwidth=15.0, p_points=81, q_halfwidth=0.8, q_points=2048
    )
    with pytest.raises(ValueError, match="too narrow"):
        pointer_distribution(gad_run(apparatus=app))


def test_coarse_grids_are_rejected():
    base = default_apparatus(0.1)
    coarse_p = ApparatusConfig(
        sigma=0.1,
        p_halfwidth=base.p_halfwidth,
        p_points=9,
        q_halfwidth=base.q_halfwidth,
        q_points=2048,
    )
    with pytest.raises(ValueError, match="too coarse"):
        pointer_distribution(gad_run(apparatus=coarse_p))
    narrow_q = ApparatusConfig(
        sigma=0.1,
        p_halfwidth=base.p_halfwidth,
        p_points=161,
        q_halfwidth=0.25,
        q_points=512,
    )
    with pytest.raises(ValueError, match="q window too narrow"):
        pointer_distribution(gad_run(t=50.0, apparatus=narrow_q))


@pytest.mark.parametrize("n, t, sd, halfwidth", [
    (5.0, 50.0, "0.376", "3.01"),
    (1.0, 25.0, "0.248", "1.98"),
])
def test_narrow_q_window_names_the_window(n, t, sd, halfwidth):
    # the default +-8 sigma window is narrower than the driven pointer of
    # these runs; the refusal names the window, and 8 sd of the closed form
    # is wide enough
    model, observables = load_model_file(CONFIGS / "driven_gad.json")
    app = default_apparatus(0.1)
    run = DamRun(model, [0.3], observables["tilted"], t=t, n=n, apparatus=app)
    with pytest.raises(ValueError, match="q window too narrow") as err:
        pointer_distribution(run)
    assert f"closed-form sd {sd} " in str(err.value)
    assert "+-0.8 about N <A>" in str(err.value)
    assert f"[apparatus] q_halfwidth to about {halfwidth} (8 sd)" in str(err.value)
    wide = dataclasses.replace(app, q_halfwidth=float(halfwidth))
    dist = pointer_distribution(dataclasses.replace(run, apparatus=wide))
    assert dist.normalization_defect <= 1e-8


def test_product_marginal_factorizes():
    # coupling a site-local observable on the product model gives the same
    # pointer marginal as the single-site model
    app = default_apparatus(0.1)
    joint = DamRun(
        model=product_gad_model(2),
        theta=(0.2, 0.6),
        observable=np.kron(EXCITED_PROJECTOR, np.eye(2)),
        t=300.0,
        n=2,
        apparatus=app,
    )
    single = DamRun(
        model=gad_model(),
        theta=(0.2,),
        observable=EXCITED_PROJECTOR,
        t=300.0,
        n=2,
        apparatus=app,
    )
    dj = pointer_distribution(joint)
    ds = pointer_distribution(single)
    assert np.abs(dj.density - ds.density).max() <= 1e-10
    assert abs(dj.mean - ds.mean) <= 1e-12


@st.composite
def random_runs(draw):
    """Random GKLS run of dimension 2-4 with quarter-integer entries.

    A population model has a diagonal H, a jump |i><j| between every pair of
    levels and a diagonal A with A[0, 0] != A[1, 1], so its kernels depend on
    p - p' alone. A driven model has a random H with a drive between levels
    0 and 1, one to three random jumps, and a random Hermitian A with
    A[0, 1] != 0.
    """
    d = draw(st.integers(2, 4))
    population = draw(st.booleans())

    def matrix():
        re = draw(arrays(np.int8, (d, d), elements=st.integers(-4, 4)))
        im = draw(arrays(np.int8, (d, d), elements=st.integers(-4, 4)))
        return (re + 1j * im) / 4.0

    def hermitian():
        g = matrix()
        return (g + g.conj().T) / 2.0

    if population:
        h = np.diag(np.diag(hermitian()))
        jumps = []
        for i in range(d):
            for j in range(d):
                if i != j:
                    op = np.zeros((d, d), dtype=complex)
                    op[i, j] = 1.0
                    jumps.append((op, draw(st.integers(1, 4)) / 4.0))
        a = np.diag(np.diag(hermitian()))
        a[1, 1] = a[0, 0] + draw(st.integers(1, 4)) / 4.0
    else:
        h = hermitian()
        h[0, 1] = h[1, 0] = draw(st.integers(1, 4)) / 4.0
        jumps = [(matrix(), draw(st.integers(1, 4)) / 4.0)
                 for _ in range(draw(st.integers(1, 3)))]
        a = hermitian()
        a[0, 1] = a[1, 0] = draw(st.integers(1, 4)) / 4.0

    model = LindbladModel(
        name="random",
        param_domain=((0.0, 1.0),),
        hamiltonian=h,
        jumps=tuple((op, rate, (0.0,)) for op, rate in jumps),
    )
    app = ApparatusConfig(
        sigma=0.1, p_halfwidth=3.0, p_points=9, q_halfwidth=1.0, q_points=16
    )
    t = draw(st.sampled_from((5.0, 20.0)))
    run = DamRun(model, [0.5], a, t=t, n=draw(st.integers(1, 2)), apparatus=app)
    return run, population


@contextlib.contextmanager
def _pair_path():
    """Every kernel source on the half-plane pairs, also on an x-only run:
    the realization reports x_only False, so a fresh memo builds the exact
    grid's mode table on every pair."""
    minimal = pointer._minimal_realization
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointer, "_MODE_MEMO", {})
        mp.setattr(pointer, "_minimal_realization",
                   lambda *terms: (minimal(*terms)[0], False))
        mp.setattr(pointer, "_x_only", lambda run, kernel_source: False)
        yield


def grid_kernels(run, kernel_source):
    """(p, pp, K, idx) of ``pointer._kernels`` with its blocks concatenated:
    idx None on an x-only grid, else (idx_i, idx_k) of every half-plane pair."""
    blocks, kvs = zip(*pointer._kernels(run, kernel_source))

    def joined(name):
        return np.concatenate([getattr(b, name) for b in blocks])

    idx = None if blocks[0].idx_i is None else (joined("idx_i"), joined("idx_k"))
    return joined("p"), joined("pp"), np.concatenate(kvs), idx


def _first_of_offset(idx_k, k):
    """Index of the first half-plane pair of every offset 0..k-1."""
    first = np.empty(k, dtype=np.int64)
    first[idx_k[::-1]] = np.arange(idx_k.size)[::-1]
    return first


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_runs())
def test_reduced_grid_matches_dense_oracle(run_and_kind):
    run, population = run_and_kind
    try:
        run.bundle
    except ValueError:
        reject()
    app = run.apparatus
    with _pair_path():
        p1, p2, kv, (idx_i, idx_k) = grid_kernels(run, "exact")
        lam = pointer._kernel_modes(run)[2][0]
    oracle = np.array([trace_kernel(run, x, y) for x, y in zip(p1, p2)])
    assert np.abs(kv - oracle).max() <= 1e-12
    # the kernels production computes: on an x-only run one per offset,
    # held at every half-plane pair of its offset
    _, _, kv_run, idx = grid_kernels(run, "exact")
    if idx is None:
        kv_run = kv_run[idx_k]
    assert np.abs(kv_run - oracle).max() <= 1e-12

    base, lin_p, lin_pp, w, v = _generator_terms(run)
    mats, x_only = _minimal_realization(base, lin_p, lin_pp, w, v)
    # a driven model can reduce as well (H = 0.25 sx, one jump 0.25i|0><0|
    # and A = H have rho_ss = I/2), so the flag is checked against the oracle
    assert x_only or not population
    assert x_only == (idx is None)
    first = _first_of_offset(idx_k, app.p_points)
    assert x_only == bool(np.abs(oracle - oracle[first[idx_k]]).max() <= 1e-12)
    if mats[0].shape == base.shape:
        # pairs without a dominant mode take the Pade kernel at N, bit for bit
        pade = np.isnan(lam)
        n = run.n
        dense = kernels.trace_kernels(
            n * base, n * lin_p, n * lin_pp, p1[pade], p2[pade], w, v
        )
        assert np.array_equal(kv[pade], dense)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mode_table_matches_dense_oracle():
    # Pade and the mode table both round at about eps N ||G||_1, the
    # conditioning of K_N in the entries of G; Pade itself misses 1e-12 by up
    # to 3e-11 at T = 500, N = 50, so the bound grows with it past 1e-12
    served = {"mode": 0, "pade": 0, "offset mode": 0, "offset pade": 0}
    eps = np.finfo(float).eps

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_runs(), st.sampled_from((5.0, 20.0, 500.0)))
    def check(run_and_kind, t):
        run = dataclasses.replace(run_and_kind[0], t=t)
        try:
            run.bundle
        except ValueError:
            reject()
        ns = (1, 2, 5, 10, 50)
        with _pair_path():
            p1, p2, _, (_, idx_k) = grid_kernels(run, "exact")
            mode = ~np.isnan(pointer._kernel_modes(run)[2][0])
            # every N reads the one table, as in a sweep
            kvs = {n: grid_kernels(dataclasses.replace(run, n=n), "exact")[2]
                   for n in ns}
        served["mode"] += int(mode.sum())
        served["pade"] += int((~mode).sum())
        # the kernels production computes: on an x-only run one per offset,
        # from its own table, held at every half-plane pair of its offset
        runs = {n: grid_kernels(dataclasses.replace(run, n=n), "exact")
                for n in ns}
        if runs[1][3] is None:
            kvs_run = {n: out[2][idx_k] for n, out in runs.items()}
            mode = ~np.isnan(pointer._kernel_modes(run)[2][0])
            served["offset mode"] += int(mode.sum())
            served["offset pade"] += int((~mode).sum())
        else:
            kvs_run = {n: out[2] for n, out in runs.items()}
        base, lin_p, lin_pp, _, _ = _generator_terms(run)
        g_norm = max(
            np.abs(base + x * lin_p + y * lin_pp).sum(axis=0).max()
            for x, y in zip(p1, p2)
        )
        for n in ns:
            run_n = dataclasses.replace(run, n=n)
            oracle = np.array([trace_kernel(run_n, x, y) for x, y in zip(p1, p2)])
            bound = max(1e-12, 4 * eps * n * g_norm)
            assert np.abs(kvs[n] - oracle).max() <= bound
            assert np.abs(kvs_run[n] - oracle).max() <= bound

    check()
    assert all(count > 0 for count in served.values())


def _driven_file_run(n):
    model, observables = load_model_file(CONFIGS / "driven_gad.json")
    return DamRun(
        model, [0.3], observables["tilted"], t=500.0, n=n,
        apparatus=default_apparatus(0.1),
    )


@st.composite
def x_only_runs(draw):
    """Runs whose exact kernel depends on p - p' alone: gad read through
    excited, and product_gad_2 through excited@1, over theta, sigma, T and N."""
    app = default_apparatus(draw(st.floats(0.1, 0.3)))
    t = draw(st.floats(50.0, 2000.0))
    n = draw(st.integers(1, 10))
    theta = st.floats(0.05, 0.95)
    if draw(st.booleans()):
        return DamRun(gad_model(), [draw(theta)], EXCITED_PROJECTOR, t, n, app)
    return DamRun(
        product_gad_model(2), [draw(theta), draw(theta)],
        np.kron(EXCITED_PROJECTOR, np.eye(2)), t, n, app,
    )


SOURCES = ("exact", "perturbative", "ideal")


def _forbidden(*args):
    raise AssertionError("half-plane pairs formed")


def _densities_and_delta(run):
    """The run's density from every kernel source, or the error it raises,
    and the non-adiabaticity of its N = 1 run."""
    out = []
    for source in SOURCES:
        try:
            out.append(pointer_distribution(run, source).density)
        except ValueError as exc:
            out.append(str(exc))
    return out, nonadiabaticity(dataclasses.replace(run, n=1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x_only_runs())
def test_offset_path_matches_pair_path(run):
    assert all(pointer._x_only(run, source) for source in SOURCES)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointer, "_half_plane_blocks", _forbidden)
        offsets, delta = _densities_and_delta(run)
    # the pair path, its table built and summed pair by pair, is the oracle
    with _pair_path():
        pairs, delta_pairs = _densities_and_delta(run)
    for got, want in zip(offsets, pairs):
        if isinstance(want, str):
            assert got == want
        else:
            # relative to the peak: the two paths sum in different orders
            assert np.abs(got - want).max() <= 1e-13 * want.max()
    assert abs(delta - delta_pairs) <= 1e-13


def test_pair_path_phases_sit_on_the_transform_offsets():
    # a wide, long run: a phase taken at p_i - p_j instead of the offset
    # k dp the Fourier stage transforms at drifts by k N <A> |dp - step|,
    # which moved the ideal mean by 1.4e-13 (the offset path: 3.6e-15)
    run = gad_run(t=2000.0, n=50, sigma=0.18)
    with _pair_path():
        dist = pointer_distribution(run, "ideal")
    target = run.n * run.bundle.expectation(run.observable)
    assert abs(dist.mean - target) <= 2e-14


def test_every_pair_sits_on_its_offset(monkeypatch):
    # at sigma = 0.18 the linspace step is not dp = p_1 - p_0, and a pair
    # (p_i, p_j) missed its offset k dp by up to 54 ulp of p_halfwidth; the
    # table's pairs and the closed forms' pairs are (p_i, p_i - k dp)
    model, observables = load_model_file(CONFIGS / "driven_gad.json")
    app = default_apparatus(0.18)
    run = DamRun(model, [0.3], observables["tilted"], t=500.0, n=5.0, apparatus=app)
    monkeypatch.setattr(pointer, "_MODE_MEMO", {})
    tables = []
    build = kernels.mode_table_blocks

    def spy(base, lin_p, lin_pp, blocks, size, w, v):
        blocks = list(blocks)
        tables.append(tuple(np.concatenate(x) for x in zip(*blocks)))
        return build(base, lin_p, lin_pp, blocks, size, w, v)

    monkeypatch.setattr(kernels, "mode_table_blocks", spy)
    p = app.p_grid()
    dp = p[1] - p[0]
    _, idx_k = half_plane(app)
    ulp = np.spacing(app.p_halfwidth)
    _, _, _, idx = grid_kernels(run, "exact")
    assert np.array_equal(idx[1], idx_k)
    [(p1, p2)] = tables
    assert p1.size == idx_k.size
    assert np.abs((p1 - p2) - idx_k * dp).max() <= ulp
    p1, p2, _, (_, k) = grid_kernels(run, "perturbative")
    assert np.array_equal(k, idx_k)
    assert np.abs((p1 - p2) - idx_k * dp).max() <= ulp


def test_driven_tilted_run_takes_the_pair_path(monkeypatch):
    # its grid depends on p + p', and so does its perturbative kernel (Im c)
    run = _driven_file_run(5.0)
    assert not pointer._x_only(run, "exact")
    assert not pointer._x_only(run, "perturbative")
    assert pointer._x_only(run, "ideal")
    formed = []
    blocks = pointer._half_plane_blocks
    monkeypatch.setattr(
        pointer, "_half_plane_blocks", lambda app: formed.append(app) or blocks(app)
    )
    for source in SOURCES:
        formed.clear()
        pointer_distribution(run, source)
        assert bool(formed) == (source != "ideal")
    formed.clear()
    nonadiabaticity(dataclasses.replace(run, n=1.0))
    assert formed


def test_kernels_are_a_pure_function_of_the_run(monkeypatch):
    # the N = 10 distribution of a sweep is the same computed first, after
    # the N = 5 run that filled the memo, and in a fresh interpreter
    monkeypatch.setattr(pointer, "_MODE_MEMO", {})
    run5 = _driven_file_run(5.0)
    run10 = dataclasses.replace(run5, n=10.0)
    first = pointer_distribution(run10).density
    assert not np.isnan(pointer._kernel_modes(run10)[2][0]).all()
    pointer._MODE_MEMO.clear()
    pointer_distribution(run5)
    assert np.array_equal(pointer_distribution(run10).density, first)

    script = (
        "import hashlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_pointer import _driven_file_run\n"
        "from damlab.pointer import pointer_distribution\n"
        "density = pointer_distribution(_driven_file_run(10.0)).density\n"
        "print(hashlib.sha256(density.tobytes()).hexdigest())\n"
    )
    src_root = str(Path(pointer.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src_root + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == hashlib.sha256(first.tobytes()).hexdigest()


def test_mode_memo_keys_and_bound(monkeypatch):
    monkeypatch.setattr(pointer, "_MODE_MEMO", {})
    run = gad_run(t=200.0, n=1)
    entry = pointer._kernel_modes(run)
    assert pointer._kernel_modes(dataclasses.replace(run, n=7.0)) is entry
    seen = [entry]
    for change in (
        {"theta": (0.4,)},
        {"t": 300.0},
        {"observable": np.diag([0.0, 1.0]).astype(complex)},
        {"apparatus": default_apparatus(0.2)},
    ):
        got = pointer._kernel_modes(dataclasses.replace(run, **change))
        assert all(got is not old for old in seen)
        seen.append(got)
        assert len(pointer._MODE_MEMO) <= pointer._MODE_MEMO_SIZE
    # five keys through a memo of four: the oldest entry is gone
    assert pointer._MODE_MEMO_SIZE == 4 and len(pointer._MODE_MEMO) == 4
    assert pointer._kernel_modes(run) is not entry


def test_nonadiabaticity_halves_with_t():
    app = default_apparatus(0.2)
    deltas = {}
    for t in (100.0, 200.0, 400.0):
        deltas[t] = nonadiabaticity(gad_run(t=t, apparatus=app))
    assert 0.375 <= deltas[200.0] / deltas[100.0] <= 0.625
    assert 0.375 <= deltas[400.0] / deltas[200.0] <= 0.625
    assert deltas[100.0] < 0.1


def test_nonadiabaticity_needs_single_interaction():
    with pytest.raises(ValueError):
        nonadiabaticity(gad_run(n=2))


def test_sampling_is_deterministic():
    d = pointer_distribution(gad_run())
    a = sample_pointer(d, 123, 500)
    b = sample_pointer(d, 123, 500)
    c = sample_pointer(d, [123, 4], 500)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= d.q_grid[0] - d.dq and a.max() <= d.q_grid[-1] + d.dq


def test_sampling_matches_distribution():
    d = pointer_distribution(gad_run())
    count = 20000
    qs = np.sort(sample_pointer(d, [2026], count))
    cdfv = d.cdf(qs)
    emp_hi = np.arange(1, count + 1) / count
    emp_lo = np.arange(0, count) / count
    ks = max(np.abs(emp_hi - cdfv).max(), np.abs(emp_lo - cdfv).max())
    assert ks <= 1.9495 / np.sqrt(count)  # alpha = 0.001
    assert abs(qs.mean() - d.mean) <= 4.0 * np.sqrt(d.variance / count)


@pytest.mark.parametrize("k", [3, 4, 9, 161, 321])
def test_half_plane_matches_block_enumeration(k):
    app = ApparatusConfig(
        sigma=0.1, p_halfwidth=3.0, p_points=k, q_halfwidth=1.0, q_points=16
    )
    idx_i, idx_k = half_plane(app)
    want_i = np.concatenate([np.arange(off, k) for off in range(k)])
    want_k = np.concatenate([np.full(k - off, off) for off in range(k)])
    assert np.array_equal(idx_i, want_i) and idx_i.dtype == want_i.dtype
    assert np.array_equal(idx_k, want_k) and idx_k.dtype == want_k.dtype


@pytest.mark.parametrize("budget", [1, 7, 40, 4_096])
@pytest.mark.parametrize("k", [3, 9, 161])
def test_half_plane_blocks_follow_the_table_order(k, budget, monkeypatch):
    monkeypatch.setattr(pointer, "_BLOCK_PAIRS", budget)
    app = ApparatusConfig(
        sigma=0.1, p_halfwidth=3.0, p_points=k, q_halfwidth=1.0, q_points=16
    )
    grid = app.p_grid()
    dp = grid[1] - grid[0]
    blocks = list(pointer._half_plane_blocks(app))
    idx_i, idx_k = half_plane(app)
    for name, want in (("idx_i", idx_i), ("idx_k", idx_k)):
        got = np.concatenate([getattr(b, name) for b in blocks])
        assert np.array_equal(got, want) and got.dtype == want.dtype
    offsets, pairs = 0, 0
    for b in blocks:
        # whole offsets, each in one block, consecutive in the table order
        assert b.offsets.start == offsets and b.pairs.start == pairs
        assert np.array_equal(np.unique(b.idx_k), np.arange(offsets, b.offsets.stop))
        size = b.pairs.stop - b.pairs.start
        assert b.idx_i.size == size and (size <= budget or b.offsets.stop == offsets + 1)
        assert np.array_equal(b.p, grid[b.idx_i])
        assert np.array_equal(b.pp, grid[b.idx_i] - dp * b.idx_k)
        offsets, pairs = b.offsets.stop, b.pairs.stop
    assert offsets == k and pairs == idx_k.size


def test_streamed_blocks_are_exact(monkeypatch):
    # the driven/tilted grid, whose kernels and perturbative kernel (Im c != 0)
    # depend on p + p': cut into blocks of at most 7 pairs, the leading
    # offsets of 161 to 8 pairs are each a block alone and the last ones share
    # blocks; table, densities and Delta are the bits of the default blocks
    run = _driven_file_run(5.0)
    assert dissipation_coefficient(run.bundle, run.observable).imag != 0.0
    n1 = dataclasses.replace(run, n=1.0)

    def outputs():
        monkeypatch.setattr(pointer, "_MODE_MEMO", {})
        table = pointer._kernel_modes(run)[2]
        dists = [pointer_distribution(run, s).density for s in ("exact", "perturbative")]
        return table, dists, nonadiabaticity(n1)

    table, dists, delta = outputs()
    monkeypatch.setattr(pointer, "_BLOCK_PAIRS", 7)
    blocks = [(b.offsets, b.idx_k.size) for b in pointer._half_plane_blocks(run.apparatus)]
    assert (slice(0, 1), 161) in blocks
    assert any(offsets.stop - offsets.start > 1 for offsets, _ in blocks)
    small_table, small_dists, small_delta = outputs()
    assert np.array_equal(small_table, table, equal_nan=True)
    for got, want in zip(small_dists, dists):
        assert np.array_equal(got, want)
    assert small_delta == delta


def test_warm_pair_grid_peak_memory_stays_small(monkeypatch):
    # a 481-point grid has 115,921 half-plane pairs; built as whole-grid
    # arrays, one warm exact distribution traced a peak of 7.2 MiB
    monkeypatch.setattr(pointer, "_MODE_MEMO", {})
    app = dataclasses.replace(default_apparatus(0.1), p_points=481)
    run = dataclasses.replace(_driven_file_run(5.0), apparatus=app)
    pointer_distribution(run)
    tracemalloc.start()
    try:
        pointer_distribution(run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"
