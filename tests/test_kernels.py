import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import damlab
import damlab.cli
from damlab import _kernels_py, backend, pointer
from damlab.models import EXCITED_PROJECTOR, gad_model
from damlab.pointer import (
    ApparatusConfig,
    DamRun,
    _generator_terms,
    _minimal_realization,
    default_apparatus,
    pointer_distribution,
)
from damlab.scenario import load_model_file

from oracles import dominant_mode, half_plane
from test_pointer import A_TILTED, CONFIGS, driven_model, grid_kernels


def random_batch(rng, n, m, scale=1.0):
    a = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    return scale * a


def test_expm_batch_matches_scipy():
    rng = np.random.default_rng(101)
    for m in (2, 4, 6):
        for scale in (0.01, 1.0, 30.0):
            a = random_batch(rng, 7, m, scale)
            got = _kernels_py.expm_batch(a)
            for j in range(a.shape[0]):
                ref = scipy.linalg.expm(a[j])
                assert np.abs(got[j] - ref).max() <= 1e-11 * max(
                    1.0, np.abs(ref).max()
                )


def test_expm_batch_zero_matrix():
    out = _kernels_py.expm_batch(np.zeros((3, 4, 4), dtype=complex))
    for j in range(3):
        assert np.abs(out[j] - np.eye(4)).max() <= 1e-15


def test_expm_batch_rejects_bad_shapes():
    with pytest.raises(ValueError):
        _kernels_py.expm_batch(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        _kernels_py.expm_batch(np.zeros((2, 3, 4)))
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        _kernels_py.expm_batch(bad)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 16])
def test_product_matches_stacked_matmul(m):
    # the one product of the kernel layer, on (m, m, n) batches whose memory
    # is (m, m, n) or (n, m, m): BLAS above _BROADCAST_MAX_DIM is stacked @
    # bit for bit; broadcast multiply-adds below agree with it to round-off
    rng = np.random.default_rng(m)
    a, b = random_batch(rng, 70, m), random_batch(rng, 70, m)
    want = a @ b
    stored = np.ascontiguousarray(a.transpose(1, 2, 0))
    got = _kernels_py._mul(stored, b.transpose(1, 2, 0))
    assert got.shape == (m, m, 70)
    got = got.transpose(2, 0, 1)
    if m > _kernels_py._BROADCAST_MAX_DIM:
        assert np.array_equal(got, want)
    else:
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want) <= 4 * m * eps * (np.abs(a) @ np.abs(b)))


def test_expm_batch_split_invariance_is_bitwise():
    # trace_kernels chunks its batch; chunking must not change a bit, with
    # broadcast products (m <= 4) and with BLAS ones
    rng = np.random.default_rng(77)
    for m, scale in ((4, 12.0), (2, 12.0), (6, 9.0), (16, 2.0)):
        a = random_batch(rng, 40, m, scale)
        # the batch mixes squaring counts; alone, each matrix gets its own
        norms = np.abs(a).sum(axis=1).max(axis=1)
        assert np.unique(np.ceil(np.log2(norms / _kernels_py._THETA13))).size > 1
        whole = _kernels_py.expm_batch(a)
        parts = np.concatenate(
            [_kernels_py.expm_batch(a[:13]), _kernels_py.expm_batch(a[13:])]
        )
        assert np.array_equal(whole, parts)
        singles = [_kernels_py.expm_batch(a[j : j + 1]) for j in range(40)]
        assert np.array_equal(whole, np.concatenate(singles))


def trace_kernel_reference(base, lin_p, lin_pp, p, pp, w, v):
    out = np.empty(len(p), dtype=complex)
    for j in range(len(p)):
        g = base + p[j] * lin_p + pp[j] * lin_pp
        out[j] = w @ (scipy.linalg.expm(g) @ v)
    return out


def _kernel_inputs(rng, m=4, n=25):
    base = random_batch(rng, 1, m, 0.8)[0]
    lin_p = random_batch(rng, 1, m, 0.5)[0]
    lin_pp = random_batch(rng, 1, m, 0.5)[0]
    p = rng.uniform(-3, 3, n)
    pp = rng.uniform(-3, 3, n)
    w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return base, lin_p, lin_pp, p, pp, w, v


def test_trace_kernels_matches_direct_loop():
    rng = np.random.default_rng(303)
    args = _kernel_inputs(rng)
    got = _kernels_py.trace_kernels(*args)
    ref = trace_kernel_reference(*args)
    assert np.abs(got - ref).max() <= 1e-11


@st.composite
def long_dissipative_grids(draw):
    """trace_kernels arguments of dimension 1-6, on both sides of the
    product rule (broadcast up to m = 4, BLAS above), whose generators
    i H - D (H Hermitian, D >= 0) have 1-norms that take 8 to 11 squarings,
    as the driven N = 5 and N = 10 grids do. exp(i H - D) is a contraction,
    so |K| <= |w| |v| = 1."""
    m = draw(st.sampled_from(range(1, 7)))
    squarings = draw(st.integers(8, 11))
    rank = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def hermitian(scale):
        h = random_batch(rng, 1, m, scale)[0]
        return (h + h.conj().T) / 2.0

    def unit():
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return x / np.linalg.norm(x)

    base = 1j * hermitian(1.0)
    base *= _kernels_py._THETA13 * 2.0 ** (squarings - 0.5) / np.abs(base).sum(0).max()
    b = random_batch(rng, 1, m)[0][:, :rank]
    base -= draw(st.floats(0.0, 1.0)) * b @ b.conj().T
    p, pp = rng.uniform(-3.0, 3.0, (2, 12))
    return base, 1j * hermitian(0.1), 1j * hermitian(0.1), p, pp, unit(), unit()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(long_dissipative_grids())
def test_trace_kernels_match_scipy_across_the_product_rule(args):
    base, lin_p, lin_pp, p, pp = args[:5]
    g = base + p[:, None, None] * lin_p + pp[:, None, None] * lin_pp
    assert np.all(np.abs(g).sum(axis=1).max(axis=1) > _kernels_py._THETA13 * 2**7)
    got = _kernels_py.trace_kernels(*args)
    assert np.abs(got - trace_kernel_reference(*args)).max() <= 1e-11


@pytest.mark.parametrize("m, n", [(4, 600), (6, 300), (16, 60)], ids=["4", "6", "16"])
def test_trace_kernels_split_invariance_is_bitwise(m, n):
    # both parts and the whole span several chunks of the batch budget
    assert n - 17 > 2 * (_kernels_py._BATCH_ELEMENTS // (m * m))
    rng = np.random.default_rng(31)
    base, lin_p, lin_pp, p, pp, w, v = _kernel_inputs(rng, m, n)
    whole = _kernels_py.trace_kernels(base, lin_p, lin_pp, p, pp, w, v)
    parts = np.concatenate(
        [
            _kernels_py.trace_kernels(base, lin_p, lin_pp, p[:17], pp[:17], w, v),
            _kernels_py.trace_kernels(base, lin_p, lin_pp, p[17:], pp[17:], w, v),
        ]
    )
    assert np.array_equal(whole, parts)
    # a batch of one pair: numpy's own sums would round it differently
    single = _kernels_py.trace_kernels(base, lin_p, lin_pp, p[5:6], pp[5:6], w, v)
    assert np.array_equal(whole[5:6], single)


def test_trace_kernels_length_mismatch():
    rng = np.random.default_rng(5)
    base, lin_p, lin_pp, p, pp, w, v = _kernel_inputs(rng)
    with pytest.raises(ValueError):
        _kernels_py.trace_kernels(base, lin_p, lin_pp, p, pp[:-1], w, v)


def _driven_half_plane():
    """trace_kernels arguments of the full driven/tilted grid: the 13,041
    half-plane pairs of the default 161-point p grid on the 4x4 generator,
    which does not reduce."""
    app = default_apparatus(0.1)
    run = DamRun(driven_model(), [0.3], A_TILTED, t=500.0, n=5.0, apparatus=app)
    (base, lin_p, lin_pp, w, v), x_only = _minimal_realization(*_generator_terms(run))
    assert base.shape == (4, 4) and not x_only
    p = app.p_grid()
    idx_i, idx_k = half_plane(app)
    return base, lin_p, lin_pp, p[idx_i], p[idx_i - idx_k], w, v


def test_trace_kernels_streams_a_full_grid_bit_for_bit(monkeypatch):
    args = _driven_half_plane()
    p = args[3]
    chunk = _kernels_py._BATCH_ELEMENTS // 16
    assert p.size == 13_041 and p.size > 2 * chunk and p.size % chunk
    streamed = _kernels_py.trace_kernels(*args)
    # the same grid through the same code in a single batch
    monkeypatch.setattr(_kernels_py, "_BATCH_ELEMENTS", 16 * p.size)
    assert np.array_equal(streamed, _kernels_py.trace_kernels(*args))


def test_trace_kernels_working_set_stays_small():
    # the grid in one batch traces 32.4 MiB; streamed in chunks, 1.0 MiB
    args = _driven_half_plane()
    tracemalloc.start()
    try:
        _kernels_py.trace_kernels(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_mode_table_matches_pade_and_ignores_batching(monkeypatch):
    # the driven/tilted grid at T = 500: every pair has a dominant mode, and
    # c exp(N lam) stays within the rounding both share, eps N ||G||_1
    args = _driven_half_plane()
    base, lin_p, lin_pp, p, pp, w, v = args
    table = _kernels_py.mode_table(*args)
    assert table.shape == (2, p.size) and not np.isnan(table).any()
    lam, c = table
    g = base + p[:, None, None] * lin_p + pp[:, None, None] * lin_pp
    g_norm = np.abs(g).sum(axis=1).max()
    eps = np.finfo(float).eps
    for n in (1.0, 5.0, 10.0):
        pade = _kernels_py.trace_kernels(n * base, n * lin_p, n * lin_pp, p, pp, w, v)
        assert np.abs(c * np.exp(n * lam) - pade).max() <= 4 * eps * n * g_norm
    # a pair's mode does not depend on the batch it is computed in, even
    # when it is computed alone
    for j in range(0, p.size, 1_999):
        one = slice(j, j + 1)
        alone = _kernels_py.mode_table(base, lin_p, lin_pp, p[one], pp[one], w, v)
        assert np.array_equal(alone[:, 0], table[:, j])
    monkeypatch.setattr(_kernels_py, "_BATCH_ELEMENTS", 16 * 97)
    assert np.array_equal(_kernels_py.mode_table(*args), table)


def test_mode_table_blocks_fill_one_table_from_any_cut():
    base, lin_p, lin_pp, p, pp, w, v = _driven_half_plane()
    p, pp = p[:700], pp[:700]
    table = _kernels_py.mode_table(base, lin_p, lin_pp, p, pp, w, v)
    cuts = [0, 1, 2, 300, 301, 557, 700]
    blocks = [(p[a:b], pp[a:b]) for a, b in zip(cuts, cuts[1:])]
    streamed = _kernels_py.mode_table_blocks(base, lin_p, lin_pp, iter(blocks), 700, w, v)
    assert np.array_equal(streamed, table)
    for size in (699, 701):
        with pytest.raises(ValueError, match="blocks hold"):
            _kernels_py.mode_table_blocks(base, lin_p, lin_pp, blocks, size, w, v)


def _gapped_grid(m):
    """mode_table arguments of 300 pairs of m x m generators G = U diag(0,
    gap) U^* plus small p and pp terms: every pair has a dominant mode the
    gap test accepts."""
    rng = np.random.default_rng(m)
    u, _ = np.linalg.qr(random_batch(rng, 1, m)[0])
    gap = -60.0 - 20.0 * rng.random(m - 1) + 5j * rng.standard_normal(m - 1)
    base = u @ np.diag(np.concatenate([[0.0], gap])) @ u.conj().T
    lin_p, lin_pp = random_batch(rng, 2, m, 0.05)
    p, pp = rng.uniform(-3.0, 3.0, (2, 300))
    w, v = random_batch(rng, 2, m)[:, 0]
    return base, lin_p, lin_pp, p, pp, w, v


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 16])
def test_mode_table_ignores_batching_above_the_broadcast_size(m, monkeypatch):
    # up to m = 4 the resolvent is an adjugate by cofactors; above, BLAS
    # products are strided batches, copied into the table's workspace. On
    # both paths a pair's mode is the same bits alone as in its batch
    base, lin_p, lin_pp, p, pp, w, v = _gapped_grid(m)
    table = _kernels_py.mode_table(base, lin_p, lin_pp, p, pp, w, v)
    assert not np.isnan(table).any()
    for j in range(p.size):
        one = slice(j, j + 1)
        alone = _kernels_py.mode_table(base, lin_p, lin_pp, p[one], pp[one], w, v)
        assert np.array_equal(alone[:, 0], table[:, j])
    # tables take 2 * 97 pairs a batch here, so the grid spans two
    monkeypatch.setattr(_kernels_py, "_BATCH_ELEMENTS", m * m * 97)
    streamed = _kernels_py.mode_table(base, lin_p, lin_pp, p, pp, w, v)
    assert np.array_equal(streamed, table)


@pytest.mark.parametrize("m", [3, 4])
def test_adjugate_is_det_times_inverse(m):
    rng = np.random.default_rng(40 + m)
    a = random_batch(rng, 50, m, 3.0)
    want = np.linalg.det(a)[:, None, None] * np.linalg.inv(a)
    stored = np.ascontiguousarray(a.transpose(1, 2, 0))
    out = np.empty_like(stored)
    got = _kernels_py._adjugate(stored, out, np.empty(m * m * 50, dtype=complex))
    assert got is out
    # each cofactor sums (m - 1)! products of m - 1 entries
    scale = np.abs(a).max(axis=(1, 2)) ** (m - 1)
    err = np.abs(got.transpose(2, 0, 1) - want).max(axis=(1, 2))
    assert np.all(err <= 16 * np.finfo(float).eps * scale)
    assert np.array_equal(_kernels_py._adjugate(stored), got)


@pytest.mark.parametrize(
    "a",
    [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[2, 1, 0, 3j], [1, -1, 2, 1], [3, 0, 2, 1 + 3j], [1, 2, -2, 2j]],
    ],
    ids=["3", "4"],
)
def test_adjugate_of_a_singular_matrix_is_rank_one(a):
    # rank m - 1 with small integer entries, where inv raises: every
    # cofactor is an exact integer, and adj = r l^T with A r = 0 = l^T A
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(a)
    adj = _kernels_py._adjugate(np.ascontiguousarray(a[..., None]))[..., 0]
    assert np.array_equal(a @ adj, np.zeros((m, m)))
    assert np.array_equal(adj @ a, np.zeros((m, m)))
    k = np.unravel_index(np.argmax(np.abs(adj)), adj.shape)
    assert adj[k] != 0
    assert np.array_equal(adj * adj[k], np.outer(adj[:, k[1]], adj[k[0], :]))


def test_small_mode_tables_take_no_lapack_inverse(monkeypatch):
    tables = {m: _kernels_py.mode_table(*_gapped_grid(m)) for m in (1, 2, 3, 4, 5)}
    monkeypatch.setattr(np.linalg, "inv", None)
    for m in (1, 2, 3, 4):
        assert np.array_equal(_kernels_py.mode_table(*_gapped_grid(m)), tables[m])
    with pytest.raises(TypeError):
        _kernels_py.mode_table(*_gapped_grid(5))
    # up to m = 2 the modes are closed-form: no eigenbasis either
    monkeypatch.setattr(np.linalg, "eig", None)
    for m in (1, 2):
        assert np.array_equal(_kernels_py.mode_table(*_gapped_grid(m)), tables[m])
    with pytest.raises(TypeError):
        _kernels_py.mode_table(*_gapped_grid(3))


@pytest.mark.parametrize("grid", ["driven", "6"])
def test_mode_table_matches_a_40_digit_eigendecomposition(grid):
    # lam carries about eps ||G||_1 of rounding, c (|c| about 1) about eps;
    # the driven T = 500 grid on the adjugate path, m = 6 on LAPACK's inverse
    if grid == "driven":
        args = _driven_half_plane()
        pairs = range(0, args[3].size, 326)
    else:
        args = _gapped_grid(6)
        pairs = range(0, args[3].size, 30)
    base, lin_p, lin_pp, p, pp, w, v = args
    lam, c = _kernels_py.mode_table(*args)
    eps = np.finfo(float).eps
    for j in pairs:
        g = base + p[j] * lin_p + pp[j] * lin_pp
        want_lam, want_c = dominant_mode(g, w, v)
        assert abs(lam[j] - want_lam) <= 4 * eps * np.abs(g).sum(axis=0).max()
        assert abs(c[j] - want_c) <= 64 * eps


@pytest.mark.parametrize(
    "modes, served",
    [
        # decay 60: past the gap of 2 ln(1 / MODE_TOL) = 46.05, so the
        # neglected mode is below exp(-60) at N = 1
        ((0.0, -60.0), True),
        # decay 23.5: N = 1 would keep a neglected mode of 6e-11, so the gap
        # test sends the pair to Pade although the resolvent converges
        ((0.0, -23.5), False),
        # two modes of decay 23.0, whose exponentials at t = 1/2 cancel in
        # tr(E^2) - tr(E)^2: the gap test refuses them as well
        ((0.0, 2 * np.log(1e-5), 2 * (np.log(1e-5 / (1 + 1e-5)) + 1j * np.pi)), False),
        # a rotation: the squared resolvent is rank one to 1e-16 and passes
        # the guard, but the other mode never decays
        ((0.0, 20j), False),
    ],
)
def test_mode_table_guard_on_diagonal_generators(modes, served):
    # one pair with G = diag(modes) and w = v = (1, ..., 1):
    # K_N = sum_k exp(N g_k)
    g = np.asarray(modes, dtype=complex)
    zero = np.zeros((g.size, g.size), dtype=complex)
    ones = np.ones(g.size, dtype=complex)
    lam, c = _kernels_py.mode_table(np.diag(g), zero, zero, [0.0], [0.0], ones, ones)
    assert bool(np.isnan(lam[0])) != served
    if served:
        for n in (1.0, 2.0, 5.0):
            assert abs(c[0] * np.exp(n * lam[0]) - np.exp(n * g).sum()) <= 1e-14


def test_mode_table_reads_the_round_that_accepts():
    # G = diag(0, -60, -60) at p = pp = 0: the resolvent at s = 60
    # _SHIFT_OFFSET is diag(-1 / s, -1 / (60 + s), -1 / (60 + s)), of ratio
    # r = s / (60 + s) = 1e-8. The guard refuses its square (residual 2r)
    # and accepts the next (2r^2), so lam = tr(G E^4) / tr(E^4)
    # = -120 r^4 / (1 + 2 r^4); a pair left iterating after it is accepted
    # would read about -120 r^16 at the last round
    zero = np.zeros((3, 3), dtype=complex)
    ones = np.ones(3, dtype=complex)
    lam, c = _kernels_py.mode_table(
        np.diag([0.0, -60.0, -60.0]), zero, zero, [0.0], [0.0], ones, ones
    )
    r4 = (60 * _kernels_py._SHIFT_OFFSET / (60 + 60 * _kernels_py._SHIFT_OFFSET)) ** 4
    assert lam[0] == pytest.approx(-120 * r4 / (1 + 2 * r4), rel=1e-12, abs=0)
    assert c[0] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "base",
    [
        # a Jordan block at the leading eigenvalue
        [[-1.0, 1.0], [0.0, -1.0]],
        # a simple leading eigenvalue and a Jordan block far below it, which
        # the gap test alone would pass: eig's eigenvectors have 1-norm
        # condition number 9e13
        [[0.0, 0.0, 0.0], [0.0, -100.0, 1.0], [0.0, 0.0, -100.0]],
    ],
)
def test_mode_table_refuses_a_defective_base(base):
    # no eigenbasis to shift and deflate in: every pair goes to Pade,
    # without a LinAlgError or a warning
    base = np.asarray(base, dtype=complex)
    m = base.shape[0]
    lin_p = np.diag(np.arange(m) - 1j)
    lin_pp = -lin_p.conj()
    p = np.linspace(-3.0, 3.0, 7)
    ones = np.ones(m, dtype=complex)
    table = _kernels_py.mode_table(base, lin_p, lin_pp, p, p[::-1], ones, ones)
    assert table.shape == (2, 7) and np.isnan(table).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "base, lin",
    [
        # K_N = exp(N (-0.5 - i (p - pp))): at p = pp the shift is exact
        (-0.5, -1j),
        # G = 0 at every pair, as for a realization that keeps only the trace
        (0.0, 0.0),
    ],
)
def test_mode_table_on_a_one_dimensional_realization(base, lin):
    # m = 1: the deflated block is empty, so every pair is served
    mats = [np.array([[x]], dtype=complex) for x in (base, lin, -lin)]
    p = np.repeat(np.linspace(-2.0, 2.0, 5), 5)
    pp = np.tile(np.linspace(-2.0, 2.0, 5), 5)
    w, v = np.array([0.5 + 0.5j]), np.array([2.0 + 0j])
    lam, c = _kernels_py.mode_table(*mats, p, pp, w, v)
    g = base + lin * (p - pp)
    eps = np.finfo(float).eps
    for n in (1.0, 2.0, 5.0):
        want = w[0] * v[0] * np.exp(n * g)
        bound = 4 * eps * n * max(1.0, np.abs(g).max())
        assert np.abs(c * np.exp(n * lam) - want).max() <= bound


def _stack(base, lin_p, lin_pp, p, pp):
    """The generators G_j = base + p_j lin_p + pp_j lin_pp, stacked (n, m, m)."""
    return base + p[:, None, None] * lin_p + pp[:, None, None] * lin_pp


def _gap_decision(g):
    """(served, clear) of every 2 x 2 generator of a stack by its LAPACK
    eigenvalues: whether their real parts lie _MODE_GAP apart, and whether
    that decision is clear of rounding."""
    re = np.sort(np.linalg.eigvals(g).real, axis=1)
    gap = re[:, 1] - re[:, 0] - _kernels_py._MODE_GAP
    return gap >= 0, np.abs(gap) > 1e-9 * np.abs(g).sum(axis=1).max(axis=1)


def _check_against_the_oracle(args, table, pairs):
    # lam carries about eps ||G||_1 of rounding, c about eps
    base, lin_p, lin_pp, p, pp, w, v = args
    lam, c = table
    eps = np.finfo(float).eps
    for j in pairs:
        g = base + p[j] * lin_p + pp[j] * lin_pp
        want_lam, want_c = dominant_mode(g, w, v)
        assert abs(lam[j] - want_lam) <= 4 * eps * np.abs(g).sum(axis=0).max()
        assert abs(c[j] - want_c) <= 64 * eps


@pytest.mark.parametrize("scale", [20.0, 60.0, 300.0])
def test_closed_form_modes_match_a_40_digit_eigendecomposition(scale):
    # 2 x 2 generators with ||G||_1 up to about 1,500: the pairs whose
    # eigenvalues lie the gap apart are served, and match the oracle
    rng = np.random.default_rng(int(scale))
    base, lin_p, lin_pp = random_batch(rng, 3, 2, scale)
    lin_p, lin_pp = lin_p / 4, lin_pp / 4
    p, pp = rng.uniform(-1.0, 1.0, (2, 40))
    w, v = (x / np.linalg.norm(x) for x in random_batch(rng, 2, 2)[:, 0])
    args = base, lin_p, lin_pp, p, pp, w, v
    table = _kernels_py.mode_table(*args)
    served, clear = _gap_decision(_stack(*args[:5]))
    assert clear.all() and served.sum() >= 10
    assert np.array_equal(~np.isnan(table[0]), served)
    _check_against_the_oracle(args, table, np.flatnonzero(served))


# CLI calls on the shipped scenarios whose kernel tables are two-state, and
# the pairs refused in each table they build, in build order: the sets the
# resolvent iteration served before the closed form replaced it at m <= 2
SHIPPED_TWO_STATE = {
    ("verify", "configs/verify.ini"): [0] * 10 + [45, 0, 0],
    ("scaling", "configs/scaling_demo.ini"): [0],
    ("scaling", "perfbench/scenarios/product_scaling.ini"): [0, 0],
}


@pytest.mark.parametrize("call", SHIPPED_TWO_STATE, ids=lambda call: call[1])
def test_closed_form_modes_on_the_shipped_two_state_grids(call, monkeypatch, tmp_path):
    tables = []
    build = _kernels_py.mode_table_blocks

    def spy(base, lin_p, lin_pp, blocks, size, w, v):
        p, pp = (np.concatenate(x) for x in zip(*blocks))
        table = build(base, lin_p, lin_pp, [(p, pp)], size, w, v)
        tables.append(((base, lin_p, lin_pp, p, pp, w, v), table))
        return table

    monkeypatch.setattr(backend.kernels, "mode_table_blocks", spy)
    monkeypatch.setattr(pointer, "_MODE_MEMO", {})
    command, config = call
    argv = [command, "--config", str(CONFIGS.parent / config), "--out", str(tmp_path)]
    assert damlab.cli.main(argv) == 0
    assert [int(np.isnan(t[0]).sum()) for _, t in tables] == SHIPPED_TWO_STATE[call]
    checked = set()
    for args, table in tables:
        base, lin_p, lin_pp, p, pp, w, v = args
        assert base.shape == (2, 2)
        served, clear = _gap_decision(_stack(*args[:5]))
        assert clear.all() and np.array_equal(~np.isnan(table[0]), served)
        key = b"".join(np.asarray(x).tobytes() for x in args)
        if key not in checked:
            checked.add(key)
            _check_against_the_oracle(args, table, np.flatnonzero(served)[::8])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "g",
    [
        # one eigenvalue, twice: a Jordan block and a multiple of the identity
        [[-1.0, 1.0], [0.0, -1.0]],
        [[-3.0, 0.0], [0.0, -3.0]],
        # G = 0, where both closed-form roots are 0 / 0
        [[0.0, 0.0], [0.0, 0.0]],
        # eigenvalues -1 +- 100i share their real part
        [[-1.0, 100.0], [-100.0, -1.0]],
    ],
    ids=["jordan", "scalar", "zero", "rotation"],
)
def test_closed_form_refuses_eigenvalues_of_one_real_part(g):
    zero = np.zeros((2, 2), dtype=complex)
    ones = np.ones(2, dtype=complex)
    g = np.asarray(g, dtype=complex)
    table = _kernels_py.mode_table(g, zero, zero, [0.0] * 3, [0.0] * 3, ones, ones)
    assert table.shape == (2, 3) and np.isnan(table).all()


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_tables_keep_their_errors(m):
    base, lin_p, lin_pp, p, pp, w, v = _gapped_grid(m)
    for bad in (base, lin_p):
        saved = bad[0, 0]
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _kernels_py.mode_table(base, lin_p, lin_pp, p, pp, w, v)
        bad[0, 0] = saved
    blocks = [(p[:100], pp[:100]), (p[100:], pp[100:])]
    for size, match in ((299, "more than 299"), (301, "hold 300 pairs, not 301")):
        with pytest.raises(ValueError, match=match):
            _kernels_py.mode_table_blocks(base, lin_p, lin_pp, blocks, size, w, v)


@pytest.mark.parametrize("t", [200.0, 500.0])
def test_mode_table_serves_the_driven_file_grid(monkeypatch, t):
    # configs/driven_gad.json read through `tilted`: at T = 200 the shift is
    # worst (|lam - sigma| / |mu - sigma| up to 1.7e-2) and the gap test
    # tightest, yet every pair is served, by inverse iteration alone
    model, observables = load_model_file(CONFIGS / "driven_gad.json")
    app = default_apparatus(0.1)
    run = DamRun(model, [0.3], observables["tilted"], t=t, n=1.0, apparatus=app)
    (base, lin_p, lin_pp, w, v), x_only = _minimal_realization(*_generator_terms(run))
    assert base.shape == (4, 4) and not x_only
    p = app.p_grid()
    idx_i, idx_k = half_plane(app)
    p, pp = p[idx_i], p[idx_i - idx_k]
    with monkeypatch.context() as patch:
        for name in ("_pade13", "_expm", "_squarings"):
            patch.setattr(_kernels_py, name, None)
        lam, c = _kernels_py.mode_table(base, lin_p, lin_pp, p, pp, w, v)
    assert lam.size == 13_041 and not np.isnan(lam).any()
    g = base + p[:, None, None] * lin_p + pp[:, None, None] * lin_pp
    g_norm = np.abs(g).sum(axis=1).max()
    eps = np.finfo(float).eps
    for n in (1.0, 2.0, 5.0):
        pade = _kernels_py.trace_kernels(n * base, n * lin_p, n * lin_pp, p, pp, w, v)
        assert np.abs(c * np.exp(n * lam) - pade).max() <= 4 * eps * n * g_norm


@pytest.mark.parametrize("t", [50.0, 100.0])
def test_mode_table_refusals_on_the_driven_file_grid(monkeypatch, t):
    # below T = 200 the gap test refuses most of the same grid, all of it at
    # T = 50; the Pade kernels at N then serve every refused pair
    monkeypatch.setattr(pointer, "_MODE_MEMO", {})
    model, observables = load_model_file(CONFIGS / "driven_gad.json")
    app = default_apparatus(0.1)
    run = DamRun(model, [0.3], observables["tilted"], t=t, n=1.0, apparatus=app)
    lam = pointer._kernel_modes(run)[2][0]
    refused = np.isnan(lam)
    assert lam.size == 13_041
    assert refused.sum() == {50.0: 13_041, 100.0: 12_593}[t]
    kv = grid_kernels(run, "exact")[2][refused]
    # K(p, p') is a matrix element of the pointer's state: |K| <= K(p, p) = 1
    assert np.isfinite(kv).all() and np.abs(kv).max() <= 1.0 + 1e-12


def test_pointer_grids_call_the_backend_kernels_attribute(monkeypatch):
    # profilers wrap the functions of backend.kernels; every exact grid must
    # reach the numpy kernels through that attribute: one mode table of its
    # pairs, then Pade kernels for the pairs the table's guard refuses
    assert damlab.KERNEL_BACKEND == "python"
    assert backend.kernels is _kernels_py
    seen = []
    build, pade = _kernels_py.mode_table_blocks, _kernels_py.trace_kernels

    def table_spy(base, lin_p, lin_pp, blocks, size, w, v):
        blocks = list(blocks)
        p, pp = (np.concatenate(x) for x in zip(*blocks))
        assert p.size == size
        seen.append(("mode_table_blocks", np.array(base), p, pp))
        return build(base, lin_p, lin_pp, blocks, size, w, v)

    def pade_spy(base, lin_p, lin_pp, p, pp, w, v):
        seen.append(("trace_kernels", np.array(base), np.array(p), np.array(pp)))
        return pade(base, lin_p, lin_pp, p, pp, w, v)

    monkeypatch.setattr(backend.kernels, "mode_table_blocks", table_spy)
    monkeypatch.setattr(backend.kernels, "trace_kernels", pade_spy)
    monkeypatch.setattr(pointer, "_MODE_MEMO", {})

    def grid_calls():
        (name, base, p, pp), rest = seen[0], seen[1:]
        assert name == "mode_table_blocks"
        pairs = set(zip(p.tolist(), pp.tolist()))
        for name, pade_base, pade_p, pade_pp in rest:
            # N = 1: the Pade generator is the table's
            assert name == "trace_kernels" and np.array_equal(pade_base, base)
            assert set(zip(pade_p.tolist(), pade_pp.tolist())) <= pairs
        seen.clear()
        return base, p, pp

    app = ApparatusConfig(
        sigma=0.1, p_halfwidth=30.0, p_points=31, q_halfwidth=0.8, q_points=256
    )
    grid = app.p_grid()

    # population dynamics: a 2-dim realization, one kernel per offset x = k dp
    run = DamRun(gad_model(), [0.3], EXCITED_PROJECTOR, t=200.0, n=1.0, apparatus=app)
    pointer_distribution(run, "exact")
    base, p, pp = grid_calls()
    assert base.shape == (2, 2)
    assert np.array_equal(p, (grid[1] - grid[0]) * np.arange(31))
    assert np.all(pp == 0)

    # a driven qubit read off-diagonally does not reduce: all 496 half-plane
    # pairs on the full 4x4 superoperator
    run = DamRun(driven_model(), [0.3], A_TILTED, t=200.0, n=1.0, apparatus=app)
    pointer_distribution(run, "exact")
    base, p, pp = grid_calls()
    assert base.shape == (4, 4)
    want = {(i, j) for i in range(31) for j in range(i + 1)}
    got = [
        (int(np.flatnonzero(grid == a)[0]), int(np.flatnonzero(grid == b)[0]))
        for a, b in zip(p, pp)
    ]
    assert len(got) == len(want)
    assert set(got) == want
