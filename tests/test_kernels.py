import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import damlab
from damlab import _kernels_py, backend
from damlab.models import EXCITED_PROJECTOR, gad_model
from damlab.pointer import (
    ApparatusConfig,
    DamRun,
    _generator_terms,
    _half_plane,
    _minimal_realization,
    default_apparatus,
    pointer_distribution,
)

from test_pointer import A_TILTED, driven_model


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


def test_expm_batch_split_invariance_is_bitwise():
    # trace_kernels chunks its batch; chunking must not change a bit, in the
    # pairs-last layout of m <= 4 and in the per-matrix one
    rng = np.random.default_rng(77)
    for m, scale in ((4, 12.0), (2, 12.0), (6, 9.0)):
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
    pairs-last size rule, whose generators i H - D (H Hermitian, D >= 0)
    have 1-norms that take 8 to 11 squarings, as the driven N = 5 and
    N = 10 grids do. exp(i H - D) is a contraction, so |K| <= |w| |v| = 1."""
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
def test_trace_kernels_match_scipy_across_the_layout_rule(args):
    base, lin_p, lin_pp, p, pp = args[:5]
    g = base + p[:, None, None] * lin_p + pp[:, None, None] * lin_pp
    assert np.all(np.abs(g).sum(axis=1).max(axis=1) > _kernels_py._THETA13 * 2**7)
    got = _kernels_py.trace_kernels(*args)
    assert np.abs(got - trace_kernel_reference(*args)).max() <= 1e-11


def test_trace_kernels_split_invariance_is_bitwise():
    rng = np.random.default_rng(31)
    base, lin_p, lin_pp, p, pp, w, v = _kernel_inputs(rng, n=60)
    whole = _kernels_py.trace_kernels(base, lin_p, lin_pp, p, pp, w, v)
    parts = np.concatenate(
        [
            _kernels_py.trace_kernels(base, lin_p, lin_pp, p[:17], pp[:17], w, v),
            _kernels_py.trace_kernels(base, lin_p, lin_pp, p[17:], pp[17:], w, v),
        ]
    )
    assert np.array_equal(whole, parts)


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
    idx_i, idx_k = _half_plane(app)
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


def test_pointer_grids_call_the_backend_kernels_attribute(monkeypatch):
    # profilers wrap backend.kernels.trace_kernels; every exact grid must
    # reach the numpy kernels through that attribute
    assert damlab.KERNEL_BACKEND == "python"
    assert backend.kernels is _kernels_py
    seen = []
    original = _kernels_py.trace_kernels

    def spy(base, lin_p, lin_pp, p, pp, w, v):
        seen.append((np.array(base), np.array(p), np.array(pp)))
        return original(base, lin_p, lin_pp, p, pp, w, v)

    monkeypatch.setattr(backend.kernels, "trace_kernels", spy)
    app = ApparatusConfig(
        sigma=0.1, p_halfwidth=30.0, p_points=31, q_halfwidth=0.8, q_points=256
    )
    grid = app.p_grid()

    # population dynamics: a 2-dim realization, one kernel per offset x = k dp
    run = DamRun(gad_model(), [0.3], EXCITED_PROJECTOR, t=200.0, n=1.0, apparatus=app)
    pointer_distribution(run, "exact")
    assert len(seen) == 1
    base, p, pp = seen.pop()
    assert base.shape == (2, 2)
    assert np.array_equal(p, (grid[1] - grid[0]) * np.arange(31))
    assert np.all(pp == 0)

    # a driven qubit read off-diagonally does not reduce: all 496 half-plane
    # pairs on the full 4x4 superoperator
    run = DamRun(driven_model(), [0.3], A_TILTED, t=200.0, n=1.0, apparatus=app)
    pointer_distribution(run, "exact")
    assert len(seen) == 1
    base, p, pp = seen.pop()
    assert base.shape == (4, 4)
    want = {(i, j) for i in range(31) for j in range(i + 1)}
    got = [
        (int(np.flatnonzero(grid == a)[0]), int(np.flatnonzero(grid == b)[0]))
        for a, b in zip(p, pp)
    ]
    assert len(got) == len(want)
    assert set(got) == want


def test_kernel_benchmark_script_runs():
    src_root = str(Path(damlab.__file__).resolve().parent.parent)
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src_root + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, str(script), "--pairs", "64", "--repeats", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "reduced dimension 4 -> 2, x-only True" in out.stdout
    assert "13041 exponentials: reduced dimension 4 -> 4, x-only False" in out.stdout
