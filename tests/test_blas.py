import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqcdlab.blas import (
    ACC_LANES,
    DOT_STRATEGIES,
    _lane_width,
    block_axpy,
    block_dot,
    block_norms,
    block_scale,
)
from lqcdlab.fields import BlockSpinorField, Layout, gen_spinor


def _pair(n, b, layout, seed):
    return (
        gen_spinor(n, b, layout, seed=seed),
        gen_spinor(n, b, layout, seed=seed + 1),
    )


def test_lane_width_frozen():
    assert ACC_LANES == 8
    assert _lane_width(1) == 8
    assert _lane_width(2) == 8
    assert _lane_width(3) == 9
    assert _lane_width(8) == 8
    assert _lane_width(16) == 16


@pytest.mark.parametrize("layout", list(Layout))
@pytest.mark.parametrize("strategy", DOT_STRATEGIES)
def test_dot_matches_reference(layout, strategy):
    x, y = _pair(24, 5, layout, seed=10)
    got = block_dot(x, y, strategy)
    ref = np.einsum("xkb,xkb->b", x.ksi().conj(), y.ksi())
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


@settings(max_examples=25, deadline=None)
@given(b=st.integers(1, 17), layout=st.sampled_from([1, 2, 3]))
def test_dot_strategies_agree(b, layout):
    x, y = _pair(16, b, Layout(layout), seed=b)
    naive = block_dot(x, y, "naive")
    deferred = block_dot(x, y, "deferred")
    assert np.abs(naive - deferred).max() <= 1e-13 * max(np.abs(naive).max(), 1.0)


def test_dot_layout_invariance():
    x1, y1 = _pair(32, 4, Layout.RHS_MAJOR, seed=2)
    for layout in (Layout.COMPONENT_MAJOR, Layout.COLUMN):
        x2, y2 = x1.convert(layout), y1.convert(layout)
        for strategy in DOT_STRATEGIES:
            d1 = block_dot(x1, y1, strategy)
            d2 = block_dot(x2, y2, strategy)
            assert np.abs(d1 - d2).max() <= 1e-13 * np.abs(d1).max()


def test_dot_rejects_mismatch():
    x = gen_spinor(8, 2, Layout.RHS_MAJOR, seed=0)
    y = gen_spinor(8, 2, Layout.COMPONENT_MAJOR, seed=1)
    with pytest.raises(ValueError):
        block_dot(x, y, "naive")
    with pytest.raises(ValueError):
        block_dot(x, x, "fancy")


def test_axpy_per_column_coefficients():
    x, y = _pair(12, 3, Layout.COMPONENT_MAJOR, seed=5)
    alpha = np.array([1.0 + 2.0j, -0.5, 0.0])
    expect = y.ksi() + x.ksi() * alpha[None, None, :]
    block_axpy(alpha, x, y)
    assert np.abs(y.ksi() - expect).max() < 1e-14


def test_axpy_scalar_coefficient():
    x, y = _pair(12, 3, Layout.RHS_MAJOR, seed=6)
    expect = y.ksi() - 2.0 * x.ksi()
    block_axpy(-2.0, x, y)
    assert np.abs(y.ksi() - expect).max() < 1e-14


def test_scale():
    x = gen_spinor(12, 3, Layout.RHS_MAJOR, seed=7)
    expect = x.ksi() * np.array([2.0, 0.0, 1.0j])[None, None, :]
    block_scale(np.array([2.0, 0.0, 1.0j]), x)
    assert np.abs(x.ksi() - expect).max() < 1e-14


def test_norms():
    x = gen_spinor(20, 4, Layout.COMPONENT_MAJOR, seed=8)
    ref = np.linalg.norm(x.ksi().reshape(-1, 4), axis=0)
    assert np.abs(block_norms(x) - ref).max() < 1e-12


@pytest.mark.parametrize("layout", list(Layout))
@pytest.mark.parametrize("b", [1, 3, 16])
def test_field_norms_without_field_sized_temporary(layout, b):
    x = gen_spinor(2048, b, layout, seed=10 + b)
    v = x.ksi()
    ref = np.sqrt(np.einsum("xkb,xkb->b", v.conj(), v).real)  # the conjugated-copy formula
    assert np.abs(block_norms(x) - ref).max() <= 1e-14 * ref.max()
    tracemalloc.start()
    try:
        block_norms(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.data.nbytes / 4


def test_zero_field_norms():
    z = BlockSpinorField.zeros(8, 2, Layout.RHS_MAJOR)
    assert np.array_equal(block_norms(z), np.zeros(2))
    assert np.array_equal(block_dot(z, z, "deferred"), np.zeros(2, dtype=np.complex128))


def _basis_row(f):
    """The (b, n_sites*s) storage of ``f`` in Layout 3, one rhs per row: a Krylov basis row."""
    return f.convert(Layout.COLUMN).data.reshape(f.b, -1)


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
@pytest.mark.parametrize("b", [1, 3, 16])
def test_multi_vector_kernels_match_field_loop(layout, b):
    k = 4
    q_fields = [gen_spinor(9, b, layout, seed=70 + p) for p in range(k)]
    w_field = gen_spinor(9, b, layout, seed=80)
    q = np.stack([_basis_row(f) for f in q_fields])
    w = _basis_row(w_field)

    h = block_dot(q, w)
    ref = np.stack([block_dot(f, w_field) for f in q_fields], axis=1)
    assert h.shape == (b, k)
    assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(block_norms(w) - block_norms(w_field)).max() <= 1e-13 * block_norms(w_field).max()

    alpha = np.random.default_rng(81).standard_normal((b, k)) * (1 - 0.5j)
    block_axpy(alpha, q, w)
    for p, f in enumerate(q_fields):
        block_axpy(alpha[:, p], f, w_field)
    assert np.abs(w - _basis_row(w_field)).max() <= 1e-13 * np.abs(w).max()

    scale = np.array([2.0, 0.0, 1.0j] * 6)[:b]
    w = _basis_row(w_field)
    block_scale(scale, w)
    block_scale(scale, w_field)
    assert np.array_equal(w, _basis_row(w_field))


def test_multi_vector_kernels_reject_mismatch():
    q = np.zeros((3, 2, 12), dtype=np.complex128)
    with pytest.raises(ValueError):
        block_dot(q, np.zeros((2, 13), dtype=np.complex128))
    with pytest.raises(ValueError):
        block_axpy(np.zeros((3, 2)), q, np.zeros((2, 12), dtype=np.complex128))
    with pytest.raises(ValueError):
        block_dot(q, gen_spinor(1, 2, Layout.RHS_MAJOR, seed=1))


def test_multi_vector_kernels_keep_single_precision():
    # a complex64 Krylov stack (10 vectors of 4 rhs on 4096 sites) stays
    # complex64: complex128 coefficients are cast to the stack's dtype, so no
    # column of the stack is copied to complex128 (an upcast copy of one
    # column's rows is twice their bytes, above the bound below)
    rng = np.random.default_rng(82)
    k, b, n = 10, 4, 49152
    q = (rng.standard_normal((k, b, n)) + 1j * rng.standard_normal((k, b, n))).astype(np.complex64)
    w = (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))).astype(np.complex64)
    alpha = rng.standard_normal((b, k)) * (1 - 0.5j)
    ref_h = np.einsum("kbn,bn->bk", q.conj().astype(np.complex128), w)
    ref_w = w + np.einsum("bk,kbn->bn", alpha, q.astype(np.complex128))

    tracemalloc.start()
    try:
        h = block_dot(q, w)
        block_axpy(alpha, q, w)
        block_scale(np.ones(b), w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.dtype == np.complex64 and w.dtype == np.complex64
    assert peak < q[:, 0].nbytes < q.nbytes
    assert np.abs(h - ref_h).max() <= 1e-5 * np.abs(ref_h).max()
    assert np.abs(w - ref_w).max() <= 1e-5 * np.abs(ref_w).max()


def test_multi_vector_kernels_reject_mixed_precision():
    q = np.zeros((3, 2, 12), dtype=np.complex64)
    with pytest.raises(ValueError, match="complex64 .* complex128"):
        block_dot(q, np.zeros((2, 12), dtype=np.complex128))
    with pytest.raises(ValueError, match="complex64 .* complex128"):
        block_axpy(np.zeros((2, 3)), q, np.zeros((2, 12), dtype=np.complex128))


def test_single_precision_field_norms():
    f = gen_spinor(9, 3, Layout.COMPONENT_MAJOR, seed=83)
    norms = block_norms(f.astype(np.complex64))
    assert np.abs(norms - block_norms(f)).max() <= 1e-6 * block_norms(f).max()
