import numpy as np
import pytest

from lqcdlab.fields import (
    BlockSpinorField,
    Layout,
    element_offset,
    gen_clover,
    gen_gauge,
    gen_spinor,
    make_rng,
    read_clover,
    read_gauge,
    read_spinor,
    write_clover,
    write_gauge,
    write_spinor,
)
from lqcdlab.geometry import LatticeGeometry


def test_element_offset_frozen():
    # rhs-major: site base + i*s + k; component-major: site base + k*b + i
    assert element_offset(Layout.RHS_MAJOR, s=6, b=2, x=5, k=4, i=1) == 70
    assert element_offset(Layout.COMPONENT_MAJOR, s=6, b=2, x=5, k=4, i=1) == 69
    assert element_offset(Layout.RHS_MAJOR, s=12, b=1, x=0, k=11, i=0) == 11
    assert element_offset(Layout.COMPONENT_MAJOR, s=12, b=1, x=0, k=11, i=0) == 11


def test_element_offset_bounds():
    with pytest.raises(ValueError):
        element_offset(Layout.RHS_MAJOR, s=6, b=2, x=0, k=6, i=0)
    with pytest.raises(ValueError):
        element_offset(Layout.RHS_MAJOR, s=6, b=2, x=0, k=0, i=2)


def test_layouts_same_logical_content():
    f1 = gen_spinor(16, 3, Layout.RHS_MAJOR, seed=9)
    f2 = gen_spinor(16, 3, Layout.COMPONENT_MAJOR, seed=9)
    assert np.array_equal(f1.ksi(), f2.ksi())
    assert not np.array_equal(f1.data, f2.data)


def test_ksi_view_writable():
    f = gen_spinor(8, 2, Layout.RHS_MAJOR, seed=0)
    f.ksi()[3, 5, 1] = 42.0
    assert f.data[element_offset(Layout.RHS_MAJOR, 12, 2, 3, 5, 1)] == 42.0
    g = gen_spinor(8, 2, Layout.COMPONENT_MAJOR, seed=0)
    g.ksi()[3, 5, 1] = 42.0
    assert g.data[element_offset(Layout.COMPONENT_MAJOR, 12, 2, 3, 5, 1)] == 42.0


def test_convert_roundtrip():
    f = gen_spinor(16, 4, Layout.RHS_MAJOR, seed=3)
    g = f.convert(Layout.COMPONENT_MAJOR)
    assert np.array_equal(f.ksi(), g.ksi())
    h = g.convert(Layout.RHS_MAJOR)
    assert np.array_equal(f.data, h.data)


def test_columns_roundtrip():
    f = gen_spinor(16, 3, Layout.COMPONENT_MAJOR, seed=4)
    cols = f.columns()
    assert cols.shape == (16 * 12, 3)
    g = BlockSpinorField.zeros_like(f)
    g.set_columns(cols)
    assert np.array_equal(f.data, g.data)


def test_rng_is_pcg64():
    rng = make_rng(5)
    assert type(rng.bit_generator).__name__ == "PCG64"
    assert np.array_equal(make_rng(5).standard_normal(4), make_rng(5).standard_normal(4))


def test_gauge_unitary():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=1)
    gauge.validate()
    u = gauge.data
    eye = np.einsum("xmab,xmcb->xmac", u, u.conj())
    assert np.abs(eye - np.eye(3)).max() < 1e-12
    assert np.abs(np.linalg.det(u) - 1.0).max() < 1e-12


def test_gauge_unit_mode():
    geom = LatticeGeometry((2, 2, 2, 2))
    gauge = gen_gauge(geom, "unit")
    assert np.array_equal(gauge.data, np.broadcast_to(np.eye(3), gauge.data.shape))


def test_gauge_validate_catches_corruption():
    geom = LatticeGeometry((2, 2, 2, 2))
    gauge = gen_gauge(geom, "random", seed=2)
    gauge.data[0, 0, 0, 0] += 0.1
    with pytest.raises(ValueError, match="unitar"):
        gauge.validate()


def test_clover_blocks_hermitian():
    geom = LatticeGeometry((2, 2, 2, 2))
    clover = gen_clover(geom, "random", scale=0.3, seed=7)
    blocks = clover.blocks()
    assert blocks.shape == (geom.n_sites, 2, 6, 6)
    assert np.abs(blocks - blocks.conj().swapaxes(-1, -2)).max() < 1e-14
    # the unpack copies and conjugates packed entries, so both hold exactly
    assert np.array_equal(blocks, blocks.conj().swapaxes(-1, -2))
    from lqcdlab.fields import CloverField
    repacked = CloverField.from_blocks(geom, blocks)
    assert np.array_equal(repacked.data, clover.data)


def test_clover_zero_mode():
    geom = LatticeGeometry((2, 2, 2, 2))
    assert not gen_clover(geom, "zero").data.any()


def test_snapshot_roundtrips(tmp_path):
    geom = LatticeGeometry((2, 2, 2, 2))
    psi = gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=1, geom=geom)
    gauge = gen_gauge(geom, "random", seed=2)
    clover = gen_clover(geom, "random", seed=3)

    write_spinor(tmp_path / "s.snap", psi)
    back = read_spinor(tmp_path / "s.snap")
    assert back.layout == psi.layout and back.b == psi.b
    assert np.array_equal(back.data, psi.data)

    write_gauge(tmp_path / "g.snap", gauge)
    assert np.array_equal(read_gauge(tmp_path / "g.snap").data, gauge.data)

    write_clover(tmp_path / "c.snap", clover)
    assert np.array_equal(read_clover(tmp_path / "c.snap").data, clover.data)


def test_snapshot_rejects_wrong_magic(tmp_path):
    geom = LatticeGeometry((2, 2, 2, 2))
    gauge = gen_gauge(geom, "unit")
    write_gauge(tmp_path / "g.snap", gauge)
    with pytest.raises(ValueError):
        read_spinor(tmp_path / "g.snap")


def test_bad_modes():
    geom = LatticeGeometry((2, 2, 2, 2))
    with pytest.raises(ValueError):
        gen_gauge(geom, "frozen")
    with pytest.raises(ValueError):
        gen_clover(geom, "identity")
