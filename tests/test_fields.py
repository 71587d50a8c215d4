import re
import struct
import warnings

import numpy as np
import pytest

from lqcdlab.fields import (
    BlockSpinorField,
    CloverField,
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
    # rhs-major: site base + i*s + k; component-major: site base + k*b + i;
    # column: i*n_sites*s + x*s + k
    assert element_offset(Layout.RHS_MAJOR, s=6, b=2, x=5, k=4, i=1) == 70
    assert element_offset(Layout.COMPONENT_MAJOR, s=6, b=2, x=5, k=4, i=1) == 69
    assert element_offset(Layout.COLUMN, s=6, b=2, x=5, k=4, i=1, n_sites=8) == 82
    for layout in Layout:
        assert element_offset(layout, s=12, b=1, x=0, k=11, i=0, n_sites=1) == 11


def test_element_offset_bounds():
    with pytest.raises(ValueError):
        element_offset(Layout.RHS_MAJOR, s=6, b=2, x=0, k=6, i=0)
    with pytest.raises(ValueError):
        element_offset(Layout.RHS_MAJOR, s=6, b=2, x=0, k=0, i=2)
    with pytest.raises(ValueError, match="needs n_sites"):
        element_offset(Layout.COLUMN, s=6, b=2, x=0, k=0, i=0)
    with pytest.raises(ValueError, match="site 8 out of range"):
        element_offset(Layout.COLUMN, s=6, b=2, x=8, k=0, i=0, n_sites=8)


def test_layouts_same_logical_content():
    f1 = gen_spinor(16, 3, Layout.RHS_MAJOR, seed=9)
    f2 = gen_spinor(16, 3, Layout.COMPONENT_MAJOR, seed=9)
    assert np.array_equal(f1.ksi(), f2.ksi())
    assert not np.array_equal(f1.data, f2.data)


def test_ksi_view_writable():
    for layout in Layout:
        f = gen_spinor(8, 2, layout, seed=0)
        f.ksi()[3, 5, 1] = 42.0
        assert f.data[element_offset(layout, 12, 2, 3, 5, 1, n_sites=8)] == 42.0


def test_convert_roundtrip():
    # every layout to every other and back, bitwise
    for src in Layout:
        f = gen_spinor(16, 4, src, seed=3)
        for dst in Layout:
            g = f.convert(dst)
            assert g.layout == dst and np.array_equal(f.ksi(), g.ksi())
            assert np.array_equal(f.data, g.convert(src).data)


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gauge_validate_rejects_a_non_finite_link(value):
    # err > tol is False for NaN, so a NaN link passed validate with no
    # more than numpy's RuntimeWarning from det
    geom = LatticeGeometry((2, 2, 2, 2))
    gauge = gen_gauge(geom, "random", seed=2)
    gauge.data[3, 1, 2, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("gauge links not finite at 1 site(s), first at site 3")):
            gauge.validate()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_clover_from_blocks_rejects_a_non_finite_block(value):
    # a NaN block used to pack without complaint
    geom = LatticeGeometry((2, 2, 2, 2))
    blocks = gen_clover(geom, "random", scale=0.3, seed=7).blocks()
    blocks[[5, 9], 1, 2, 2] = value
    with pytest.raises(ValueError, match=re.escape("clover blocks not finite at 2 site(s), first at site 5")):
        CloverField.from_blocks(geom, blocks)


def test_clover_blocks_hermitian():
    geom = LatticeGeometry((2, 2, 2, 2))
    clover = gen_clover(geom, "random", scale=0.3, seed=7)
    blocks = clover.blocks()
    assert blocks.shape == (geom.n_sites, 2, 6, 6)
    assert np.abs(blocks - blocks.conj().swapaxes(-1, -2)).max() < 1e-14
    # the unpack copies and conjugates packed entries, so both hold exactly
    assert np.array_equal(blocks, blocks.conj().swapaxes(-1, -2))
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


@pytest.mark.parametrize("layout", list(Layout))
@pytest.mark.parametrize("b", [1, 3])
def test_spinor_snapshot_round_trip_bitwise(tmp_path, layout, b):
    geom = LatticeGeometry((2, 2, 2, 4))
    psi = gen_spinor(geom.n_sites, b, layout, seed=4, geom=geom)
    write_spinor(tmp_path / "s.snap", psi)
    back = read_spinor(tmp_path / "s.snap")
    assert (back.n_sites, back.b, back.layout, back.geom.dims) == (psi.n_sites, b, layout, geom.dims)
    assert np.array_equal(back.data, psi.data)


def test_spinor_snapshot_rejects_a_spinor_length_other_than_12(tmp_path):
    # header: magic, version, dims, spinor length, b, layout; then complex128 values
    path = tmp_path / "half.snap"
    dims, s, b = (2, 2, 2, 2), 6, 1
    header = struct.pack("<4sI4IIIB", b"LQML", 1, *dims, s, b, 1)
    path.write_bytes(header + np.zeros(16 * s * b, dtype="<c16").tobytes())
    with pytest.raises(ValueError, match="spinor length 6, expected 12") as err:
        read_spinor(path)
    assert str(path) in str(err.value)


def test_spinor_snapshot_rejects_an_unknown_layout_byte(tmp_path):
    # 4 is the first layout byte that names no layout
    path = tmp_path / "layout4.snap"
    dims, s, b = (2, 2, 2, 2), 12, 1
    header = struct.pack("<4sI4IIIB", b"LQML", 1, *dims, s, b, 4)
    path.write_bytes(header + np.zeros(16 * s * b, dtype="<c16").tobytes())
    with pytest.raises(ValueError, match="layout 4, expected 1, 2 or 3") as err:
        read_spinor(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("magic, dims, s, b", [
    (b"LQML", (2, 2, 2, 2), 12, 0),
    (b"LQML", (2, 0, 2, 2), 12, 2),
    (b"LQMG", (2, 2, 0, 2), 3, 3),
    (b"LQMC", (0, 2, 2, 2), 2, 21),
])
def test_snapshot_rejects_an_empty_shape(tmp_path, magic, dims, s, b):
    # a spinor header with b = 0 or a zero extent once gave a field that
    # BlockSpinorField.zeros rejects, and the gauge and clover readers'
    # errors for a zero extent did not name the file
    path = tmp_path / "empty.snap"
    path.write_bytes(struct.pack("<4sI4IIIB", magic, 1, *dims, s, b, 1 if magic == b"LQML" else 0))
    reader = {b"LQML": read_spinor, b"LQMG": read_gauge, b"LQMC": read_clover}[magic]
    with pytest.raises(ValueError, match="empty snapshot shape") as err:
        reader(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("magic, s, b", [
    (b"LQMG", 9, 1),
    (b"LQMG", 1, 9),
    (b"LQMG", 3, 1),
    (b"LQMC", 21, 2),
    (b"LQMC", 1, 42),
])
def test_matrix_snapshot_rejects_a_wrong_matrix_shape(tmp_path, magic, s, b):
    # the payload has the right number of values (as many as s * b = 9 or 42
    # per matrix allows), so only the header's s/b slots are wrong
    path = tmp_path / "shape.snap"
    dims = (2, 2, 2, 2)
    per_site = 4 * 9 if magic == b"LQMG" else 42
    header = struct.pack("<4sI4IIIB", magic, 1, *dims, s, b, 0)
    path.write_bytes(header + np.zeros(16 * per_site, dtype="<c16").tobytes())
    reader = {b"LQMG": read_gauge, b"LQMC": read_clover}[magic]
    expected = "(3, 3)" if magic == b"LQMG" else "(2, 21)"
    with pytest.raises(ValueError, match=re.escape(f"per-site matrix shape {(s, b)}, expected {expected}")) as err:
        reader(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("magic, s, b", [(b"LQMG", 3, 3), (b"LQMC", 2, 21)])
def test_matrix_snapshot_names_the_file_for_an_odd_extent(tmp_path, magic, s, b):
    path = tmp_path / "odd.snap"
    dims = (3, 2, 2, 2)
    header = struct.pack("<4sI4IIIB", magic, 1, *dims, s, b, 0)
    path.write_bytes(header + np.zeros(24 * (4 * s * b if magic == b"LQMG" else s * b), dtype="<c16").tobytes())
    reader = {b"LQMG": read_gauge, b"LQMC": read_clover}[magic]
    with pytest.raises(ValueError, match="extent 3 in direction 0 is not an even number") as err:
        reader(path)
    assert str(err.value).startswith(f"{path}: ")


def test_snapshot_reads_are_writable_and_their_own(tmp_path):
    # each read returns a fresh array: writing to it changes no later read of the file
    geom = LatticeGeometry((2, 2, 2, 4))
    write_spinor(tmp_path / "s.snap", gen_spinor(geom.n_sites, 2, Layout.COLUMN, seed=5, geom=geom))
    write_gauge(tmp_path / "g.snap", gen_gauge(geom, "random", seed=6))
    write_clover(tmp_path / "c.snap", gen_clover(geom, "random", scale=0.2, seed=7))
    for name, reader in (("s.snap", read_spinor), ("g.snap", read_gauge), ("c.snap", read_clover)):
        first = reader(tmp_path / name).data
        kept = first.copy()
        assert first.flags.writeable
        first[...] = 0
        assert np.array_equal(reader(tmp_path / name).data, kept)


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


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
@pytest.mark.parametrize("n_sites", [12, 6])
@pytest.mark.parametrize("b", [1, 3, 16])
def test_column_form_round_trip_bitwise(layout, n_sites, b):
    f = gen_spinor(n_sites, b, layout, seed=61)
    cols = f.convert(Layout.COLUMN)
    # row i of the Layout-3 storage is column i, site-major and component-minor
    rows = cols.data.reshape(b, -1)
    assert np.array_equal(rows, f.ksi().transpose(2, 0, 1).reshape(b, -1))
    # a field over such a row array, as the Krylov basis holds, is a view
    view = BlockSpinorField(n_sites, b, Layout.COLUMN, rows.reshape(-1))
    assert np.shares_memory(view.ksi(), rows)
    assert np.array_equal(view.convert(layout).data, f.data)


@pytest.mark.parametrize("layout", list(Layout))
@pytest.mark.parametrize("t_extent", [12, 6])
@pytest.mark.parametrize("b", [1, 3, 16])
@pytest.mark.parametrize("with_geom", [False, True])
def test_site_take_put_round_trip_bitwise(layout, t_extent, b, with_geom):
    geom = LatticeGeometry((2, 2, 2, t_extent))
    f = gen_spinor(geom.n_sites, b, layout, seed=62, geom=geom if with_geom else None)
    parts = [geom.even_sites, geom.odd_sites[::-1], geom.odd_sites[:3]]
    halves = [f.take_sites(sites) for sites in parts[:2]]
    site_axis = 1 if layout == Layout.COLUMN else 0
    for sites, half in zip(parts[:2], halves):
        # same layout, sites in the given order, whole site blocks, no geometry
        assert (half.n_sites, half.b, half.layout, half.geom) == (len(sites), b, layout, None)
        assert np.array_equal(half.storage_view(), np.take(f.storage_view(), sites, axis=site_axis))
        assert np.array_equal(half.ksi(), f.ksi()[sites])
    back = BlockSpinorField.zeros_like(f)
    for sites, half in zip(parts[:2], halves):
        back.put_sites(sites, half)
    assert np.array_equal(back.data, f.data)
    # a part that does not fit the sites it is written to is rejected, not broadcast
    with pytest.raises(ValueError, match="does not fit"):
        back.put_sites(parts[2], f.take_sites(parts[2][:1]))


@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
@pytest.mark.parametrize("b", [1, 3, 16])
def test_single_precision_field_keeps_its_dtype(layout, b):
    geom = LatticeGeometry((2, 2, 2, 4))
    f = gen_spinor(geom.n_sites, b, layout, seed=63, geom=geom).astype(np.complex64)
    assert f.dtype == np.complex64 and f.data.dtype == np.complex64
    assert BlockSpinorField.zeros(4, b, layout, dtype=np.complex64).dtype == np.complex64
    other = Layout.COMPONENT_MAJOR if layout == Layout.RHS_MAJOR else Layout.RHS_MAJOR
    for g in (BlockSpinorField.zeros_like(f), f.copy(), f.convert(other), f.take_sites(geom.odd_sites)):
        assert g.dtype == np.complex64
    assert np.array_equal(f.convert(other).ksi(), f.ksi())
    back = BlockSpinorField.zeros_like(f)
    back.put_sites(geom.even_sites, f.take_sites(geom.even_sites))
    back.put_sites(geom.odd_sites, f.take_sites(geom.odd_sites))
    assert back.dtype == np.complex64 and np.array_equal(back.data, f.data)
    # a round trip through a complex64 Layout-3 field is bitwise
    cols = f.convert(Layout.COLUMN)
    assert cols.dtype == np.complex64 and np.array_equal(cols.convert(layout).data, f.data)


@pytest.mark.parametrize("layout", list(Layout))
@pytest.mark.parametrize("b", [1, 3, 16])
def test_add_scaled_forms_the_product_in_the_fields_precision(layout, b):
    # a complex64 Layout-3 field added to a complex128 field of any layout:
    # each value is cast up, scaled in complex128 and added, so far outside
    # float32's range the sum is still finite and exact to complex128 rounding
    geom = LatticeGeometry((2, 2, 2, 4))
    psi = gen_spinor(geom.n_sites, b, layout, seed=65, geom=geom)
    small = gen_spinor(geom.n_sites, b, Layout.COLUMN, seed=66, geom=geom).astype(np.complex64)
    scale = np.array([1e40, 2.5, -3.0] * 6)[:b]
    expect = psi.ksi() + small.ksi().astype(np.complex128) * scale
    psi.add_scaled(small, scale)
    assert np.array_equal(psi.ksi(), expect)
    with pytest.raises(ValueError, match="cannot be added"):
        psi.add_scaled(small.take_sites(geom.even_sites), scale)


def test_field_precision_mismatches_are_rejected():
    f = gen_spinor(8, 2, Layout.RHS_MAJOR, seed=64)
    with pytest.raises(ValueError, match="dtype complex64 does not fit a field of dtype complex128"):
        f.put_sites(np.arange(4), f.take_sites(np.arange(4)).astype(np.complex64))
    for dtype in (np.float64, np.complex256 if hasattr(np, "complex256") else np.int64):
        with pytest.raises(ValueError, match="complex128 or complex64"):
            BlockSpinorField.zeros(8, 2, dtype=dtype)
        with pytest.raises(ValueError, match="complex128 or complex64"):
            f.astype(dtype)
