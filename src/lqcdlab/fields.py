"""Field containers and their storage layouts.

A block spinor field holds ``b`` right-hand-side vectors at once.  Per site
it stores the s x b value block ``Row_x(V)`` (the s = 12 spin-color
components of a spinor, b columns) in one of three flat orders inside a
single contiguous complex array of either precision, complex128 (the
default) or complex64:

* Layout 1 (rhs-major): column-major ``Row_x(V)``, element offset
  ``x*s*b + i*s + k`` -- each column's s components sit together.
* Layout 2 (component-major): row-major ``Row_x(V)``, element offset
  ``x*s*b + k*b + i`` -- the b values of one component sit together.
* Layout 3 (column): element offset ``i*n_sites*s + x*s + k`` -- each
  column is one contiguous vector, as in a row of the solver's Krylov basis.

For b = 1 the three orders coincide.  Every operation goes through
:attr:`Layout.axes` (the storage order) or the logical view
:meth:`BlockSpinorField.ksi`.  A field keeps its precision
through :meth:`BlockSpinorField.zeros_like`, :meth:`~BlockSpinorField.copy`,
:meth:`~BlockSpinorField.convert` and the site gathers; only
:meth:`~BlockSpinorField.astype` changes it.  Gauge links are 3x3
special-unitary matrices, four per site; the site-local clover term is a
pair of 6x6 Hermitian blocks kept as packed lower triangles (21 complex
each).

All random generation goes through :func:`make_rng`, a seeded PCG64 stream,
so any artifact a command emits can name the generator and seed that made it.
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .geometry import NDIM, LatticeGeometry
from .projectors import SPINOR_LEN

RNG_ALGORITHM = "pcg64"

# the two precisions a spinor field may hold
PRECISIONS = (np.dtype(np.complex128), np.dtype(np.complex64))

SNAPSHOT_VERSION = 1
_MAGIC_SPINOR = b"LQML"
_MAGIC_GAUGE = b"LQMG"
_MAGIC_CLOVER = b"LQMC"

# number of independent complex entries in a packed 6x6 Hermitian block
_TRI6 = 21

# largest deviation from special-unitary links or Hermitian clover blocks
# that GaugeField.validate and CloverField.from_blocks accept
_FIELD_TOL = 1e-12

# Sites per chunk of every chunked loop over a field's sites (the stencil's
# two stages, the copies and scaled adds between fields): about 2048 site-rhs
# pairs, so that one chunk's temporaries stay near L2, and at least 256 sites,
# so that at large b each numpy call amortizes its fixed cost (on two rank
# threads a call of some 40 us scaled no better than 1.2x).
_CHUNK_SITE_RHS = 2048
_MIN_CHUNK_SITES = 256


def chunk_sites(b: int) -> int:
    """Sites per chunk for b right-hand sides: 2048 / b for b <= 8, 256 beyond."""
    return max(_MIN_CHUNK_SITES, _CHUNK_SITE_RHS // b)


def site_chunks(n_sites: int, b: int) -> Iterator[slice]:
    """Consecutive slices of :func:`chunk_sites` sites (the last one shorter) covering ``n_sites`` sites."""
    step = chunk_sites(b)
    return (slice(lo, min(lo + step, n_sites)) for lo in range(0, n_sites, step))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded random stream; PCG64 keeps runs reproducible across platforms."""
    return np.random.Generator(np.random.PCG64(seed))


class Layout(enum.IntEnum):
    RHS_MAJOR = 1
    COMPONENT_MAJOR = 2
    COLUMN = 3

    @property
    def axes(self) -> str:
        """Storage order of the site (x), component (k) and column (i) axes, slowest first."""
        return {1: "xik", 2: "xki", 3: "ixk"}[self]


def element_offset(layout: Layout, s: int, b: int, x: int, k: int, i: int, n_sites: int | None = None) -> int:
    """Flat array position of component k, column i at site x; Layout 3 needs the field's ``n_sites``."""
    if not 0 <= k < s:
        raise ValueError(f"component {k} out of range for s={s}")
    if not 0 <= i < b:
        raise ValueError(f"column {i} out of range for b={b}")
    if x < 0 or (n_sites is not None and x >= n_sites):
        raise ValueError(f"site {x} out of range")
    axes, sizes, index = Layout(layout).axes, {"x": n_sites, "k": s, "i": b}, {"x": x, "k": k, "i": i}
    if sizes[axes[1]] is None:
        raise ValueError(f"the {Layout(layout).name} layout needs n_sites to place an element")
    offset = index[axes[0]]
    for a in axes[1:]:
        offset = offset * sizes[a] + index[a]
    return offset


@dataclass
class BlockSpinorField:
    """``b`` 12-component spinor vectors stored interleaved per site.

    ``geom`` is carried when the field spans a whole lattice;
    parity-restricted or synthetic fields leave it None and only the site
    count matters.
    """

    s: ClassVar[int] = SPINOR_LEN
    n_sites: int
    b: int
    layout: Layout
    data: np.ndarray
    geom: LatticeGeometry | None = None

    @classmethod
    def zeros(
        cls,
        n_sites: int,
        b: int,
        layout: Layout | int = Layout.RHS_MAJOR,
        geom: LatticeGeometry | None = None,
        dtype=np.complex128,
    ) -> "BlockSpinorField":
        if n_sites < 1 or b < 1:
            raise ValueError(f"bad field shape: n_sites={n_sites}, b={b}")
        if np.dtype(dtype) not in PRECISIONS:
            raise ValueError(f"field dtype must be complex128 or complex64, got {np.dtype(dtype)}")
        data = np.zeros(n_sites * cls.s * b, dtype=dtype)
        return cls(n_sites, b, Layout(layout), data, geom)

    @classmethod
    def zeros_like(cls, other: "BlockSpinorField") -> "BlockSpinorField":
        return cls.zeros(other.n_sites, other.b, other.layout, other.geom, other.dtype)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def copy(self) -> "BlockSpinorField":
        return BlockSpinorField(self.n_sites, self.b, self.layout, self.data.copy(), self.geom)

    def astype(self, dtype) -> "BlockSpinorField":
        """Copy of the field with its values cast to ``dtype``, one of :data:`PRECISIONS`."""
        out = BlockSpinorField.zeros(self.n_sites, self.b, self.layout, self.geom, dtype)
        out.data[...] = self.data
        return out

    def storage_view(self) -> np.ndarray:
        """The flat data in storage order (:attr:`Layout.axes`): (n_sites, b, s), (n_sites, s, b) or (b, n_sites, s)."""
        sizes = {"x": self.n_sites, "k": self.s, "i": self.b}
        return self.data.reshape([sizes[a] for a in self.layout.axes])

    def ksi(self) -> np.ndarray:
        """(n_sites, s, b) logical view [site, component, column]; no copy."""
        return self.storage_view().transpose([self.layout.axes.index(a) for a in "xki"])

    def set_ksi(self, values: np.ndarray) -> None:
        """Fill the field from a (n_sites, s, b) logical array, a chunk of sites at a time."""
        dst = self.ksi()
        values = np.broadcast_to(values, dst.shape)
        for chunk in site_chunks(self.n_sites, self.b):
            dst[chunk] = values[chunk]

    def take_sites(self, sites: np.ndarray) -> "BlockSpinorField":
        """The field on ``sites``, in their order and in the same layout, without a geometry: one gather of whole site blocks."""
        data = np.take(self.storage_view(), sites, axis=self.layout.axes.index("x")).reshape(-1)
        return BlockSpinorField(len(sites), self.b, self.layout, data)

    def put_sites(self, sites: np.ndarray, part: "BlockSpinorField") -> None:
        """Inverse of :meth:`take_sites`: write ``part``'s site blocks to ``sites``."""
        if (part.n_sites, part.b, part.layout) != (len(sites), self.b, self.layout):
            raise ValueError(f"part {_describe(part)} does not fit {len(sites)} sites of field {_describe(self)}")
        if part.dtype != self.dtype:
            raise ValueError(f"part of dtype {part.dtype} does not fit a field of dtype {self.dtype}")
        axis = self.layout.axes.index("x")
        np.moveaxis(self.storage_view(), axis, 0)[sites] = np.moveaxis(part.storage_view(), axis, 0)

    def convert(self, layout: Layout | int) -> "BlockSpinorField":
        """Copy of the field in the requested layout; content unchanged."""
        out = BlockSpinorField.zeros(self.n_sites, self.b, layout, self.geom, self.dtype)
        out.set_ksi(self.ksi())
        return out

    def columns(self) -> np.ndarray:
        """(n_sites*s, b) matrix view of the content, one rhs per column; copy."""
        return self.ksi().reshape(self.n_sites * self.s, self.b).copy()

    def set_columns(self, mat: np.ndarray) -> None:
        self.set_ksi(mat.reshape(self.n_sites, self.s, self.b))

    def add_scaled(self, other: "BlockSpinorField", scale: np.ndarray) -> None:
        """Add ``scale[i]`` times column i of ``other``, a field of the same sites and b in any layout.

        Each chunk of sites is scaled in this field's precision, so ``other``
        may be of lower precision than its scaled values.
        """
        if (other.n_sites, other.b) != (self.n_sites, self.b):
            raise ValueError(f"field {_describe(other)} cannot be added to field {_describe(self)}")
        dst, src = self.ksi(), other.ksi()
        scale = np.asarray(scale, dtype=np.finfo(self.dtype).dtype)
        for chunk in site_chunks(self.n_sites, self.b):
            dst[chunk] += src[chunk].astype(self.dtype) * scale


def _describe(f: BlockSpinorField) -> str:
    """The shape of a field, as error messages name it."""
    return f"(n_sites={f.n_sites}, b={f.b}) in {f.layout.name}" + (f" on lattice {f.geom.dims}" if f.geom else "")


def _other_lattice(f: BlockSpinorField, ref: BlockSpinorField) -> bool:
    """True if both fields carry a geometry and their lattices differ."""
    return f.geom is not None and ref.geom is not None and f.geom.dims != ref.geom.dims


def check_matching(f: BlockSpinorField, ref: BlockSpinorField, name: str, ref_name: str) -> None:
    """Raise a ValueError naming both shapes unless ``f`` has ``ref``'s sites, b, layout and lattice (if both have one)."""
    if (f.n_sites, f.b, f.layout) != (ref.n_sites, ref.b, ref.layout) or _other_lattice(f, ref):
        raise ValueError(f"{name} {_describe(f)} does not match {ref_name} {_describe(ref)}")


def result_field(psi: BlockSpinorField, out: BlockSpinorField | None) -> BlockSpinorField:
    """A new field like ``psi`` for an operator's result, or ``out`` of any layout, checked to fit psi."""
    if out is None:
        return BlockSpinorField.zeros_like(psi)
    if (out.n_sites, out.b, out.dtype) != (psi.n_sites, psi.b, psi.dtype) or _other_lattice(out, psi):
        raise ValueError(f"out {_describe(out)} of {out.dtype} does not fit psi {_describe(psi)} of {psi.dtype}")
    if np.shares_memory(out.data, psi.data):
        raise ValueError("out shares memory with psi")
    return out


def gen_spinor(
    n_sites: int,
    b: int,
    layout: Layout | int,
    seed: int,
    geom: LatticeGeometry | None = None,
) -> BlockSpinorField:
    """Gaussian random block field; identical content for every layout."""
    rng = make_rng(seed)
    out = BlockSpinorField.zeros(n_sites, b, layout, geom)
    shape = (n_sites, SPINOR_LEN, b)
    out.set_ksi(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return out


def _check_finite(values: np.ndarray, what: str) -> None:
    """Raise naming how many sites of the site-major ``values`` hold a NaN or an infinity, and the first."""
    bad = ~np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} not finite at {int(bad.sum())} site(s), first at site {int(bad.argmax())}")


@dataclass
class GaugeField:
    """One 3x3 special-unitary link per site and direction, row-major."""

    geom: LatticeGeometry
    data: np.ndarray  # (n_sites, 4, 3, 3) complex128

    @classmethod
    def unit(cls, geom: LatticeGeometry) -> "GaugeField":
        data = np.zeros((geom.n_sites, NDIM, 3, 3), dtype=np.complex128)
        data[..., np.arange(3), np.arange(3)] = 1.0
        return cls(geom, data)

    def validate(self) -> None:
        """Raise if any link is not finite or strays from special-unitary by more than ``_FIELD_TOL``."""
        u = self.data
        _check_finite(u, "gauge links")
        gram = np.einsum("xdab,xdcb->xdac", u, u.conj())
        unit_err = np.abs(gram - np.eye(3)).max()
        if not unit_err <= _FIELD_TOL:
            raise ValueError(f"gauge link unitarity violated: max |U U^H - I| = {unit_err:.3e}")
        det_err = np.abs(np.linalg.det(u) - 1.0).max()
        if not det_err <= _FIELD_TOL:
            raise ValueError(f"gauge link determinant violated: max |det U - 1| = {det_err:.3e}")


def gen_gauge(geom: LatticeGeometry, mode: str, seed: int = 0) -> GaugeField:
    """Gauge field generator; mode is ``unit`` or ``random``.

    Random links come from QR-orthonormalized complex Gaussian matrices with
    the determinant phase pushed into the first column, so every link is
    special-unitary to machine precision.
    """
    if mode == "unit":
        return GaugeField.unit(geom)
    if mode != "random":
        raise ValueError(f"unknown gauge mode {mode!r}")
    rng = make_rng(seed)
    shape = (geom.n_sites, NDIM, 3, 3)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    # fix the QR phase ambiguity, then rotate det(U) to exactly 1
    diag = np.einsum("...ii->...i", r)
    q = q * (diag.conj() / np.abs(diag))[..., None, :]
    det = np.linalg.det(q)
    q[..., :, 0] *= det.conj()[..., None]
    return GaugeField(geom, np.ascontiguousarray(q))


def _tri_indices() -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(6)


def _unpack_table() -> tuple[np.ndarray, np.ndarray]:
    """Packed position of every (row, col) entry of a 6x6 Hermitian block.

    Entry (r, c) reads the packed lower-triangle entry (max, min) of (r, c);
    the strict upper triangle (c > r) is its conjugate, applied as a sign
    flip of the imaginary part: the second table holds the (re, im) signs of
    all 36 entries.
    """
    packed = np.zeros((6, 6), dtype=np.intp)
    rows, cols = _tri_indices()
    packed[rows, cols] = np.arange(_TRI6)
    packed[cols, rows] = np.arange(_TRI6)
    signs = np.ones((6, 6, 2))
    signs[cols, rows, 1] = np.where(rows == cols, 1.0, -1.0)
    return packed.ravel(), signs.ravel()


_UNPACK, _CONJ_SIGNS = _unpack_table()


@dataclass
class CloverField:
    """Site-local term: two packed 6x6 Hermitian blocks per site.

    Block 0 couples the upper spin doublet (components 0..5), block 1 the
    lower doublet (components 6..11).  Packing keeps the lower triangle in
    row-major order; the diagonal is stored with zero imaginary part.
    """

    geom: LatticeGeometry
    data: np.ndarray  # (n_sites, 2, 21) complex128

    @classmethod
    def zero(cls, geom: LatticeGeometry) -> "CloverField":
        return cls(geom, np.zeros((geom.n_sites, 2, _TRI6), dtype=np.complex128))

    @classmethod
    def from_blocks(cls, geom: LatticeGeometry, blocks: np.ndarray) -> "CloverField":
        """Pack (n_sites, 2, 6, 6) Hermitian blocks; rejects non-finite or non-Hermitian input."""
        _check_finite(blocks, "clover blocks")
        herm_err = np.abs(blocks - blocks.conj().swapaxes(-1, -2)).max()
        if not herm_err <= _FIELD_TOL:
            raise ValueError(f"clover blocks not Hermitian: max deviation {herm_err:.3e}")
        rows, cols = _tri_indices()
        packed = blocks[..., rows, cols].copy()
        diag = rows == cols
        packed[..., diag] = packed[..., diag].real
        return cls(geom, packed)

    def blocks(self, sites: np.ndarray | slice = slice(None)) -> np.ndarray:
        """(n, 2, 6, 6) Hermitian blocks rebuilt from the packed form, of every site or of ``sites``, in their order."""
        out = np.take(self.data[sites], _UNPACK, axis=-1)
        parts = out.view(np.float64)
        parts *= _CONJ_SIGNS
        return out.reshape(*out.shape[:-1], 6, 6)


def gen_clover(geom: LatticeGeometry, mode: str, scale: float = 0.1, seed: int = 0) -> CloverField:
    """Clover generator; mode is ``zero`` or ``random`` (Gaussian, Hermitized)."""
    if mode == "zero":
        return CloverField.zero(geom)
    if mode != "random":
        raise ValueError(f"unknown clover mode {mode!r}")
    rng = make_rng(seed)
    shape = (geom.n_sites, 2, 6, 6)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks = scale * 0.5 * (g + g.conj().swapaxes(-1, -2))
    return CloverField.from_blocks(geom, blocks)


# -- snapshot files ---------------------------------------------------------
#
# Common header, little-endian: magic (4 bytes), version u32, dims 4*u32,
# s u32, b u32, layout u8.  Payload is raw complex128 in storage order.
# A spinor snapshot's s is always 12; a reader rejects any other.
# Gauge and clover snapshots reuse the slots: s/b carry the per-site matrix
# shape, (3, 3) for gauge and (2, 21) for clover, and layout is 0; a reader
# rejects any other shape.

_HEADER = struct.Struct("<4sI4IIIB")


def _write_snapshot(path: Path, magic: bytes, dims: tuple, s: int, b: int, layout: int, payload: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, SNAPSHOT_VERSION, *dims, s, b, layout))
        fh.write(np.ascontiguousarray(payload, dtype=np.complex128).astype("<c16").tobytes())


def _read_snapshot(path: Path, magic: bytes) -> tuple[tuple, int, int, int, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header")
        tag, version, n0, n1, n2, n3, s, b, layout = _HEADER.unpack(header)
        if tag != magic:
            raise ValueError(f"{path}: bad magic {tag!r}, expected {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if 0 in (n0, n1, n2, n3, b):
            raise ValueError(f"{path}: empty snapshot shape, extents {(n0, n1, n2, n3)} and b {b}")
        # astype copies, so every reader gets a fresh, writable array
        payload = np.frombuffer(fh.read(), dtype="<c16").astype(np.complex128)
    return (n0, n1, n2, n3), s, b, layout, payload


def write_spinor(path: str | Path, field: BlockSpinorField) -> None:
    dims = field.geom.dims if field.geom is not None else (field.n_sites, 1, 1, 1)
    _write_snapshot(Path(path), _MAGIC_SPINOR, dims, field.s, field.b, int(field.layout), field.data)


def read_spinor(path: str | Path) -> BlockSpinorField:
    dims, s, b, layout, payload = _read_snapshot(Path(path), _MAGIC_SPINOR)
    if s != SPINOR_LEN:
        raise ValueError(f"{path}: spinor length {s}, expected {SPINOR_LEN}")
    if layout not in tuple(Layout):
        raise ValueError(f"{path}: layout {layout}, expected 1, 2 or 3")
    geom = None
    try:
        geom = LatticeGeometry(dims)
    except ValueError:
        pass
    n_sites = int(np.prod(dims))
    if payload.size != n_sites * s * b:
        raise ValueError(f"{path}: payload has {payload.size} values, expected {n_sites * s * b}")
    return BlockSpinorField(n_sites, b, Layout(layout), payload, geom)


def write_gauge(path: str | Path, gauge: GaugeField) -> None:
    _write_snapshot(Path(path), _MAGIC_GAUGE, gauge.geom.dims, 3, 3, 0, gauge.data)


def _read_site_matrices(path: str | Path, magic: bytes, site_shape: tuple) -> tuple[LatticeGeometry, np.ndarray]:
    """The lattice and (n_sites, *site_shape) values of a gauge or clover snapshot.

    The header's s/b slots must hold the last two axes of ``site_shape``,
    and every header error names the file.
    """
    dims, s, b, _, payload = _read_snapshot(Path(path), magic)
    if (s, b) != site_shape[-2:]:
        raise ValueError(f"{path}: per-site matrix shape {(s, b)}, expected {site_shape[-2:]}")
    try:
        geom = LatticeGeometry(dims)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    expected = geom.n_sites * int(np.prod(site_shape))
    if payload.size != expected:
        raise ValueError(f"{path}: payload has {payload.size} values, expected {expected}")
    return geom, payload.reshape((geom.n_sites,) + site_shape)


def read_gauge(path: str | Path) -> GaugeField:
    return GaugeField(*_read_site_matrices(path, _MAGIC_GAUGE, (NDIM, 3, 3)))


def write_clover(path: str | Path, clover: CloverField) -> None:
    _write_snapshot(Path(path), _MAGIC_CLOVER, clover.geom.dims, 2, _TRI6, 0, clover.data)


def read_clover(path: str | Path) -> CloverField:
    return CloverField(*_read_site_matrices(path, _MAGIC_CLOVER, (2, _TRI6)))
