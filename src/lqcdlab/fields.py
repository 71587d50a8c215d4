"""Field containers and their storage layouts.

A block spinor field holds ``b`` right-hand-side vectors at once.  Per site
it stores the s x b value block ``Row_x(V)`` (s components, b columns) in one
of two flat orders inside a single contiguous complex128 array:

* Layout 1 (rhs-major): column-major ``Row_x(V)``, element offset
  ``x*s*b + i*s + k`` -- each column's s components sit together.
* Layout 2 (component-major): row-major ``Row_x(V)``, element offset
  ``x*s*b + k*b + i`` -- the b values of one component sit together.

For b = 1 the two orders coincide.  Gauge links are 3x3 special-unitary
matrices, four per site; the site-local clover term is a pair of 6x6
Hermitian blocks kept as packed lower triangles (21 complex each).

All random generation goes through :func:`make_rng`, a seeded PCG64 stream,
so any artifact a command emits can name the generator and seed that made it.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .geometry import NDIM, LatticeGeometry
from .projectors import SPINOR_LEN

RNG_ALGORITHM = "pcg64"

SNAPSHOT_VERSION = 1
_MAGIC_SPINOR = b"LQML"
_MAGIC_GAUGE = b"LQMG"
_MAGIC_CLOVER = b"LQMC"

# number of independent complex entries in a packed 6x6 Hermitian block
_TRI6 = 21


def make_rng(seed: int) -> np.random.Generator:
    """Seeded random stream; PCG64 keeps runs reproducible across platforms."""
    return np.random.Generator(np.random.PCG64(seed))


class Layout(enum.IntEnum):
    RHS_MAJOR = 1
    COMPONENT_MAJOR = 2


def element_offset(layout: Layout, s: int, b: int, x: int, k: int, i: int) -> int:
    """Flat array position of component k, column i at site x."""
    if not 0 <= k < s:
        raise ValueError(f"component {k} out of range for s={s}")
    if not 0 <= i < b:
        raise ValueError(f"column {i} out of range for b={b}")
    if x < 0:
        raise ValueError(f"site {x} out of range")
    base = x * s * b
    if layout == Layout.RHS_MAJOR:
        return base + i * s + k
    return base + k * b + i


@dataclass
class BlockSpinorField:
    """``b`` spinor vectors stored interleaved per site.

    ``s`` is 12 for full spinors and 6 for the half spinors produced by hop
    projection.  ``geom`` is carried when the field spans a whole lattice;
    parity-restricted or synthetic fields leave it None and only the site
    count matters.
    """

    n_sites: int
    s: int
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
        s: int = SPINOR_LEN,
        geom: LatticeGeometry | None = None,
    ) -> "BlockSpinorField":
        if n_sites < 1 or b < 1 or s < 1:
            raise ValueError(f"bad field shape: n_sites={n_sites}, s={s}, b={b}")
        data = np.zeros(n_sites * s * b, dtype=np.complex128)
        return cls(n_sites, s, b, Layout(layout), data, geom)

    @classmethod
    def zeros_like(cls, other: "BlockSpinorField") -> "BlockSpinorField":
        return cls.zeros(other.n_sites, other.b, other.layout, other.s, other.geom)

    def copy(self) -> "BlockSpinorField":
        return BlockSpinorField(self.n_sites, self.s, self.b, self.layout, self.data.copy(), self.geom)

    def storage_view(self) -> np.ndarray:
        """3-d view of the flat data in storage order.

        (n_sites, b, s) for Layout 1, (n_sites, s, b) for Layout 2.
        """
        if self.layout == Layout.RHS_MAJOR:
            return self.data.reshape(self.n_sites, self.b, self.s)
        return self.data.reshape(self.n_sites, self.s, self.b)

    def ksi(self) -> np.ndarray:
        """(n_sites, s, b) logical view [site, component, column]; no copy."""
        v = self.storage_view()
        if self.layout == Layout.RHS_MAJOR:
            return v.swapaxes(1, 2)
        return v

    def set_ksi(self, values: np.ndarray) -> None:
        """Fill the field from a (n_sites, s, b) logical array."""
        self.ksi()[...] = values

    def convert(self, layout: Layout | int) -> "BlockSpinorField":
        """Copy of the field in the requested layout; content unchanged."""
        layout = Layout(layout)
        out = BlockSpinorField.zeros(self.n_sites, self.b, layout, self.s, self.geom)
        out.set_ksi(self.ksi())
        return out

    def columns(self) -> np.ndarray:
        """(n_sites*s, b) matrix view of the content, one rhs per column; copy."""
        return self.ksi().reshape(self.n_sites * self.s, self.b).copy()

    def set_columns(self, mat: np.ndarray) -> None:
        self.set_ksi(mat.reshape(self.n_sites, self.s, self.b))


def gen_spinor(
    n_sites: int,
    b: int,
    layout: Layout | int,
    seed: int,
    s: int = SPINOR_LEN,
    geom: LatticeGeometry | None = None,
) -> BlockSpinorField:
    """Gaussian random block field; identical content for every layout."""
    rng = make_rng(seed)
    out = BlockSpinorField.zeros(n_sites, b, layout, s, geom)
    shape = (n_sites, s, b)
    out.set_ksi(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return out


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

    def mu(self, mu: int) -> np.ndarray:
        """(n_sites, 3, 3) links in direction mu."""
        return self.data[:, mu]

    def validate(self, tol: float = 1e-12) -> None:
        """Raise if any link strays from special-unitary by more than tol."""
        u = self.data
        gram = np.einsum("xdab,xdcb->xdac", u, u.conj())
        unit_err = np.abs(gram - np.eye(3)).max()
        if unit_err > tol:
            raise ValueError(f"gauge link unitarity violated: max |U U^H - I| = {unit_err:.3e}")
        det_err = np.abs(np.linalg.det(u) - 1.0).max()
        if det_err > tol:
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
    def from_blocks(cls, geom: LatticeGeometry, blocks: np.ndarray, tol: float = 1e-12) -> "CloverField":
        """Pack (n_sites, 2, 6, 6) Hermitian blocks; rejects non-Hermitian input."""
        herm_err = np.abs(blocks - blocks.conj().swapaxes(-1, -2)).max()
        if herm_err > tol:
            raise ValueError(f"clover blocks not Hermitian: max deviation {herm_err:.3e}")
        rows, cols = _tri_indices()
        packed = blocks[..., rows, cols].copy()
        diag = rows == cols
        packed[..., diag] = packed[..., diag].real
        return cls(geom, packed)

    def blocks(self) -> np.ndarray:
        """(n_sites, 2, 6, 6) Hermitian blocks rebuilt from the packed form."""
        out = np.take(self.data, _UNPACK, axis=-1)
        parts = out.view(np.float64)
        parts *= _CONJ_SIGNS
        return out.reshape(*self.data.shape[:-1], 6, 6)

    def is_zero(self) -> bool:
        return not np.any(self.data)


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
# Gauge and clover snapshots reuse the slots: s/b carry the per-site matrix
# shape and layout is 0.

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
        payload = np.frombuffer(fh.read(), dtype="<c16").astype(np.complex128)
    return (n0, n1, n2, n3), s, b, layout, payload


def write_spinor(path: str | Path, field: BlockSpinorField) -> None:
    dims = field.geom.dims if field.geom is not None else (field.n_sites, 1, 1, 1)
    _write_snapshot(Path(path), _MAGIC_SPINOR, dims, field.s, field.b, int(field.layout), field.data)


def read_spinor(path: str | Path) -> BlockSpinorField:
    dims, s, b, layout, payload = _read_snapshot(Path(path), _MAGIC_SPINOR)
    geom = None
    try:
        geom = LatticeGeometry(dims)
    except ValueError:
        pass
    n_sites = int(np.prod(dims))
    if payload.size != n_sites * s * b:
        raise ValueError(f"{path}: payload has {payload.size} values, expected {n_sites * s * b}")
    return BlockSpinorField(n_sites, s, b, Layout(layout), payload.copy(), geom)


def write_gauge(path: str | Path, gauge: GaugeField) -> None:
    _write_snapshot(Path(path), _MAGIC_GAUGE, gauge.geom.dims, 3, 3, 0, gauge.data)


def read_gauge(path: str | Path) -> GaugeField:
    dims, s, b, _, payload = _read_snapshot(Path(path), _MAGIC_GAUGE)
    geom = LatticeGeometry(dims)
    expected = geom.n_sites * NDIM * s * b
    if payload.size != expected:
        raise ValueError(f"{path}: payload has {payload.size} values, expected {expected}")
    return GaugeField(geom, payload.reshape(geom.n_sites, NDIM, 3, 3).copy())


def write_clover(path: str | Path, clover: CloverField) -> None:
    _write_snapshot(Path(path), _MAGIC_CLOVER, clover.geom.dims, 2, _TRI6, 0, clover.data)


def read_clover(path: str | Path) -> CloverField:
    dims, s, b, _, payload = _read_snapshot(Path(path), _MAGIC_CLOVER)
    geom = LatticeGeometry(dims)
    expected = geom.n_sites * s * b
    if payload.size != expected:
        raise ValueError(f"{path}: payload has {payload.size} values, expected {expected}")
    return CloverField(geom, payload.reshape(geom.n_sites, 2, _TRI6).copy())
