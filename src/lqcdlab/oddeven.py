"""Odd-even splitting and the half-size Schur operator.

Writing the system D x = eta in parity-sorted order,

    [ D_ee  D_eo ] [x_e]   [eta_e]
    [ D_oe  D_oo ] [x_o] = [eta_o],

the diagonal blocks are site local ((4+m0)I - C, two 6x6 Hermitian blocks
per site) because every hop flips parity.  Eliminating one parity gives the
half-size system

    S x_e = eta_e - D_eo D_oo^-1 eta_o,
    S     = D_ee - D_eo D_oo^-1 D_oe,

and the eliminated half comes back through
x_o = D_oo^-1 (eta_o - D_oe x_e).

The keep parity defaults to even.  Every field the operator touches is a
half-lattice field: the off-diagonal blocks D_eo/D_oe run the stencil's hop
stages (:func:`lqcdlab.dirac.subtract_hops`) on one parity's sites, with
cross-parity neighbor tables and the links of each parity copied out once.
D_oo^-1 is the batched inverse of the eliminated 6x6 blocks, computed once
per operator, so each use is one batched matrix product; this inverse is
exact up to roundoff, never iterative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import DiracParams, site_blocks, subtract_hops
from .fields import BlockSpinorField, CloverField, GaugeField, Layout
from .geometry import NDIM, LatticeGeometry
from .projectors import SPINOR_LEN

PARITY_NAME = {0: "even", 1: "odd"}


class SingularBlockError(np.linalg.LinAlgError):
    """A site-local block of the eliminated parity is numerically singular or non-finite."""

    def __init__(self, site: int, block: int, cond: float):
        self.site = site
        self.block = block
        self.cond = cond
        what = "has non-finite entries" if np.isnan(cond) else "is numerically singular"
        super().__init__(
            f"site-local block {block} at site {site} {what} (condition estimate {cond:.3e})"
        )


@dataclass(frozen=True)
class OeSplit:
    """Parity index sets and the natural <-> parity-sorted permutation."""

    geom: LatticeGeometry
    even: np.ndarray
    odd: np.ndarray
    perm: np.ndarray  # parity-sorted position of each natural site

    @classmethod
    def from_geom(cls, geom: LatticeGeometry) -> "OeSplit":
        even, odd = geom.even_sites, geom.odd_sites
        perm = np.empty(geom.n_sites, dtype=np.int64)
        perm[even] = np.arange(len(even))
        perm[odd] = len(even) + np.arange(len(odd))
        return cls(geom, even, odd, perm)

    def sites(self, parity: int) -> np.ndarray:
        return self.even if parity == 0 else self.odd


def _half_field(values: np.ndarray, layout: Layout) -> BlockSpinorField:
    """A geometry-free field holding (n_sites, s, b) values."""
    n, s, b = values.shape
    out = BlockSpinorField.zeros(n, b, layout, s)
    out.set_ksi(values)
    return out


def split_fields(v: BlockSpinorField, split: OeSplit | None = None) -> tuple[BlockSpinorField, BlockSpinorField]:
    """Partition a full-lattice field into its (even, odd) halves."""
    if split is None:
        if v.geom is None:
            raise ValueError("field carries no geometry; pass an explicit OeSplit")
        split = OeSplit.from_geom(v.geom)
    vv = v.ksi()
    return _half_field(vv[split.even], v.layout), _half_field(vv[split.odd], v.layout)


def merge_fields(
    v_even: BlockSpinorField, v_odd: BlockSpinorField, split: OeSplit
) -> BlockSpinorField:
    """Inverse of :func:`split_fields`."""
    out = BlockSpinorField.zeros(split.geom.n_sites, v_even.b, v_even.layout, v_even.s, split.geom)
    ov = out.ksi()
    ov[split.even] = v_even.ksi()
    ov[split.odd] = v_odd.ksi()
    return out


@dataclass(frozen=True)
class ParityHop:
    """The off-diagonal block D_dst,src of D acting on half-lattice fields.

    ``dst_links``/``src_links`` hold copies of the links at the destination
    and source parity's sites (their ``geom`` stays the whole lattice's);
    ``fwd[mu]``/``back[mu]`` give, for each destination site, the source-half
    index of its +mu/-mu neighbor, which always has the other parity.
    """

    dst_links: GaugeField
    src_links: GaugeField
    fwd: tuple[np.ndarray, ...]
    back: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, gauge: GaugeField, split: OeSplit, dst_parity: int) -> "ParityHop":
        geom = gauge.geom
        dst, src = split.sites(dst_parity), split.sites(1 - dst_parity)
        src_index = np.empty(geom.n_sites, dtype=np.int64)
        src_index[src] = np.arange(len(src))
        fwd = tuple(src_index[geom.neighbor_table(mu, +1)[dst]] for mu in range(NDIM))
        back = tuple(src_index[geom.neighbor_table(mu, -1)[dst]] for mu in range(NDIM))
        return cls(GaugeField(geom, gauge.data[dst]), GaugeField(geom, gauge.data[src]), fwd, back)

    def __call__(self, v: BlockSpinorField) -> BlockSpinorField:
        """D_dst,src v; the hops enter D with a minus sign, which subtract_hops applies."""
        out = BlockSpinorField.zeros(len(self.fwd[0]), v.b, v.layout, v.s)
        subtract_hops(self.dst_links, v, out, fwd=self.fwd, back=self.back, src_gauge=self.src_links)
        return out


def _check_blocks(blocks: np.ndarray, sites: np.ndarray, cond_limit: float) -> None:
    """Raise for the first (site, block) of (n, 2, 6, 6) blocks that is non-finite or ill-conditioned."""
    finite = np.isfinite(blocks).all(axis=(-2, -1))
    cond = np.full(finite.shape, np.nan)
    cond[finite] = np.linalg.cond(blocks[finite])
    bad = ~(cond <= cond_limit)  # NaN (non-finite block) and inf compare False
    if bad.any():
        row, half = np.argwhere(bad)[0]
        raise SingularBlockError(int(sites[row]), int(half), float(cond[row, half]))


class SchurOperator:
    """S = D_kk - D_ke D_ee'^-1 D_ek with parity k kept (default even).

    All fields are half-lattice fields.  The operator is a snapshot of
    ``(params, gauge, clover)`` taken at build time: it keeps the diagonal
    blocks of the kept parity, the inverses of the eliminated parity's
    blocks and the links of both parities, all copied, so editing the fields
    in place afterwards does not change it.  Build a new operator for new
    fields.
    """

    def __init__(
        self,
        params: DiracParams,
        gauge: GaugeField,
        clover: CloverField,
        keep_parity: int = 0,
        cond_limit: float = 1e12,
    ):
        if keep_parity not in (0, 1):
            raise ValueError(f"parity must be 0 (even) or 1 (odd), got {keep_parity}")
        self.params = params
        self.keep_parity = keep_parity
        self.split = OeSplit.from_geom(gauge.geom)
        self.keep_sites = self.split.sites(keep_parity)
        self.elim_sites = self.split.sites(1 - keep_parity)

        diag = site_blocks(params, clover)
        self._diag_kept = diag[self.keep_sites]
        elim = diag[self.elim_sites]
        _check_blocks(elim, self.elim_sites, cond_limit)
        self._inv = np.linalg.inv(elim)
        self._to_elim = ParityHop.build(gauge, self.split, 1 - keep_parity)
        self._to_kept = ParityHop.build(gauge, self.split, keep_parity)

    @property
    def n_sites(self) -> int:
        return len(self.keep_sites)

    def solve_eliminated(self, rhs: np.ndarray) -> np.ndarray:
        """D_elim^-1 applied to (n_elim, 12, b) values: one batched product with the inverses."""
        n, _, b = rhs.shape
        return np.matmul(self._inv, rhs.reshape(n, 2, 6, b)).reshape(n, SPINOR_LEN, b)

    def _diag_keep(self, v: BlockSpinorField) -> np.ndarray:
        """D_kk v on the kept parity, site local."""
        halves = v.ksi().reshape(v.n_sites, 2, 6, v.b)
        return np.matmul(self._diag_kept, halves).reshape(v.n_sites, SPINOR_LEN, v.b)

    def apply(self, v: BlockSpinorField) -> BlockSpinorField:
        """w = S v on the kept parity."""
        if v.n_sites != self.n_sites:
            raise ValueError(f"field has {v.n_sites} sites, Schur system has {self.n_sites}")
        z = self.solve_eliminated(self._to_elim(v).ksi())
        out = self._to_kept(_half_field(z, v.layout))
        out.set_ksi(self._diag_keep(v) - out.ksi())
        return out

    def __call__(self, v: BlockSpinorField) -> BlockSpinorField:
        return self.apply(v)

    def reduce_rhs(self, eta: BlockSpinorField) -> tuple[BlockSpinorField, BlockSpinorField]:
        """(eta_kept - D_ke D_elim^-1 eta_elim, eta_elim) for the half solve."""
        ev = eta.ksi()
        eta_elim = _half_field(ev[self.elim_sites], eta.layout)
        z = self.solve_eliminated(eta_elim.ksi())
        reduced = self._to_kept(_half_field(z, eta.layout))
        reduced.set_ksi(ev[self.keep_sites] - reduced.ksi())
        return reduced, eta_elim

    def reconstruct(self, x_kept: BlockSpinorField, eta_elim: BlockSpinorField) -> BlockSpinorField:
        """x_elim = D_elim^-1 (eta_elim - D_ek x_kept)."""
        t = self._to_elim(x_kept)
        return _half_field(self.solve_eliminated(eta_elim.ksi() - t.ksi()), x_kept.layout)

    def merge(self, x_kept: BlockSpinorField, x_elim: BlockSpinorField) -> BlockSpinorField:
        if self.keep_parity == 0:
            return merge_fields(x_kept, x_elim, self.split)
        return merge_fields(x_elim, x_kept, self.split)
