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

The keep parity defaults to even.  D_oo^-1 uses two dense 6x6 LU
factorizations per eliminated site, computed once per operator and reused by
every apply; this inverse is exact up to roundoff, never iterative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dirac import DiracParams, apply_self_coupling, subtract_hops
from .fields import BlockSpinorField, CloverField, GaugeField
from .geometry import LatticeGeometry
from .projectors import SPINOR_LEN

PARITY_NAME = {0: "even", 1: "odd"}


class SingularBlockError(np.linalg.LinAlgError):
    """A site-local block of the eliminated parity is numerically singular."""

    def __init__(self, site: int, block: int, cond: float):
        self.site = site
        self.block = block
        self.cond = cond
        super().__init__(
            f"site-local block {block} at site {site} is numerically singular "
            f"(condition estimate {cond:.3e})"
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


def split_fields(v: BlockSpinorField, split: OeSplit | None = None) -> tuple[BlockSpinorField, BlockSpinorField]:
    """Partition a full-lattice field into its (even, odd) halves."""
    if split is None:
        if v.geom is None:
            raise ValueError("field carries no geometry; pass an explicit OeSplit")
        split = OeSplit.from_geom(v.geom)
    vv = v.ksi()
    halves = []
    for sites in (split.even, split.odd):
        half = BlockSpinorField.zeros(len(sites), v.b, v.layout, v.s)
        half.set_ksi(vv[sites])
        halves.append(half)
    return halves[0], halves[1]


def merge_fields(
    v_even: BlockSpinorField, v_odd: BlockSpinorField, split: OeSplit
) -> BlockSpinorField:
    """Inverse of :func:`split_fields`."""
    out = BlockSpinorField.zeros(split.geom.n_sites, v_even.b, v_even.layout, v_even.s, split.geom)
    ov = out.ksi()
    ov[split.even] = v_even.ksi()
    ov[split.odd] = v_odd.ksi()
    return out


class SchurOperator:
    """S = D_kk - D_ke D_ee'^-1 D_ek with parity k kept (default even).

    Holds the per-site LU factorizations of the eliminated diagonal blocks
    and scratch full-lattice fields for the two hop sweeps each apply needs.
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
        self.gauge = gauge
        self.clover = clover
        self.keep_parity = keep_parity
        self.split = OeSplit.from_geom(gauge.geom)
        self.keep_sites = self.split.sites(keep_parity)
        self.elim_sites = self.split.sites(1 - keep_parity)

        # diagonal blocks of the eliminated parity: (4+m0) I - C, factorized
        blocks = (4.0 + params.m0) * np.eye(6) - clover.blocks()[self.elim_sites]
        self._lu: list[tuple] = []
        for row, site in enumerate(self.elim_sites):
            for half in range(2):
                block = blocks[row, half]
                cond = np.linalg.cond(block)
                if not np.isfinite(cond) or cond > cond_limit:
                    raise SingularBlockError(int(site), half, float(cond))
                self._lu.append(scipy.linalg.lu_factor(block))

    @property
    def n_sites(self) -> int:
        return len(self.keep_sites)

    def solve_eliminated(self, rhs: np.ndarray) -> np.ndarray:
        """D_elim^-1 applied to (n_elim, 12, b) values, via the cached LUs."""
        out = np.empty_like(rhs)
        for row in range(rhs.shape[0]):
            out[row, :6] = scipy.linalg.lu_solve(self._lu[2 * row], rhs[row, :6])
            out[row, 6:] = scipy.linalg.lu_solve(self._lu[2 * row + 1], rhs[row, 6:])
        return out

    def _hop_to(self, values: np.ndarray, src_sites: np.ndarray, dst_sites: np.ndarray, b: int, layout) -> np.ndarray:
        """Off-diagonal block apply: embed on src parity, hop, read dst parity.

        Returns the (n_dst, 12, b) values of D_offdiag @ values; hops carry a
        minus sign in D, and self-coupling never crosses parity.
        """
        full = BlockSpinorField.zeros(self.gauge.geom.n_sites, b, layout, SPINOR_LEN, self.gauge.geom)
        full.ksi()[src_sites] = values
        acc = BlockSpinorField.zeros_like(full)
        subtract_hops(self.gauge, full, acc)
        return acc.ksi()[dst_sites].copy()

    def _diag_keep(self, v: BlockSpinorField) -> np.ndarray:
        """D_kk v on the kept parity: (4+m0) v - C v, site local."""
        blocks = self.clover.blocks()[self.keep_sites]
        halves = v.ksi().reshape(v.n_sites, 2, 6, v.b)
        coupled = np.einsum("xpkl,xplb->xpkb", blocks, halves)
        return (4.0 + self.params.m0) * v.ksi() - coupled.reshape(v.n_sites, SPINOR_LEN, v.b)

    def apply(self, v: BlockSpinorField) -> BlockSpinorField:
        """w = S v on the kept parity."""
        if v.n_sites != self.n_sites:
            raise ValueError(f"field has {v.n_sites} sites, Schur system has {self.n_sites}")
        t = self._hop_to(v.ksi(), self.keep_sites, self.elim_sites, v.b, v.layout)
        z = self.solve_eliminated(t)
        u = self._hop_to(z, self.elim_sites, self.keep_sites, v.b, v.layout)
        out = BlockSpinorField.zeros(self.n_sites, v.b, v.layout, v.s)
        out.set_ksi(self._diag_keep(v) - u)
        return out

    def __call__(self, v: BlockSpinorField) -> BlockSpinorField:
        return self.apply(v)

    def reduce_rhs(self, eta: BlockSpinorField) -> tuple[BlockSpinorField, BlockSpinorField]:
        """(eta_kept - D_ke D_elim^-1 eta_elim, eta_elim) for the half solve."""
        ev = eta.ksi()
        z = self.solve_eliminated(ev[self.elim_sites].copy())
        u = self._hop_to(z, self.elim_sites, self.keep_sites, eta.b, eta.layout)
        reduced = BlockSpinorField.zeros(self.n_sites, eta.b, eta.layout, eta.s)
        reduced.set_ksi(ev[self.keep_sites] - u)
        elim = BlockSpinorField.zeros(len(self.elim_sites), eta.b, eta.layout, eta.s)
        elim.set_ksi(ev[self.elim_sites])
        return reduced, elim

    def reconstruct(self, x_kept: BlockSpinorField, eta_elim: BlockSpinorField) -> BlockSpinorField:
        """x_elim = D_elim^-1 (eta_elim - D_ek x_kept)."""
        t = self._hop_to(x_kept.ksi(), self.keep_sites, self.elim_sites, x_kept.b, x_kept.layout)
        vals = self.solve_eliminated(eta_elim.ksi() - t)
        out = BlockSpinorField.zeros(len(self.elim_sites), x_kept.b, x_kept.layout, x_kept.s)
        out.set_ksi(vals)
        return out

    def merge(self, x_kept: BlockSpinorField, x_elim: BlockSpinorField) -> BlockSpinorField:
        if self.keep_parity == 0:
            return merge_fields(x_kept, x_elim, self.split)
        return merge_fields(x_elim, x_kept, self.split)

