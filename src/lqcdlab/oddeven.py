"""Odd-even splitting and the half-size Schur operator.

Writing the system D x = eta in parity-sorted order,

    [ D_ee  D_eo ] [x_e]   [eta_e]
    [ D_oe  D_oo ] [x_o] = [eta_o],

the diagonal blocks are site local ((4+m0)I - C, two 6x6 Hermitian blocks
per site) because every hop flips parity.  Eliminating the odd sites gives
the half-size system on the even ones

    S x_e = eta_e - D_eo D_oo^-1 eta_o,
    S     = D_ee - D_eo D_oo^-1 D_oe,

and the eliminated half comes back through
x_o = D_oo^-1 (eta_o - D_oe x_e).

The even sites are always the kept ones, as in DD-alphaAMG's odd-even
preconditioning.  The operator runs on the stencil's two primitives only:
site-block products
(:func:`lqcdlab.dirac.apply_self_coupling`, with the even blocks
or with N = -D_oo^-1, each held as the real (6, 12) matrices
[Re B | Im B] that the self coupling multiplies in real arithmetic) and
the hop sweep
(:func:`lqcdlab.dirac.subtract_hops`), which subtracts the hop sum H
straight from its destination field; the off-diagonal blocks are
D_eo = -H_eo and D_oe = -H_oe.  Storing the inverses negated folds that
minus sign in, as the mass is folded into the site blocks and the 1/2
into the link matrices:

    S v       = D_ee v - H_eo (N t),    t = 0 - H_oe v,
    reduced   = eta_e - H_eo (N eta_o),
    x_o       = N (-eta_o - H_oe x_e),
    D x       = (D_ee x_e - H_eo x_o,  D_oo x_o - H_oe x_e),

the last (:meth:`SchurOperator.apply_full`, D_oo kept beside N) giving a
solve's final residual, so a solve builds site blocks and links once.

Negation is exact, so every value is the one the algebra written with
D_oo^-1 gives.  N is the negated batched inverse of the eliminated 6x6
blocks, computed once per operator and exact up to roundoff, never
iterative.  A half-lattice field is a gather of whole site blocks
(:meth:`lqcdlab.fields.BlockSpinorField.take_sites` of the geometry's
``even_sites`` or ``odd_sites``) that keeps the layout, and
:meth:`SchurOperator.merge` puts two halves back into a whole-lattice
field; the hop sweep runs on one parity's sites with cross-parity
neighbor tables.  :meth:`SchurOperator.apply` allocates its temporaries t
and N t in row order (Layout 1), the order the sweep reads, so only its
first sweep transposes a Layout-2 input and the second copies nothing.
The operator builds one :class:`lqcdlab.dirac.SiteRows` record of the
whole lattice in parity order, even sites first, as any operator's rows are
built; its tables map each row to its neighbors' parity-ordered rows.  Every
hop flips parity, so each parity's record is a view of one half, its tables
indexing the other parity's half field: the kept one holds D_ee and H_eo,
the eliminated one N and H_oe.  Every row is held once, and no sweep gathers
a link matrix.  D_oo is the record's odd half, and
:meth:`SchurOperator.apply_full` runs :func:`lqcdlab.dirac.apply_rows` on
the record, as a rank of the full operator runs it on its own.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from .dirac import (DiracParams, SiteRows, _check_field, apply_rows, apply_self_coupling, check_lattices,
                    hop_matrices, left_real_form, site_blocks, subtract_hops)
from .fields import BlockSpinorField, CloverField, GaugeField, Layout, check_matching, result_field

# eliminated blocks with a larger condition estimate are rejected as singular
_COND_LIMIT = 1e12


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


def _invert_blocks(blocks: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Inverses of (n, 2, 6, 6) blocks; raise for the first (site, block) that is non-finite or ill-conditioned.

    A block is rejected when its 2-norm condition number exceeds
    ``_COND_LIMIT``.  The SVD behind that number is run only on the blocks
    that a cheap 1-norm screen cannot clear: with the inverse in hand,
    kappa_1 = ||A||_1 ||A^-1||_1 bounds kappa_2 <= 6 kappa_1 for a 6x6 block,
    so a block with kappa_1 <= _COND_LIMIT / 12 (the bound with a factor 2
    to spare for the rounding of a computed inverse) is accepted as it
    would be by the exact check.  Non-finite blocks, and every block when
    the batched inverse fails, go to the exact check.
    """
    inv = None
    if np.isfinite(blocks).all():
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError:
            pass
    if inv is None:
        suspect = np.ones(blocks.shape[:-2], dtype=bool)
    else:
        kappa1 = np.abs(blocks).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
        suspect = ~(kappa1 <= _COND_LIMIT / 12)
    cond = np.full(suspect.shape, np.nan)
    finite = suspect & np.isfinite(blocks).all(axis=(-2, -1))
    cond[finite] = np.linalg.cond(blocks[finite])
    bad = suspect & ~(cond <= _COND_LIMIT)  # NaN (non-finite block) and inf compare False
    if bad.any():
        row, half = np.argwhere(bad)[0]
        raise SingularBlockError(int(sites[row]), int(half), float(cond[row, half]))
    return np.linalg.inv(blocks) if inv is None else inv


class SchurOperator:
    """S = D_ee - D_eo D_oo^-1 D_oe on the even sites, the odd ones eliminated.

    Each piece is one or two site-block products (:meth:`solve_eliminated`
    with N = -D_oo^-1, and D_ee) and one hop sweep per off-diagonal block
    that subtracts into the destination field; the module docstring gives
    the algebra.  The operator is a snapshot of ``(params, gauge, clover)``
    taken at build time: its parity-ordered record ``_full`` (D_ee, D_oo,
    H_eo, H_oe), viewed by ``_kept`` (D_ee, H_eo) and ``_elim`` (N, H_oe),
    every block array in :func:`lqcdlab.dirac.left_real_form` (N inverted
    from the complex blocks first), are copies, so editing the fields in
    place afterwards does not change it.  Build a new operator for new
    fields.

    As :class:`lqcdlab.dirac.DiracOperator`, it runs at one precision,
    ``dtype``, and :meth:`astype` returns its complex64 twin.
    """

    dtype = np.dtype(np.complex128)

    def __init__(self, params: DiracParams, gauge: GaugeField, clover: CloverField):
        check_lattices(gauge, clover)
        self.geom = geom = gauge.geom
        self.keep_sites, self.elim_sites = keep, elim = geom.even_sites, geom.odd_sites
        h, sites = len(keep), np.concatenate([keep, elim])
        blocks = site_blocks(params, clover, sites)
        neg_inv = _invert_blocks(blocks[h:], elim)
        np.negative(neg_inv, out=neg_inv)
        # each block array in its left real form, in its own storage, and the
        # tables before the hop matrices: peak memory moves with this order
        blocks, neg_inv = left_real_form(blocks), left_real_form(neg_inv)
        # sites is a permutation, and argsort its inverse: the neighbors' parity-ordered rows
        tables = np.argsort(sites)[geom.neighbor_tables[:, sites]]
        self._full = full = SiteRows(sites, blocks, hop_matrices(gauge, sites), tables)
        self._kept = SiteRows(keep, blocks[:h], full.hops[:, :h], tables[:, :h] - h)
        self._elim = SiteRows(elim, neg_inv, full.hops[:, h:], tables[:, h:])

    @property
    def n_sites(self) -> int:
        return len(self.keep_sites)

    def astype(self, dtype) -> "SchurOperator":
        """The operator's twin at precision ``dtype`` (itself if it has that precision already).

        The twin holds the :meth:`lqcdlab.dirac.SiteRows.astype` copy of
        both parity records (cast D_ee, N and hop matrices, shared sites
        and tables) and shares, uncast, the whole-lattice record that only
        :meth:`apply_full` reads: the twin's :meth:`apply_full` raises a
        ``ValueError`` for its precision, where casting it would cost half
        a site-block array (D_oo) more in every twin.
        """
        if np.dtype(dtype) == self.dtype:
            return self
        twin = copy.copy(self)
        twin.dtype = np.dtype(dtype)
        twin._kept, twin._elim = self._kept.astype(dtype), self._elim.astype(dtype)
        return twin

    def __call__(self, v: BlockSpinorField, out: BlockSpinorField | None = None) -> BlockSpinorField:
        """w = S v, through :meth:`apply`."""
        return self.apply(v, out)

    def solve_eliminated(self, v: BlockSpinorField) -> BlockSpinorField:
        """N v = -D_oo^-1 v on the odd sites: one batched product with the negated inverses."""
        return apply_self_coupling(self._elim.blocks, v)

    def apply(self, v: BlockSpinorField, out: BlockSpinorField | None = None) -> BlockSpinorField:
        """w = S v on the even sites, written into ``out`` if given and returned.

        ``out`` is checked by :func:`lqcdlab.fields.result_field` before
        any work.
        """
        _check_field(v, self.n_sites, "Schur system", self.dtype)
        if out is not None:  # checked now; a new output is allocated only after t is made
            result_field(v, out)
        # in row order, so the second sweep reads t's rows without a copy
        t = BlockSpinorField.zeros(len(self.elim_sites), v.b, Layout.RHS_MAJOR, dtype=v.dtype)
        subtract_hops(self._elim, v, t)  # t = 0 - H_oe v = D_oe v
        t = self.solve_eliminated(t)
        out = apply_self_coupling(self._kept.blocks, v, out=out)
        subtract_hops(self._kept, t, out)  # out = D_ee v - H_eo N t
        return out

    def reduce_rhs(self, eta: BlockSpinorField) -> tuple[BlockSpinorField, BlockSpinorField]:
        """(eta_e - D_eo D_oo^-1 eta_o, eta_o) for the half solve: eta_e - H_eo N eta_o."""
        _check_field(eta, self.geom.n_sites, "gauge lattice", self.dtype, self.geom.dims)
        eta_elim = eta.take_sites(self.elim_sites)
        reduced = eta.take_sites(self.keep_sites)
        subtract_hops(self._kept, self.solve_eliminated(eta_elim), reduced)
        return reduced, eta_elim

    def reconstruct(self, x_kept: BlockSpinorField, eta_elim: BlockSpinorField) -> BlockSpinorField:
        """x_o = D_oo^-1 (eta_o - D_oe x_e) = N (-eta_o - H_oe x_e), for x_e = ``x_kept`` and eta_o = ``eta_elim``."""
        _check_field(x_kept, self.n_sites, "Schur system", self.dtype)
        check_matching(eta_elim, x_kept, "eta_elim", "x_kept")
        t = replace(eta_elim, data=-eta_elim.data)
        subtract_hops(self._elim, x_kept, t)
        return self.solve_eliminated(t)

    def apply_full(self, psi: BlockSpinorField) -> BlockSpinorField:
        """D psi: :func:`lqcdlab.dirac.apply_rows` of ``_full`` into a field on the operator's lattice, in psi's layout."""
        _check_field(psi, self.geom.n_sites, "gauge lattice", self.dtype, self.geom.dims)
        out = BlockSpinorField.zeros(self.geom.n_sites, psi.b, psi.layout, self.geom, psi.dtype)
        apply_rows(self._full, psi, out)
        return out

    def merge(self, x_kept: BlockSpinorField, x_elim: BlockSpinorField) -> BlockSpinorField:
        """The whole-lattice field of the even half ``x_kept`` and the odd half ``x_elim``, at the halves' precision."""
        out = BlockSpinorField.zeros(self.geom.n_sites, x_kept.b, x_kept.layout, self.geom, x_kept.dtype)
        out.put_sites(self.keep_sites, x_kept)
        out.put_sites(self.elim_sites, x_elim)
        return out
