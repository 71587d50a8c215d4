"""Clover Wilson-Dirac operator with the rhs loop fused into the site loop.

One apply computes

    eta(x) = ((4 + m0) I - C(x)) psi(x)
             - sum_mu [ (I + gamma_mu)/2 U_mu(x) psi(x + mu^)
                        + (I - gamma_mu)/2 U_mu^H(x - mu^) psi(x - mu^) ].

Every stage runs in real matrix products on the float view of complex
data (the real embedding of complex GEMM, "4m" in Van Zee and Smith, ACM
TOMS 44 (2017) Art. 7); no stage calls complex BLAS, whose batched small
products do not run faster on two threads than on one.

The self coupling multiplies by the two 6x6 site blocks B = (4 + m0) I - C
of every site, held in their left real form L = [Re B | Im B], a (6, 12)
float matrix with exactly the bytes of the complex block it replaces
(:func:`left_real_form`).  For a (6, b) complex half-spinor block x,
L [x ; i x] = Re B x + Im B (i x) = B x, and the float view of the (12, b)
complex stack [x ; i x] is a (12, 2b) float matrix, so each site's block
is one real (6, 12) x (12, 2b) product whose (6, 2b) float result is the
float view of B x.  The stack is written a chunk of sites at a time from
the field's logical view, in any layout, into one chunk buffer.

The hops run as one sweep over chunks of destination sites, entirely in
real matrix products: a complex row x times a complex z is the float row
x_f times the real form of z (``_real_form``).  The sweep reads psi as
one contiguous array of spinor rows, (n_sites, b, 12), one row per site
and rhs: a Layout-1 field's own storage, into which a field of any other
layout is transposed once per call (its gathered rows would not be
contiguous, and the sweep gathers each row 8 times).  For each chunk and
each mu the sweep gathers the rows of the +mu and -mu neighbors and
compresses them to half spinors h = K psi with one product by a fixed
real projection matrix per side (the real form of the projectors module's
K = [I, -+A_mu] times the color identity); a chunk's half spinors are
(m, b, 2, 3), color innermost, so each site's 2b rows of 3 colors are one
(2b, 6) float64 matrix.  That matrix is
multiplied by a real 6x6 link matrix: on the +mu side by the destination
site's own W, on the -mu side by W^T of its -mu neighbor, which is the
link matrix of U^H; one batched float64 ``matmul`` each, where a complex
``U @ h`` would be one zgemm call per site at several times the cost.  An
operator stores both in destination order, as (8, n, 6, 6) hop matrices
(:func:`hop_matrices`): slot 2mu holds W_mu(x), slot 2mu + 1 holds
W_mu(x - mu^)^T, contiguous.  Each chunk reads its own rows of both slots,
so no apply gathers or transposes a link matrix.  The 1/2 of the hop
projectors is folded into W, so the projections run no 0.5 pass.  Both
reconstructed halves go into the chunk's accumulator (A_mu^H is one more
fixed real matrix), which is subtracted from eta once.

Both stages chunk their sites by the one rule of the fields module
(:func:`lqcdlab.fields.chunk_sites`): 2048 / b sites for b <= 8, 256 for
b = 16.  Each site's arithmetic does not depend on the chunking, so the
result is bitwise the same for any chunk size.  The fixed spin
matrices have entries 0 and +-1, so each output of a projection or of
A_mu^H is one input or the rounded sum of two, however BLAS orders its
sums: bitwise what the structured operation gives.  That holds for any
split of such a product into row blocks, so :func:`_times` splits one
whose rows would take it past OpenBLAS's small-matrix bound: the
projections at b = 16, A_mu^H from b = 32.  A_0 = I, so direction 0 runs
no A^H product and its two halves start the accumulators.

Every operator builds its rows the same way and keeps them in one kind
of record, :class:`SiteRows`, per set of sites whose eta rows it writes:
their site blocks and hop matrices, from one :func:`site_blocks` and one
:func:`hop_matrices` call on the global lattice, and the (8, n) neighbor
table the sweep reads, in the hop matrices' slot order.
:class:`DiracOperator` keeps one record for the whole lattice with the
periodic tables, or, through the multi-rank executor (halo module), one
per rank, built on the rank's thread, with the rank-local periodic tables
and the rank's face sets; the even/odd Schur operator (oddeven module)
keeps one of the whole lattice in parity order, whose halves are its
parity records.  Every row's slot 2mu + 1 holds the link of its true
global -mu neighbor, whoever owns that site.  One function,
:func:`subtract_hops`, runs the sweep of any record, and with a rank's
communicator; one, :func:`apply_rows`, a record's whole apply, for each
rank and for the Schur operator's whole lattice.  It gathers the psi rows
straight into row order, as a Layout-1 field whatever psi's layout, so the
sweep copies nothing more, and writes the eta rows back with one
transposing put.  A rank posts the compressed half spinors of both faces,
the +mu side of its -mu face and the -mu side of its +mu face, completes
its receives, and the sweep takes the half spinors of the face rows that
the local tables get wrong from the received halos, before its own link
multiply, on both sides alike.  The posted values come from the same
helper as the sweep's, and every row's link matrices are the single-rank
operator's, so every site sees the same operations on the same values,
which is why the multi-rank result is bitwise equal to the single-rank
one.

Every apply writes its eta into a field it is given, ``out``, of any
layout, or into a new field like psi; both stages write every row of it,
and each rank its own rows, so ``out`` needs no zeroing.  The solver thus
applies the operator from one row of its Krylov basis, a Layout-3 field,
straight into the next (gmres module).

The sweep and the self coupling run at the precision of the field they
are given: the helpers view complex128 data as float64 and complex64 data
as float32, and pick the spin matrices of that precision (their entries
are 0 and +-1, so the float32 copies are exact).  Both stages raise a
``ValueError`` naming both dtypes when an operator array's real dtype is
not the field's, rather than view the field's bytes at the wrong width.
Both operators, D and the Schur operator, are :class:`StencilOperator`
objects: records in ``_rows`` at one precision.  The one
:meth:`StencilOperator.astype` makes the complex64 twin from
:meth:`SiteRows.astype` copies of the records in ``_rows``, float32 site
blocks and hop matrices beside the shared tables, and shares everything
else uncast; D's twin is again bitwise equal across rank grids.  The
solver applies the twin inside its Krylov cycles and the complex128
operator for every residual (gmres module).

Flop accounting counts the structured operations the operator needs: a
complex multiply costs 6 flops, a complex add 2, a real-by-complex scale 2,
a real add 1, a real 6x6 matrix times a 6-vector 66; sign flips, complex
conjugation and multiplications by +-1 or by i are free.  One apply needs
2352 flops per site and rhs: self coupling 552; per direction 444 (two
compressions at 48, two link products at 132, and 84 to reconstruct and
accumulate: three complex adds at 12, A_mu^H at 36, one more add at 12);
the final subtraction from eta 24.  Per site come 12 (the mass added to the
clover diagonal) and 72 (the 1/2 folded into four links).  What numpy and
BLAS execute, counting an n-term dot product as n multiplies and n - 1
adds, per site and rhs: the self coupling's real products 552 (two halves,
each 12 floats of 12 multiplies and 11 adds), the same count as the
structured complex product, plus 72 for i x (a complex multiply by 1j per
value, 12 values at 6); per direction 1128 for the two projections (the
fixed spin matrices applied densely, zeros included), 264 for the two link
products, 276 for A_mu^H and 48 for the four accumulating adds, except
in direction 0, which runs no A_0^H product and two adds (24); the final
subtraction 24.  That is 7212 per site and rhs, and per site 1260 per link
for the embedding and 12 for the mass, 5052.  The traffic ledger below is a
fixed analytic budget, 2574 per site and rhs, that arithmetic intensity and
GF/s are quoted against; its breakdown is not recorded.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .fields import (PRECISIONS, BlockSpinorField, CloverField, GaugeField, Layout, as_precision, chunk_sites,
                     result_field, site_chunks)
from .geometry import NDIM
from .projectors import A_BLOCKS, N_COLOR, compression

# traffic ledger of one operator application, per lattice site:
# 2574*b flop and (168*b + 114) complex values = (168*b + 114)*16 byte
FLOPS_PER_SITE_RHS = 2574
VALUES_PER_SITE_RHS = 168
VALUES_PER_SITE_FIXED = 114
BYTES_PER_VALUE = 16


@dataclass(frozen=True)
class DiracParams:
    """Mass parameter of the operator; the lattice spacing is pinned to 1."""

    m0: float = -0.5


def account_traffic(b: int, dtype=np.complex128) -> dict:
    """Per-site flop and byte ledger of one apply with b right-hand sides, its values of precision ``dtype``.

    The bytes count each value at ``dtype``'s itemsize: 16 for complex128
    (``BYTES_PER_VALUE``), 8 for complex64.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    dtype = as_precision(dtype)
    return {
        "flops_per_site": FLOPS_PER_SITE_RHS * b,
        "bytes_per_site": (VALUES_PER_SITE_RHS * b + VALUES_PER_SITE_FIXED) * dtype.itemsize,
    }


def _check_field(psi: BlockSpinorField, n_sites: int, system: str, dtype=None, dims: tuple | None = None) -> None:
    """Raise unless psi is a field on the ``n_sites`` sites of ``system`` (and of ``dtype``, if given).

    With ``dims``, a psi that carries a geometry must also be on that
    lattice, not merely on as many sites.
    """
    if psi.n_sites != n_sites:
        raise ValueError(f"field has {psi.n_sites} sites, {system} has {n_sites}")
    if dims is not None and psi.geom is not None and psi.geom.dims != dims:
        raise ValueError(f"field lattice {psi.geom.dims} is not the {system} {dims}")
    if dtype is not None and psi.dtype != dtype:
        raise ValueError(f"field of dtype {psi.dtype} given to an operator of dtype {dtype}")


_DIAG6 = np.arange(6)


def site_blocks(params: DiracParams, clover: CloverField, sites: np.ndarray) -> np.ndarray:
    """(len(sites), 2, 6, 6) site-local blocks (4 + m0) I - C of the operator at the global ``sites``."""
    blocks = clover.blocks(sites)
    np.negative(blocks, out=blocks)
    blocks[..., _DIAG6, _DIAG6] += 4.0 + params.m0
    return blocks


# a row of 6 complex values as 12 floats (re, im interleaved) -> [re | im]
_SPLIT_ROW = np.concatenate([np.arange(0, 12, 2), np.arange(1, 12, 2)])


def left_real_form(blocks: np.ndarray) -> np.ndarray:
    """(..., 6, 12) float matrices L = [Re B | Im B] of complex (..., 6, 6) blocks B, made in B's own storage.

    Each 6-value row of B, 12 floats with real and imaginary parts
    interleaved, is permuted in place to its 6 real parts followed by its
    6 imaginary parts, a chunk of rows at a time, so the form takes
    exactly B's bytes and no second whole-array copy is made.  ``blocks``
    (C-contiguous, as every caller's are) is consumed: the returned float
    array shares its memory.
    """
    rows = blocks.view(np.finfo(blocks.dtype).dtype).reshape(-1, 12)
    for chunk in site_chunks(len(rows), 1):
        rows[chunk] = rows[chunk, _SPLIT_ROW]
    return rows.reshape(blocks.shape[:-1] + (12,))


def apply_self_coupling(blocks: np.ndarray, psi: BlockSpinorField,
                        out: BlockSpinorField | None = None) -> BlockSpinorField:
    """eta = B psi per site, with psi's (n_sites, 2, 6, 12) site blocks B in :func:`left_real_form`.

    Chunk by chunk the stack [x ; i x] of each site's two (6, b) half-spinor
    blocks x is written to one buffer, and one batched real product of the
    blocks with its float view gives the float view of B x, which is copied
    to eta: ``out`` if given (:func:`lqcdlab.fields.result_field`), whose
    every row is written, so it needs no zeroing.  The blocks' real
    precision must be psi's, or a ``ValueError`` names both dtypes.
    """
    _check_precision(blocks, psi)
    eta = result_field(psi, out)
    n, b = psi.n_sites, psi.b
    src, dst = (f.ksi().reshape(n, 2, 6, b) for f in (psi, eta))
    stack = np.empty((min(chunk_sites(b), n), 2, 12, b), dtype=psi.dtype)
    prod = np.empty((min(chunk_sites(b), n), 2, 6, b), dtype=psi.dtype)
    for chunk in site_chunks(n, b):
        m = chunk.stop - chunk.start
        xs, bx = stack[:m], prod[:m]
        xs[:, :, :6] = src[chunk]
        np.multiply(xs[:, :, :6], 1j, out=xs[:, :, 6:])
        np.matmul(blocks[chunk], xs.view(blocks.dtype), out=bx.view(blocks.dtype))
        dst[chunk] = bx
    return eta


def _real_form(z: np.ndarray) -> np.ndarray:
    """(..., 2k, 2n) float64 matrices R with x_f @ R = (x @ z)_f for (..., k, n) complex z.

    ``_f`` is the float64 view of a complex row (re, im interleaved); the
    2x2 block (i, j) of R is [[Re z_ij, Im z_ij], [-Im z_ij, Re z_ij]] (the
    real embedding of complex GEMM).  Every entry of R is +-1 times the
    real or imaginary part of an entry of z.
    """
    k, n = z.shape[-2:]
    r = np.empty(z.shape[:-2] + (k, 2, n, 2))
    r[..., :, 0, :, 0] = z.real
    r[..., :, 0, :, 1] = z.imag
    r[..., :, 1, :, 0] = -z.imag
    r[..., :, 1, :, 1] = z.real
    return r.reshape(z.shape[:-2] + (2 * k, 2 * n))


_EYE3 = np.eye(N_COLOR)

# The spin algebra of the sweep as fixed real matrices acting on float64
# rows, the real forms of the projectors module's spin matrices times the
# color identity (a row's components are spin-major, as np.kron orders
# them): _PROJECT[mu, 0] compresses a 12-component spinor row (24 floats)
# to the +mu-side half spinor (I + gamma_mu)/2 needs (12 floats),
# _PROJECT[mu, 1] to the -mu-side one, and _ADJOINT[mu] applies A_mu^H to a
# half spinor row.
_PROJECT = np.stack(
    [np.stack([_real_form(np.kron(compression(mu, sign), _EYE3).T) for sign in (-1, 1)]) for mu in range(NDIM)]
)
_ADJOINT = np.stack([_real_form(np.kron(a.conj().T, _EYE3).T) for a in A_BLOCKS])
# both at each field precision, keyed on the field's complex dtype; their
# entries are 0 and +-1, so the float32 copies are exact
_PROJECT_AT, _ADJOINT_AT = ({dtype: m.astype(np.finfo(dtype).dtype, copy=False) for dtype in PRECISIONS}
                            for m in (_PROJECT, _ADJOINT))

# (18, 36) maps from the float64 view of a link U to its link matrix W and,
# columns permuted, to W^T
_EMBED = _real_form(0.5 * np.eye(18).view(np.complex128).reshape(18, N_COLOR, N_COLOR).swapaxes(1, 2)).reshape(18, 36)
_EMBED_T = _EMBED.reshape(18, 6, 6).swapaxes(1, 2).reshape(18, 36)


def _rows(field: BlockSpinorField) -> np.ndarray:
    """(n_sites, b, 12) view of a full spinor field, one spinor row per site and rhs."""
    return field.ksi().swapaxes(1, 2)


# OpenBLAS runs a real product of M x K by K x N on its small-matrix path
# only while M * N * K stays at or below this; past it, a projection took
# 1.6-2.6 times as long per row (4096 rows at b = 16, 2-vCPU Xeon VM)
_BLAS_SMALL_MNK = 10**6


def _times(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Contiguous complex rows times a complex matrix given by its real form ``r``, in real products at ``r``'s precision.

    The rows are multiplied in equal blocks of at most
    ``_BLAS_SMALL_MNK // r.size`` rows, one product each, so every product
    stays on OpenBLAS's small-matrix path.  Each output row depends on its
    input row alone, so the result does not depend on the blocks.
    """
    x = rows.view(r.dtype).reshape(-1, r.shape[0])
    m, cap = len(x), _BLAS_SMALL_MNK // r.size
    if m <= cap:
        return (x @ r).view(rows.dtype)
    out = np.empty((m, r.shape[1]), dtype=r.dtype)
    blocks = -(-m // cap)
    step = -(-m // blocks)
    for start in range(0, m, step):
        np.matmul(x[start : start + step], r, out=out[start : start + step])
    return out.view(rows.dtype)


def _gather_rows(psi: BlockSpinorField, sites: np.ndarray) -> BlockSpinorField:
    """psi on ``sites``, in their order, as a Layout-1 field, whose spinor rows are contiguous.

    Rows that are contiguous already (Layout 1, or b = 1) are gathered as
    they are.  A Layout-3 psi is gathered from its (b, n_sites, s) storage,
    one contiguous run of s values per column and site, and transposed
    into row order once.  Otherwise (Layout 2) each chunk of sites is
    gathered and transposed into place, so the staging stays chunk-sized.
    """
    src = _rows(psi)
    if src.flags.c_contiguous:
        rows = src[sites]
    elif psi.layout is Layout.COLUMN:
        rows = np.ascontiguousarray(psi.storage_view()[:, sites].swapaxes(0, 1))
    else:
        rows = np.empty((len(sites),) + src.shape[1:], dtype=psi.dtype)
        for chunk in site_chunks(len(sites), psi.b):
            rows[chunk] = src[sites[chunk]]
    return BlockSpinorField(len(sites), psi.b, Layout.RHS_MAJOR, rows.reshape(-1))


def _half(rows: np.ndarray, sites: np.ndarray, mu: int, side: int, halo: tuple | None = None) -> np.ndarray:
    """(m, b, 2, 3) half spinors of contiguous ``rows`` at ``sites``: the +mu side (``side`` 0) or the -mu side (1).

    ``halo``, if given, is (result rows, their (k, b, 2, 3) values): received
    half spinors that replace the computed ones of those rows.
    """
    gathered = rows[sites]
    half = _times(gathered, _PROJECT_AT[rows.dtype][mu, side]).reshape(gathered.shape[:2] + (2, N_COLOR))
    if halo is not None:
        half[halo[0]] = halo[1]
    return half


def _link_multiply(w: np.ndarray, half: np.ndarray) -> np.ndarray:
    """One batched real product of (m, b, 2, 3) half spinors with (m, 6, 6) link matrices of their precision."""
    m, b = half.shape[:2]
    prod = np.matmul(half.view(w.dtype).reshape(m, 2 * b, 6), w)
    return prod.view(half.dtype).reshape(half.shape)


def hop_matrices(gauge: GaugeField, sites: np.ndarray) -> np.ndarray:
    """(8, len(sites), 6, 6) float64 matrices of the hop sweep for the global destination ``sites``.

    For a complex link U and a half spinor row h of 3 colors, viewed as 6
    floats, the link matrix W gives ``h @ W`` = U h / 2 and ``h @ W^T`` =
    U^H h / 2, the 1/2 of the hop projectors folded in: W is the real form
    of U^T / 2, whose 2x2 block (a, c) is [[Re U_ca, Im U_ca],
    [-Im U_ca, Re U_ca]] / 2.  For each destination site x, slot 2mu holds
    W_mu(x) and slot 2mu + 1 holds W_mu(x - mu^)^T of x's -mu neighbor on
    the global lattice.  Each slot is one product of its links' float64
    view with a fixed (18, 36) map whose columns hold a single nonzero
    each, ``_EMBED`` for W and its column-permuted copy for W^T, so every
    entry is the real or imaginary part of an entry of U times +-1/2,
    exactly, and W^T comes out contiguous without a transpose (numpy's
    batched matmul is 2-3x slower on a transposed view).
    """
    hops = np.empty((2 * NDIM, len(sites), 6, 6))
    for mu in range(NDIM):
        back = gauge.geom.neighbor_tables[2 * mu + 1, sites]
        for slot, src, embed in ((2 * mu, sites, _EMBED), (2 * mu + 1, back, _EMBED_T)):
            links = gauge.data[src, mu].view(np.float64).reshape(-1, 18)
            np.matmul(links, embed, out=hops[slot].reshape(-1, 36))
    return hops


def _check_precision(array: np.ndarray, psi: BlockSpinorField) -> None:
    """Raise unless an operator array's real dtype is the one of psi's precision."""
    if array.dtype != np.finfo(psi.dtype).dtype:
        raise ValueError(f"operator array of dtype {array.dtype} given a field of dtype {psi.dtype}")


@dataclass(frozen=True)
class SiteRows:
    """An operator's rows for one set of destination sites: what its self coupling and hop sweep read.

    ``sites`` are the global sites whose eta rows the record writes, in
    row order.  ``blocks`` are their (n, 2, 6, 12) site blocks in
    :func:`left_real_form` and ``hops`` their (8, n, 6, 6)
    :func:`hop_matrices`.  ``tables`` is (8, n), in the hop matrices' slot
    order: row 2mu gives each row's +mu neighbor and row 2mu + 1 its -mu
    neighbor, both as rows of the field the sweep reads.  ``boundary``, on
    a rank only, maps ``(mu, step)`` to the sorted rows whose neighbor lives
    on another rank (:class:`lqcdlab.geometry.RankDomain`).
    """

    sites: np.ndarray
    blocks: np.ndarray
    hops: np.ndarray
    tables: np.ndarray
    boundary: dict | None = None

    def astype(self, dtype) -> "SiteRows":
        """The record at precision ``dtype``: copies of ``blocks`` and ``hops`` cast to its real counterpart, the rest shared."""
        real = np.finfo(as_precision(dtype)).dtype
        return replace(self, blocks=self.blocks.astype(real), hops=self.hops.astype(real))


def site_rows(params: DiracParams, gauge: GaugeField, clover: CloverField, sites: np.ndarray,
              tables: np.ndarray, boundary: dict | None = None) -> SiteRows:
    """The :class:`SiteRows` of D at the global ``sites``: one :func:`site_blocks` and one :func:`hop_matrices` call."""
    blocks = left_real_form(site_blocks(params, clover, sites))
    return SiteRows(sites, blocks, hop_matrices(gauge, sites), tables, boundary)


def subtract_hops(rows: SiteRows, psi: BlockSpinorField, eta: BlockSpinorField, comm=None) -> None:
    """Run the hop sweep of the stencil, subtracting it from eta in place.

    ``rows`` are the :class:`SiteRows` of eta's sites: its ``tables`` map
    each eta row to the psi rows of its neighbors, and each chunk of eta
    rows reads its own rows of its ``hops``, slot 2mu on the +mu side and
    slot 2mu + 1 on the -mu side.  Their real dtype must be psi's and
    eta's, or a ``ValueError`` names both dtypes before anything is posted
    or written.

    With a rank endpoint ``comm``, the tables are the rank-local periodic
    ones and ``rows.boundary`` holds the rank's face sets.  The rank first
    posts the +mu-side half spinors of every -mu face and the -mu-side half
    spinors of every +mu face, then completes its receives, and the sweep
    replaces the +mu-side half spinors of its +mu face rows (resp. the
    -mu-side ones of its -mu face rows) by those received from the +mu
    (resp. -mu) neighbor rank, before the link multiply.  One
    ``searchsorted`` per face splits its received rows over the chunks,
    once per apply, and a chunk with no rows on a face places nothing for
    it.  Halo payloads are (n_face, b, 2, 3) (rhs, spin, color) in
    ascending face order, the sweep's own order of half spinors, so
    neither side transposes them.
    """
    _check_precision(rows.hops, psi)
    _check_precision(rows.hops, eta)
    src = np.ascontiguousarray(_rows(psi))  # a copy only for a psi whose rows are not contiguous
    tables, hops, boundary = rows.tables, rows.hops, rows.boundary
    n, b = eta.n_sites, eta.b
    chunks = list(site_chunks(n, b))
    # per chunk, slot -> (chunk rows on that slot's face, their received half spinors)
    halos = [{} for _ in chunks]
    if comm is not None:
        # the -mu face's +mu side travels down, the +mu face's -mu side up
        for mu in range(NDIM):
            for step, side in ((-1, 0), (+1, 1)):
                comm.post_send(mu, step, _half(src, boundary[(mu, step)], mu, side))
        edges = [chunk.start for chunk in chunks] + [n]
        for mu in range(NDIM):
            for step, side in ((+1, 0), (-1, 1)):
                face, halo = boundary[(mu, step)], comm.complete_recv(mu, -step)
                spans = np.searchsorted(face, edges)
                for c in np.flatnonzero(spans[1:] > spans[:-1]):
                    j0, j1 = spans[c], spans[c + 1]
                    halos[c][2 * mu + side] = (face[j0:j1] - chunks[c].start, halo[j0:j1])

    out = _rows(eta)
    acc_buf = np.empty((2, min(chunk_sites(b), n), b, 2, N_COLOR), dtype=out.dtype)
    for chunk, chunk_halos in zip(chunks, halos):
        m = chunk.stop - chunk.start
        upper, lower = acc_buf[:, :m]
        for mu in range(NDIM):
            fwd, back = 2 * mu, 2 * mu + 1
            up = _link_multiply(hops[fwd, chunk], _half(src, tables[fwd, chunk], mu, 0, chunk_halos.get(fwd)))
            down = _link_multiply(hops[back, chunk], _half(src, tables[back, chunk], mu, 1, chunk_halos.get(back)))
            # (I + gamma_mu)/2 reconstructs the +mu side to (h, A^H h) and
            # (I - gamma_mu)/2 the -mu side to (h, -A^H h); the 1/2 is in
            # the link matrices.  A_0 = I, so mu = 0 starts both accumulators
            if mu == 0:
                np.add(up, down, out=upper)
                np.subtract(up, down, out=lower)
                continue
            upper += up
            upper += down
            up -= down
            lower += _times(up, _ADJOINT_AT[up.dtype][mu]).reshape(up.shape)
        out[chunk, :, :6] -= upper.reshape(m, b, 6)
        out[chunk, :, 6:] -= lower.reshape(m, b, 6)


def apply_rows(rows: SiteRows, psi: BlockSpinorField, eta: BlockSpinorField, comm=None) -> None:
    """Write D psi into eta's rows at ``rows.sites``, the sweep through ``comm`` if given; other rows stay as they are.

    psi's rows are gathered in ``rows.sites`` order, the rows ``rows.tables``
    index, as a Layout-1 field, so the sweep copies nothing more, and put
    into eta, of any layout, with one transposing put.
    """
    loc = _gather_rows(psi, rows.sites)
    part = apply_self_coupling(rows.blocks, loc)
    subtract_hops(rows, loc, part, comm=comm)
    _rows(eta)[rows.sites] = _rows(part)


class StencilOperator:
    """An operator held as :class:`SiteRows` records in ``_rows``, on the lattice ``geom`` of its gauge and clover fields.

    The operator runs at one precision, ``dtype``: complex128 as built, or
    complex64 for the twin that :meth:`astype` returns.  A field of the
    other precision is rejected with a ``ValueError`` naming both dtypes.
    """

    dtype = np.dtype(np.complex128)

    def __init__(self, gauge: GaugeField, clover: CloverField):
        if clover.geom.dims != gauge.geom.dims:
            raise ValueError(f"clover lattice {clover.geom.dims} is not the gauge lattice {gauge.geom.dims}: "
                             f"clover field has {len(clover.data)} sites, gauge field has {len(gauge.data)}")
        self.geom = gauge.geom

    def astype(self, dtype) -> "StencilOperator":
        """The operator's twin at precision ``dtype`` (itself if it has that precision already).

        The twin holds the :meth:`SiteRows.astype` copy of every record in
        ``_rows``: cast site blocks and hop matrices, shared sites, tables
        and face sets.  It builds no array again, and shares every other
        attribute uncast.  Its sweep runs real products at the real
        counterpart of ``dtype``.
        """
        dtype = as_precision(dtype)
        if dtype == self.dtype:
            return self
        twin = copy.copy(self)
        twin.dtype = dtype
        twin._rows = [rows.astype(dtype) for rows in self._rows]
        return twin

    def _check_lattice_field(self, psi: BlockSpinorField) -> None:
        """Raise unless psi is a field of the operator's precision on its whole lattice."""
        _check_field(psi, self.geom.n_sites, "gauge lattice", self.dtype, self.geom.dims)


class DiracOperator(StencilOperator):
    """D for one ``(params, gauge, clover)``, as a snapshot taken at build time.

    The operator holds only :class:`SiteRows` records in ``_rows``, built
    once (:func:`site_rows`; the mass folded into the site blocks) and
    reused by every call, so a solve that builds one operator pays for them
    once.  Their arrays are copies: editing the fields in place afterwards
    does not change the operator.  Build a new one for new fields.  On one
    rank ``_rows`` is one record of the whole lattice with the periodic
    tables (:attr:`lqcdlab.geometry.LatticeGeometry.neighbor_tables`).

    With a :class:`lqcdlab.halo.MultiRankExecutor` as ``comm``, it is one
    record per rank instead, of the rank's domain with its local periodic
    tables and face sets, built on the rank's thread, and every call runs
    :func:`apply_rows` of each rank's record on the executor's threads: each
    rank gathers its own psi rows into row order (a Layout-1 field, one
    copy), runs the self coupling and the hop sweep through its
    communicator, and writes its own eta rows out in eta's layout.  The
    ranks' rows are disjoint, so they share eta without a lock.
    """

    def __init__(self, params: DiracParams, gauge: GaugeField, clover: CloverField, comm=None):
        super().__init__(gauge, clover)
        self.comm = comm
        if comm is None:
            self._rows = [site_rows(params, gauge, clover, np.arange(self.geom.n_sites), self.geom.neighbor_tables)]
        else:
            domains = comm.domains(self.geom)
            self._rows = [None] * len(domains)

            def build_rank(rank: int, _comm) -> None:
                dom = domains[rank]
                self._rows[rank] = site_rows(params, gauge, clover, dom.global_sites,
                                             dom.local_geom.neighbor_tables, dom.boundary)

            comm.run_ranks(build_rank)

    def __call__(self, psi: BlockSpinorField, out: BlockSpinorField | None = None) -> BlockSpinorField:
        """eta = D psi over all rhs columns, written into ``out`` if given and returned.

        ``out`` is checked by :func:`lqcdlab.fields.result_field`, and psi
        must be on the operator's lattice, both before any rank runs.
        """
        self._check_lattice_field(psi)
        eta = result_field(psi, out)
        if self.comm is None:
            (rows,) = self._rows
            apply_self_coupling(rows.blocks, psi, out=eta)
            subtract_hops(rows, psi, eta)
            return eta

        self.comm.run_ranks(lambda rank, comm: apply_rows(self._rows[rank], psi, eta, comm))
        return eta


def apply_dirac(
    params: DiracParams,
    gauge: GaugeField,
    clover: CloverField,
    psi: BlockSpinorField,
    comm=None,
) -> BlockSpinorField:
    """eta = D psi over all rhs columns: build a :class:`DiracOperator` and apply it once.

    ``comm`` is a rank executor from the halo module; without one the apply
    reads neighbors directly through the periodic wrap.
    """
    return DiracOperator(params, gauge, clover, comm)(psi)
