"""Clover Wilson-Dirac operator with the rhs loop fused into the site loop.

One apply computes

    eta(x) = ((4 + m0) I - C(x)) psi(x)
             - sum_mu [ (I + gamma_mu)/2 U_mu(x) psi(x + mu^)
                        + (I - gamma_mu)/2 U_mu^H(x - mu^) psi(x - mu^) ].

The self coupling is one batched product with the two 6x6 site blocks
(4 + m0) I - C of every site.  The hops run as one sweep over chunks of
destination sites.  For each chunk and each mu it gathers psi at the +mu
and -mu neighbors, compresses each to a half spinor h (6 of 12 components,
stored color-outer as (m, 3, 2b)), multiplies it by the link as one batched
``U @ h`` (``U^H`` on the -mu side), and adds both reconstructed halves into
the chunk's accumulator, which is subtracted from eta once.  The chunk size
follows from b so that a chunk's temporaries stay inside L2; each site's
arithmetic does not depend on it.

One generator, :func:`hop_stages`, holds that sweep.  The single-rank apply
runs it to completion with the periodic neighbor tables and the even/odd
Schur operator (oddeven module) with cross-parity tables on half-lattice
fields.  The multi-rank executor (halo module) runs it once per rank with
the rank's tables and communicator: the compressed +mu-side half spinors of
the -mu face and the link-multiplied -mu-side values of the +mu face are
posted first, and the sweep takes the face rows it cannot compute locally
from the received halos.  The posted values come from the same helpers as
the sweep's, so every site sees the same operations on the same values,
which is why the multi-rank result is bitwise equal to the single-rank one.

Flop accounting follows the structured operations actually performed: a
complex multiply costs 6 flops, a complex add 2, a real-by-complex scale 2,
a real add 1; sign flips and complex conjugation are free.  One apply runs
2448 flops per site and rhs (self coupling 552, per direction 468, the final
subtraction from eta 24) plus 12 per site (the mass added to the clover
diagonal).  The traffic ledger below is a fixed analytic budget, 2574 per
site and rhs, that arithmetic intensity and GF/s are quoted against; its
breakdown is not recorded.  The previous staged kernel counted 2616; this
one runs 168 fewer: the mass is folded into the site blocks (no separate
scale and subtraction: 48 fewer), and each direction's two reconstructions
are folded into a sum and a difference, so A_mu^H is applied once per
direction instead of twice (144 fewer) at the cost of one final subtraction
of the accumulator from eta (24 more).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import BlockSpinorField, CloverField, GaugeField
from .geometry import NDIM
from .projectors import N_COLOR, N_SPIN, SPINOR_LEN, apply_block_adjoint, compress

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


@dataclass
class FlopCounter:
    """Tally of structured complex operations executed by the kernels."""

    cmul: int = 0
    cadd: int = 0
    rmul: int = 0

    @property
    def total_flops(self) -> int:
        return 6 * self.cmul + 2 * self.cadd + 2 * self.rmul


def account_traffic(b: int) -> dict:
    """Per-site flop and byte ledger of one apply with b right-hand sides."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return {
        "flops_per_site": FLOPS_PER_SITE_RHS * b,
        "bytes_per_site": (VALUES_PER_SITE_RHS * b + VALUES_PER_SITE_FIXED) * BYTES_PER_VALUE,
    }


def _spin_view(field: BlockSpinorField) -> np.ndarray:
    """(n_sites, 4, 3, b) array of a full spinor field; may copy for Layout 1."""
    return field.ksi().reshape(field.n_sites, N_SPIN, N_COLOR, field.b)


def _check_field(psi: BlockSpinorField, gauge: GaugeField) -> None:
    if psi.s != SPINOR_LEN:
        raise ValueError(f"expected full spinor field (s={SPINOR_LEN}), got s={psi.s}")
    if psi.n_sites != gauge.geom.n_sites:
        raise ValueError(f"field has {psi.n_sites} sites, gauge lattice has {gauge.geom.n_sites}")


_DIAG6 = np.arange(6)


def site_blocks(params: DiracParams, clover: CloverField) -> np.ndarray:
    """(n_sites, 2, 6, 6) site-local blocks (4 + m0) I - C of the operator."""
    blocks = clover.blocks()
    np.negative(blocks, out=blocks)
    blocks[..., _DIAG6, _DIAG6] += 4.0 + params.m0
    return blocks


def apply_self_coupling(
    params: DiracParams,
    clover: CloverField,
    psi: BlockSpinorField,
    flops: FlopCounter | None = None,
) -> BlockSpinorField:
    """eta = ((4 + m0) I - C) psi, one batched product with two 6x6 blocks per site."""
    if psi.n_sites != clover.geom.n_sites:
        raise ValueError(f"field has {psi.n_sites} sites, clover has {clover.geom.n_sites}")
    if psi.s != SPINOR_LEN:
        raise ValueError(f"expected full spinor field (s={SPINOR_LEN}), got s={psi.s}")
    eta = BlockSpinorField.zeros_like(psi)
    n, b = psi.n_sites, psi.b
    np.matmul(site_blocks(params, clover), psi.ksi().reshape(n, 2, 6, b), out=eta.ksi().reshape(n, 2, 6, b))
    if flops is not None:
        flops.cmul += 72 * n * b  # two 6x6 block matvecs
        flops.cadd += 60 * n * b + 6 * n  # matvec adds; (4 + m0) onto 12 real diagonal entries
    return eta


# Destination sites per chunk of the hop sweep: about 2048 site-rhs pairs, so
# that the gathered spinors, half spinors and accumulator of one chunk stay
# inside L2, and at least 64 sites, so that the per-chunk numpy call overhead
# stays small at large b.
_CHUNK_SITE_RHS = 2048
_MIN_CHUNK_SITES = 64


def _count_hops(flops: FlopCounter | None, n: int, b: int) -> None:
    if flops is not None:
        per = n * b
        # per mu: two compressions (monomial swap, add, 1/2 scale), two 3x3
        # link multiplies of both spin halves, A^H on the difference and four
        # 6-component adds into the accumulator; then one 12-component
        # subtraction of the accumulator from eta
        flops.cmul += NDIM * (2 * 6 + 2 * 18 + 6) * per
        flops.cadd += NDIM * (2 * 6 + 2 * 12 + 4 * 6) * per + SPINOR_LEN * per
        flops.rmul += NDIM * 2 * 6 * per


def _half(spin_t: np.ndarray, sites: np.ndarray, mu: int, sign: int) -> np.ndarray:
    """Compressed (m, 3, 2, b) half spinors of the color-outer ``spin_t`` at ``sites``."""
    return compress(spin_t[sites], mu, sign, spin_axis=-2)


def _link_multiply(links: np.ndarray, half: np.ndarray) -> np.ndarray:
    """One batched ``links @ h``: (m, 3, 3) links times (m, 3, 2, b) half spinors."""
    m, _, _, b = half.shape
    return np.matmul(links, half.reshape(m, N_COLOR, 2 * b)).reshape(half.shape)


def _adjoint_hop(gauge: GaugeField, spin_t: np.ndarray, sites: np.ndarray, mu: int) -> np.ndarray:
    """U_mu^H(x) times the +mu-compressed psi(x) for every x in ``sites``.

    These values travel to x + mu^; the sweep and the halo posts both
    compute them here, so a value is bitwise the same on either path.
    """
    links = gauge.data[sites, mu]
    np.conjugate(links, out=links)
    return _link_multiply(links.swapaxes(1, 2), _half(spin_t, sites, mu, +1))


def _take_halo_rows(half: np.ndarray, face: np.ndarray, halo: np.ndarray, lo: int, hi: int) -> None:
    """Overwrite the rows of chunk [lo, hi) on the sorted ``face`` with their halo values."""
    j0, j1 = np.searchsorted(face, (lo, hi))
    half[face[j0:j1] - lo] = halo[j0:j1].swapaxes(1, 2)


def hop_stages(
    gauge: GaugeField,
    psi: BlockSpinorField,
    eta: BlockSpinorField,
    fwd: list[np.ndarray],
    back: list[np.ndarray],
    comm=None,
    boundary: dict | None = None,
    flops: FlopCounter | None = None,
    src_gauge: GaugeField | None = None,
):
    """Generator running the hop sweep of one rank, subtracting it from eta.

    ``fwd[mu]``/``back[mu]`` map each eta site to the psi index of its
    +mu/-mu neighbor.  The links multiplying the +mu side are read from
    ``gauge`` at eta's sites, those of the -mu side from ``src_gauge``
    (default ``gauge``) at psi's sites; the two differ only when psi and eta
    live on different site sets, as in the parity-to-parity hops of the
    even/odd Schur operator.

    Yields at the three phase barriers: the +mu-side half spinors of every
    -mu face posted; the link-multiplied -mu-side values of every +mu face
    posted; the +mu-side halos received.  The -mu-side halos are received
    and the sweep runs after the last barrier.  All posts come before any
    receive, which the sequential (phase lockstep) mode of the executor
    needs.  With a rank endpoint ``comm`` and its ``boundary`` face sets,
    ``fwd``/``back`` are the rank-local periodic tables and the sweep
    replaces the rows of the +mu face (resp. -mu face) by the halo values
    received from the +mu (resp. -mu) neighbor rank.  Halo payloads are
    (n_face, 2, 3, b) in ascending face order.
    """
    if src_gauge is None:
        src_gauge = gauge
    spin = _spin_view(psi)
    spin_t = spin.swapaxes(1, 2)  # (n_src, 3, 4, b) view: gathers come out color-outer
    if comm is not None:
        for mu in range(NDIM):
            comm.post_send(mu, -1, compress(spin[boundary[(mu, -1)]], mu, -1))
    yield

    if comm is not None:
        for mu in range(NDIM):
            face = boundary[(mu, 1)]
            comm.post_send(mu, +1, _adjoint_hop(src_gauge, spin_t, face, mu).swapaxes(1, 2))
    yield

    if comm is not None:
        fwd_halo = [comm.complete_recv(mu, -1) for mu in range(NDIM)]
    yield

    if comm is not None:
        back_halo = [comm.complete_recv(mu, +1) for mu in range(NDIM)]
    n, b = eta.n_sites, eta.b
    out = _spin_view(eta)
    step = max(_MIN_CHUNK_SITES, _CHUNK_SITE_RHS // b)
    acc_buf = np.empty((2, min(step, n), N_COLOR, 2, b), dtype=out.dtype)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        upper, lower = acc_buf[:, : hi - lo]
        upper.fill(0)
        lower.fill(0)
        for mu in range(NDIM):
            up = _half(spin_t, fwd[mu][lo:hi], mu, -1)
            if comm is not None:
                _take_halo_rows(up, boundary[(mu, 1)], fwd_halo[mu], lo, hi)
            up = _link_multiply(gauge.data[lo:hi, mu], up)
            down = _adjoint_hop(src_gauge, spin_t, back[mu][lo:hi], mu)
            if comm is not None:
                _take_halo_rows(down, boundary[(mu, -1)], back_halo[mu], lo, hi)
            # (I + gamma_mu)/2 reconstructs the +mu side to (h, A^H h) and
            # (I - gamma_mu)/2 the -mu side to (h, -A^H h)
            upper += up
            upper += down
            up -= down
            lower += apply_block_adjoint(up, mu, spin_axis=-2)
        out[lo:hi, :2] -= upper.swapaxes(1, 2)
        out[lo:hi, 2:] -= lower.swapaxes(1, 2)
    _count_hops(flops, n, b)


def subtract_hops(
    gauge: GaugeField,
    psi: BlockSpinorField,
    eta: BlockSpinorField,
    flops: FlopCounter | None = None,
    fwd: list[np.ndarray] | None = None,
    back: list[np.ndarray] | None = None,
    src_gauge: GaugeField | None = None,
) -> None:
    """Run the hop sweep of the stencil, subtracting it from eta in place.

    The single-rank apply: :func:`hop_stages` run to completion with no rank
    endpoint and, by default, the periodic neighbor tables of the whole
    lattice.  Passing ``fwd``/``back`` (both) and ``src_gauge`` restricts the
    sweep to other site sets: eta's sites carry the links of ``gauge``, psi's
    those of ``src_gauge``, and ``fwd[mu]``/``back[mu]`` give, for each eta
    site, the psi index of its +mu/-mu neighbor.
    """
    if fwd is None:
        _check_field(psi, gauge)
        geom = gauge.geom
        fwd = [geom.neighbor_table(mu, +1) for mu in range(NDIM)]
        back = [geom.neighbor_table(mu, -1) for mu in range(NDIM)]
    for _ in hop_stages(gauge, psi, eta, fwd, back, flops=flops, src_gauge=src_gauge):
        pass


def apply_dirac(
    params: DiracParams,
    gauge: GaugeField,
    clover: CloverField,
    psi: BlockSpinorField,
    comm=None,
    flops: FlopCounter | None = None,
) -> BlockSpinorField:
    """eta = D psi over all rhs columns; optionally through a communicator.

    ``comm`` is a rank context from the halo module; without one the apply
    reads neighbors directly through the periodic wrap.
    """
    if comm is not None:
        return comm.apply_dirac(params, gauge, clover, psi, flops=flops)
    _check_field(psi, gauge)
    eta = apply_self_coupling(params, clover, psi, flops=flops)
    subtract_hops(gauge, psi, eta, flops=flops)
    return eta
