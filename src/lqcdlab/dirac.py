"""Clover Wilson-Dirac operator with the rhs loop fused into the site loop.

The apply runs in the staged order of the stencil:

    eta(x)  <-  (4 + m0) psi(x) - C(x) psi(x)                    self coupling
    lam_mu(x)  <-  compressed (I + gamma_mu)/2 psi(x)            per mu
    chi_mu(x + mu^)  <-  U_mu^H(x) compressed (I - gamma_mu)/2 psi(x)
    eta(x)  -=  reconstruct[ U_mu(x) lam_mu(x + mu^) ]           per mu
    eta(x)  -=  reconstruct[ chi_mu(x) ]                         per mu

with every lam/chi workspace materialized for all four directions before the
accumulation stages run.  One generator, :func:`hop_stages`, defines this
order for the four hop stages.  The single-rank apply runs it to completion
with the periodic neighbor tables; the multi-rank executor (halo module)
runs it once per rank with the rank's tables and communicator, so halo sends
are posted after each workspace is built and receives completed right
before the consuming accumulation.  Both therefore perform the same numpy
operations in the same order on the same per-site values; rank-local fields
only permute the site axis, which is why the multi-rank result is bitwise
equal to the single-rank one.  The even/odd Schur operator (oddeven module)
runs the same stages on half-lattice fields, with cross-parity tables.

Per-mu half-spinor compression keeps 6 of 12 components; the reconstruction
restores the other 6 from the monomial spin blocks.  Flop accounting follows
the structured operations actually performed: a complex multiply costs 6
flops, a complex add 2, a real-by-complex scale 2.
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


def apply_self_coupling(
    params: DiracParams,
    clover: CloverField,
    psi: BlockSpinorField,
    flops: FlopCounter | None = None,
) -> BlockSpinorField:
    """eta = (4 + m0) psi - C psi with C as two 6x6 Hermitian blocks per site."""
    if psi.n_sites != clover.geom.n_sites:
        raise ValueError(f"field has {psi.n_sites} sites, clover has {clover.geom.n_sites}")
    if psi.s != SPINOR_LEN:
        raise ValueError(f"expected full spinor field (s={SPINOR_LEN}), got s={psi.s}")
    eta = BlockSpinorField.zeros_like(psi)
    halves = psi.ksi().reshape(psi.n_sites, 2, 6, psi.b)
    coupled = np.einsum("xpkl,xplb->xpkb", clover.blocks(), halves)
    eta.set_ksi((4.0 + params.m0) * psi.ksi() - coupled.reshape(psi.n_sites, SPINOR_LEN, psi.b))
    if flops is not None:
        per = psi.n_sites * psi.b
        flops.cmul += 72 * per  # two 6x6 block matvecs
        flops.cadd += (60 + 12) * per  # matvec adds + final subtraction
        flops.rmul += 12 * per  # (4+m0) scale
    return eta




def _subtract_reconstruction(eta: BlockSpinorField, half: np.ndarray, mu: int, sign: int) -> None:
    ev = eta.ksi()
    n, b = eta.n_sites, eta.b
    ev[:, :6, :] -= half.reshape(n, 6, b)
    lower = -sign * apply_block_adjoint(half, mu)
    ev[:, 6:, :] -= lower.reshape(n, 6, b)


def _count_hops(flops: FlopCounter | None, n: int, b: int) -> None:
    if flops is not None:
        per = NDIM * n * b
        flops.cmul += (2 * 6 + 2 * 18 + 2 * 6) * per   # monomial blocks, link multiplies, adjoint blocks
        flops.cadd += (2 * 6 + 2 * 12 + 2 * 12) * per  # compression, link multiplies, subtractions into eta
        flops.rmul += 2 * 6 * per                      # factor 1/2 of both compressions


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
    """Generator running the four hop stages of one rank, subtracting into eta.

    Yields at the three phase barriers: all lam built and their faces posted;
    all chi built and their faces posted; the link-multiplied accumulations
    done, mu ascending.  The adjoint-link accumulations run after the last
    barrier.  ``fwd[mu]``/``back[mu]`` map each local site to its +mu/-mu
    neighbor.  With a rank endpoint ``comm`` and its ``boundary`` face sets,
    ``fwd`` sends +mu face sites past the end of the local field, into the lam
    halo received from the +mu neighbor rank, and the chi values received
    from the -mu neighbor rank replace the -mu face.

    The link multiplies read ``gauge`` at eta's sites and the chi stage reads
    ``src_gauge`` (default ``gauge``) at psi's sites; the two differ only when
    psi and eta live on different site sets, as in the parity-to-parity hops
    of the even/odd Schur operator.
    """
    if src_gauge is None:
        src_gauge = gauge
    spin = _spin_view(psi)
    lam = [compress(spin, mu, -1) for mu in range(NDIM)]
    if comm is not None:
        for mu in range(NDIM):
            comm.post_send(mu, -1, lam[mu][boundary[(mu, -1)]])
    yield

    chi = []
    for mu in range(NDIM):
        # computed at the source site x, consumed at x + mu^
        vals = np.einsum("xdc,xsdb->xscb", src_gauge.mu(mu).conj(), compress(spin, mu, +1))
        chi.append(vals[back[mu]])
        if comm is not None:
            comm.post_send(mu, +1, vals[boundary[(mu, 1)]])
    yield

    for mu in range(NDIM):
        ext = lam[mu]
        if comm is not None:
            halo = comm.complete_recv(mu, -1)
            if len(halo):
                ext = np.concatenate([ext, halo], axis=0)
        moved = np.einsum("xcd,xsdb->xscb", gauge.mu(mu), ext[fwd[mu]])
        _subtract_reconstruction(eta, moved, mu, -1)
    yield

    for mu in range(NDIM):
        if comm is not None:
            halo = comm.complete_recv(mu, +1)
            if len(halo):
                chi[mu][boundary[(mu, -1)]] = halo
        _subtract_reconstruction(eta, chi[mu], mu, +1)
    _count_hops(flops, eta.n_sites, eta.b)


def subtract_hops(
    gauge: GaugeField,
    psi: BlockSpinorField,
    eta: BlockSpinorField,
    flops: FlopCounter | None = None,
    fwd: list[np.ndarray] | None = None,
    back: list[np.ndarray] | None = None,
    src_gauge: GaugeField | None = None,
) -> None:
    """Run all four hop stages of the stencil, subtracting into eta in place.

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
