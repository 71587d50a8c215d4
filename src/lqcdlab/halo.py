"""In-process halo exchange over a simulated rank grid.

The communicator reproduces the send/compute/receive overlap of the stencil
apply without any real transport: every (destination rank, direction mu,
travel step) channel is a capacity-one mailbox, and ranks run either
sequentially in phase lockstep or on one worker thread each.

Message flow per apply, for each direction mu with more than one rank:

* the +mu-side half spinors (compressed (I + gamma_mu)/2 psi) of the local
  -mu face travel one rank downward (step -1); the receiver uses them as the
  +mu-side half spinors of its own +mu face rows.
* the -mu-side values (U_mu^H times the compressed (I - gamma_mu)/2 psi) of
  the local +mu face travel one rank upward (step +1); the receiver uses
  them as the -mu-side values of its own -mu face rows.

Both streams are posted before any receive and completed right before the
hop sweep that consumes them.  Channels with a single rank in their
direction degenerate to loopback mailboxes carrying empty payloads, so the
epoch audit stays uniform across grid shapes.

The multi-rank apply is bit-identical to the single-rank one because both
run the one stage generator :func:`lqcdlab.dirac.hop_stages`: each rank
drives it with its own neighbor tables and communicator, the single-rank
apply with the periodic tables and none.  Rank-local slices only permute the
site axis and the posted values come from the same helpers as the sweep's,
so every site sees the same operations in the same order.

A fault on one rank poisons every mailbox, so its peers stop at their next
receive instead of waiting out the timeout, and the executor re-raises it as
a :class:`RankFaultError` naming that rank.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from . import dirac as _dirac
from .fields import BlockSpinorField, CloverField, GaugeField
from .geometry import NDIM, LatticeGeometry, RankDomain, RankGrid, decompose

DEFAULT_TIMEOUT = 5.0

_STEP_NAME = {1: "+", -1: "-"}


class HaloTimeoutError(RuntimeError):
    """No matching message arrived; names the starving channel."""

    def __init__(self, rank: int, mu: int, step: int, timeout: float):
        self.rank = rank
        self.mu = mu
        self.step = step
        super().__init__(
            f"no message for rank {rank} on channel (mu={mu}, dir={_STEP_NAME[step]}) "
            f"after {timeout:.1f} s; matching send was never posted"
        )


class RankFaultError(RuntimeError):
    """A rank of the executor raised; names the rank and chains its exception."""

    def __init__(self, rank: int, error: BaseException):
        self.rank = rank
        super().__init__(f"rank {rank} failed: {type(error).__name__}: {error}")


class _PeerFaulted(RuntimeError):
    """Raised in a rank whose receive was cut short by a fault on another rank."""


@dataclass
class HaloMessage:
    src_rank: int
    dst_rank: int
    mu: int
    step: int
    payload: np.ndarray  # (boundary sites, 2, 3, b) complex, ascending site order


class _Mailbox:
    """Single-slot channel; one producer, one consumer."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._slot: HaloMessage | None = None
        self._epoch = -1
        self._poisoned = False
        self.posted = 0
        self.consumed = 0

    def reset(self, epoch: int) -> None:
        with self._cond:
            self._slot = None
            self._epoch = epoch
            self._poisoned = False

    def poison(self) -> None:
        """Wake the consumer and make every further take in this epoch raise."""
        with self._cond:
            self._poisoned = True
            self._cond.notify_all()

    def post(self, msg: HaloMessage) -> None:
        with self._cond:
            if self._slot is not None:
                raise RuntimeError(
                    f"duplicate post to rank {msg.dst_rank} channel "
                    f"(mu={msg.mu}, dir={_STEP_NAME[msg.step]}) in epoch {self._epoch}"
                )
            self._slot = msg
            self.posted += 1
            self._cond.notify()

    def take(self, rank: int, mu: int, step: int, timeout: float) -> HaloMessage:
        with self._cond:
            if not self._cond.wait_for(lambda: self._slot is not None or self._poisoned, timeout):
                raise HaloTimeoutError(rank, mu, step, timeout)
            if self._poisoned:
                raise _PeerFaulted(f"rank {rank} stopped: another rank faulted in epoch {self._epoch}")
            msg = self._slot
            self._slot = None
            self.consumed += 1
            return msg


@dataclass
class EpochStats:
    epoch: int
    rank: int
    wait_seconds: float
    compute_seconds: float

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "rank": self.rank,
            "wait_seconds": self.wait_seconds,
            "compute_seconds": self.compute_seconds,
        }


class CommunicatorSet:
    """All mailboxes of one rank grid plus the global epoch counter."""

    def __init__(self, grid: RankGrid, timeout: float = DEFAULT_TIMEOUT):
        self.grid = grid
        self.timeout = timeout
        self.epoch = 0
        self._boxes = {
            (rank, mu, step): _Mailbox()
            for rank in range(grid.n_ranks)
            for mu in range(NDIM)
            for step in (1, -1)
        }
        self._comms = [Communicator(self, rank) for rank in range(grid.n_ranks)]

    def rank_comm(self, rank: int) -> "Communicator":
        return self._comms[rank]

    def begin_epoch(self) -> int:
        """Advance the global epoch; clears every channel and all rank stats."""
        self.epoch += 1
        for box in self._boxes.values():
            box.reset(self.epoch)
        now = time.perf_counter()
        for comm in self._comms:
            comm._begin_epoch(now)
        return self.epoch

    def poison(self) -> None:
        """Stop every rank at its next receive of this epoch (a peer faulted)."""
        for box in self._boxes.values():
            box.poison()

    def box(self, rank: int, mu: int, step: int) -> _Mailbox:
        return self._boxes[(rank, mu, step)]

    def audit(self) -> dict:
        """Per-channel (posted, consumed) counters accumulated over all epochs."""
        return {key: (box.posted, box.consumed) for key, box in self._boxes.items()}


class Communicator:
    """One rank's endpoint: routed sends, blocking receives, wait accounting."""

    def __init__(self, commset: CommunicatorSet, rank: int):
        self.commset = commset
        self.rank = rank
        self._wait_seconds = 0.0
        self._epoch_start = time.perf_counter()
        self._last_stats: EpochStats | None = None

    @property
    def grid(self) -> RankGrid:
        return self.commset.grid

    def _begin_epoch(self, now: float) -> None:
        self._wait_seconds = 0.0
        self._epoch_start = now

    def post_send(self, mu: int, step: int, payload: np.ndarray) -> HaloMessage:
        """Non-blocking: hand the payload to the (mu, step) neighbor's mailbox."""
        dst = self.grid.neighbor_rank(self.rank, mu, step)
        msg = HaloMessage(self.rank, dst, mu, step, np.ascontiguousarray(payload).copy())
        self.commset.box(dst, mu, step).post(msg)
        return msg

    def complete_recv(self, mu: int, step: int) -> np.ndarray:
        """Block until the (mu, step) message for this rank arrives."""
        t0 = time.perf_counter()
        msg = self.commset.box(self.rank, mu, step).take(self.rank, mu, step, self.commset.timeout)
        self._wait_seconds += time.perf_counter() - t0
        return msg.payload

    def end_epoch(self) -> EpochStats:
        elapsed = time.perf_counter() - self._epoch_start
        self._last_stats = EpochStats(
            epoch=self.commset.epoch,
            rank=self.rank,
            wait_seconds=self._wait_seconds,
            compute_seconds=max(elapsed - self._wait_seconds, 0.0),
        )
        return self._last_stats

    def exchange_epoch_stats(self) -> EpochStats | None:
        """Stats of the last finished epoch (None before the first one)."""
        return self._last_stats


@dataclass
class _RankPlan:
    """Geometry-derived gather tables of one rank, reused across applies."""

    domain: RankDomain
    # per mu: rank-local periodic neighbor tables; hop_stages replaces the
    # face rows they get wrong with the received halo values
    fwd: list[np.ndarray]
    back: list[np.ndarray]


class MultiRankExecutor:
    """Runs the stencil apply over a simulated rank grid.

    Accepts whole-lattice fields, splits them by ownership, executes every
    rank (sequentially in phase lockstep, or one thread per rank), and merges
    the local results.  Passing an instance as ``comm`` to
    :func:`lqcdlab.dirac.apply_dirac` routes the apply through here.  Only
    the geometry-derived tables are cached; the gauge and clover slices are
    gathered on every apply, so in-place updates of the fields take effect.
    """

    def __init__(self, grid: RankGrid, mode: str = "sequential", timeout: float = DEFAULT_TIMEOUT):
        if mode not in ("sequential", "threads"):
            raise ValueError(f"unknown execution mode {mode!r}")
        self.grid = grid
        self.mode = mode
        self.commset = CommunicatorSet(grid, timeout)
        self._plans: list[_RankPlan] | None = None
        self._plan_dims: tuple | None = None
        self.last_stats: list[EpochStats] = []

    def _plans_for(self, geom: LatticeGeometry) -> list[_RankPlan]:
        if self._plan_dims != geom.dims:
            self._plans = []
            for dom in decompose(geom, self.grid):
                local = dom.local_geom
                fwd = [local.neighbor_table(mu, +1) for mu in range(NDIM)]
                back = [local.neighbor_table(mu, -1) for mu in range(NDIM)]
                self._plans.append(_RankPlan(dom, fwd, back))
            self._plan_dims = geom.dims
        return self._plans

    def apply_dirac(
        self,
        params: _dirac.DiracParams,
        gauge: GaugeField,
        clover: CloverField,
        psi: BlockSpinorField,
        flops: _dirac.FlopCounter | None = None,
    ) -> BlockSpinorField:
        if psi.n_sites != gauge.geom.n_sites:
            raise ValueError(f"field has {psi.n_sites} sites, lattice has {gauge.geom.n_sites}")
        plans = self._plans_for(gauge.geom)
        psi_view = psi.ksi()
        locals_psi = []
        for plan in plans:
            loc = BlockSpinorField.zeros(
                plan.domain.local_geom.n_sites, psi.b, psi.layout, psi.s, plan.domain.local_geom
            )
            loc.set_ksi(psi_view[plan.domain.global_sites])
            locals_psi.append(loc)

        self.commset.begin_epoch()
        runners = [
            self._rank_phases(plan, self.commset.rank_comm(plan.domain.rank), params, gauge, clover, loc, flops)
            for plan, loc in zip(plans, locals_psi)
        ]
        results: list[BlockSpinorField | None] = [None] * len(plans)

        if self.mode == "sequential":
            live = list(enumerate(runners))
            while live:
                still = []
                for idx, gen in live:
                    try:
                        next(gen)
                        still.append((idx, gen))
                    except StopIteration as stop:
                        results[idx] = stop.value
                    except Exception as exc:
                        raise RankFaultError(idx, exc) from exc
                live = still
        else:
            faults: list[tuple[int, Exception]] = []

            def drive(idx: int, gen) -> None:
                try:
                    while True:
                        next(gen)
                except StopIteration as stop:
                    results[idx] = stop.value
                except Exception as exc:  # a rank thread reports its fault, then stops its peers
                    faults.append((idx, exc))
                    self.commset.poison()

            threads = [
                threading.Thread(target=drive, args=(idx, gen), name=f"rank-{idx}")
                for idx, gen in enumerate(runners)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if faults:
                # peers stopped by the poison append after the fault that set it
                idx, exc = faults[0]
                raise RankFaultError(idx, exc) from exc

        self.last_stats = [self.commset.rank_comm(r).end_epoch() for r in range(self.grid.n_ranks)]

        eta = BlockSpinorField.zeros_like(psi)
        ev = eta.ksi()
        for plan, res in zip(plans, results):
            ev[plan.domain.global_sites] = res.ksi()
        return eta

    def _rank_phases(
        self,
        plan: _RankPlan,
        comm: Communicator,
        params: _dirac.DiracParams,
        gauge: GaugeField,
        clover: CloverField,
        psi: BlockSpinorField,
        flops: _dirac.FlopCounter | None,
    ):
        """Generator running one rank's apply; yields at phase barriers."""
        dom = plan.domain
        local_gauge = GaugeField(dom.local_geom, gauge.data[dom.global_sites])
        local_clover = CloverField(dom.local_geom, clover.data[dom.global_sites])
        eta = _dirac.apply_self_coupling(params, local_clover, psi, flops=flops)
        yield from _dirac.hop_stages(
            local_gauge, psi, eta, plan.fwd, plan.back, comm, dom.boundary, flops=flops
        )
        return eta


def apply_dirac_multirank(
    params: _dirac.DiracParams,
    gauge: GaugeField,
    clover: CloverField,
    psi: BlockSpinorField,
    grid: RankGrid,
    mode: str = "sequential",
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[BlockSpinorField, MultiRankExecutor]:
    """One-shot multi-rank apply; returns the result and the executor (stats)."""
    ex = MultiRankExecutor(grid, mode=mode, timeout=timeout)
    return ex.apply_dirac(params, gauge, clover, psi), ex
