"""In-process halo exchange over a simulated rank grid.

The communicator reproduces the send/receive pattern of the stencil apply
without any real transport: every (destination rank, direction mu, travel
step) channel is a capacity-one mailbox, and every rank runs on its own
worker thread.

Message flow per apply, for each direction mu with more than one rank:

* the +mu-side half spinors (compressed (I + gamma_mu)/2 psi) of the local
  -mu face travel one rank downward (step -1); the receiver uses them as the
  +mu-side half spinors of its own +mu face rows.
* the -mu-side half spinors (compressed (I - gamma_mu)/2 psi) of the local
  +mu face travel one rank upward (step +1); the receiver uses them as the
  -mu-side half spinors of its own -mu face rows.

Both streams carry half spinors, and no sender multiplies a link: each
receiver multiplies the received rows by its own hop matrices, whose
slot 2mu + 1 already holds W_mu(x - mu^)^T of the global -mu neighbor on
another rank.  A payload is (n_face, b, 2, 3) complex: rhs, spin, color,
in ascending face order.  That is the order in which the sweep holds half
spinors, so a payload is the sweep's own rows, and neither side
transposes it.  The receiver splits each face's rows over its sweep's
chunks once per apply and places them only in the chunks that hold some.

A rank posts both streams before it receives anything, so no rank waits on
a message that a waiting peer has yet to post, and completes its receives
right before the hop sweep that consumes them.  Channels with a single rank
in their direction degenerate to loopback mailboxes carrying empty
payloads, so the epoch audit stays uniform across grid shapes.

The multi-rank apply is bit-identical to the single-rank one because both
call the one hop sweep :func:`lqcdlab.dirac.subtract_hops`, each on a
:class:`lqcdlab.dirac.SiteRows` record of one
:class:`lqcdlab.dirac.DiracOperator` snapshot: each rank with the record of
its own sites (built from the global lattice, with its local periodic
tables and face sets) and its communicator, the single-rank apply with the
whole lattice's and none.  Each rank builds its record, gathers its psi
rows in row order (a Layout-1 field, so the sweep reads them without
another copy) and writes its eta rows out in eta's layout, all on its own
thread.  A rank's rows are the single-rank operator's rows of its sites
and the posted half spinors come from the same helper as the sweep's, so
every site sees the same operations in the same order.

A fault on one rank poisons every mailbox, so its peers stop at their next
receive instead of waiting out the timeout, and the executor re-raises it as
a :class:`RankFaultError` naming that rank.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
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


class _Mailbox:
    """Single-slot channel (``rank``, ``mu``, ``step``); one producer, one consumer.

    The slot holds the posted payload, (boundary sites, b, 2, 3) complex
    (rhs, spin, color) in ascending site order.
    """

    def __init__(self, rank: int, mu: int, step: int) -> None:
        self.rank, self.mu, self.step = rank, mu, step
        self._cond = threading.Condition()
        self._slot: np.ndarray | None = None
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

    def post(self, payload: np.ndarray) -> None:
        with self._cond:
            if self._slot is not None:
                raise RuntimeError(
                    f"duplicate post to rank {self.rank} channel "
                    f"(mu={self.mu}, dir={_STEP_NAME[self.step]}) in epoch {self._epoch}"
                )
            self._slot = payload
            self.posted += 1
            self._cond.notify()

    def take(self, timeout: float) -> np.ndarray:
        with self._cond:
            if not self._cond.wait_for(lambda: self._slot is not None or self._poisoned, timeout):
                raise HaloTimeoutError(self.rank, self.mu, self.step, timeout)
            if self._poisoned:
                raise _PeerFaulted(f"rank {self.rank} stopped: another rank faulted in epoch {self._epoch}")
            payload = self._slot
            self._slot = None
            self.consumed += 1
            return payload


@dataclass
class EpochStats:
    epoch: int
    rank: int
    wait_seconds: float


class CommunicatorSet:
    """All mailboxes of one rank grid plus the global epoch counter."""

    def __init__(self, grid: RankGrid, timeout: float = DEFAULT_TIMEOUT):
        self.grid = grid
        self.timeout = timeout
        self.epoch = 0
        self._boxes = {
            (rank, mu, step): _Mailbox(rank, mu, step)
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
        for comm in self._comms:
            comm._wait_seconds = 0.0
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

    @property
    def grid(self) -> RankGrid:
        return self.commset.grid

    def post_send(self, mu: int, step: int, payload: np.ndarray) -> None:
        """Non-blocking: hand a private copy of the payload to the (mu, step) neighbor's mailbox."""
        dst = self.grid.neighbor_rank(self.rank, mu, step)
        self.commset.box(dst, mu, step).post(np.array(payload, order="C"))

    def complete_recv(self, mu: int, step: int) -> np.ndarray:
        """Block until the (mu, step) payload for this rank arrives."""
        t0 = time.perf_counter()
        payload = self.commset.box(self.rank, mu, step).take(self.commset.timeout)
        self._wait_seconds += time.perf_counter() - t0
        return payload

    def end_epoch(self) -> EpochStats:
        return EpochStats(epoch=self.commset.epoch, rank=self.rank, wait_seconds=self._wait_seconds)


class MultiRankExecutor:
    """Runs the stencil apply over a simulated rank grid.

    Passing an instance as ``comm`` to :class:`lqcdlab.dirac.DiracOperator`
    (or to :func:`lqcdlab.dirac.apply_dirac`) routes the operator through
    here: the operator keeps one :class:`lqcdlab.dirac.SiteRows` record per
    rank, and :meth:`run_ranks` runs every rank's part of its build and of
    each apply on the rank's own thread.  Only the rank domains are cached,
    keyed on the lattice extents; every rank's record takes its tables from
    their common local geometry.
    :meth:`apply_dirac` builds a new operator on every call, so in-place
    updates of the fields take effect there; an operator built once (as a
    solve builds its own) keeps the fields as they were at its build.
    ``mode`` accepts only ``"threads"``, the one way ranks run.
    """

    def __init__(self, grid: RankGrid, mode: str = "threads", timeout: float = DEFAULT_TIMEOUT):
        if mode != "threads":
            raise ValueError(f"unknown execution mode {mode!r}; ranks run only on threads")
        self.grid = grid
        self.commset = CommunicatorSet(grid, timeout)
        self._domains: list[RankDomain] = []
        self._domain_dims: tuple | None = None
        self.last_stats: list[EpochStats] = []

    def domains(self, geom: LatticeGeometry) -> list[RankDomain]:
        """The rank domains of ``geom``, in rank order."""
        if self._domain_dims != geom.dims:
            self._domains = decompose(geom, self.grid)
            self._domain_dims = geom.dims
        return self._domains

    def run_ranks(self, work: Callable[[int, Communicator], None]) -> None:
        """Run ``work(rank, comm)`` for every rank on its own thread, in one new epoch.

        A rank that raises poisons the epoch, so its peers stop at their next
        receive, and the first fault is re-raised as :class:`RankFaultError`
        naming its rank.  On success ``last_stats`` holds every rank's epoch
        statistics.
        """
        faults: list[tuple[int, Exception]] = []

        def run(rank: int) -> None:
            try:
                work(rank, self.commset.rank_comm(rank))
            except Exception as exc:  # a rank thread reports its fault, then stops its peers
                faults.append((rank, exc))
                self.commset.poison()

        self.commset.begin_epoch()
        threads = [threading.Thread(target=run, args=(rank,), name=f"rank-{rank}") for rank in range(self.grid.n_ranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if faults:
            # peers stopped by the poison append after the fault that set it
            rank, exc = faults[0]
            raise RankFaultError(rank, exc) from exc
        self.last_stats = [self.commset.rank_comm(r).end_epoch() for r in range(self.grid.n_ranks)]

    def apply_dirac(
        self,
        params: _dirac.DiracParams,
        gauge: GaugeField,
        clover: CloverField,
        psi: BlockSpinorField,
    ) -> BlockSpinorField:
        """eta = D psi through the ranks: build a :class:`lqcdlab.dirac.DiracOperator` and apply it once."""
        return _dirac.DiracOperator(params, gauge, clover, comm=self)(psi)

