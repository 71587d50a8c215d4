"""In-process halo exchange over a simulated rank grid.

The communicator reproduces the send/receive pattern of the stencil apply
without any real transport: every (destination rank, direction mu, travel
step) channel is a capacity-one mailbox, and every rank runs on its own
worker thread.  The workers are persistent, one per rank, started on an
executor's first run, shared by the executors of as many ranks that are
alive together, and stopped once the last of them is dropped.  Where
the process may run on exactly as many CPUs as there are ranks, each
worker is pinned to a CPU of its own.  (On a 2-vCPU VM, fresh threads per
apply put both ranks of a two-rank complex64 b = 16 apply on one vCPU in
25 to 35 of 60 applies, which then took 1.6 to 1.8 times as long.)
Between applies the executor lends its workers to the
solver (:meth:`MultiRankExecutor.share`), which splits its Gram-Schmidt
columns over them (gmres module).

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
whole lattice's and none.  Each rank builds its record and runs
:func:`lqcdlab.dirac.apply_rows` on it, on its own worker: that gathers its
psi rows in row order (a Layout-1 field, so the sweep reads them without
another copy) and writes its eta rows out in eta's layout.  A rank's rows
are the single-rank operator's rows of its sites and the posted half
spinors come from the same helper as the sweep's, so every site sees the
same operations in the same order.

A fault on one rank poisons every mailbox, so its peers stop at their next
receive instead of waiting out the timeout, and the executor re-raises it as
a :class:`RankFaultError` naming that rank.
"""

from __future__ import annotations

import functools
import os
import queue
import threading
import time
import weakref
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

    def __init__(self, grid: RankGrid):
        self.grid = grid
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
        payload = self.commset.box(self.rank, mu, step).take(DEFAULT_TIMEOUT)
        self._wait_seconds += time.perf_counter() - t0
        return payload

    def end_epoch(self) -> EpochStats:
        return EpochStats(epoch=self.commset.epoch, rank=self.rank, wait_seconds=self._wait_seconds)


def _rank_cpus(n: int) -> list[int] | None:
    """The CPU rank r's worker is pinned to, for each of ``n`` ranks; ``None`` leaves the workers to the scheduler.

    Only where the process may run on exactly ``n`` CPUs, more than one,
    are the workers pinned, rank r's to the r-th.  With more CPUs than
    ranks the same rule would put rank 0 of every process on one CPU while
    others idle, and that case has not been measured.
    """
    if n < 2 or not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) == n else None


def _rank_worker(inbox: queue.SimpleQueue, cpu: int | None) -> None:
    """Body of one rank's persistent worker thread: run tasks until a ``None`` arrives.

    It holds its inbox and nothing else between tasks, so an idle worker
    keeps neither its executor nor the closures of its last run alive.
    """
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})  # pid 0: this thread only
        except OSError:  # a CPU the process may not use after all: the worker stays unpinned
            pass
    while True:
        task = inbox.get()
        if task is None:
            return
        task()
        del task


def _stop_workers(inboxes: list) -> None:
    for inbox in inboxes:
        inbox.put(None)


class _RankWorkers:
    """One persistent worker thread per rank, shared by every live executor of as many ranks.

    Each thread that allocates gets a malloc arena of its own, which keeps
    memory freed into it for reuse, so threads per executor would cost
    memory per executor: with a second two-rank executor alive beside the
    solve's (as the benchmark's repeated set-up keeps one), four rank
    threads raised the tworank-b16 ``peak_rss_mb`` from 211.6 to 259.1 MB
    (one pair of benchmark runs, 2-vCPU VM); shared, they leave it at the
    parent's level.  The threads stop once the last executor holding them
    is dropped.

    The workers are pinned as :func:`_rank_cpus` says.  One set of
    tasks runs at a time; a caller that holds the workers already, or is
    one of them, is refused, since waiting would deadlock.
    """

    _live: "weakref.WeakValueDictionary[int, _RankWorkers]" = weakref.WeakValueDictionary()
    _live_lock = threading.Lock()

    def __init__(self, n: int):
        cpus = _rank_cpus(n)
        self.inboxes = [queue.SimpleQueue() for _ in range(n)]
        self.threads = [threading.Thread(target=_rank_worker, args=(inbox, cpus[rank] if cpus else None),
                                         name=f"rank-{rank}", daemon=True)
                        for rank, inbox in enumerate(self.inboxes)]
        self._lock = threading.Lock()
        self._holder: int | None = None
        weakref.finalize(self, _stop_workers, self.inboxes)
        for thread in self.threads:
            thread.start()

    @classmethod
    def shared(cls, n: int) -> "_RankWorkers":
        """The workers of the live executors of ``n`` ranks, started if there are none."""
        with cls._live_lock:
            workers = cls._live.get(n)
            if workers is None:
                workers = cls._live[n] = cls(n)
            return workers

    def run(self, task: Callable[[int], None], first_on_caller: bool) -> None:
        """Run ``task(r)`` on rank r's worker for every rank r (rank 0 on this thread if ``first_on_caller``); wait for all.

        ``task`` must not raise.
        """
        if self._holder == threading.get_ident() or threading.current_thread() in self.threads:
            raise RuntimeError("run_ranks and share do not nest: the rank workers are already running this caller's run")
        with self._lock:
            self._holder = threading.get_ident()
            try:
                done: queue.SimpleQueue = queue.SimpleQueue()

                def run(rank: int) -> None:
                    try:
                        task(rank)
                    finally:
                        done.put(rank)

                remote = range(int(first_on_caller), len(self.inboxes))
                for rank in remote:
                    self.inboxes[rank].put(functools.partial(run, rank))
                try:
                    if first_on_caller:
                        task(0)
                finally:
                    for _ in remote:
                        done.get()
            finally:
                self._holder = None


class MultiRankExecutor:
    """Runs the stencil apply over a simulated rank grid, one persistent worker thread per rank.

    Passing an instance as ``comm`` to :class:`lqcdlab.dirac.DiracOperator`
    (or to :func:`lqcdlab.dirac.apply_dirac`) routes the operator through
    here: the operator keeps one :class:`lqcdlab.dirac.SiteRows` record per
    rank, and :meth:`run_ranks` runs every rank's part of its build and of
    each apply on the rank's worker.  Only the rank domains are cached,
    keyed on the lattice extents; every rank's record takes its tables from
    their common local geometry.
    :meth:`apply_dirac` builds a new operator on every call, so in-place
    updates of the fields take effect there; an operator built once (as a
    solve builds its own) keeps the fields as they were at its build.
    ``mode`` accepts only ``"threads"``, the one way ranks run.

    The workers are started on first use and shared with every other live
    executor of as many ranks; they stop once the last of them is dropped
    (they hold no reference to any executor between runs).  When the CPUs
    the process may run on (``os.sched_getaffinity``) number exactly the
    ranks, and there is more than one rank, rank r's worker is pinned to
    the r-th of them, so two ranks never share a CPU while another idles;
    otherwise no worker is pinned.  The calling thread is never pinned.
    :meth:`share` lends the workers to other work between applies: the
    solver splits its Gram-Schmidt columns over them (gmres module).
    The workers run one call at a time: :meth:`run_ranks` or :meth:`share`
    called again from inside a run (from a worker, or from the caller's
    own share 0), where waiting would deadlock, raises ``RuntimeError``;
    a call from another thread waits for the run to end.
    """

    def __init__(self, grid: RankGrid, mode: str = "threads"):
        if mode != "threads":
            raise ValueError(f"unknown execution mode {mode!r}; ranks run only on threads")
        self.grid = grid
        self.commset = CommunicatorSet(grid)
        self._domains: list[RankDomain] = []
        self._domain_dims: tuple | None = None
        self.last_stats: list[EpochStats] = []
        self._workers: _RankWorkers | None = None

    def domains(self, geom: LatticeGeometry) -> list[RankDomain]:
        """The rank domains of ``geom``, in rank order."""
        if self._domain_dims != geom.dims:
            self._domains = decompose(geom, self.grid)
            self._domain_dims = geom.dims
        return self._domains

    def _run(self, task: Callable[[int], None], first_on_caller: bool = False, on_fault=None) -> None:
        """Run ``task(r)`` for every rank r on its worker (rank 0 on this thread if ``first_on_caller``); wait for all.

        A rank whose task raises calls ``on_fault()``; once every rank has
        ended, the first fault is re-raised as :class:`RankFaultError`
        naming its rank, or as itself if it is no ``Exception``.
        """
        if self._workers is None:
            self._workers = _RankWorkers.shared(self.grid.n_ranks)
        faults: list[tuple[int, BaseException]] = []

        def attempt(rank: int) -> None:
            try:
                task(rank)
            except BaseException as exc:  # the caller re-raises it; no fault ends a worker
                faults.append((rank, exc))
                if on_fault is not None:
                    on_fault()

        self._workers.run(attempt, first_on_caller)
        if faults:
            # with on_fault set, peers it stopped append after the fault that called it
            rank, exc = faults[0]
            if not isinstance(exc, Exception):  # SystemExit, KeyboardInterrupt: raised as they are
                raise exc
            raise RankFaultError(rank, exc) from exc

    def run_ranks(self, work: Callable[[int, Communicator], None]) -> None:
        """Run ``work(rank, comm)`` for every rank on its worker, in one new epoch.

        A rank that raises poisons the epoch, so its peers stop at their next
        receive, and the first fault is re-raised as :class:`RankFaultError`
        naming its rank (one that is no ``Exception`` as itself).  On success ``last_stats`` holds every rank's epoch
        statistics.
        """
        commset = self.commset
        commset.begin_epoch()
        self._run(lambda rank: work(rank, commset.rank_comm(rank)), on_fault=commset.poison)
        self.last_stats = [commset.rank_comm(r).end_epoch() for r in range(self.grid.n_ranks)]

    def share(self, work: Callable[[int, int], None]) -> None:
        """Run ``work(i, n)`` for every share i < n = ``grid.n_ranks``: share 0 on this thread, share i on rank i's worker.

        The shares run at once and exchange no messages; each must write
        only what no other share reads or writes.  A share that raises is
        re-raised, once every share has ended, as :class:`RankFaultError`
        naming it (a fault that is no ``Exception`` as itself).
        """
        n = self.grid.n_ranks
        self._run(lambda i: work(i, n), first_on_caller=True)

    def apply_dirac(
        self,
        params: _dirac.DiracParams,
        gauge: GaugeField,
        clover: CloverField,
        psi: BlockSpinorField,
    ) -> BlockSpinorField:
        """eta = D psi through the ranks: build a :class:`lqcdlab.dirac.DiracOperator` and apply it once."""
        return _dirac.DiracOperator(params, gauge, clover, comm=self)(psi)

