import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lqcdlab import dirac, halo
from lqcdlab.dirac import DiracOperator, DiracParams, apply_dirac
from lqcdlab.fields import Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry, RankGrid
from lqcdlab.gmres import GmresConfig, solve_dirac
from lqcdlab.halo import (
    DEFAULT_TIMEOUT,
    CommunicatorSet,
    HaloTimeoutError,
    MultiRankExecutor,
    RankFaultError,
)

GRIDS = [(2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (1, 1, 1, 1), (2, 2, 2, 2)]
# threads is the only execution mode; passing it explicitly, as the benchmark
# does, keeps these tests on the construction the benchmark measures
MODES = ["threads"]


@pytest.fixture(scope="module")
def problem():
    geom = LatticeGeometry((8, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=51)
    clover = gen_clover(geom, "random", scale=0.1, seed=52)
    params = DiracParams(m0=-0.5)
    psi = gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=53, geom=geom)
    eta_single = apply_dirac(params, gauge, clover, psi)
    return geom, gauge, clover, params, psi, eta_single


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("mode", MODES)
def test_multirank_matches_single_rank_bitwise(problem, grid, mode):
    _, gauge, clover, params, psi, eta_single = problem
    eta = MultiRankExecutor(RankGrid(grid), mode=mode).apply_dirac(params, gauge, clover, psi)
    assert np.array_equal(eta.data, eta_single.data)


@pytest.mark.parametrize("mode", MODES)
def test_executor_sees_in_place_field_refresh(mode):
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=54)
    clover = gen_clover(geom, "random", scale=0.1, seed=55)
    params = DiracParams(m0=-0.5)
    psi = gen_spinor(geom.n_sites, 2, Layout.COMPONENT_MAJOR, seed=56, geom=geom)
    ex = MultiRankExecutor(RankGrid((2, 1, 1, 1)), mode=mode)
    ex.apply_dirac(params, gauge, clover, psi)
    gauge.data[...] = gen_gauge(geom, "random", seed=57).data
    clover.data[...] = gen_clover(geom, "random", scale=0.1, seed=58).data
    eta = ex.apply_dirac(params, gauge, clover, psi)
    assert np.array_equal(eta.data, apply_dirac(params, gauge, clover, psi).data)


def test_executor_reusable_and_stats(problem):
    _, gauge, clover, params, psi, eta_single = problem
    ex = MultiRankExecutor(RankGrid((2, 2, 1, 1)))
    for _ in range(2):
        eta = ex.apply_dirac(params, gauge, clover, psi)
        assert np.array_equal(eta.data, eta_single.data)
    assert len(ex.last_stats) == 4
    epochs = {s.epoch for s in ex.last_stats}
    assert len(epochs) == 1
    for s in ex.last_stats:
        assert s.wait_seconds >= 0


def test_channel_audit_balances(problem):
    _, gauge, clover, params, psi, _ = problem
    ex = MultiRankExecutor(RankGrid((2, 1, 1, 1)))
    ex.apply_dirac(params, gauge, clover, psi)
    for (rank, mu, step), (posted, consumed) in ex.commset.audit().items():
        assert posted == consumed == 1, (rank, mu, step)


def test_epoch_stats_exchange():
    grid = RankGrid((2, 1, 1, 1))
    cs = CommunicatorSet(grid)
    comm = cs.rank_comm(0)
    cs.begin_epoch()
    cs.rank_comm(1).post_send(0, 1, np.zeros((1, 2, 3, 1), dtype=np.complex128))
    comm.complete_recv(0, 1)
    stats = comm.end_epoch()
    assert stats.rank == 0 and stats.epoch == 1
    assert stats.wait_seconds >= 0


def test_recv_timeout_names_channel(monkeypatch):
    monkeypatch.setattr(halo, "DEFAULT_TIMEOUT", 0.05)
    cs = CommunicatorSet(RankGrid((2, 1, 1, 1)))
    cs.begin_epoch()
    with pytest.raises(HaloTimeoutError) as err:
        cs.rank_comm(1).complete_recv(2, -1)
    msg = str(err.value)
    assert "rank 1" in msg and "mu=2" in msg


def test_duplicate_post_rejected():
    cs = CommunicatorSet(RankGrid((2, 1, 1, 1)))
    cs.begin_epoch()
    payload = np.zeros((1, 2, 3, 1), dtype=np.complex128)
    cs.rank_comm(0).post_send(1, 1, payload)
    with pytest.raises(RuntimeError, match="duplicate post"):
        cs.rank_comm(0).post_send(1, 1, payload)


@pytest.mark.parametrize("transposed", [False, True])
def test_received_payload_is_a_private_copy(transposed):
    # the receiver must not see later writes of the sender, whether the
    # posted array is contiguous or a transposed view
    cs = CommunicatorSet(RankGrid((2, 1, 1, 1)))
    cs.begin_epoch()
    base = np.arange(24, dtype=np.complex128).reshape(2, 3, 4, 1)
    payload = base.swapaxes(1, 2) if transposed else base
    expect = payload.copy()
    cs.rank_comm(0).post_send(0, 1, payload)
    base[...] = -1
    got = cs.rank_comm(1).complete_recv(0, 1)
    assert not np.shares_memory(got, base)
    assert got.flags.c_contiguous
    assert np.array_equal(got, expect)


def test_payload_shape(problem):
    # boundary messages carry (n_boundary, b, 2, 3) half-spinor values (rhs,
    # spin, color), the sweep's own row order; undivided directions still
    # post, with empty payloads
    _, gauge, clover, params, psi, _ = problem
    ex = MultiRankExecutor(RankGrid((2, 1, 1, 1)))
    seen = []
    orig_post = ex.commset.rank_comm(0).post_send

    def spy(mu, step, payload):
        seen.append((mu, step, payload.shape))
        return orig_post(mu, step, payload)

    ex.commset.rank_comm(0).post_send = spy
    ex.apply_dirac(params, gauge, clover, psi)
    assert len(seen) == 8
    for mu, step, shape in seen:
        expected_rows = 64 if mu == 0 else 0
        assert shape == (expected_rows, 3, 2, 3), (mu, step, shape)


def test_payload_orientation_rhs_spin_color(problem):
    # with b = 4 the rhs axis differs in length from the spin and color axes
    _, gauge, clover, params, _, _ = problem
    geom = gauge.geom
    psi = gen_spinor(geom.n_sites, 4, Layout.RHS_MAJOR, seed=59, geom=geom)
    ex = MultiRankExecutor(RankGrid((2, 1, 1, 1)))
    seen = []
    orig_post = ex.commset.rank_comm(0).post_send

    def spy(mu, step, payload):
        seen.append((mu, step, payload.shape))
        return orig_post(mu, step, payload)

    ex.commset.rank_comm(0).post_send = spy
    eta = ex.apply_dirac(params, gauge, clover, psi)
    assert sorted(seen) == sorted((mu, step, (64 if mu == 0 else 0, 4, 2, 3)) for mu in range(4) for step in (1, -1))
    assert np.array_equal(eta.data, apply_dirac(params, gauge, clover, psi).data)


def test_executor_rejects_mode():
    with pytest.raises(ValueError):
        MultiRankExecutor(RankGrid((2, 1, 1, 1)), mode="sequential")


def test_executor_rejects_a_malformed_field_before_the_split(problem):
    # an input error is the caller's, not a fault of the rank that trips on it
    geom, gauge, clover, params, psi, _ = problem
    half = psi.take_sites(geom.even_sites)
    with pytest.raises(ValueError, match=f"field has {len(geom.even_sites)} sites, gauge lattice has {geom.n_sites}"):
        MultiRankExecutor(RankGrid((2, 1, 1, 1))).apply_dirac(params, gauge, clover, half)


def test_small_grid_layout1(problem):
    _, gauge, clover, params, _, _ = problem
    geom = gauge.geom
    psi = gen_spinor(geom.n_sites, 2, Layout.RHS_MAJOR, seed=60, geom=geom)
    eta_single = apply_dirac(params, gauge, clover, psi)
    eta = MultiRankExecutor(RankGrid((2, 2, 2, 2))).apply_dirac(params, gauge, clover, psi)
    assert np.array_equal(eta.data, eta_single.data)


def test_rank_threads_share_eta_without_lost_rows(problem):
    # 16 rank threads on fewer cores, switching every 10 us, write their
    # disjoint rows of one eta without a lock: a lost or torn row breaks
    # bitwise equality with the single-rank apply
    _, gauge, clover, params, psi, eta_single = problem
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid((2, 2, 2, 2))))
        for _ in range(3):
            assert np.array_equal(op(psi).data, eta_single.data)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode", MODES)
def test_rank_fault_is_attributed_at_once(problem, monkeypatch, mode):
    # rank 1 raises before posting anything; rank 0 would otherwise wait out
    # the halo timeout and report a starving channel instead of the cause
    _, gauge, clover, params, psi, eta_single = problem
    real = dirac.subtract_hops

    def faulty(*args, comm=None, **kwargs):
        if comm is not None and comm.rank == 1:
            raise ValueError("injected fault")
        real(*args, comm=comm, **kwargs)

    monkeypatch.setattr(dirac, "subtract_hops", faulty)
    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)), mode=mode)
    workers = _worker_idents(ex)
    t0 = time.perf_counter()
    with pytest.raises(RankFaultError, match="rank 1 failed: ValueError: injected fault") as err:
        ex.apply_dirac(params, gauge, clover, psi)
    assert time.perf_counter() - t0 < DEFAULT_TIMEOUT / 10
    assert err.value.rank == 1
    assert isinstance(err.value.__cause__, ValueError)
    # the poison lasts one epoch: the next apply runs clean, on the same workers
    monkeypatch.setattr(dirac, "subtract_hops", real)
    assert np.array_equal(ex.apply_dirac(params, gauge, clover, psi).data, eta_single.data)
    assert _worker_idents(ex) == workers


@pytest.fixture(scope="module")
def solve_problem():
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = gen_gauge(geom, "random", seed=61)
    clover = gen_clover(geom, "random", scale=0.1, seed=62)
    params = DiracParams(m0=1.0)
    eta = gen_spinor(geom.n_sites, 3, Layout.COMPONENT_MAJOR, seed=63, geom=geom)
    cfg = GmresConfig(restart_len=5, tol=1e-8)
    single = solve_dirac(params, gauge, clover, eta, cfg)
    return gauge, clover, params, eta, cfg, single


@pytest.mark.parametrize("grid", [(1, 1, 1, 2), (2, 2, 2, 2)])
def test_multirank_solve_matches_single_rank_bitwise(solve_problem, grid):
    gauge, clover, params, eta, cfg, single = solve_problem
    report = solve_dirac(params, gauge, clover, eta, cfg, comm=MultiRankExecutor(RankGrid(grid)))
    assert report.iterations == single.iterations > cfg.restart_len
    assert np.array_equal(report.psi.data, single.psi.data)


def test_rank_fault_in_a_solve_is_attributed_at_once(solve_problem, monkeypatch):
    gauge, clover, params, eta, cfg, single = solve_problem
    real = dirac.subtract_hops
    calls = []

    def faulty(*args, comm=None, **kwargs):
        if comm is not None and comm.rank == 1:
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("injected fault")
        real(*args, comm=comm, **kwargs)

    monkeypatch.setattr(dirac, "subtract_hops", faulty)
    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)))
    t0 = time.perf_counter()
    with pytest.raises(RankFaultError, match="rank 1 failed: ValueError: injected fault") as err:
        solve_dirac(params, gauge, clover, eta, cfg, comm=ex)
    assert time.perf_counter() - t0 < DEFAULT_TIMEOUT / 10
    assert err.value.rank == 1
    monkeypatch.setattr(dirac, "subtract_hops", real)
    assert np.array_equal(solve_dirac(params, gauge, clover, eta, cfg, comm=ex).psi.data, single.psi.data)


@pytest.mark.parametrize("grid", [(1, 1, 1, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
def test_single_precision_twin_multirank_bitwise(problem, grid, layout):
    # the complex64 twin keeps the multi-rank invariant: every rank's rows
    # are cast copies of the same values, and the sweep runs the same float32
    # operations per site, so the executor apply equals the single-rank one
    geom, gauge, clover, params, psi, _ = problem
    psi = psi.convert(layout).astype(np.complex64)
    single = DiracOperator(params, gauge, clover).astype(np.complex64)(psi)
    twin = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid))).astype(np.complex64)
    runs = [twin(psi) for _ in range(2)]
    assert runs[0].dtype == np.complex64
    for eta in runs:
        assert np.array_equal(eta.data, single.data)


@pytest.mark.parametrize("grid", [(1, 1, 1, 2), (2, 1, 1, 1)])
@pytest.mark.parametrize("layout", [Layout.RHS_MAJOR, Layout.COMPONENT_MAJOR])
def test_multirank_bitwise_over_several_chunks(grid, layout):
    # 384 sites per rank: at b = 16 each rank sweeps a full 256-site chunk
    # and a short one, against the single-rank sweep's three, in both
    # precisions
    geom = LatticeGeometry((8, 6, 4, 4))
    gauge = gen_gauge(geom, "random", seed=71)
    clover = gen_clover(geom, "random", scale=0.1, seed=72)
    params = DiracParams(m0=-0.5)
    psi = gen_spinor(geom.n_sites, 16, layout, seed=73, geom=geom)
    single = DiracOperator(params, gauge, clover)
    multi = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)))
    assert all(len(rows.sites) == 384 and rows.hops.shape == (8, 384, 6, 6) for rows in multi._rows)
    for dtype in (np.complex128, np.complex64):
        field = psi.astype(dtype)
        assert np.array_equal(multi.astype(dtype)(field).data, single.astype(dtype)(field).data)


def test_mixed_solve_uses_the_twin_and_matches_single_rank_bitwise(solve_problem, monkeypatch):
    # the Arnoldi steps apply the complex64 twin and every residual the
    # complex128 operator, on one rank and on two alike
    gauge, clover, params, eta, cfg, single = solve_problem
    real = DiracOperator.__call__
    seen = []

    def recorded(self, psi, out=None):
        seen.append((self.comm is not None, psi.dtype))
        return real(self, psi, out)

    monkeypatch.setattr(DiracOperator, "__call__", recorded)
    again = solve_dirac(params, gauge, clover, eta, cfg)
    report = solve_dirac(params, gauge, clover, eta, cfg, comm=MultiRankExecutor(RankGrid((1, 1, 1, 2))))
    cycles = -(-single.iterations // cfg.restart_len)
    for routed in (False, True):
        calls = [dtype for comm, dtype in seen if comm == routed]
        assert calls.count(np.complex64) == single.iterations
        # one complex128 restart residual per cycle: the first one, from the zero guess, is eta
        assert calls.count(np.complex128) == cycles
    assert np.array_equal(again.psi.data, single.psi.data)
    assert np.array_equal(report.psi.data, single.psi.data)
    assert (report.full_relnorms <= cfg.tol).all()


@pytest.mark.parametrize("grid", [None, (1, 1, 1, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("b", [3, 16])
def test_layout_two_and_its_conversion_apply_bitwise_equal(problem, grid, dtype, b):
    # the sweep reads one contiguous spinor-row array: a Layout-2 field is
    # transposed into it once per call (ranks gather their rows into it), so
    # every site sees the same values as with the field's Layout-1 conversion
    geom, gauge, clover, params, _, _ = problem
    psi2 = gen_spinor(geom.n_sites, b, Layout.COMPONENT_MAJOR, seed=74, geom=geom).astype(dtype)
    psi1 = psi2.convert(Layout.RHS_MAJOR)
    op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)) if grid else None).astype(dtype)
    eta2, eta1 = op(psi2), op(psi1)
    assert (eta2.layout, eta1.layout) == (Layout.COMPONENT_MAJOR, Layout.RHS_MAJOR)
    assert np.array_equal(eta2.ksi(), eta1.ksi())


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_layout_two_rank_apply_holds_no_second_rank_copy(dtype):
    # each rank gathers its psi rows straight into row order and writes its
    # eta rows back with one transposing put, so a Layout-2 apply holds what
    # its Layout-1 conversion's does; a rank-sized Layout-2 copy kept next to
    # a row copy adds a quarter of a field per rank here
    geom = LatticeGeometry((8, 8, 8, 8))
    gauge = gen_gauge(geom, "random", seed=75)
    clover = gen_clover(geom, "random", scale=0.1, seed=76)
    op = DiracOperator(DiracParams(m0=1.0), gauge, clover, MultiRankExecutor(RankGrid((1, 1, 1, 2)))).astype(dtype)
    psi2 = gen_spinor(geom.n_sites, 16, Layout.COMPONENT_MAJOR, seed=77, geom=geom).astype(dtype)
    peaks = []
    for psi in (psi2, psi2.convert(Layout.RHS_MAJOR)):
        op(psi)
        tracemalloc.start()
        try:
            op(psi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1]


def _worker_idents(ex: MultiRankExecutor) -> list:
    idents = [None] * ex.grid.n_ranks
    ex.run_ranks(lambda rank, _comm: idents.__setitem__(rank, threading.get_ident()))
    return idents


def _affinities(ex: MultiRankExecutor) -> list:
    seen = [None] * ex.grid.n_ranks
    ex.run_ranks(lambda rank, _comm: seen.__setitem__(rank, os.sched_getaffinity(0)))
    return seen


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_rank_cpus_pin_only_where_the_cpus_number_the_ranks(monkeypatch):
    # with more CPUs than ranks, rank r on the r-th CPU would put rank 0 of
    # every process on one CPU while others idle
    monkeypatch.setattr(halo.os, "sched_getaffinity", lambda pid: {3, 1})
    assert halo._rank_cpus(2) == [1, 3]
    assert halo._rank_cpus(1) is None and halo._rank_cpus(4) is None
    monkeypatch.setattr(halo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert halo._rank_cpus(2) is None


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_rank_workers_are_pinned_only_where_the_cpus_number_the_ranks():
    allowed = os.sched_getaffinity(0)
    two = _affinities(MultiRankExecutor(RankGrid((1, 1, 1, 2))))
    if len(allowed) == 2:
        assert two == [{cpu} for cpu in sorted(allowed)]
    else:
        assert two == [allowed, allowed]
    # the calling thread is never pinned
    assert os.sched_getaffinity(0) == allowed
    many = _affinities(MultiRankExecutor(RankGrid((2, 2, 2, 2))))
    if len(allowed) == 16:
        assert many == [{cpu} for cpu in sorted(allowed)]
    else:
        assert all(cpus == allowed for cpus in many)


def test_a_rank_that_raises_system_exit_leaves_its_worker_running(problem, monkeypatch):
    # a fault that is no Exception reaches the caller as it is, and the
    # worker that ran it lives on to run the next apply
    _, gauge, clover, params, psi, eta_single = problem
    real = dirac.subtract_hops

    def exits(*args, comm=None, **kwargs):
        if comm is not None and comm.rank == 1:
            raise SystemExit("injected exit")
        real(*args, comm=comm, **kwargs)

    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)))
    workers = _worker_idents(ex)
    monkeypatch.setattr(dirac, "subtract_hops", exits)
    with pytest.raises(SystemExit, match="injected exit"):
        ex.apply_dirac(params, gauge, clover, psi)
    monkeypatch.setattr(dirac, "subtract_hops", real)
    assert np.array_equal(ex.apply_dirac(params, gauge, clover, psi).data, eta_single.data)
    assert _worker_idents(ex) == workers


def test_share_runs_share_zero_on_the_calling_thread():
    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)))
    workers = _worker_idents(ex)
    seen = {}
    ex.share(lambda i, n: seen.__setitem__(i, (n, threading.get_ident())))
    assert seen == {0: (2, threading.get_ident()), 1: (2, workers[1])}
    one = MultiRankExecutor(RankGrid((1, 1, 1, 1)))
    one.share(lambda i, n: seen.__setitem__(i, (n, threading.get_ident())))
    assert seen[0] == (1, threading.get_ident())


def test_share_fault_is_attributed_and_the_next_share_runs():
    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)))
    done = []

    def work(i, n):
        if i == 1:
            raise ValueError("injected fault")
        done.append(i)

    with pytest.raises(RankFaultError, match="rank 1 failed: ValueError: injected fault") as err:
        ex.share(work)
    # share 0 ran to its end before the fault was raised
    assert err.value.rank == 1 and done == [0]
    ex.share(lambda i, n: done.append(i))
    assert sorted(done[1:]) == [0, 1]


def test_dropped_executors_stop_their_workers(problem):
    # an idle worker holds neither its executor nor its last task, so
    # dropping the executor stops its workers without a collection pass
    _, gauge, clover, params, psi, eta_single = problem
    baseline = threading.active_count()
    for _ in range(20):
        ex = MultiRankExecutor(RankGrid((2, 2, 2, 2)))
        assert np.array_equal(ex.apply_dirac(params, gauge, clover, psi).data, eta_single.data)
        del ex
    deadline = time.monotonic() + DEFAULT_TIMEOUT
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline


def test_executors_of_as_many_ranks_share_their_workers_one_run_at_a_time(problem):
    # every thread that allocates keeps a malloc arena, so executors alive
    # side by side run on one set of workers; callers on two threads take
    # turns on it, each in its own executor's epochs
    _, gauge, clover, params, psi, eta_single = problem
    executors = [MultiRankExecutor(RankGrid((1, 1, 1, 2))) for _ in range(2)]
    assert _worker_idents(executors[0]) == _worker_idents(executors[1])
    results = [[], []]

    def apply(k):
        op = DiracOperator(params, gauge, clover, executors[k])
        results[k].extend(np.array_equal(op(psi).data, eta_single.data) for _ in range(3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=apply, args=(k,), daemon=True) for k in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(DEFAULT_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [[True] * 3, [True] * 3]
    assert [ex.commset.epoch for ex in executors] == [5, 5]

    # a share called while another executor's run holds the workers waits
    # for that run to end, even its share 0 on the calling thread
    started, release, order = threading.Event(), threading.Event(), []

    def hold(rank, _comm):
        started.set()
        release.wait(DEFAULT_TIMEOUT)
        order.append("run")

    holder = threading.Thread(target=executors[0].run_ranks, args=(hold,), daemon=True)
    holder.start()
    assert started.wait(DEFAULT_TIMEOUT)
    sharer = threading.Thread(target=executors[1].share, args=(lambda i, n: order.append("share"),), daemon=True)
    sharer.start()
    sharer.join(0.1)
    assert order == []
    release.set()
    for t in (holder, sharer):
        t.join(DEFAULT_TIMEOUT)
        assert not t.is_alive()
    assert order == ["run", "run", "share", "share"]


@pytest.mark.parametrize("outer", ["run_ranks", "share"])
@pytest.mark.parametrize("inner", ["run_ranks", "share"])
def test_nested_runs_raise_instead_of_deadlocking(outer, inner):
    # a worker that waited for its own executor would never return
    ex = MultiRankExecutor(RankGrid((1, 1, 1, 2)))
    calls = {"run_ranks": lambda work: ex.run_ranks(lambda rank, _comm: work()),
             "share": lambda work: ex.share(lambda i, _n: work())}
    errors = []

    def nested():
        try:
            calls[outer](lambda: calls[inner](lambda: None))
        except RankFaultError as exc:
            errors.append(exc)

    t = threading.Thread(target=nested, daemon=True)
    t.start()
    t.join(DEFAULT_TIMEOUT)
    assert not t.is_alive()
    assert len(errors) == 1 and isinstance(errors[0].__cause__, RuntimeError)
    assert "already running" in str(errors[0])
    # the executor stays usable
    assert len(_worker_idents(ex)) == 2
