"""Workloads, their set-up, the correctness gate and the closed-loop runs.

Every workload solves D psi = eta on the same kind of problem: a periodic
lattice (8^4 by default) with random SU(3) links, random clover (scale 0.1),
m0 = 1.0 and batched GMRES(10) to tol 1e-8 with the default restart cap.
Gauge, clover and right-hand sides are generated from the workload seed
(seed, seed + 1, seed + 2); the library receives only the generated fields.
One client drives the solver in a closed loop: the next solve starts only
when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lqcdlab import gmres
from lqcdlab.dirac import DiracParams, apply_dirac
from lqcdlab.fields import BlockSpinorField, CloverField, GaugeField, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry, RankGrid
from lqcdlab.gmres import GmresConfig
from lqcdlab.halo import MultiRankExecutor

from . import layers, machine
from .spans import Tracer

DIMS = (8, 8, 8, 8)
M0 = 1.0
CLOVER_SCALE = 0.1
TOL = 1e-8
RESTART_LEN = 10
# highest percentile reported for solve_s needs at least this many samples beyond it
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    b: int
    layout: int
    odd_even: bool
    grid: tuple | None


# why each workload exists: BENCHMARK.json and bench/NOTES.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-b4", 4, 1, False, None),
        Workload("evenodd-b4", 4, 1, True, None),
        Workload("tworank-b16", 16, 2, False, (1, 1, 1, 2)),
    )
}


@dataclass
class Problem:
    workload: Workload
    params: DiracParams
    gauge: GaugeField
    clover: CloverField
    eta: BlockSpinorField
    cfg: GmresConfig
    comm: MultiRankExecutor | None
    bitwise_ok: bool


def set_up(w: Workload, seed: int, dims: tuple = DIMS) -> Problem:
    """Generate the inputs, warm the apply up and, with a rank grid, build the executor.

    On a rank grid the executor's first apply (which builds its plan tables)
    is compared bit for bit with the single-rank warm-up apply.
    """
    geom = LatticeGeometry(dims)
    gauge = gen_gauge(geom, "random", seed=seed)
    clover = gen_clover(geom, "random", CLOVER_SCALE, seed=seed + 1)
    eta = gen_spinor(geom.n_sites, w.b, w.layout, seed=seed + 2, geom=geom)
    params = DiracParams(m0=M0)
    single = apply_dirac(params, gauge, clover, eta)
    comm, bitwise_ok = None, True
    if w.grid is not None:
        comm = MultiRankExecutor(RankGrid(w.grid), mode="threads")
        multi = comm.apply_dirac(params, gauge, clover, eta)
        bitwise_ok = bool(np.array_equal(multi.data, single.data))
    cfg = GmresConfig(restart_len=RESTART_LEN, tol=TOL)
    return Problem(w, params, gauge, clover, eta, cfg, comm, bitwise_ok)


def failed_columns(p: Problem, psi: BlockSpinorField) -> np.ndarray:
    """(b,) bool: columns whose true residual, from the single-rank apply, is above tol.

    The solver's own residual estimate is not used.  A non-finite residual
    fails.
    """
    r = apply_dirac(p.params, p.gauge, p.clover, psi).ksi()
    e = p.eta.ksi()
    rel = np.sqrt((np.abs(e - r) ** 2).sum(axis=(0, 1)) / (np.abs(e) ** 2).sum(axis=(0, 1)))
    return ~(rel <= TOL)


def checksum(psi: BlockSpinorField) -> str:
    return hashlib.sha256(np.ascontiguousarray(psi.data).tobytes()).hexdigest()[:16]


class Tally:
    """Attempted and failed operations; each rhs column of each solve is one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def solve(self, p: Problem):
        """Time one solve_dirac call; returns (seconds, report or None if it raised)."""
        t0 = time.perf_counter()
        try:
            report = gmres.solve_dirac(p.params, p.gauge, p.clover, p.eta, p.cfg,
                                       odd_even=p.workload.odd_even, comm=p.comm)
        except Exception:  # a raising solve is counted, not fatal to the run
            traceback.print_exc(file=sys.stderr)
            report = None
        return time.perf_counter() - t0, report

    def gate(self, p: Problem, report, extra_failure: bool = False) -> None:
        b = p.workload.b
        self.attempted += b
        if report is None or extra_failure:
            self.failed += b
        else:
            self.failed += int(failed_columns(p, report.psi).sum())


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least TAIL_SAMPLES samples above it."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(times) * (1.0 - pct / 100.0) >= TAIL_SAMPLES:
            return pct, float(np.percentile(times, pct))
    return None


def timed_set_up(w: Workload, seed: int, dims: tuple) -> tuple[Problem, float]:
    t0 = time.perf_counter()
    p = set_up(w, seed, dims)
    return p, time.perf_counter() - t0


def _rounds(seconds: float):
    """Closed-loop round counter: the first round always runs, a later one only
    if a round of median length still ends inside the window."""
    start = last = time.perf_counter()
    durations = []
    i = 0
    while True:
        yield i
        now = time.perf_counter()
        durations.append(now - last)
        last = now
        i += 1
        if now - start + statistics.median(durations) > seconds:
            return


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
        dims: tuple = DIMS, l3: int | None = None, trace_path: Path | None = None) -> dict:
    """One benchmark run; returns the result record and an ``info`` block for humans."""
    record = machine.record(root, seed)
    if l3 is not None:
        record["l3_bytes"], record["l3_source"] = l3, "given"
    geom_sites = int(np.prod(dims))
    info = {
        "machine": record,
        "workload": {"name": w.name, "b": w.b, "layout": w.layout, "odd_even": w.odd_even,
                     "grid": w.grid, "dims": dims, "seed": seed, "seconds": seconds,
                     "working_set": machine.working_set(geom_sites, w.b, w.odd_even, RESTART_LEN,
                                                        record["l3_bytes"])},
    }
    p, setup_s = timed_set_up(w, seed, dims)
    tally = Tally()
    if trace:
        bitwise = [p.bitwise_ok]
        metrics = _traced(p, tally, seconds, record["l3_bytes"], info, trace_path)
    else:
        bitwise, metrics = _untraced(p, tally, seconds, setup_s, lambda: timed_set_up(w, seed, dims), info)
    info["bitwise_multirank"] = all(bitwise) if w.grid else "n/a"
    correct = tally.failed == 0 and all(bitwise) and info.get("trace_reproduces", True)
    return {
        "info": info,
        "result": {
            "correct": bool(correct),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _untraced(p: Problem, tally: Tally, seconds: float, setup_s: float, again, info: dict) -> tuple[list, dict]:
    """Closed-loop solves; each round also repeats the set-up, whose result is discarded.

    ``setup_s`` is the median of the first set-up and one after each solve, so
    its samples are spread over the same window as the solves'.
    """
    times, iterations, sums = [], set(), set()
    setup_times, bitwise = [setup_s], [p.bitwise_ok]
    for _ in _rounds(seconds):
        dt, report = tally.solve(p)
        tally.gate(p, report)
        times.append(dt)
        if report is not None:
            iterations.add(report.iterations)
            sums.add(checksum(report.psi))
        repeat, dt = again()
        setup_times.append(dt)
        bitwise.append(repeat.bitwise_ok)
        del repeat  # free its fields before the next solve
    info["solves"] = len(times)
    info["solve_times"] = times
    info["solve_s_tail"] = tail_percentile(times)
    info["iterations"] = sorted(iterations)
    info["checksums"] = sorted(sums)
    info["setup_times"] = setup_times
    return bitwise, {
        "solve_s": (statistics.median(times), "s"),
        "rhs_per_s": ((tally.attempted - tally.failed) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(p: Problem, tally: Tally, seconds: float, l3: int, info: dict, trace_path: Path | None) -> dict:
    """Alternate untraced and traced solves; the traced ones must reproduce bit for bit."""
    tracer = Tracer()
    untraced, walls, iterations = [], {}, []
    reference = None
    mismatches = 0
    for i in _rounds(seconds):
        dt, report = tally.solve(p)
        tally.gate(p, report)
        untraced.append(dt)
        if reference is None and report is not None:
            reference = (checksum(report.psi), report.iterations)
        phase = f"solve-{i}"
        with tracer.installed(), tracer.in_phase(phase):
            dt, report = tally.solve(p)
        same = report is not None and (checksum(report.psi), report.iterations) == reference
        mismatches += not same
        tally.gate(p, report, extra_failure=not same)
        if report is not None:
            walls[phase] = dt
            iterations.append(report.iterations)
    with tracer.installed():
        layers.probe(p, tracer)
    stream = machine.stream_triad(l3)
    overhead = statistics.median(walls.values()) / statistics.median(untraced) - 1.0
    metrics, layer_self = layers.per_layer(tracer.spans, p, walls, iterations,
                                           stream["triad_gbs"], overhead)
    info["trace_reproduces"] = mismatches == 0
    info["traced_solves"] = len(walls)
    info["stream"] = stream
    info["layer_self_s_per_solve"] = layer_self
    if trace_path is not None:
        tracer.write(trace_path, {"info": info, "metrics": {k: v for k, (v, _) in metrics.items()}})
        info["trace_file"] = str(trace_path)
    return metrics
