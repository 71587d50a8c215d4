"""Per-layer metrics of the traced run.

Per-call timings are medians over the main-thread spans of one public entry
point, taken from the traced solves and from :func:`probe`, which calls the
layers' entry points on the workload's own inputs and field shape.  The probe
gives every layer numbers on every workload: ``oddeven.*`` is measured
inside the solves only on ``evenodd-b4``, ``halo.*`` only on
``tworank-b16``, and ``dirac.*`` is always the single-rank apply, which on
``tworank-b16`` is what ``halo.parallel_eff`` compares against.
"""

from __future__ import annotations

import statistics

from lqcdlab import dirac, halo, oddeven
from lqcdlab.fields import BlockSpinorField
from lqcdlab.geometry import NDIM, RankGrid, decompose
from lqcdlab.perf import theoretical_perf
from lqcdlab.projectors import HALF_SPINOR_LEN

from .spans import MAIN, layer_self_times

PROBE_REPS = 5
# rank grid of the halo probe on workloads that do not decompose the lattice
PROBE_GRID = (1, 1, 1, 2)
OPERATORS = ("apply_dirac", "SchurOperator.apply")
# every traced solve is one span of this name; the layers are what it covers
ROOT_SPAN = "solve_dirac"


def probe(p, tracer) -> None:
    """Call each layer's public entry points on the workload's inputs, traced."""
    with tracer.in_phase("probe"):
        for _ in range(PROBE_REPS):
            dirac.apply_dirac(p.params, p.gauge, p.clover, p.eta)
        schur = oddeven.SchurOperator(p.params, p.gauge, p.clover)
        reduced, eta_elim = schur.reduce_rhs(p.eta)
        for _ in range(PROBE_REPS):
            schur.apply(reduced)
        schur.merge(reduced, schur.reconstruct(reduced, eta_elim))
        ex = halo.MultiRankExecutor(RankGrid(p.workload.grid or PROBE_GRID), mode="threads")
        for _ in range(PROBE_REPS + 1):  # the first apply builds the plan tables
            ex.apply_dirac(p.params, p.gauge, p.clover, p.eta)
    with tracer.in_phase("probe-b1"):
        one = BlockSpinorField.zeros(p.eta.n_sites, 1, p.eta.layout, geom=p.eta.geom)
        one.set_ksi(p.eta.ksi()[:, :, :1])
        for _ in range(PROBE_REPS):
            dirac.apply_dirac(p.params, p.gauge, p.clover, one)


def halo_bytes(geom, grid: tuple, b: int) -> int:
    """Bytes one apply sends: lam and chi half spinors of every boundary site."""
    total = 0
    for dom in decompose(geom, RankGrid(grid)):
        for mu in range(NDIM):
            sites = len(dom.boundary[(mu, -1)]) + len(dom.boundary[(mu, 1)])
            total += sites * HALF_SPINOR_LEN * b * dirac.BYTES_PER_VALUE
    return total


def solve_breakdown(spans: list[dict], solve_walls: dict[str, float]) -> tuple[dict, float]:
    """(layer -> main-thread self seconds per solve, unaccounted share of the solve wall time).

    The root ``solve_dirac`` span of each solve is left out of the layer sums,
    so library code that runs inside a solve but under no traced public call
    below it (in ``solve_dirac`` itself, or between the benchmark's timer and
    the span) is what remains unaccounted.
    """
    below = [s for s in spans if s["phase"] in solve_walls and s["name"] != ROOT_SPAN]
    sums = layer_self_times(below)
    walls = sum(solve_walls.values())
    per_solve = {k: v / len(solve_walls) for k, v in sorted(sums.items())}
    return per_solve, (walls - sum(sums.values())) / walls


def _dur(s: dict) -> float:
    return s["t1"] - s["t0"]


def per_layer(spans: list[dict], p, solve_walls: dict[str, float], iterations: list[int],
              triad_gbs: float, overhead_frac: float) -> tuple[dict, dict]:
    """(metric name -> (value, unit), layer -> self seconds per solve) of one traced run."""
    b = p.eta.b
    main = [s for s in spans if s["thread"] == MAIN]
    solve_phases = sorted(solve_walls)

    def calls(name: str, keep=lambda s: True, phases=None) -> list[dict]:
        group = phases or solve_phases + ["probe"]
        found = [s for s in main if s["name"] == name and s["phase"] in group and keep(s)]
        if not found:
            raise RuntimeError(f"no {name} span recorded")
        return found

    def med(name: str, keep=lambda s: True, phases=None) -> float:
        return statistics.median(_dur(s) for s in calls(name, keep, phases))

    def per_solve(fn) -> float:
        return statistics.median(fn(ph) for ph in solve_phases)

    single = calls("apply_dirac", lambda s: not s["comm"] and s["b"] == b)
    apply_s = statistics.median(_dur(s) for s in single)
    stage_ids = {s["id"]: s for s in single}
    stages = {}
    for s in main:
        if s["parent"] in stage_ids and s["name"] in ("apply_self_coupling", "subtract_hops"):
            stages[s["parent"]] = stages.get(s["parent"], 0.0) + _dur(s)
    stage_gap = statistics.median(1.0 - stages.get(i, 0.0) / _dur(s) for i, s in stage_ids.items())
    self_coupling_s = med("apply_self_coupling")
    hops_s = med("subtract_hops")
    apply_b1 = med("apply_dirac", phases=["probe-b1"])
    flops = dirac.account_traffic(b)["flops_per_site"] * p.eta.n_sites
    gflops = flops / apply_s / 1e9
    ceiling = theoretical_perf(triad_gbs * 1e9, b) / 1e9

    schur_apply = med("SchurOperator.apply")
    solve_elim = med("SchurOperator.solve_eliminated")
    rhs_s = sum(med(f"SchurOperator.{n}") for n in ("reduce_rhs", "reconstruct", "merge"))

    halo_calls = calls("MultiRankExecutor.apply_dirac")
    first_halo = min(calls("MultiRankExecutor.apply_dirac", phases=["probe"]), key=lambda s: s["t0"])
    steady = [s for s in halo_calls if s is not first_halo]
    halo_apply = statistics.median(_dur(s) for s in steady)
    ranks = steady[0]["ranks"]

    def gmres_span(ph):
        return next(s for s in main if s["phase"] == ph and s["name"] == "gmres_solve")

    def op_spans(ph):
        g = gmres_span(ph)
        return [s for s in main if s["parent"] == g["id"] and s["name"] in OPERATORS]

    def gmres_self(ph):
        return _dur(gmres_span(ph)) - sum(_dur(s) for s in op_spans(ph))

    def blocks_total(ph):
        return sum(_dur(s) for s in spans if s["phase"] == ph and s["name"] == "CloverField.blocks")

    layer_self, unaccounted = solve_breakdown(spans, solve_walls)
    in_solves = [s for s in spans if s["phase"] in solve_walls]
    rank_self = layer_self_times([s for s in in_solves if s["thread"] != MAIN], thread=None)
    layer_self.update({f"{k} (rank threads)": v / len(solve_phases) for k, v in sorted(rank_self.items())})

    metrics = {
        "dirac.apply_s": (apply_s, "s"),
        "dirac.self_coupling_s": (self_coupling_s, "s"),
        "dirac.hops_s": (hops_s, "s"),
        "dirac.stage_gap_frac": (stage_gap, "frac"),
        "dirac.gflops": (gflops, "GF/s"),
        "dirac.roofline_frac": (gflops / ceiling, "frac"),
        "dirac.block_speedup": (b * apply_b1 / apply_s, "x"),
        "fields.clover_blocks_s": (per_solve(blocks_total), "s"),
        "oddeven.build_s": (med("SchurOperator.build"), "s"),
        "oddeven.apply_s": (schur_apply, "s"),
        "oddeven.solve_eliminated_s": (solve_elim, "s"),
        "oddeven.offdiag_s": (schur_apply - solve_elim, "s"),
        "oddeven.rhs_s": (rhs_s, "s"),
        "oddeven.apply_over_dirac": (schur_apply / apply_s, "ratio"),
        "gmres.iterations": (statistics.median(iterations), "count"),
        "gmres.op_calls": (per_solve(lambda ph: len(op_spans(ph))), "count"),
        "gmres.op_s": (per_solve(lambda ph: sum(_dur(s) for s in op_spans(ph))), "s"),
        "gmres.self_s": (per_solve(gmres_self), "s"),
        "gmres.self_frac": (per_solve(lambda ph: gmres_self(ph) / _dur(gmres_span(ph))), "frac"),
        "blas.dot_s": (med("block_dot", phases=solve_phases), "s"),
        "blas.axpy_s": (med("block_axpy", phases=solve_phases), "s"),
        "blas.norms_s": (med("block_norms", phases=solve_phases), "s"),
        "halo.apply_s": (halo_apply, "s"),
        "halo.parallel_eff": (apply_s / (ranks * halo_apply), "frac"),
        "halo.wait_s": (statistics.median(s["wait_s"] for s in steady), "s"),
        "halo.messages": (statistics.median(s["messages"] for s in steady), "count"),
        "halo.bytes": (halo_bytes(p.gauge.geom, p.workload.grid or PROBE_GRID, b), "B"),
        "halo.first_apply_s": (_dur(first_halo), "s"),
        "perf.stream_triad_gbs": (triad_gbs, "GB/s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
        "trace.unaccounted_frac": (unaccounted, "frac"),
    }
    return metrics, layer_self
