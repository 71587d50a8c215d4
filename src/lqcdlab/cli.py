"""Command-line front end.

Subcommands: bench-dirac, solve, oracle-check, stream, roofline, cost-model,
gen-fields.  Every command prints a one-line JSON header {version,
config_hash, seed, rng} before its payload, so outputs are self-describing
and reproducible.  Exit codes: 0 ok, 1 validation error, 2 numerical
failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, config_hash, load_config, set_key, text_hash, validate
from .costmodel import AbstractMachine, CostWeights, cost as weighted_cost, delta_cost, run_kernel
from .dirac import DiracOperator, DiracParams, account_traffic, apply_dirac
from .fields import (RNG_ALGORITHM, BlockSpinorField, Layout, gen_clover, gen_gauge, gen_spinor,
                     write_clover, write_gauge, write_spinor)
from .geometry import LatticeGeometry, RankGrid, decompose
from .gmres import GmresConfig, solve_dirac
from .halo import MultiRankExecutor
from .oracle import MAX_DENSE_DIM, assemble_dirac_dense, assemble_schur_dense
from .oddeven import SchurOperator
from .perf import roofline_report, stream_bench
from .projectors import check_algebra


class NumericalFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _checksum(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()[:16]


def _prepare_out(path: str) -> str:
    """Create the parent directory of an output file if it is missing."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _emit_header(cfg_hash: str, seed: int, out=None) -> None:
    header = {
        "version": __version__,
        "config_hash": cfg_hash,
        "seed": seed,
        "rng": RNG_ALGORITHM,
    }
    print(json.dumps(header), file=out if out is not None else sys.stdout)


def _load_runconfig(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        set_key(cfg, key.strip(), value.strip())
    validate(cfg)
    return cfg


def _seeded_fields(cfg: RunConfig):
    """The geometry and the gauge (from ``seed``) and clover (from ``seed + 1``) fields of a config."""
    geom = LatticeGeometry(cfg.dims)
    gauge = gen_gauge(geom, cfg.gauge_mode, seed=cfg.seed)
    clover = gen_clover(geom, cfg.clover_mode, cfg.clover_scale, seed=cfg.seed + 1)
    return geom, gauge, clover


def _rank_grid(cfg: RunConfig, geom: LatticeGeometry) -> RankGrid | None:
    """The validated ``ranks.grid``, or None for a single rank."""
    if all(g == 1 for g in cfg.grid):
        return None
    grid = RankGrid(tuple(cfg.grid))
    decompose(geom, grid)  # raises for a grid the lattice does not split into
    return grid


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.replace(",", " ").split()]


# -- subcommands ------------------------------------------------------------


def _time_apply(op: DiracOperator, psi: BlockSpinorField, reps: int) -> dict:
    """Median seconds of ``reps`` applies of ``op`` to ``psi`` after one warm-up, with the traffic ledger at psi's precision."""
    op(psi)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        op(psi)
        times.append(time.perf_counter() - t0)
    seconds = statistics.median(times)
    traffic = account_traffic(psi.b, psi.dtype)
    flops = traffic["flops_per_site"] * psi.n_sites
    nbytes = traffic["bytes_per_site"] * psi.n_sites
    return {
        "b": psi.b,
        "layout": int(psi.layout),
        "dtype": psi.dtype.name,
        "ranks": op.comm.grid.n_ranks if op.comm is not None else 1,
        "seconds": seconds,
        "gflops": flops / seconds / 1e9,
        "ai": flops / nbytes,
        "flops": flops,
        "bytes": nbytes,
    }


def cmd_bench_dirac(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    cfg = _load_runconfig(args)
    b_list = _int_list(args.b_list) if args.b_list is not None else [cfg.b]
    layouts = _int_list(args.layout_list) if args.layout_list is not None else [cfg.layout]
    for option, values in (("--b-list", b_list), ("--layout-list", layouts)):
        if not values:
            raise ConfigError(f"{option} names no values")
    if any(b < 1 for b in b_list):
        raise ConfigError(f"--b-list entries must be >= 1, got {b_list}")
    if any(layout not in (1, 2) for layout in layouts):
        raise ConfigError(f"--layout-list entries must be 1 or 2, got {layouts}")
    _emit_header(config_hash(cfg), cfg.seed)
    geom, gauge, clover = _seeded_fields(cfg)
    params = DiracParams(m0=cfg.m0)
    grid = _rank_grid(cfg, geom)
    comm = MultiRankExecutor(grid) if grid is not None else None
    records = []
    for b in b_list:
        for layout in layouts:
            psi = gen_spinor(geom.n_sites, b, layout, seed=cfg.seed + 2, geom=geom)
            op = DiracOperator(params, gauge, clover, comm)  # built once, outside the timed applies
            sums = {"gauge": _checksum(gauge.data), "clover": _checksum(clover.data), "psi": _checksum(psi.data)}
            # the operator and its complex64 twin, as a solve applies them
            for dtype in (np.complex128, np.complex64):
                records.append({**_time_apply(op.astype(dtype), psi.astype(dtype), args.reps), "checksums": sums})
    payload = {"records": records}
    text = json.dumps(payload, indent=2)
    print(text)
    if cfg.out_path:
        with open(_prepare_out(cfg.out_path), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def cmd_solve(args) -> int:
    cfg = _load_runconfig(args)
    _emit_header(config_hash(cfg), cfg.seed)
    geom, gauge, clover = _seeded_fields(cfg)
    eta = gen_spinor(geom.n_sites, cfg.b, Layout(cfg.layout), seed=cfg.seed + 2, geom=geom)
    params = DiracParams(m0=cfg.m0)
    gcfg = GmresConfig(
        restart_len=cfg.restart_len,
        restarts=cfg.restarts,
        tol=cfg.tol,
        fixed_iterations=cfg.fixed_iterations,
    )
    grid = _rank_grid(cfg, geom)
    # the grid is validated on either path, but the even/odd solve runs
    # single-rank, so only a full-system solve gets an executor
    comm = MultiRankExecutor(grid) if grid is not None and not cfg.odd_even else None
    report = solve_dirac(params, gauge, clover, eta, gcfg, odd_even=cfg.odd_even, comm=comm)

    prefix = cfg.out_path
    psi_path = f"{prefix}psi.snap" if prefix else "psi.snap"
    hist_path = f"{prefix}history.csv" if prefix else "history.csv"
    write_spinor(_prepare_out(psi_path), report.psi)
    with open(_prepare_out(hist_path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "rhs", "relnorm"])
        for it, rel in enumerate(report.result.history):
            for rhs in range(len(rel)):
                writer.writerow([it, rhs, repr(float(rel[rhs]))])

    for rhs, rel in enumerate(report.full_relnorms):
        print(f"rhs {rhs}: final explicit relnorm {rel:.6e}")
    print(json.dumps({
        "iterations": report.iterations,
        "odd_even": report.odd_even,
        "converged": bool(np.all(report.full_relnorms <= cfg.tol)) if not cfg.fixed_iterations else None,
        "psi": psi_path,
        "history": hist_path,
    }))
    if not cfg.fixed_iterations and not np.all(report.full_relnorms <= cfg.tol):
        raise NumericalFailure(
            f"solver did not reach tol {cfg.tol:g}; worst relnorm {report.full_relnorms.max():.3e}"
        )
    return 0


def cmd_oracle_check(args) -> int:
    cfg = _load_runconfig(args)
    _emit_header(config_hash(cfg), cfg.seed)
    dense_dim = 12 * math.prod(cfg.dims)
    if dense_dim > MAX_DENSE_DIM:
        raise ConfigError(f"lattice too large for the dense oracle ({dense_dim} > {MAX_DENSE_DIM})")
    geom, gauge, clover = _seeded_fields(cfg)
    if args.corrupt_gauge:
        gauge.data[0, 0, 0, 0] += 0.5
    params = DiracParams(m0=cfg.m0)
    grid = _rank_grid(cfg, geom)
    # with ranks.grid set, the dense suites apply D through the ranks as well, halo exchange included
    comms = [None] if grid is None else [None, MultiRankExecutor(grid)]
    ranks = "" if grid is None else f"1 and {grid.n_ranks} ranks, "
    failures = []

    def suite(name: str, fn):
        try:
            metric = fn()
        except Exception as exc:  # report, keep running other suites
            print(f"{name}: FAIL ({exc})")
            failures.append(name)
            return
        print(f"{name}: PASS ({metric})")

    def check_unitarity():
        gauge.validate()
        return "links unitary, det 1"

    def check_projectors():
        check_algebra()
        return "spin algebra identities hold"

    def check_dense(b: int):
        dense = assemble_dirac_dense(params, gauge, clover)

        def run():
            worst = 0.0
            for layout in (1, 2):
                psi = gen_spinor(geom.n_sites, b, layout, seed=cfg.seed + 2, geom=geom)
                ref = dense @ psi.columns()
                for comm in comms:
                    eta = apply_dirac(params, gauge, clover, psi, comm)
                    worst = max(worst, np.linalg.norm(eta.columns() - ref) / np.linalg.norm(ref))
            if worst > 1e-12:
                raise NumericalFailure(f"{ranks}rel err {worst:.3e} > 1e-12")
            return f"{ranks}rel err {worst:.3e}"

        return run

    def check_free_field():
        unit = gen_gauge(geom, "unit")
        zero = gen_clover(geom, "zero")
        psi = BlockSpinorField.zeros(geom.n_sites, 2, Layout(cfg.layout), geom=geom)
        psi.set_ksi(np.ones((geom.n_sites, 12, 2), dtype=np.complex128))
        eta = apply_dirac(params, unit, zero, psi)
        err = np.abs(eta.ksi() - params.m0 * psi.ksi()).max()
        if err > 1e-14:
            raise NumericalFailure(f"max err {err:.3e} > 1e-14")
        return f"max err {err:.3e}"

    def check_schur():
        # S, and the whole-lattice D from its parity blocks that gives an even/odd solve's full residual
        schur = SchurOperator(params, gauge, clover)
        errs = []
        for apply, dense, n_sites in ((schur.apply, assemble_schur_dense, schur.n_sites),
                                      (schur.apply_full, assemble_dirac_dense, geom.n_sites)):
            v = gen_spinor(n_sites, 2, Layout(cfg.layout), seed=cfg.seed + 3)
            ref = dense(params, gauge, clover) @ v.columns()
            errs.append(np.linalg.norm(apply(v).columns() - ref) / np.linalg.norm(ref))
        metric = f"S rel err {errs[0]:.3e}, apply_full rel err {errs[1]:.3e}"
        if max(errs) > 1e-12:
            raise NumericalFailure(f"{metric}, above 1e-12")
        return metric

    def check_single_precision():
        # the complex64 twins of D (both layouts, every grid) and S against the dense float64 oracles, the S twin's
        # reduce_rhs and reconstruct against the complex128 operator's, and its apply_full, which reads
        # the float64 D_oo, must raise rather than return a wrong answer
        def rel(got, ref):
            return np.linalg.norm(got.columns() - ref.columns()) / np.linalg.norm(ref.columns())

        worst = 0.0
        dense = assemble_dirac_dense(params, gauge, clover)
        twins = [DiracOperator(params, gauge, clover, comm).astype(np.complex64) for comm in comms]
        for layout in (1, 2):
            psi = gen_spinor(geom.n_sites, 4, layout, seed=cfg.seed + 2, geom=geom)
            ref = dense @ psi.columns()
            for twin in twins:
                got = twin(psi.astype(np.complex64)).columns()
                worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
        del dense
        schur = SchurOperator(params, gauge, clover)
        schur_twin = schur.astype(np.complex64)
        v = gen_spinor(schur.n_sites, 2, Layout(cfg.layout), seed=cfg.seed + 3)
        ref = assemble_schur_dense(params, gauge, clover) @ v.columns()
        got = schur_twin(v.astype(np.complex64)).columns()
        worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
        eta = gen_spinor(geom.n_sites, 2, Layout(cfg.layout), seed=cfg.seed + 4, geom=geom)
        reduced, eta_elim = schur.reduce_rhs(eta)
        reduced32, eta_elim32 = schur_twin.reduce_rhs(eta.astype(np.complex64))
        worst = max(worst, rel(reduced32, reduced), rel(eta_elim32, eta_elim),
                    rel(schur_twin.reconstruct(v.astype(np.complex64), eta_elim32), schur.reconstruct(v, eta_elim)))
        if worst > 1e-6:
            raise NumericalFailure(f"rel err {worst:.3e} > 1e-6")
        try:
            schur_twin.apply_full(eta.astype(np.complex64))
        except ValueError as exc:
            if "operator array of dtype" not in str(exc):
                raise
        else:
            raise NumericalFailure("the complex64 S twin's apply_full did not raise for its float64 D_oo")
        return f"D and S twins, rel err {worst:.3e}"

    suite("gauge-unitarity", check_unitarity)
    suite("projector-algebra", check_projectors)
    suite("dense-vs-kernel-b1", check_dense(1))
    suite("dense-vs-kernel-b8", check_dense(8))
    suite("free-field-identity", check_free_field)
    suite("schur-dense-equivalence", check_schur)
    suite("single-precision-dense", check_single_precision)

    if failures:
        raise NumericalFailure("failing suites: " + ", ".join(failures))
    return 0


def cmd_gen_fields(args) -> int:
    cfg = _load_runconfig(args)
    _emit_header(config_hash(cfg), cfg.seed)
    geom, gauge, clover = _seeded_fields(cfg)
    eta = gen_spinor(geom.n_sites, cfg.b, Layout(cfg.layout), seed=cfg.seed + 2, geom=geom)
    # the rhs is eta.snap: psi.snap is the name solve gives its solution under the same output.path
    prefix = cfg.out_path
    paths = {
        "gauge": f"{prefix}gauge.snap",
        "clover": f"{prefix}clover.snap",
        "eta": f"{prefix}eta.snap",
    }
    write_gauge(_prepare_out(paths["gauge"]), gauge)
    write_clover(_prepare_out(paths["clover"]), clover)
    write_spinor(_prepare_out(paths["eta"]), eta)
    print(json.dumps({
        "files": paths,
        "checksums": {
            "gauge": _checksum(gauge.data),
            "clover": _checksum(clover.data),
            "eta": _checksum(eta.data),
        },
    }, indent=2))
    return 0


def cmd_stream(args) -> int:
    pseudo = f"stream kind={args.kind} mb={args.mb} threads={args.threads} reps={args.reps}"
    _emit_header(text_hash(pseudo), 0)
    array_bytes = args.mb * 1024 * 1024
    llc = args.llc_mb * 1024 * 1024
    result = stream_bench(args.kind, array_bytes, repetitions=args.reps,
                          threads=args.threads, llc_bytes=llc)
    print(json.dumps(result.as_dict(), indent=2))
    return 0


def cmd_roofline(args) -> int:
    pseudo = f"roofline in={args.infile} triad_bw={args.triad_bw}"
    _emit_header(text_hash(pseudo), 0)
    with open(args.infile, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "records" not in data:
        raise ValueError(f"{args.infile} holds an object without a 'records' list")
    runs = data["records"] if isinstance(data, dict) else data
    report = roofline_report(runs, args.triad_bw * 1e9)
    csv_text = report.to_csv()
    if args.out:
        with open(_prepare_out(args.out), "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    print(report.to_json())
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def cmd_cost_model(args) -> int:
    pseudo = (f"cost-model strategy={args.strategy} b={args.b} b2={args.b2} "
              f"svl={args.svl} iters={args.iters} weights={args.weights}")
    _emit_header(text_hash(pseudo), 0)
    machine = AbstractMachine(args.svl)
    weights = CostWeights.preset(args.weights)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = rng.normal(size=(3, args.b)) + 1j * rng.normal(size=(3, args.b))
    _, hist = run_kernel(args.strategy, a, m, machine)
    payload = dict(hist.as_dict())
    payload["total_cost"] = weighted_cost(hist, weights)
    if args.b2 is not None:
        payload["delta_cost"] = delta_cost(args.strategy, args.b, args.b2, args.iters,
                                           machine, weights)
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(_prepare_out(args.out), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


# -- wiring -----------------------------------------------------------------


def _add_runconfig_args(sub) -> None:
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")


def build_parser() -> _Parser:
    parser = _Parser(prog="lqcdlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bench-dirac", help="time the operator over b/layout sweeps")
    _add_runconfig_args(p)
    p.add_argument("--b-list", help="comma/space-separated b values to sweep")
    p.add_argument("--layout-list", help="comma/space-separated layouts to sweep")
    p.add_argument("--reps", type=int, default=3, help="timed repetitions (median)")
    p.set_defaults(fn=cmd_bench_dirac)

    p = subs.add_parser("solve", help="run the batched solver on a seeded problem")
    _add_runconfig_args(p)
    p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("oracle-check", help="dense-equivalence and invariant suites")
    _add_runconfig_args(p)
    p.add_argument("--corrupt-gauge", action="store_true",
                   help="perturb one link to demonstrate failure detection")
    p.set_defaults(fn=cmd_oracle_check)

    p = subs.add_parser("gen-fields", help="write seeded gauge/clover/spinor snapshots")
    _add_runconfig_args(p)
    p.set_defaults(fn=cmd_gen_fields)

    p = subs.add_parser("stream", help="memory bandwidth micro-benchmark")
    p.add_argument("--kind", default="triad", choices=["copy", "scale", "add", "triad"])
    p.add_argument("--mb", type=int, default=512, help="array size in MiB")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--llc-mb", type=int, default=32, help="assumed last-level cache MiB")
    p.set_defaults(fn=cmd_stream)

    p = subs.add_parser("roofline", help="tabulate runs against the bandwidth ceiling")
    p.add_argument("--in", dest="infile", required=True, help="bench-dirac JSON records")
    p.add_argument("--triad-bw", type=float, required=True, help="triad bandwidth in GB/s")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_roofline)

    p = subs.add_parser("cost-model", help="instruction histograms for matmul strategies")
    p.add_argument("--strategy", required=True)
    p.add_argument("--b", type=int, default=8)
    p.add_argument("--b2", type=int, default=None)
    p.add_argument("--svl", type=int, default=512)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--weights", default="uniform", choices=["uniform", "override"])
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(fn=cmd_cost_model)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map anything else to internal
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
