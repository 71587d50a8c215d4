"""Performance model: arithmetic intensity, roofline, bandwidth accounting.

The kernel moves, per site and rhs, 168 complex values that scale with b and
114 that do not (gauge links and clover blocks are shared across the block),
at 16 bytes each in complex128 and 8 in complex64, while doing 2574 flops
(:func:`lqcdlab.dirac.account_traffic`).  Everything here is small exact
arithmetic on those constants plus a STREAM-style micro-benchmark whose
kernels are verified after timing so the work cannot be optimized away.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .dirac import account_traffic
from .fields import PRECISIONS

STREAM_KINDS = ("copy", "scale", "add", "triad")
STREAM_SCALAR = 3.0
DEFAULT_LLC_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class CounterSample:
    l2_refill: int
    l2_writeback: int
    cycles: int
    frequency: float
    cache_line: int = 256
    ranks: int = 1

    def __post_init__(self) -> None:
        # every check fails for NaN, which compares False, and for infinity
        for name, low in (("l2_refill", 0), ("l2_writeback", 0), ("ranks", 1)):
            if not low <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= {low}, got {getattr(self, name)}")
        for name in ("cycles", "frequency", "cache_line"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


def arithmetic_intensity(b: int, dtype=np.complex128) -> Fraction:
    """Flops per byte moved for a b-rhs operator application on values of precision ``dtype``."""
    if b < 1:
        raise ValueError("b must be >= 1")
    traffic = account_traffic(b, dtype)
    return Fraction(traffic["flops_per_site"], traffic["bytes_per_site"])


def theoretical_perf(bw: float, b: int, dtype=np.complex128) -> float:
    """Bandwidth-bound performance ceiling in flops/second."""
    if not 0 < bw < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bw}")
    return bw * float(arithmetic_intensity(b, dtype))


def arch_efficiency(measured: float, theoretical: float) -> float:
    if not 0 < theoretical < math.inf:
        raise ValueError(f"theoretical performance must be positive and finite, got {theoretical}")
    if not 0 <= measured < math.inf:
        raise ValueError(f"measured performance must be nonnegative and finite, got {measured}")
    return measured / theoretical


def effective_bandwidth(sample: CounterSample) -> float:
    """Bytes/second implied by cache refill and writeback counters."""
    moved = (sample.l2_refill + sample.l2_writeback) * sample.cache_line
    return moved * sample.frequency / sample.cycles * sample.ranks


def read_write_ratio(b: int) -> Fraction:
    """Read-to-write traffic ratio of the operator, (204 b + 330) : 204 b."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return Fraction(204 * b + 330, 204 * b)


# -- STREAM micro-benchmark -------------------------------------------------


@dataclass
class StreamResult:
    kind: str
    bandwidth: float
    best_seconds: float
    times: list[float]
    bytes_per_rep: int
    threads: int
    verified: bool

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bandwidth_bytes_per_s": self.bandwidth,
            "bandwidth_gb_per_s": self.bandwidth / 1e9,
            "best_seconds": self.best_seconds,
            "times": self.times,
            "bytes_per_rep": self.bytes_per_rep,
            "threads": self.threads,
            "verified": self.verified,
        }


def _stream_slices(n: int, threads: int) -> list[slice]:
    bounds = np.linspace(0, n, threads + 1).astype(np.int64)
    return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(threads)]


def stream_bench(
    kind: str,
    array_bytes: int,
    repetitions: int = 10,
    threads: int = 1,
    llc_bytes: int = DEFAULT_LLC_BYTES,
) -> StreamResult:
    """Best-of-N bandwidth for one STREAM kernel, with post-run verification.

    copy  c = a           (2 arrays moved)
    scale b = q*c         (2)
    add   c = a + b       (3)
    triad a = b + q*c     (3)
    """
    if kind not in STREAM_KINDS:
        raise ValueError(f"unknown stream kind {kind!r}")
    if repetitions < 1 or threads < 1:
        raise ValueError("repetitions and threads must be >= 1")
    if array_bytes < 4 * llc_bytes:
        raise ValueError(
            f"array_bytes {array_bytes} below 4x last-level cache {llc_bytes}; "
            "results would measure cache, not memory"
        )
    n = array_bytes // 8
    a = np.full(n, 1.0)
    b = np.full(n, 2.0)
    c = np.full(n, 4.0)
    q = STREAM_SCALAR

    def body(sl: slice) -> None:
        if kind == "copy":
            c[sl] = a[sl]
        elif kind == "scale":
            b[sl] = q * c[sl]
        elif kind == "add":
            c[sl] = a[sl] + b[sl]
        else:
            a[sl] = b[sl] + q * c[sl]

    slices = _stream_slices(n, threads)
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    times = []
    try:
        for _ in range(repetitions):
            t0 = time.perf_counter()
            if pool is None:
                body(slices[0])
            else:
                list(pool.map(body, slices))
            times.append(time.perf_counter() - t0)
    finally:
        if pool is not None:
            pool.shutdown()

    if kind == "copy":
        ok = bool(np.array_equal(c, a))
    elif kind == "scale":
        ok = bool(np.array_equal(b, q * np.full(n, 4.0)))
    elif kind == "add":
        ok = bool(np.array_equal(c, np.full(n, 3.0)))
    else:
        ok = bool(np.array_equal(a, np.full(n, 2.0 + q * 4.0)))
    if not ok:
        raise RuntimeError(f"stream {kind} kernel produced wrong values")

    n_arrays = 2 if kind in ("copy", "scale") else 3
    bytes_per_rep = n_arrays * n * 8
    best = min(times)
    return StreamResult(
        kind=kind,
        bandwidth=bytes_per_rep / best,
        best_seconds=best,
        times=times,
        bytes_per_rep=bytes_per_rep,
        threads=threads,
        verified=True,
    )


# -- roofline report --------------------------------------------------------

ROOFLINE_COLUMNS = ("b", "layout", "ai", "gflops", "theor_gflops", "arch_eff")


@dataclass
class RooflineRow:
    b: int
    layout: int
    ai: float
    gflops: float
    theor_gflops: float
    arch_eff: float


@dataclass
class RooflineReport:
    rows: list[RooflineRow]
    warnings: list[str] = dc_field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(ROOFLINE_COLUMNS)
        for r in self.rows:
            writer.writerow([r.b, r.layout, repr(r.ai), repr(r.gflops), repr(r.theor_gflops), repr(r.arch_eff)])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": [r.__dict__ for r in self.rows],
                "warnings": self.warnings,
            },
            indent=2,
        )


def roofline_report(runs, triad_bw: float) -> RooflineReport:
    """Arrange kernel perf records against the ceiling of a positive, finite triad bandwidth (bytes/s).

    Each run is a dict (a ``bench-dirac`` record) with keys b (an integer
    >= 1), layout and gflops (finite, >= 0), and optionally dtype (default
    complex128), the field precision whose bytes set its ceiling; any other
    run raises ValueError naming its index.  Efficiencies above 1 contradict
    the memory-bound model and are reported as warnings rather than clipped.
    """
    if not 0 < triad_bw < math.inf:
        raise ValueError(f"triad bandwidth must be positive and finite, got {triad_bw}")
    rows = []
    warnings = []
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise ValueError(f"roofline record {i} is not an object: {run!r}")
        for key in ("b", "layout", "gflops"):
            if key not in run:
                raise ValueError(f"roofline record {i} lacks key {key!r}")
        b, gflops, dtype = run["b"], run["gflops"], run.get("dtype", "complex128")
        if type(b) is not int or b < 1:
            raise ValueError(f"roofline record {i} has b {b!r}, expected an integer >= 1")
        if type(gflops) not in (int, float) or not 0 <= gflops < math.inf:
            raise ValueError(f"roofline record {i} has gflops {gflops!r}, expected a finite number >= 0")
        if dtype not in [d.name for d in PRECISIONS]:
            raise ValueError(f"roofline record {i} has dtype {dtype!r}, expected complex128 or complex64")
        layout, gflops = int(run["layout"]), float(gflops)
        theor = theoretical_perf(triad_bw, b, dtype) / 1e9
        eff = arch_efficiency(gflops, theor)
        rows.append(RooflineRow(b, layout, float(arithmetic_intensity(b, dtype)), gflops, theor, eff))
        if eff > 1.0:
            warnings.append(
                f"arch_eff {eff:.3f} > 1 for b={b} layout={layout}: "
                "measured exceeds the bandwidth-bound model"
            )
    return RooflineReport(rows=rows, warnings=warnings)
