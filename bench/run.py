"""Time-to-solution benchmark of lqcdlab's multi-rhs clover Wilson-Dirac solves.

Run from the root of a checkout:

    python3 bench/run.py --workload full-b4 --seed 0 --seconds 30 --trace 0

Workloads: full-b4, evenodd-b4, tworank-b16 (see bench/NOTES.md); ``all``
runs each of them in its own process, one after the other.  The last
line of a workload's standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Lines before it give
the machine record, sample counts and, when traced, the layer self times.
The traced run also writes its spans to bench/out/ as JSON lines.
"""

import os

from ttsbench import THREAD_POOL_VARS

# One BLAS/OpenMP thread, set before numpy loads: the rank threads of
# tworank-b16 are then the only parallelism.
for _var in THREAD_POOL_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lqcdlab" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lqcdlab

    if Path(lqcdlab.__file__).resolve().parent != SRC / "lqcdlab":
        print(f"error: imported lqcdlab from {lqcdlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from ttsbench.workloads import WORKLOADS, run

    if args.workload == "all":
        # one process per workload, because ru_maxrss never falls
        codes = []
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            codes.append(subprocess.run([sys.executable, __file__, *argv]).returncode)
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be >= 0", file=sys.stderr)
        return 2
    trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT,
              trace_path=trace_path)
    for key, value in out["info"].items():
        print(f"{key}: {json.dumps(value)}")
    for name, m in out["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
