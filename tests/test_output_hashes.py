"""``tools/output_hashes.py`` runs and prints its whole listing.

Every change meant to keep the outputs bitwise diffs this listing between
two trees, so the tool itself must keep running.  The test checks the
listing's shape, not the hashes, which depend on the BLAS library: 219
lines of ``<label> <12 hex digits>`` with no label twice, and the three
benchmark solves at their seed-5 iteration counts.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import lqcdlab

ROOT = Path(__file__).resolve().parents[1]

_LINE = re.compile(r"(?P<label>.+) (?P<digest>[0-9a-f]{12})")
_SOLVE = re.compile(r"solve (?P<workload>\S+) seed=5 iterations=(?P<iterations>\d+) max_full_relnorm=\S+")


def test_output_hashes_lists_every_output_once_and_the_solves_keep_their_iterations():
    # the tool runs on the library that these tests import
    env = {**os.environ, "PYTHONPATH": str(Path(lqcdlab.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_hashes.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 219
    matches = [_LINE.fullmatch(line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    labels = [m["label"] for m in matches]
    assert len(set(labels)) == len(labels)
    solves = {s["workload"]: int(s["iterations"]) for s in map(_SOLVE.fullmatch, labels) if s}
    assert solves == {"full-b4": 21, "evenodd-b4": 11, "tworank-b16": 21}
