"""Print one sha256 prefix per operator output on fixed seeded inputs.

A change meant to keep every output bitwise runs this against both trees'
libraries and compares the two listings:

    PYTHONPATH=/path/to/parent/src python3 tools/output_hashes.py > parent.txt
    PYTHONPATH=src python3 tools/output_hashes.py > change.txt
    diff parent.txt change.txt

It covers the full operator D on one rank and on several rank grids, the
even/odd Schur operator's S, ``reduce_rhs``, ``reconstruct`` and
``apply_full``, each at b in {1, 4, 16}, in all three layouts and at both
precisions (``apply_full`` at complex128 only), and the three benchmark
solves on their seed-5 inputs with their iteration counts and the largest
of their final full-system relative residuals.  Each line is
``<what> <sha256 prefix>``; the script reads only the library's public
calls, so it runs on any tree that has them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from lqcdlab.dirac import DiracOperator, DiracParams
from lqcdlab.fields import Layout, gen_clover, gen_gauge, gen_spinor
from lqcdlab.geometry import LatticeGeometry, RankGrid
from lqcdlab.gmres import GmresConfig, solve_dirac
from lqcdlab.halo import MultiRankExecutor
from lqcdlab.oddeven import SchurOperator

PRECISIONS = (np.complex128, np.complex64)
BLOCKS = (1, 4, 16)
# (lattice, rank grid or None for one rank) of every D case
D_CASES = (
    ((8, 8, 8, 8), None),
    ((8, 8, 8, 8), (1, 1, 1, 2)),
    ((4, 4, 4, 4), (1, 1, 1, 1)),
    ((4, 4, 4, 4), (2, 2, 2, 2)),
    ((6, 6, 4, 4), (1, 1, 2, 2)),
)
SCHUR_DIMS = ((8, 8, 8, 8), (6, 6, 4, 4))
# (name, b, layout, odd_even, rank grid) of the benchmark workloads, 8^4, m0 = 1.0
SOLVES = (
    ("full-b4", 4, Layout.RHS_MAJOR, False, None),
    ("evenodd-b4", 4, Layout.RHS_MAJOR, True, None),
    ("tworank-b16", 16, Layout.COMPONENT_MAJOR, False, (1, 1, 1, 2)),
)
SOLVE_SEED = 5


def digest(field) -> str:
    return hashlib.sha256(np.ascontiguousarray(field.data).tobytes()).hexdigest()[:12]


def inputs(dims: tuple, seed: int):
    geom = LatticeGeometry(dims)
    return geom, gen_gauge(geom, "random", seed=seed), gen_clover(geom, "random", 0.1, seed=seed + 1)


def name(dims: tuple) -> str:
    return "x".join(map(str, dims))


def dirac_lines():
    params = DiracParams(m0=-0.5)
    for dims, grid in D_CASES:
        geom, gauge, clover = inputs(dims, seed=11)
        op = DiracOperator(params, gauge, clover, MultiRankExecutor(RankGrid(grid)) if grid else None)
        where = f"D {name(dims)} {'rank' if grid is None else name(grid)}"
        for dtype in PRECISIONS:
            at = op.astype(dtype)
            for b in BLOCKS:
                for layout in Layout:
                    psi = gen_spinor(geom.n_sites, b, layout, seed=20 + b, geom=geom).astype(dtype)
                    yield f"{where} b={b} L{int(layout)} {np.dtype(dtype).name}", digest(at(psi))


def schur_lines():
    for dims in SCHUR_DIMS:
        geom, gauge, clover = inputs(dims, seed=31)
        schur = SchurOperator(DiracParams(m0=-0.5), gauge, clover)
        for dtype in PRECISIONS:
            at = schur.astype(dtype)
            for b in BLOCKS:
                for layout in Layout:
                    tag = f"{name(dims)} b={b} L{int(layout)} {np.dtype(dtype).name}"
                    v = gen_spinor(schur.n_sites, b, layout, seed=40 + b).astype(dtype)
                    eta = gen_spinor(geom.n_sites, b, layout, seed=50 + b, geom=geom).astype(dtype)
                    reduced, eta_elim = at.reduce_rhs(eta)
                    yield f"S {tag}", digest(at(v))
                    yield f"reduce_rhs {tag}", digest(reduced)
                    yield f"reconstruct {tag}", digest(at.reconstruct(v, eta_elim))
                    if dtype == np.complex128:
                        yield f"apply_full {tag}", digest(at.apply_full(eta))


def solve_lines():
    cfg = GmresConfig(restart_len=10, tol=1e-8)
    for label, b, layout, odd_even, grid in SOLVES:
        geom, gauge, clover = inputs((8, 8, 8, 8), seed=SOLVE_SEED)
        eta = gen_spinor(geom.n_sites, b, layout, seed=SOLVE_SEED + 2, geom=geom)
        comm = MultiRankExecutor(RankGrid(grid)) if grid else None
        report = solve_dirac(DiracParams(m0=1.0), gauge, clover, eta, cfg, odd_even=odd_even, comm=comm)
        yield (f"solve {label} seed={SOLVE_SEED} iterations={report.iterations} "
               f"max_full_relnorm={report.full_relnorms.max():.3e}"), digest(report.psi)


def main() -> None:
    for lines in (dirac_lines(), schur_lines(), solve_lines()):
        for what, value in lines:
            print(what, value, flush=True)


if __name__ == "__main__":
    main()
