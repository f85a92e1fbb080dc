"""FE factorization benchmark: the parallel-plate free-node block on
SuperLU against LAPACK's banded LU.

A new PXT geometry costs one factorization of the free-node block
``K_ff(s) = s Kxx + Kyy / s`` of the structured gap mesh
(:class:`~repro.fem.ParallelPlateProblem`).  The mesh numbers its nodes
row by row, so the block is banded, ``nx + 2`` entries wide on each side
of its diagonal.  For each mesh the benchmark factors and solves the unit
drive two ways, in interleaved blocks:

* ``superlu``: the block cut from the direct assembly
  (:func:`~repro.fem.assembly.assemble_stiffness`), as CSR;
* ``banded``: the operator's DIA block, built from the gap-affine template
  the way :meth:`ParallelPlateProblem.solve` builds it.

``FactorizedSolver`` picks the backend by matrix type in both cases.  The
benchmark checks that

* both solutions agree to 1e-12 relative to the largest potential, and
* the banded factorization is not slower than SuperLU on any mesh (best
  block of each, wall clock).

Run standalone (``python benchmarks/bench_fe_factorization.py``);
``--smoke`` takes fewer blocks.  The margin is several-fold on every mesh,
so the smoke run checks the wall clock too.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import scipy.sparse as sp

from repro.constants import EPSILON_0
from repro.fem import electrostatics
from repro.fem.assembly import assemble_stiffness, free_block
from repro.fem.mesh import RectangularMesh
from repro.linalg import FactorizedSolver

#: Mesh divisions ``(nx, ny)``: from a coarse mesh to well past the PXT
#: mesh (20 x 14, 273 free nodes).
MESHES = ((4, 3), (8, 6), (16, 12), (20, 14), (32, 24), (64, 48))
GAP = 1.5e-4
WIDTH = 1e-3
SOLVES_PER_BLOCK = 10
RTOL = 1e-12


def _systems(nx: int, ny: int):
    """The free-node block as SuperLU's CSR and the operator's DIA
    matrix, and the unit drive's right-hand side."""
    mesh = RectangularMesh(width=WIDTH, height=GAP, nx=nx, ny=ny)
    template = electrostatics._Template.build(mesh, EPSILON_0)
    size = template.free.size
    banded = sp.dia_matrix((GAP * template.kxx + template.kyy / GAP,
                            template.offsets), shape=(size, size))
    direct, _ = free_block(assemble_stiffness(mesh, EPSILON_0),
                           template.free)
    rhs = GAP * template.rhs_xx + template.rhs_yy / GAP
    return {"superlu": direct, "banded": banded}, rhs


def run(blocks: int) -> list[str]:
    lines = [f"{'mesh':>7}  {'free':>5}  {'half-band':>9}  {'superlu us':>10}"
             f"  {'banded us':>9}  {'speedup':>7}  {'rel diff':>8}"]
    for nx, ny in MESHES:
        matrices, rhs = _systems(nx, ny)
        solutions = {name: FactorizedSolver().solve(matrix, rhs)
                     for name, matrix in matrices.items()}
        scale = np.max(np.abs(solutions["superlu"]))
        difference = np.max(np.abs(solutions["banded"]
                                   - solutions["superlu"])) / scale
        best = dict.fromkeys(matrices, np.inf)
        for _ in range(blocks):
            for name, matrix in matrices.items():
                solver = FactorizedSolver()
                start = time.perf_counter()
                for _ in range(SOLVES_PER_BLOCK):
                    solver.solve(matrix, rhs)
                best[name] = min(best[name], (time.perf_counter() - start)
                                 / SOLVES_PER_BLOCK)
        half_band = int(np.max(np.abs(matrices["banded"].offsets)))
        lines.append(f"{nx:>3}x{ny:<3}  {rhs.size:>5}  {half_band:>9}  "
                     f"{best['superlu'] * 1e6:>10.1f}  "
                     f"{best['banded'] * 1e6:>9.1f}  "
                     f"{best['superlu'] / best['banded']:>6.2f}x  "
                     f"{difference:>8.1e}")
        if not difference <= RTOL:
            raise AssertionError(
                f"banded and SuperLU solutions differ by {difference:.2e} "
                f"relative on the {nx}x{ny} mesh (limit {RTOL:.0e})")
        if best["banded"] > best["superlu"]:
            raise AssertionError(
                f"the banded factorization takes {best['banded'] * 1e6:.1f}"
                f" us on the {nx}x{ny} mesh, SuperLU "
                f"{best['superlu'] * 1e6:.1f} us")
    return lines


def test_fe_factorization(benchmark):
    from conftest import report

    lines = benchmark.pedantic(lambda: run(blocks=5), rounds=1, iterations=1)
    report("FE free-node block: SuperLU vs banded LU", lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fewer blocks")
    args = parser.parse_args(argv)
    print("\n".join(run(blocks=5 if args.smoke else 15)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
