"""Serial-assembly benchmark: the dense Jacobian storage on each side of its
size limit.

A serial :class:`~repro.circuit.mna.StampContext` accumulates the dense
Jacobian in a flat Python list up to ``mna.LIST_JACOBIAN_LIMIT`` unknowns
and in a flat ndarray above it: list entries write faster, but the list's
conversion into an array costs O(n*n) per assembly.  The workloads are
RC-diode ladders, one below the limit and two above it (up to the dense
solver's range), each assembled warm -- full transient assemblies -- with
both storages in interleaved blocks (the limit patched for the other one).
The benchmark checks that

* both storages assemble byte-equal residuals and Jacobians, and
* on every ladder, the storage the limit picks is not slower than the
  other one by more than ``SLACK`` (best block of each, wall clock).

Run standalone (``python benchmarks/bench_serial_assembly.py``);
``--smoke`` takes fewer blocks and skips the wall-clock check, as the other
benchmarks' smoke modes do.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.circuit import Circuit, Integrator, SimulationOptions, mna
from repro.circuit.mna import MNASystem

#: Ladder sections: one ladder below the list limit, two above it.
SECTIONS = (10, 60, 200)
#: Tolerated slowdown of the chosen storage against the other one.
SLACK = 1.15
ASSEMBLIES_PER_BLOCK = 10


def build_ladder(sections: int) -> Circuit:
    """A driven RC ladder with a diode to ground at every other node."""
    circuit = Circuit(f"rcd-{sections}")
    circuit.voltage_source("VS", "n0", "0", 5.0)
    for i in range(sections):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 100.0)
        circuit.capacitor(f"C{i}", f"n{i + 1}", "0", 1e-9)
        if i % 2 == 0:
            circuit.diode(f"D{i}", f"n{i + 1}", "0")
    return circuit


def _assembler(sections: int):
    """A warm full transient assembly of one ladder, as a callable."""
    system = MNASystem(build_ladder(sections))
    options = SimulationOptions(linear_solver="dense")
    integrator = Integrator("trapezoidal")
    integrator.set_step(1e-8)
    x = 0.1 * np.random.default_rng(sections).normal(size=system.size)
    system.assemble(x, "tran", 1e-8, integrator, options)
    integrator.commit()
    return system.size, lambda: system.assemble(x, "tran", 2e-8, integrator,
                                                options)


def _with_limit(limit: int, fn):
    saved = mna.LIST_JACOBIAN_LIMIT
    mna.LIST_JACOBIAN_LIMIT = limit
    try:
        return fn()
    finally:
        mna.LIST_JACOBIAN_LIMIT = saved


def run(blocks: int, check: bool = True,
        check_wall_clock: bool = True) -> list[str]:
    storages = {"list": 10 ** 9, "ndarray": 0}
    lines = [f"LIST_JACOBIAN_LIMIT = {mna.LIST_JACOBIAN_LIMIT} unknowns",
             f"{'unknowns':>8}  {'chosen':>7}  {'list us':>9}  "
             f"{'ndarray us':>10}  bytes equal"]
    for sections in SECTIONS:
        size, assemble = _assembler(sections)
        chosen = "list" if size <= mna.LIST_JACOBIAN_LIMIT else "ndarray"
        assembled = {name: _with_limit(limit, assemble)
                     for name, limit in storages.items()}
        equal = all(assembled["list"].res.tobytes() == ctx.res.tobytes()
                    and assembled["list"].jac.tobytes() == ctx.jac.tobytes()
                    for ctx in assembled.values())
        best = dict.fromkeys(storages, np.inf)
        for _ in range(blocks):
            for name, limit in storages.items():
                def block():
                    start = time.perf_counter()
                    for _ in range(ASSEMBLIES_PER_BLOCK):
                        assemble()
                    return time.perf_counter() - start
                best[name] = min(best[name], _with_limit(limit, block)
                                 / ASSEMBLIES_PER_BLOCK)
        lines.append(f"{size:>8}  {chosen:>7}  {best['list'] * 1e6:>9.1f}  "
                     f"{best['ndarray'] * 1e6:>10.1f}  {equal}")
        if check and not equal:
            raise AssertionError(
                f"the list and ndarray storages assemble different bytes "
                f"on the {size}-unknown ladder")
        other = "ndarray" if chosen == "list" else "list"
        if check and check_wall_clock and best[chosen] > SLACK * best[other]:
            raise AssertionError(
                f"the {chosen} storage chosen for {size} unknowns is "
                f"{best[chosen] / best[other]:.2f}x the {other} storage's "
                f"assembly time (slack {SLACK:.2f}x)")
    return lines


def test_serial_assembly_storage(benchmark):
    from conftest import report

    lines = benchmark.pedantic(lambda: run(blocks=5, check_wall_clock=False),
                               rounds=1, iterations=1)
    report("Serial assembly: dense Jacobian storage by size", lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fewer blocks, no wall-clock check")
    args = parser.parse_args(argv)
    lines = run(blocks=3 if args.smoke else 15,
                check_wall_clock=not args.smoke)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
