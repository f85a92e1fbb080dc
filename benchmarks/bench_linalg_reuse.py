"""Solver-reuse benchmark: pin the speedups of the repro.linalg core.

Two workloads, each comparing a reference route against the reuse it pins:

* **Figure-5 transient Newton loop** -- the paper's nonlinear behavioral
  transducer + resonator pulse response, the default ``"auto"`` policy
  (full Newton) versus ``"chord"`` (held factorization + residual-only
  assemblies, refactored on a stall or a step-size change).
  Floor: >= 2x on the Newton-loop time and >= 4x fewer factorizations,
  with the chord waveform within 1e-6 of full Newton.
* **AC sweep of a linear circuit** -- a 200-point sweep of a parallel-branch
  RLC ladder, per-frequency assembly (an explicit loop here: re-stamp and
  solve every frequency) versus ``ACAnalysis``, which assembles the exact
  coefficients of the powers of ``s`` once and only evaluates and solves
  ``Y(j*omega)`` per frequency.  Floor: >= 3x, with results within 1e-9.

The floors are enforced with explicit raises so the CI smoke job fails on a
regression.  A correctness gate also checks that ``"auto"`` is
bit-identical to factoring every Jacobian (no held matrix matched) on the
nonlinear transient.

Run standalone (``python benchmarks/bench_linalg_reuse.py``); ``--smoke``
runs a single repetition and gates on the *deterministic* reuse counters
(factorization and assembly counts, result deviations) instead of the
wall-clock floors, so a noisy shared CI runner cannot fail the job
spuriously -- wall-clock floors are enforced on the full 3-repetition run.
"""

from __future__ import annotations

import argparse
import sys
import time
from unittest import mock

import numpy as np

from repro.circuit import (
    ACAnalysis,
    Circuit,
    OperatingPointAnalysis,
    Pulse,
    SimulationOptions,
    TransientAnalysis,
)
from repro import telemetry
from repro.circuit.analysis.ac import frequency_grid
from repro.circuit.analysis.results import canonical_signal_name
from repro.circuit.mna import MNASystem
from repro.linalg import FactorizedSolver
from repro.linalg import cache as linalg_cache
from repro.telemetry import registry
from repro.system import build_behavioral_system

#: Enforced speedup floors (explicit raises below).
TRANSIENT_NEWTON_FLOOR = 2.0
AC_SWEEP_FLOOR = 3.0


def _figure5_transient(policy: str):
    circuit = build_behavioral_system(
        drive=Pulse(0.0, 10.0, rise=2e-3, width=35e-3))
    options = SimulationOptions(trtol=10.0, jacobian_reuse=policy)
    return TransientAnalysis(circuit, t_stop=60e-3, t_step=4e-4,
                             options=options).run()


def _ac_ladder(sections: int = 10, branches: int = 6) -> Circuit:
    """A linear ladder with several parallel RC branches per section --
    representative of post-extraction macromodel netlists, where the device
    count per node (stamping work) dominates the matrix size."""
    circuit = Circuit("rlc-ladder")
    circuit.voltage_source("V1", "n0", "0", 1.0, ac=1.0)
    for i in range(sections):
        for j in range(branches):
            circuit.resistor(f"R{i}_{j}", f"n{i}", f"n{i + 1}", 50.0 * (j + 1))
            circuit.capacitor(f"C{i}_{j}", f"n{i + 1}", "0", 1e-9 / (j + 1))
        circuit.inductor(f"L{i}", f"n{i + 1}", "0", 1e-6)
    return circuit


def _best_of(repetitions: int, fn):
    best_time = np.inf
    value = None
    for _ in range(repetitions):
        start = time.perf_counter()
        value = fn()
        best_time = min(best_time, time.perf_counter() - start)
    return value, best_time


def run(repetitions: int, check: bool = True,
        check_wall_clock: bool = True) -> list[str]:
    lines: list[str] = []

    # ---------------------------------------------------- correctness gate
    # No held matrix is ever matched: every Jacobian is factored afresh.
    with mock.patch.object(linalg_cache, "_same_matrix",
                           lambda held, matrix: False):
        reference = _figure5_transient("auto")
    auto = _figure5_transient("auto")
    identical = all(np.array_equal(reference[s], auto[s])
                    for s in reference.signals())
    lines.append(f"auto vs factor-every bit-equal : {identical}")
    if check and not identical:
        raise AssertionError(
            "jacobian_reuse='auto' changed the figure-5 transient result")

    # ------------------------------------------------- transient Newton loop
    def best_newton(policy: str):
        best_result, best_time = None, np.inf
        for _ in range(repetitions):
            result = _figure5_transient(policy)
            if result.statistics["newton_time_s"] < best_time:
                best_result = result
                best_time = result.statistics["newton_time_s"]
        return best_result, best_time

    full_result, newton_full = best_newton("auto")
    chord_result, newton_chord = best_newton("chord")
    newton_speedup = newton_full / newton_chord
    probe = np.linspace(1e-3, 55e-3, 40)
    deviation = 0.0
    for signal in full_result.signals():
        ref = full_result.sample(signal, probe)
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        deviation = max(deviation, float(np.max(np.abs(
            chord_result.sample(signal, probe) - ref))) / scale)
    lines.append(f"figure-5 Newton loop (auto)    : {newton_full * 1e3:8.1f} ms "
                 f"({full_result.statistics['factorizations']} factorizations)")
    lines.append(f"figure-5 Newton loop (chord)   : {newton_chord * 1e3:8.1f} ms "
                 f"({chord_result.statistics['factorizations']} factorizations, "
                 f"{chord_result.statistics['chord_iterations']} chord iters)")
    lines.append(f"transient Newton speedup       : {newton_speedup:8.2f} x "
                 f"(floor {TRANSIENT_NEWTON_FLOOR:.1f}x)")
    lines.append(f"chord worst relative deviation : {deviation:.2e}")
    if check:
        # Deterministic gate: chord must actually be riding factorizations.
        full_factorizations = full_result.statistics["factorizations"]
        chord_factorizations = chord_result.statistics["factorizations"]
        if chord_factorizations * 4 > full_factorizations \
                or chord_result.statistics["chord_iterations"] == 0:
            raise AssertionError(
                f"chord-Newton reuse regressed: {chord_factorizations} "
                f"factorizations vs {full_factorizations} under full Newton "
                "(expected at least a 4x reduction)")
        if deviation > 1e-6:
            raise AssertionError(
                f"chord-Newton deviates from full Newton by {deviation:.2e} "
                "(limit 1e-6) on the figure-5 transient")
        if check_wall_clock and newton_speedup < TRANSIENT_NEWTON_FLOOR:
            raise AssertionError(
                f"chord-Newton reuse regressed: {newton_speedup:.2f}x < "
                f"{TRANSIENT_NEWTON_FLOOR:.1f}x floor on the figure-5 "
                "transient Newton loop")

    # --------------------------------------------------------- AC sweep
    circuit = _ac_ladder()
    frequencies = frequency_grid(1e3, 1e8, 40)  # 201 points over 5 decades
    operating_point = OperatingPointAnalysis(circuit).run()

    def sweep():
        with telemetry.session(mode="summary"):
            before = registry.snapshot()
            result = ACAnalysis(circuit, frequencies,
                                SimulationOptions()).run(operating_point)
            digest = registry.delta(before)["histograms"]["mna.assembly.ac_s"]
        return result, digest["count"]

    def per_frequency():
        """Reference: every frequency re-stamped and solved on its own."""
        system = MNASystem(circuit)
        options = SimulationOptions()
        solver = FactorizedSolver("dense")
        solutions = np.zeros((frequencies.size, system.size), dtype=complex)
        for k, frequency in enumerate(frequencies):
            ctx = system.assemble_ac(operating_point.raw, options)
            solutions[k] = solver.solve(ctx.at(2.0 * np.pi * frequency),
                                        ctx.rhs)
        return {canonical_signal_name(label): solutions[:, i]
                for i, label in enumerate(system.unknown_labels())}

    ac_reference, t_direct = _best_of(repetitions, per_frequency)
    (ac_fast, assemblies), t_sweep = _best_of(repetitions, sweep)
    ac_speedup = t_direct / t_sweep
    ac_deviation = 0.0
    for signal, ref in ac_reference.items():
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        ac_deviation = max(ac_deviation, float(np.max(np.abs(
            np.asarray(ac_fast[signal]) - ref))) / scale)
    lines.append(f"AC sweep, {frequencies.size} points (direct): "
                 f"{t_direct * 1e3:8.1f} ms (re-stamped per frequency)")
    lines.append(f"AC sweep, {frequencies.size} points (sweep) : "
                 f"{t_sweep * 1e3:8.1f} ms ({assemblies} assembly)")
    lines.append(f"AC sweep speedup               : {ac_speedup:8.2f} x "
                 f"(floor {AC_SWEEP_FLOOR:.1f}x)")
    lines.append(f"AC worst relative deviation    : {ac_deviation:.2e}")
    if check:
        if assemblies != 1:
            raise AssertionError(
                f"the AC sweep made {assemblies} small-signal assemblies; "
                "one must serve every frequency")
        if ac_deviation > 1e-9:
            raise AssertionError(
                f"the AC sweep deviates by {ac_deviation:.2e} "
                "(limit 1e-9) from direct assembly")
        if check_wall_clock and ac_speedup < AC_SWEEP_FLOOR:
            raise AssertionError(
                f"the one-assembly AC sweep regressed: {ac_speedup:.2f}x < "
                f"{AC_SWEEP_FLOOR:.1f}x floor on the {frequencies.size}-point "
                "linear sweep")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single repetition, deterministic gates only "
                             "(CI smoke mode)")
    parser.add_argument("--no-check", action="store_true",
                        help="report only; skip the regression raises")
    args = parser.parse_args(argv)
    repetitions = 1 if args.smoke else 3
    lines = run(repetitions, check=not args.no_check,
                check_wall_clock=not args.smoke)
    print("==== repro.linalg factorization-reuse benchmark ====")
    for line in lines:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
