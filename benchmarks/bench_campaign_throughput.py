"""Campaign engine throughput: serial vs pool backends, cold vs warm cache.

The workload is the paper's own FE extraction, as a Monte-Carlo campaign
over the gap: 192 points, each a distinct displacement (one drive
voltage) on a 28x20 mesh of the transverse transducer's gap.  Every point
is a new geometry, so the process-wide FE operator table cannot skip its
factorization, and the pool backend has real per-point work to share out
-- on the 8x8 boundary-condition grid a warm serial process serves 56 of
its 64 points from held operators, cheaper than a pool start.  The
benchmark measures points/sec for

* the serial backend (the seed's nested-loop behaviour),
* the multiprocessing pool backend (one worker per CPU),
* a cold disk cache (every point computed and stored), and
* a warm rerun (every point served from the cache),

and pins two correctness properties: the warm rerun is >= 10x faster than
the cold run, and the campaign-driven extraction reproduces the direct
``solve_point`` loop to 1e-9.  Both backends are timed warm -- the serial
runs after the harness round, the pool runs after one untimed warm-up pool
run -- as the fastest of five back-to-back runs, so a descheduled run on
a shared host does not decide the comparison.  The cache runs are timed
the same way: five cold runs, each into a fresh cache directory, and five
warm reruns of the last one.  The pool-beats-serial
assertion only applies on multi-core hosts -- on a single CPU a process
pool cannot win, so there the numbers are reported without the assertion.

A second benchmark pins the batched backend: a 256-point Monte-Carlo
operating-point campaign over a nonlinear diode ladder must run **>= 5x
more points/s** with ``backend="batch"`` (block-factorized lockstep Newton)
than serially, at per-point parity within 1e-12, with no device stamped
per lane (``mna.batch.lane_stamps`` in the batch run's own
``result.metrics`` must stay 0).  The built-in ladder also gates the
diode's junction limiting on counters of that result: at most 16
factorizations per point and no ``op.source_stepping`` entry.  Unlike the pool
comparison this floor holds on a single CPU -- the win is vectorization,
not parallelism -- so CI enforces it unconditionally.  A third benchmark
holds the behavioral batch path to the same gates: the ladder with every
diode a behavioral model ``isat * (exp(v / vt) - 1)`` (``vdd ~ N(1,
0.1)``), each stamping all lanes through one call of its compiled
``"lanes"`` stamp function, with no failed point.
"""

from __future__ import annotations

import itertools
import os
import time

import pytest

from conftest import report
from repro.ad.functions import exp
from repro.campaign import (CampaignRunner, CircuitEvaluator, MonteCarlo,
                            Normal, ResultCache)
from repro.circuit import Circuit
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.natures import ELECTRICAL
from repro.pxt import ParameterExtractor
from repro.system import PAPER_PARAMETERS

#: Distinct gaps of the extraction campaign (one drive voltage each).
GAP_POINTS = 192
GAP_MESH = (28, 20)
GAP_VOLTAGE = 10.0

BATCH_POINTS = 256          # Monte-Carlo samples for the batched comparison
BATCH_SECTIONS = 12         # diode-ladder sections (49 MNA unknowns)
BATCH_SPEEDUP_FLOOR = 5.0   # batch must deliver >= this many x serial
#: Junction limiting gate on the built-in ladder: factorizations per point
#: (63 when the diode had no limiting, ~12 with it).
MAX_FACTORIZATIONS_PER_POINT = 16


def _extractor() -> ParameterExtractor:
    nx, ny = GAP_MESH
    return ParameterExtractor(
        area=PAPER_PARAMETERS.area, gap=PAPER_PARAMETERS.gap,
        epsilon_r=PAPER_PARAMETERS.epsilon_r, nx=nx, ny=ny)


def _grid(extractor):
    """Evenly spaced distinct displacements within +-30 % of the gap."""
    step = 0.6 / (GAP_POINTS - 1)
    displacements = [(-0.3 + step * i) * extractor.gap
                     for i in range(GAP_POINTS)]
    return displacements, [GAP_VOLTAGE]


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _best_of(fn, rounds: int = 5):
    """Last value and fastest wall time of ``rounds`` back-to-back runs."""
    timings = [_timed(fn) for _ in range(rounds)]
    return timings[-1][0], min(elapsed for _, elapsed in timings)


def test_campaign_throughput(benchmark, tmp_path):
    extractor = _extractor()
    displacements, voltages = _grid(extractor)
    spec = extractor.campaign_spec(displacements, voltages)
    evaluator = extractor.campaign_evaluator()
    assert len(spec) == GAP_POINTS
    assert len(set(displacements)) == GAP_POINTS
    cpus = os.cpu_count() or 1

    # --- serial backend (timed by the benchmark harness as the baseline) ---
    serial_result = benchmark.pedantic(
        lambda: CampaignRunner(backend="serial").run(spec, evaluator),
        rounds=1, iterations=1)
    _, serial_s = _best_of(
        lambda: CampaignRunner(backend="serial").run(spec, evaluator))

    # --- pool backend -------------------------------------------------------
    # The first pool run in a process pays a cold worker start; time the
    # backend after one untimed warm-up run, as the serial timing above
    # follows the harness round.
    pool_runner = CampaignRunner(backend="pool", processes=cpus)
    pool_runner.run(spec, evaluator)
    pool_result, pool_s = _best_of(lambda: pool_runner.run(spec, evaluator))

    # --- cold vs warm cache -------------------------------------------------
    # Every cold repetition starts from an empty cache directory; the warm
    # runs reread the last one.
    cold_dirs = itertools.count()

    def cold_run():
        runner = CampaignRunner(cache=ResultCache(
            tmp_path / f"campaign-cache-{next(cold_dirs)}"))
        return runner, runner.run(spec, evaluator)

    (cached_runner, cold_result), cold_s = _best_of(cold_run)
    warm_result, warm_s = _best_of(lambda: cached_runner.run(spec, evaluator))

    # --- parity with the seed's direct nested-loop extraction ---------------
    direct = [extractor.solve_point(x, v)
              for x in displacements for v in voltages]
    worst = 0.0
    for row, want in zip(serial_result, direct):
        assert row.params["displacement"] == want.displacement
        assert row.params["voltage"] == want.voltage
        for name, reference in (("capacitance", want.capacitance),
                                ("force", want.force),
                                ("charge", want.charge)):
            scale = max(abs(reference), 1e-30)
            worst = max(worst, abs(row[name] - reference) / scale)
    assert worst < 1e-9
    assert pool_result.to_rows() == serial_result.to_rows()
    assert warm_result.to_rows() == cold_result.to_rows()
    assert warm_result.num_cached == GAP_POINTS

    lines = [
        f"campaign: {GAP_POINTS} distinct gaps at {GAP_VOLTAGE:g} V "
        f"({extractor.nx}x{extractor.ny} mesh)",
        f"serial backend     : {serial_s:8.3f} s  "
        f"({GAP_POINTS / serial_s:7.1f} points/s)",
        f"pool backend ({cpus:2d}p) : {pool_s:8.3f} s  "
        f"({GAP_POINTS / pool_s:7.1f} points/s)",
        f"cold disk cache    : {cold_s:8.3f} s  "
        f"({GAP_POINTS / cold_s:7.1f} points/s)",
        f"warm disk cache    : {warm_s:8.3f} s  "
        f"({GAP_POINTS / warm_s:7.1f} points/s, {cold_s / warm_s:.0f}x cold)",
        f"campaign vs direct solve_point parity: {worst:.2e} (<= 1e-9)",
    ]
    if cpus > 1:
        lines.append(f"pool speedup over serial: {serial_s / pool_s:.2f}x")
        assert pool_s < serial_s, (
            f"pool backend ({pool_s:.3f} s) should beat serial "
            f"({serial_s:.3f} s) on {cpus} CPUs")
    else:
        lines.append("pool speedup over serial: n/a "
                     "(single-CPU host; fork overhead only)")
    report(f"Campaign throughput: {GAP_POINTS}-gap PXT extraction", lines)

    assert warm_s * 10.0 <= cold_s, (
        f"warm cache ({warm_s:.4f} s) should be >= 10x faster than cold "
        f"({cold_s:.4f} s)")


def _build_ladder(params: dict) -> Circuit:
    """Nonlinear diode ladder; every device stamps batch-vectorized."""
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", params.get("vdd", 5.0))
    for i in range(BATCH_SECTIONS):
        resistance = params.get("rscale", 100.0) if i == 0 else 100.0
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", resistance)
        circuit.diode(f"D{i}", f"n{i + 1}", "0")
    return circuit


def _behavioral_diode(ctx):
    v = ctx.across("e")
    ctx.contribute("e", ctx.param("isat") * (exp(v / ctx.param("vt")) - 1.0))


def _build_behavioral_ladder(params: dict) -> Circuit:
    """The diode ladder with behavioral diodes; every device stamps
    batch-vectorized."""
    circuit = Circuit("behavioral ladder")
    circuit.voltage_source("VS", "n0", "0", params.get("vdd", 1.0))
    for i in range(BATCH_SECTIONS):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 100.0)
        circuit.add(BehavioralDevice(
            f"D{i}", [Port("e", circuit.electrical_node(f"n{i + 1}"),
                           circuit.ground, ELECTRICAL)],
            _behavioral_diode, params={"isat": 1e-9, "vt": 0.05}))
    return circuit


def _check_batched_throughput(benchmark, title, circuit_line, spec, build,
                              param_map):
    """Gate the batch backend against serial on one Monte-Carlo campaign:
    >= the speedup floor, parity within 1e-12, no failed point and no
    per-lane device stamp.  Returns the timed batch run's result."""
    serial_evaluator = CircuitEvaluator(build)
    batch_evaluator = CircuitEvaluator(build, param_map=param_map)

    batch_result = benchmark.pedantic(
        lambda: CampaignRunner(backend="batch").run(spec, batch_evaluator),
        rounds=1, iterations=1)
    timed_result, batch_s = _timed(
        lambda: CampaignRunner(backend="batch").run(spec, batch_evaluator))
    lane_stamps = timed_result.metrics["counters"].get(
        "mna.batch.lane_stamps", 0)
    serial_result, serial_s = _timed(
        lambda: CampaignRunner(backend="serial").run(spec, serial_evaluator))

    # --- parity: every point within 1e-12, no failures in either path ------
    worst = 0.0
    for a, b in zip(serial_result, batch_result):
        assert a.error is None and b.error is None
        for name, value in a.outputs.items():
            scale = max(1.0, abs(value))
            worst = max(worst, abs(b.outputs[name] - value) / scale)
    assert worst <= 1e-12, f"batched results drifted: {worst:.2e}"

    speedup = serial_s / batch_s
    report(title, [
        circuit_line,
        f"serial backend : {serial_s:8.3f} s  "
        f"({BATCH_POINTS / serial_s:7.1f} points/s)",
        f"batch backend  : {batch_s:8.3f} s  "
        f"({BATCH_POINTS / batch_s:7.1f} points/s)",
        f"batch speedup over serial: {speedup:.1f}x "
        f"(floor {BATCH_SPEEDUP_FLOOR:.0f}x)",
        f"worst per-point relative difference: {worst:.2e} (<= 1e-12)",
        f"per-lane device stamps (mna.batch.lane_stamps): {lane_stamps:.0f} "
        f"(must be 0)",
    ])
    if lane_stamps:
        raise AssertionError(
            f"every ladder device is batch-safe, yet {lane_stamps:.0f} "
            f"device stamps ran per lane")
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"batched backend ({batch_s:.3f} s) should be >= "
        f"{BATCH_SPEEDUP_FLOOR:.0f}x faster than serial ({serial_s:.3f} s); "
        f"measured {speedup:.2f}x")
    return timed_result


def test_batched_backend_throughput(benchmark):
    result = _check_batched_throughput(
        benchmark, "Batched campaign throughput: 256-point Monte-Carlo op",
        f"circuit: {BATCH_SECTIONS}-section diode ladder, "
        f"{BATCH_POINTS} Monte-Carlo samples (seed 42)",
        MonteCarlo({"vdd": Normal(5.0, 0.5), "rscale": Normal(100.0, 10.0)},
                   samples=BATCH_POINTS, seed=42),
        _build_ladder, {"vdd": "VS.dc", "rscale": "R0.resistance"})
    # The junction-limiting lever, gated on counters rather than the clock.
    per_point = result.solver_stats["factorizations"] / len(result)
    source_steps = result.metrics["counters"].get("op.source_stepping", 0)
    print(f"factorizations per point: {per_point:.2f} "
          f"(<= {MAX_FACTORIZATIONS_PER_POINT}); source-stepping entries: "
          f"{source_steps:.0f} (must be 0)")
    assert per_point <= MAX_FACTORIZATIONS_PER_POINT, (
        f"{per_point:.2f} factorizations per ladder point: junction "
        f"limiting should hold Newton to <= {MAX_FACTORIZATIONS_PER_POINT}")
    assert source_steps == 0, (
        f"{source_steps:.0f} ladder points fell back to source stepping")


def test_batched_behavioral_backend_throughput(benchmark):
    _check_batched_throughput(
        benchmark,
        "Batched behavioral campaign throughput: 256-point Monte-Carlo op",
        f"circuit: {BATCH_SECTIONS}-section behavioral diode ladder, "
        f"{BATCH_POINTS} Monte-Carlo samples (seed 42)",
        MonteCarlo({"vdd": Normal(1.0, 0.1)}, samples=BATCH_POINTS, seed=42),
        _build_behavioral_ladder, {"vdd": "VS.dc"})
