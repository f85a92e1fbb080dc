"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tran_behavioral --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced; their
timings are in seconds of a reference host, scaled by a fixed reference
pass timed next to every unit and set-up probe (see ``reference_pass``).
``--trace 1`` alternates untraced units with units run under the layer
wrappers of ``perfbench/layers.py`` and prints the per-layer metrics, in
wall seconds.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``detail:``, carries the oracle error, the tail percentile and
sample count, the unscaled wall times with the host slowdown, and the
deterministic work counts of the result.  The command
exits 1 when an oracle check fails and 2 when the library sources are not
next to the benchmark.  Metric names and units are those of
``BENCHMARK.json``; the design behind them is recorded in
``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESIGN = json.loads((HERE / "design.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Unit of every metric, by table (``end_to_end``, ``per_layer``).
UNITS = {table: {metric["name"]: metric["unit"] for metric in BENCHMARK[table]}
         for table in ("end_to_end", "per_layer")}

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 7
#: The tail percentile needs at least ten samples beyond it.
TAIL_BEYOND = 10
#: Fewest timed units in a run, whatever ``--seconds``, so the tail
#: percentile has samples beyond it.
MIN_UNITS = TAIL_BEYOND + 1
#: Back-to-back (fresh circuit, already-simulated circuit) unit pairs
#: behind ``hdl.per_instance_s``.
RERUNS = 7
#: Hard stop for the timed loop, whatever the unit count.
LOOP_LIMIT_S = 120.0
#: Wall seconds of one ``reference_pass`` on the reference host: the
#: fastest state seen on the shared 2-vCPU Intel Xeon VM the benchmark was
#: sized on, so reported times are close to wall times there.
REFERENCE_S = 0.008


def _bootstrap() -> None:
    """Import the library from this checkout's sources, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {src}",
              file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with >= TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, samples beyond)`` (nearest rank); with
    too few samples it falls back to the maximum (percentile 100).
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    percentile = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], percentile, n - rank


def reference_pass() -> float:
    """Wall seconds of one pass of fixed host-speed reference work.

    A shared host slows every process on it by up to 1.6x for tens of
    seconds at a time, which no run length averages out.  The pass builds
    and probes a dict of a few MB: interpreter work on a working set that
    this contention slows as much as it slows the workloads (it tracked
    them better than loops, small LU factorizations or NumPy streaming),
    and it calls nothing from the library, so no library change moves it.
    A wall time ``t`` measured next to a pass taking ``r`` is reported as
    ``t * REFERENCE_S / r``: seconds on the reference host.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(40000):
        table[(i * 7919) % 100003] = i
    total = 0
    for key in range(0, 100003, 3):
        total += table.get(key, 0)
    return time.perf_counter() - t0


def timed_units(unit, seconds: float):
    """Closed loop: run ``unit`` until ``seconds`` passed and ``MIN_UNITS``
    ran, with a ``reference_pass`` before every unit and after the last.

    Returns ``(wall times, reference-host times, last good output, units
    that raised)``; a unit's reference-host time scales its wall time by
    the mean of the passes on either side of it.
    """
    times, passes, output, raised = [], [reference_pass()], None, 0
    start = time.perf_counter()
    while (len(times) < MIN_UNITS or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < LOOP_LIMIT_S:
        t0 = time.perf_counter()
        try:
            result = unit()
        except Exception:  # noqa: BLE001 -- a failed unit is counted, not fatal
            raised += 1
            traceback.print_exc()
        else:
            output = result
        times.append(time.perf_counter() - t0)
        passes.append(reference_pass())
    scaled = [t * 2.0 * REFERENCE_S / (before + after)
              for t, before, after in zip(times, passes, passes[1:])]
    return times, scaled, output, raised


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its workload being ready:
    ``(wall, on the reference host)``, scaled by the mean of a
    ``reference_pass`` just before the spawn and one just after."""
    before = reference_pass()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    wall = float(proc.stdout.split()[-1]) - start
    return wall, wall * 2.0 * REFERENCE_S / (before + reference_pass())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(name: str, value: float, table: str) -> dict:
    return {"value": float(value), "unit": UNITS[table][name]}


def _tally(workload, output, units: int, raised: int) -> tuple[int, int]:
    """``(attempted, failed)`` operations over ``units`` timed units, of
    which ``raised`` raised: campaign points, or transient units."""
    if output is None:
        return max(units, 1), raised
    per_unit, per_unit_failed = workload.attempted_failed(output)
    return per_unit * units, \
        per_unit_failed * (units - raised) + per_unit * raised


def _oracle(workload, output) -> tuple[float, list[str]]:
    """Oracle deviation and the list of failed checks (after timing)."""
    issues = list(workload.checks())
    if output is None:
        return float("inf"), issues + ["no unit completed"]
    error = workload.oracle(output)
    if not error <= workload.TOLERANCE:
        issues.append(f"max_rel_err {error:.3e} exceeds the oracle "
                      f"tolerance {workload.TOLERANCE:g}")
    return error, issues


def end_to_end(workload, args) -> tuple[dict, dict, int, int, list[str]]:
    setups = [setup_probe(args.workload, args.seed)
              for _ in range(SETUP_PROBES)]
    workload.warm_up()
    times, scaled, output, raised = timed_units(workload.unit, args.seconds)
    rss = peak_rss_mb()
    attempted, failed = _tally(workload, output, len(times), raised)
    error, issues = _oracle(workload, output)
    p50 = statistics.median(scaled)
    tail_value, percentile, beyond = tail(scaled)
    work = workload.work(output) if output is not None else 0
    metrics = {
        "setup_s": _metric("setup_s", statistics.median(
            scaled_setup for _, scaled_setup in setups), "end_to_end"),
        "unit_p50_s": _metric("unit_p50_s", p50, "end_to_end"),
        "work_per_s": _metric("work_per_s", work / p50, "end_to_end"),
        "peak_rss_mb": _metric("peak_rss_mb", rss, "end_to_end"),
    }
    rate_name = "steps_per_s" if workload.name == "tran_behavioral" \
        else "points_per_s"
    detail = {
        "workload": workload.name, "seed": args.seed, "units": len(times),
        "setup_samples_s": [scaled_setup for _, scaled_setup in setups],
        rate_name: work / p50,
        "unit_tail_s": {"value": tail_value, "percentile": percentile,
                        "samples": len(times), "beyond": beyond},
        "wall": {"setup_s": statistics.median(wall for wall, _ in setups),
                 "unit_p50_s": statistics.median(times),
                 "host_slowdown": statistics.median(
                     t / s for t, s in zip(times, scaled))},
        "max_rel_err": error,
        "fail_frac": failed / attempted,
        "counts": workload.counts(output) if output is not None else {},
        "issues": issues,
    }
    return metrics, detail, attempted, failed, issues


def per_layer(workload, args) -> tuple[dict, dict, int, int, list[str]]:
    from perfbench.layers import (PickleBytes, Tracer, TracedEvaluator,
                                  layer_metrics, strip_columns)
    from repro.hdl import compile as hdl_compile
    from repro.telemetry import progress

    workload.warm_up()
    # Untraced and traced units alternate, so host speed drift cancels out
    # of trace.overhead_ratio.  The untraced units also count the pool's
    # pickled bytes (traced results carry extra layer columns).
    pickled, tracer = PickleBytes(), Tracer()
    plain, task_bytes, rows = [], [], []

    def untraced_unit():
        pickled.install()
        try:
            before = pickled.total
            t0 = time.perf_counter()
            workload.unit()
            plain.append(time.perf_counter() - t0)
            task_bytes.append(pickled.total - before)
        finally:
            pickled.uninstall()

    def traced_unit():
        heartbeats = []

        def heartbeat(event):
            if event.phase == "campaign" and "wall_s" in event.data:
                heartbeats.append(event.data["wall_s"])
        tracer.install()
        try:
            before = tracer.snapshot()
            t0 = time.perf_counter()
            with progress.reporting(heartbeat):
                if workload.name == "pxt_grid_pool":
                    result = workload.unit(
                        TracedEvaluator(workload.evaluator))
                    tracer.add(strip_columns(result))
                else:
                    result = workload.unit()
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - t0
        row = layer_metrics(tracer.delta(before))
        busy = sum(heartbeats)
        row.update({
            "campaign.chunks": len(heartbeats),
            "campaign.worker_busy_s": busy,
            "campaign.overhead_s": wall - busy / workload.processes
            if heartbeats else 0.0,
            "campaign.error_rows": workload.counts(result).get(
                "campaign.error_rows", 0),
            "hdl.kernels": hdl_compile.cache_info()["kernels"],
            "unit_s": wall,
        })
        rows.append(row)
        return result

    def pair():
        untraced_unit()
        return traced_unit()
    pairs, _, output, raised = timed_units(pair, args.seconds)
    if not rows:
        raise RuntimeError("every traced unit raised")
    per_instance = 0.0
    if workload.name == "tran_behavioral":
        # Paired fresh-circuit and same-circuit units, so drift cancels.
        circuit = workload.build()
        workload.rerun_unit(circuit)
        gaps = []
        for _ in range(RERUNS):
            t0 = time.perf_counter()
            workload.unit()
            t1 = time.perf_counter()
            workload.rerun_unit(circuit)
            t2 = time.perf_counter()
            gaps.append((t1 - t0) - (t2 - t1))
        per_instance = statistics.median(gaps)

    names = list(UNITS["per_layer"])
    traced_p50 = statistics.median(row["unit_s"] for row in rows)
    extra = {"campaign.task_bytes": statistics.median(task_bytes),
             "hdl.per_instance_s": per_instance,
             "trace.overhead_ratio": traced_p50 / statistics.median(plain)}
    values, varying = {}, []
    for name in names:
        if name in extra:
            values[name] = extra[name]
            continue
        column = [row[name] for row in rows]
        values[name] = statistics.median(column)
        if UNITS["per_layer"][name] == "count" and len(set(column)) > 1:
            varying.append(name)
    error, issues = _oracle(workload, output)
    if varying:
        issues.append(f"counts differ between traced units: {varying}")
    metrics = {name: _metric(name, values[name], "per_layer")
               for name in names}
    attempted, failed = _tally(workload, output, len(pairs), raised)
    detail = {"workload": workload.name, "seed": args.seed,
              "units": len(rows), "untraced_units": len(plain),
              "max_rel_err": error,
              "counts": workload.counts(output),
              "issues": issues}
    return metrics, detail, attempted, failed, issues


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, default=DESIGN["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    if args.setup_probe:
        workload.warm_up()
        print("ready", repr(time.monotonic()), flush=True)
        return 0
    run = per_layer if args.trace else end_to_end
    metrics, detail, attempted, failed, issues = run(workload, args)
    for issue in issues:
        print(f"perfbench: {issue}", file=sys.stderr)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not issues, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main())
