#!/usr/bin/env python3
"""Watch a campaign live, then autopsy (and replay) a forced failure.

The diagnostics loop of PR 7 in one script:

1. a parameter campaign over a current-driven diode ladder runs with a
   live progress reporter installed -- per-point events with ETA land on
   stdout through the stdlib-logging bridge;
2. one sweep point is poisoned (iteration budget starved below the four
   iterations junction-limited Newton needs), so its operating point fails
   to converge: the campaign row carries the forensic digest naming the
   offending unknown;
3. the failure is re-run standalone with forensics on, the structured
   ``FailureReport`` post-mortem is printed, dumped as a self-contained
   reproduction bundle and replayed from the JSON to prove the bundle
   reproduces the same failure deterministically.

Run with::

    python examples/monitor_campaign.py
"""

from __future__ import annotations

import logging
import os
import tempfile

from repro import telemetry
from repro.campaign import CampaignRunner, GridSweep
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis.op import OperatingPointAnalysis
from repro.errors import ConvergenceError

#: Iteration budget per point: generous except for the poisoned drive.
POISONED_DRIVE = 0.75


def build_diode_ladder(drive: float = 0.1) -> Circuit:
    """A current-driven diode with a series resistor (picklable factory)."""
    circuit = Circuit("monitored ladder")
    circuit.current_source("I1", "0", "a", drive)
    circuit.resistor("R1", "a", "d", 10.0)
    circuit.diode("D1", "d", "0")
    return circuit


def options_for(drive: float) -> SimulationOptions:
    """Starve the poisoned point's Newton budget so it genuinely fails."""
    if drive == POISONED_DRIVE:
        return SimulationOptions(forensics=True, max_newton_iterations=3,
                                 max_source_steps=1)
    return SimulationOptions(forensics=True)


def evaluate(point: dict) -> dict:
    drive = point["drive"]
    result = OperatingPointAnalysis(build_diode_ladder(drive),
                                    options_for(drive)).run()
    return {"v_diode": result["v(d)"]}


def main() -> None:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    # --- 1. live progress ------------------------------------------------
    drives = [0.01, 0.05, 0.1, 0.25, 0.5, POISONED_DRIVE, 1.0, 2.0]
    spec = GridSweep(drive=drives)
    print(f"== running a {len(drives)}-point campaign with live progress ==")
    reporter = telemetry.LoggingProgressReporter()
    with telemetry.reporting(reporter):
        result = CampaignRunner(backend="serial").run(spec, evaluate)

    # --- 2. the poisoned row carries its own post-mortem -----------------
    print(f"\n{len(result)} points, {result.num_failures} failure(s)")
    for summary in result.forensic_summaries():
        print(f"row {summary['index']}: {summary['kind']} failure in "
              f"{summary['analysis']} -- offending unknown "
              f"{summary['offending_unknown']}")
    assert result.num_failures == 1, "exactly the poisoned point must fail"

    # --- 3. standalone autopsy, bundle dump and replay -------------------
    print("\n== standalone autopsy of the poisoned point ==")
    circuit = build_diode_ladder(POISONED_DRIVE)
    options = options_for(POISONED_DRIVE)
    try:
        OperatingPointAnalysis(circuit, options).run()
    except ConvergenceError as exc:
        report = exc.report
    print(report.describe())

    bundle_path = os.path.join(tempfile.mkdtemp(prefix="repro-forensics-"),
                               "poisoned_point.json")
    telemetry.forensics.dump_bundle(
        bundle_path, analysis="op", options=options,
        build=build_diode_ladder, params={"drive": POISONED_DRIVE},
        circuit=circuit, report=report)
    print(f"\nreproduction bundle written: {bundle_path}")

    outcome = telemetry.forensics.replay(bundle_path, build=build_diode_ladder)
    assert outcome.reproduced, "the bundled failure must reproduce"
    assert outcome.fingerprint_match, "the rebuilt circuit must match"
    assert outcome.report.offending_unknown == report.offending_unknown
    print(f"replay reproduced the failure: {type(outcome.error).__name__} "
          f"on {outcome.report.offending_unknown}")


if __name__ == "__main__":
    main()
