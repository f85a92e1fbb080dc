#!/usr/bin/env python3
"""Record two figure-5 runs in a run ledger and diff them.

The experiment: reproduce the paper's figure-5 transient twice, once with
the default ``"auto"`` policy (full Newton: every changed Jacobian is
refactorized) and once with the chord policy (reuse until convergence
degrades or the step size changes), each under a summary telemetry
session.  Both runs land in a run ledger as
:class:`repro.telemetry.ledger.RunRecord`\\ s, and the structured diff shows
what the policy bought: fewer factorizations (counter family) against
near-identical Newton iteration counts and wall time (time family).

This is the whole cross-run observability loop in one script -- the same
record/compare machinery ``python -m repro.telemetry.ledger`` and the CI
regression gate use.

Run with::

    python examples/compare_runs.py
"""

from __future__ import annotations

import tempfile

from repro import telemetry
from repro.circuit import SimulationOptions
from repro.system import run_figure5_comparison
from repro.telemetry.ledger import RunLedger, RunRecord, diff


def record_run(ledger: RunLedger, jacobian_reuse: str) -> str:
    """Run figure 5 under one Jacobian-reuse policy; append a RunRecord."""
    options = SimulationOptions(trtol=10.0, jacobian_reuse=jacobian_reuse)
    with telemetry.session(mode="summary") as sess:
        comparison = run_figure5_comparison(
            amplitudes=(5.0, 10.0, 15.0), t_step=4e-4, options=options)
    record = RunRecord.from_report(
        sess.report, label="figure5",
        options_fingerprint=f"jacobian_reuse={jacobian_reuse}")
    record_id = ledger.append(record)
    print(f"recorded jacobian_reuse={jacobian_reuse!r}: {record_id} "
          f"(wall {record.wall_s:.2f} s, "
          f"{len(comparison.runs)} amplitudes)")
    return record_id


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        ledger = RunLedger(directory)
        baseline_id = record_run(ledger, jacobian_reuse="auto")
        current_id = record_run(ledger, jacobian_reuse="chord")
        print()
        delta_view = diff(ledger.load(baseline_id), ledger.load(current_id))
        print(delta_view.format_table(limit=15))


if __name__ == "__main__":
    main()
