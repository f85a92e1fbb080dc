"""Run-to-run spread of the end-to-end metrics against their bounds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload mc_op_batch --seeds 1 2 3 4 5

Runs the benchmark command of ``BENCHMARK.json`` once per seed (untraced)
and prints, for every end-to-end metric, the median, the distance between
the first and third quartiles as a share of the median, and that spread
against the metric's bound.  A workload is steady when every spread stays
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int) -> dict:
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (Q3 - Q1) / median)`` with Python's default quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        start = time.monotonic()
        runs.append(run_once(config, args.workload, seed))
        print(f"seed {seed} ({time.monotonic() - start:.1f} s): " + ", ".join(
            f"{name}={value:.6g}" for name, value in runs[-1].items()),
            flush=True)
    steady = True
    for metric in config["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        median, share = spread([run[name] for run in runs])
        ok = share < bound / 3.0
        steady &= ok
        print(f"{args.workload:16s} {name:12s} median {median:12.6g} "
              f"spread {share:7.2%} bound {bound:5.0%} "
              f"{'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
