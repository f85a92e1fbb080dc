"""Repository benchmark: three user workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout.  ``BENCHMARK.json`` names the
workloads and metrics with their units and bounds; ``perfbench/design.json``
records the unit of work, the load shape and what each layer metric should
move.
"""
