"""The benchmark's workloads: seeded inputs, one timed unit, oracle checks.

A workload object is built from a seed, which is the only source of its
inputs.  ``unit()`` is one user-visible job (the thing the benchmark times);
``oracle(output)`` recomputes the same answer through an independent path
of the library and returns the largest relative deviation, and
``counts(output)`` lists the deterministic work counts a result reports on
its own (no tracing needed), so traced and untraced runs can be compared.
"""

from __future__ import annotations

import os

import numpy as np

from repro.campaign import CampaignRunner, CircuitEvaluator, PointList
from repro.circuit import Circuit, SimulationOptions, TransientAnalysis
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.hdl import compile as hdl_compile
from repro.natures import MECHANICAL_TRANSLATION
from repro.pxt import ParameterExtractor
from repro.system import PAPER_PARAMETERS, build_drive_waveform

__all__ = ["WORKLOADS", "make_workload"]


def _rel(value: float, reference: float, floor: float) -> float:
    return abs(value - reference) / max(abs(reference), floor)


# --------------------------------------------------------------------------- #
# tran_behavioral                                                             #
# --------------------------------------------------------------------------- #

def _behavioral_resonator(circuit, node, prefix, mass, stiffness, damping):
    """The figure-3 resonator with every element as a behavioral model."""
    mech = circuit.mechanical_node(node)
    frame = circuit.ground

    def mass_behavior(ctx):
        ctx.contribute("mech", ctx.param("m") * ctx.ddt(ctx.across("mech"),
                                                        key="p"))

    def spring_behavior(ctx):
        x = ctx.integ(ctx.across("mech"), key="x")
        ctx.contribute("mech", ctx.param("k") * x)
        ctx.record("x", x)

    def damper_behavior(ctx):
        ctx.contribute("mech", ctx.param("a") * ctx.across("mech"))

    for suffix, behavior, params in (
            ("m", mass_behavior, {"m": mass}),
            ("k", spring_behavior, {"k": stiffness}),
            ("a", damper_behavior, {"a": damping})):
        circuit.add(BehavioralDevice(
            f"{prefix}_{suffix}",
            [Port("mech", mech, frame, MECHANICAL_TRANSLATION)],
            behavior, params=dict(params)))


class TranBehavioral:
    """Figure-5 array: 8 closed-form transducer cells, behavioral resonators.

    The seed jitters each cell's mass, stiffness and damping by up to
    ``JITTER`` (the process spread of a real MEMS array); the jitter only
    changes parameter values, never the compiled-kernel set.
    """

    name = "tran_behavioral"
    CELLS = 8
    JITTER = 0.02
    T_STOP = 6e-3
    T_STEP = 2e-5
    TRTOL = 7.0
    #: The compiled path must reproduce the interpreter bit for bit.
    TOLERANCE = 0.0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        nominal = (PAPER_PARAMETERS.mass, PAPER_PARAMETERS.stiffness,
                   PAPER_PARAMETERS.damping)
        self.nominal_cells = [nominal] * self.CELLS
        self.cells = [tuple(float(value * (1.0 + rng.uniform(-self.JITTER,
                                                             self.JITTER)))
                            for value in nominal)
                      for _ in range(self.CELLS)]

    def build(self, cells=None) -> Circuit:
        circuit = Circuit("behavioral-heavy figure-5 array")
        drive = build_drive_waveform(10.0, delay=0.5e-3, rise=0.2e-3,
                                     width=3.5e-3, fall=0.2e-3)
        circuit.voltage_source("VS", "a", "0", drive, ac=1.0)
        for i, (mass, stiffness, damping) in enumerate(cells or self.cells):
            xdcr = PAPER_PARAMETERS.transducer()
            xdcr.add_to_circuit(circuit, f"XDCR{i}", "a", "0", f"m{i}", "0",
                                closed_form=True)
            _behavioral_resonator(circuit, f"m{i}", f"res{i}",
                                  mass, stiffness, damping)
        return circuit

    def transient(self, circuit: Circuit, compiled: bool = True):
        options = SimulationOptions(trtol=self.TRTOL) if compiled else \
            SimulationOptions(trtol=self.TRTOL, behavioral_compile=False)
        return TransientAnalysis(circuit, t_stop=self.T_STOP,
                                 t_step=self.T_STEP, options=options).run()

    def warm_up(self) -> None:
        self.unit()

    def unit(self):
        return self.transient(self.build())

    def rerun_unit(self, circuit: Circuit):
        """The same job on an already-simulated circuit -- no circuit build,
        and every device keeps its traced kernel variants (the fused stamp
        functions are still generated per analysis): the baseline of
        ``hdl.per_instance_s``."""
        return self.transient(circuit)

    def work(self, output) -> int:
        return int(output.statistics["accepted"])

    def attempted_failed(self, output) -> tuple[int, int]:
        return 1, 0

    def counts(self, output) -> dict[str, int]:
        stats = output.statistics
        return {"tran.accepted": int(stats["accepted"]),
                "tran.rejected": int(stats["rejected"]),
                "tran.points": int(stats["points"]),
                "newton.iterations": int(stats["newton_iterations"]),
                "linalg.factorizations": int(stats["factorizations"]),
                "linalg.factor_cache_hits": int(stats["factor_cache_hits"]),
                "hdl.kernels": int(hdl_compile.cache_info()["kernels"])}

    def checks(self) -> list[str]:
        """After the timed units: the nominal (unjittered) array must run on
        the kernels the jittered units compiled, so the jitter adds none."""
        before = hdl_compile.cache_info()["kernels"]
        self.transient(self.build(self.nominal_cells))
        added = hdl_compile.cache_info()["kernels"] - before
        if added:
            return [f"the nominal array compiled {added} kernel(s) the "
                    "seed-jittered array did not: the jitter changes the "
                    "kernel set"]
        return []

    def oracle(self, output) -> float:
        """AD interpreter on the same circuit: waveforms must be bitwise equal."""
        reference = self.transient(self.build(), compiled=False)
        if not np.array_equal(output.time, reference.time):
            return float("inf")
        worst = 0.0
        for name, want in reference._data.items():
            got = output._data.get(name)
            if got is None or np.shape(got) != np.shape(want):
                return float("inf")
            got, want = np.asarray(got), np.asarray(want)
            if not np.array_equal(got, want, equal_nan=True):
                scale = np.maximum(np.abs(want), 1e-300)
                worst = max(worst, float(np.nanmax(np.abs(got - want) / scale)))
                worst = max(worst, np.finfo(float).tiny)  # never report 0
        return worst


# --------------------------------------------------------------------------- #
# mc_op_batch                                                                 #
# --------------------------------------------------------------------------- #

LADDER_SECTIONS = 12


def build_ladder(params: dict) -> Circuit:
    """Nonlinear diode ladder; every device stamps batch-vectorized."""
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", params.get("vdd", 5.0))
    for i in range(LADDER_SECTIONS):
        resistance = params.get("rscale", 100.0) if i == 0 else 100.0
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", resistance)
        circuit.diode(f"D{i}", f"n{i + 1}", "0")
    return circuit


class _Campaign:
    """Shared accounting of the campaign workloads: one op per point."""

    def work(self, output) -> int:
        return len(output)

    def attempted_failed(self, output) -> tuple[int, int]:
        return len(output), int(output.num_failures)

    def counts(self, output) -> dict[str, int]:
        return {"campaign.points": len(output),
                "campaign.error_rows": int(output.num_failures),
                "linalg.factorizations": int(
                    output.solver_stats.get("factorizations", 0)),
                "hdl.kernels": int(hdl_compile.cache_info()["kernels"])}

    def checks(self) -> list[str]:
        return []


def _compare_rows(result, reference, floor: float) -> float:
    """Largest relative deviation between two campaign results (inf when
    their shapes or error rows differ)."""
    if len(result) != len(reference):
        return float("inf")
    worst = 0.0
    for row, want in zip(result, reference):
        if row.params != want.params or row.error != want.error \
                or set(row.outputs) != set(want.outputs):
            return float("inf")
        for name, value in want.outputs.items():
            worst = max(worst, _rel(row.outputs[name], value, floor))
    return worst


class MonteCarloOpBatch(_Campaign):
    """256-sample Monte-Carlo operating point of the 12-section diode ladder
    on the batched campaign backend.  The seed draws the samples."""

    name = "mc_op_batch"
    SAMPLES = 256
    #: Relative to ``max(|reference|, 1)``, as the batched-backend contract.
    TOLERANCE = 1e-12

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        vdd = rng.normal(5.0, 0.5, self.SAMPLES)
        rscale = rng.normal(100.0, 10.0, self.SAMPLES)
        self.spec = PointList([{"vdd": float(v), "rscale": float(r)}
                               for v, r in zip(vdd, rscale)])
        self.evaluator = CircuitEvaluator(
            build_ladder, param_map={"vdd": "VS.dc", "rscale": "R0.resistance"})

    def warm_up(self) -> None:
        self.unit()

    def unit(self):
        return CampaignRunner(backend="batch").run(self.spec, self.evaluator)

    def oracle(self, output) -> float:
        """The serial runner over the same spec and evaluator."""
        reference = CampaignRunner(backend="serial").run(self.spec,
                                                         self.evaluator)
        return _compare_rows(output, reference, floor=1.0)


# --------------------------------------------------------------------------- #
# pxt_grid_pool                                                               #
# --------------------------------------------------------------------------- #

class PxtGridPool(_Campaign):
    """64-point PXT FE extraction grid (8 displacements x 8 voltages, 20x14
    mesh) on the pool backend.  The seed jitters the grid points inside the
    fixed displacement and voltage ranges."""

    name = "pxt_grid_pool"
    POINTS_PER_AXIS = 8
    DISPLACEMENT_RANGE = (-0.3, 0.3)   # times the rest gap
    VOLTAGE_RANGE = (2.0, 15.0)        # volts
    TOLERANCE = 1e-9

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.extractor = ParameterExtractor(
            area=PAPER_PARAMETERS.area, gap=PAPER_PARAMETERS.gap,
            epsilon_r=PAPER_PARAMETERS.epsilon_r, nx=20, ny=14)
        gap = self.extractor.gap
        self.displacements = [gap * x for x in self._axis(
            rng, *self.DISPLACEMENT_RANGE)]
        self.voltages = self._axis(rng, *self.VOLTAGE_RANGE)
        self.spec = self.extractor.campaign_spec(self.displacements,
                                                 self.voltages)
        self.evaluator = self.extractor.campaign_evaluator()
        self.processes = min(2, os.cpu_count() or 1)

    def _axis(self, rng, low: float, high: float) -> list[float]:
        """Evenly spaced points, each moved by up to 40% of the spacing
        (order kept, clipped to the range)."""
        count = self.POINTS_PER_AXIS
        spacing = (high - low) / (count - 1)
        base = low + spacing * np.arange(count)
        jitter = rng.uniform(-0.4, 0.4, count) * spacing
        return [float(v) for v in np.clip(base + jitter, low, high)]

    def warm_up(self) -> None:
        # The pattern cache and FE imports are warmed in the parent, so every
        # forked worker starts from them; the pool unit pays the first spawn.
        self.extractor.solve_point(self.displacements[0], self.voltages[0])
        self.unit()

    def unit(self, evaluator=None):
        runner = CampaignRunner(backend="pool", processes=self.processes)
        return runner.run(self.spec, evaluator or self.evaluator)

    def oracle(self, output) -> float:
        """The direct ``solve_point`` loop."""
        if len(output) != len(self.spec):
            return float("inf")
        worst = 0.0
        rows = iter(output)
        for x in self.displacements:
            for v in self.voltages:
                row, want = next(rows), self.extractor.solve_point(x, v)
                if row.error is not None \
                        or row.params != {"displacement": x, "voltage": v}:
                    return float("inf")
                for name in ("capacitance", "charge", "force", "energy",
                             "field"):
                    worst = max(worst, _rel(row.outputs[name],
                                            getattr(want, name), 1e-300))
        return worst


WORKLOADS = {cls.name: cls
             for cls in (TranBehavioral, MonteCarloOpBatch, PxtGridPool)}


def make_workload(name: str, seed: int):
    return WORKLOADS[name](seed)
