"""Behavioral-model compiler: bit-identity corpus and IR pass unit tests.

The compiler's contract is that compiled kernels replicate the AD
interpreter's IEEE-754 arithmetic operation by operation, so every analysis
result -- operating points, AC sweeps, transients, dual-seeded parameter
gradients -- must be **bitwise identical** with ``behavioral_compile`` on
and off.  The corpus below covers the behavioral device idioms used across
the suite: linear and nonlinear contributions, ``ddt``/``integ`` state,
extra unknowns with equations, records, data-dependent guards, and the
forensics/health-check instrumentation paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad.functions import exp
from repro.circuit import (
    ACAnalysis,
    Circuit,
    OperatingPointAnalysis,
    SimulationOptions,
    Step,
    TransientAnalysis,
)
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.hdl import compile as hdl_compile
from repro.hdl.compile import ir, passes
from repro.natures import ELECTRICAL

COMPILED = SimulationOptions(behavioral_compile=True)
INTERP = SimulationOptions(behavioral_compile=False)


# ------------------------------------------------------------------- corpus
def behavioral_resistor(circuit, name, p, n, resistance):
    def behavior(ctx):
        ctx.contribute("e", ctx.across("e") / ctx.param("R"))

    return circuit.add(BehavioralDevice(
        name, [Port("e", circuit.electrical_node(p),
                    circuit.electrical_node(n), ELECTRICAL)],
        behavior, params={"R": resistance}))


def behavioral_capacitor(circuit, name, p, n, capacitance):
    def behavior(ctx):
        ctx.contribute("e", ctx.param("C") * ctx.ddt(ctx.across("e"),
                                                     key="v"))

    return circuit.add(BehavioralDevice(
        name, [Port("e", circuit.electrical_node(p),
                    circuit.electrical_node(n), ELECTRICAL)],
        behavior, params={"C": capacitance}))


def diode_circuit() -> Circuit:
    """Exponential behavioral diode behind a resistor: nonlinear Newton."""
    circuit = Circuit()
    circuit.voltage_source("V1", "n1", "0", 2.0)
    circuit.resistor("R1", "n1", "n2", 1e3)

    def behavior(ctx):
        v = ctx.across("e")
        ctx.contribute("e",
                       ctx.param("isat") * (exp(v / ctx.param("vt")) - 1.0))

    circuit.add(BehavioralDevice(
        "DB", [Port("e", circuit.electrical_node("n2"), circuit.ground,
                    ELECTRICAL)],
        behavior, params={"isat": 1e-9, "vt": 0.05}))
    return circuit


def rc_circuit() -> Circuit:
    """Step-driven RC with behavioral R and C plus an integ/record monitor."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", Step(0.0, 5.0, ramp=1e-9))
    behavioral_resistor(circuit, "XR", "in", "out", 1e3)
    behavioral_capacitor(circuit, "XC", "out", "0", 1e-6)

    def monitor(ctx):
        # Leaky integral of the node voltage: exercises integ + record.
        q = ctx.integ(ctx.across("e"), key="q", initial=0.0)
        ctx.contribute("e", 1e-9 * q)
        ctx.record("q", q)

    circuit.add(BehavioralDevice(
        "XQ", [Port("e", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)], monitor))
    return circuit


def inductor_circuit() -> Circuit:
    """Behavioral inductor: extra unknown + branch equation + ddt."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", Step(0.0, 1.0, ramp=1e-9))
    circuit.resistor("R1", "in", "out", 10.0)

    def behavior(ctx):
        current = ctx.unknown("i")
        ctx.contribute("e", current)
        ctx.equation("i", ctx.across("e") - 10e-3 * ctx.ddt(current, key="i"))

    circuit.add(BehavioralDevice(
        "XL", [Port("e", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)],
        behavior, extra_unknowns=("i",)))
    return circuit


def guarded_circuit() -> Circuit:
    """Piecewise conductance: the trace guard flips as the drive ramps."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", Step(0.0, 4.0, ramp=2e-3))
    circuit.resistor("R1", "in", "out", 1e3)

    def behavior(ctx):
        v = ctx.across("e")
        if v > 2.0:
            ctx.contribute("e", (v - 1.0) / ctx.param("R"))
        else:
            ctx.contribute("e", v / (2.0 * ctx.param("R")))

    circuit.add(BehavioralDevice(
        "XG", [Port("e", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)],
        behavior, params={"R": 1e3}))
    return circuit


def _op_pair(build):
    return (OperatingPointAnalysis(build(), COMPILED).run(),
            OperatingPointAnalysis(build(), INTERP).run())


def _transient_pair(build, t_stop=2e-3, t_step=10e-6, **opts):
    results = []
    for base in (COMPILED, INTERP):
        options = SimulationOptions(
            behavioral_compile=base.behavioral_compile, **opts)
        results.append(TransientAnalysis(build(), t_stop=t_stop,
                                         t_step=t_step,
                                         options=options).run())
    return results


def assert_transients_identical(compiled, interp):
    assert np.array_equal(compiled.time, interp.time)
    assert set(compiled._data) == set(interp._data)
    for name in interp._data:
        assert np.array_equal(np.asarray(compiled._data[name]),
                              np.asarray(interp._data[name])), name


class TestBitIdenticalAnalyses:
    def test_operating_point_nonlinear(self):
        compiled, interp = _op_pair(diode_circuit)
        assert np.array_equal(compiled.raw, interp.raw)
        assert compiled.iterations == interp.iterations

    def test_operating_point_linear_divider(self):
        def build():
            circuit = Circuit()
            circuit.voltage_source("V1", "in", "0", 6.0)
            circuit.resistor("R1", "in", "out", 1e3)
            behavioral_resistor(circuit, "X1", "out", "0", 2e3)
            return circuit

        compiled, interp = _op_pair(build)
        assert np.array_equal(compiled.raw, interp.raw)

    def test_ac_sweep(self):
        def run(options):
            circuit = Circuit()
            circuit.voltage_source("V1", "in", "0", 0.0, ac=1.0)
            behavioral_resistor(circuit, "XR", "in", "out", 1e3)
            behavioral_capacitor(circuit, "XC", "out", "0", 1e-6)
            return ACAnalysis(circuit, [10.0, 159.0, 5e3], options).run()

        compiled, interp = run(COMPILED), run(INTERP)
        assert np.array_equal(np.asarray(compiled["v(out)"]),
                              np.asarray(interp["v(out)"]))

    def test_transient_rc_with_integ_and_record(self):
        compiled, interp = _transient_pair(rc_circuit)
        assert_transients_identical(compiled, interp)
        assert "q(XQ)" in interp._data

    def test_transient_extra_unknown_equation(self):
        compiled, interp = _transient_pair(inductor_circuit)
        assert_transients_identical(compiled, interp)

    def test_transient_backward_euler(self):
        compiled, interp = _transient_pair(rc_circuit,
                                           integration_method="backward_euler")
        assert_transients_identical(compiled, interp)

    def test_transient_guard_crossing_retraces(self):
        # The drive ramp crosses the v > 2 guard mid-run: the runtime must
        # retrace and compile the second variant, not fall back silently.
        before = hdl_compile.cache_info()["kernels"]
        compiled, interp = _transient_pair(guarded_circuit, t_stop=4e-3)
        assert_transients_identical(compiled, interp)
        assert hdl_compile.cache_info()["kernels"] >= before

    def test_forensics_and_health_paths(self):
        compiled, interp = _transient_pair(rc_circuit, forensics=True,
                                           health_check=True)
        assert_transients_identical(compiled, interp)


class TestDualSeededGradients:
    def test_sensitivities_match_interpreter_bitwise(self):
        params = ["DB.isat", "DB.vt", "R1.resistance"]
        matrices = []
        for options in (COMPILED, INTERP):
            analysis = OperatingPointAnalysis(diode_circuit(), options)
            matrices.append(
                analysis.sensitivities(params, ["v(n2)"]).matrix)
        assert np.array_equal(matrices[0], matrices[1])


class TestEscapeHatches:
    def test_options_flag_keeps_interpreter(self):
        before = hdl_compile.cache_info()["kernels"]
        result = TransientAnalysis(rc_circuit(), t_stop=5e-4, t_step=10e-6,
                                   options=INTERP).run()
        assert len(result.time) > 1
        assert hdl_compile.cache_info()["kernels"] == before
        assert not hdl_compile.batch_ready(diode_circuit()["DB"], INTERP)


class TestBatchCompiled:
    def test_compiled_behavioral_is_batch_safe_with_serial_parity(self):
        from repro.circuit.analysis.batch import (ParameterColumns,
                                                  batched_operating_points)

        circuit = diode_circuit()
        # The compiled kernels make the behavioral diode batch-safe: the
        # whole batch stamps vectorized, no per-lane interpreter fallback.
        assert circuit["DB"].batch_safe is True
        vdd = np.array([1.0, 2.0, 3.0])
        columns = ParameterColumns(circuit, [("V1", "dc", vdd)])
        results = batched_operating_points(circuit, COMPILED, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = OperatingPointAnalysis(circuit, COMPILED).run()
            finally:
                columns.restore()
            assert op.iterations == reference.iterations
            for key, value in reference.items():
                scale = max(1.0, abs(value))
                assert abs(op[key] - value) / scale <= 1e-12

    def test_guarded_lane_device_matches_serial_bitwise(self, monkeypatch):
        from repro.circuit.analysis.batch import (ParameterColumns,
                                                  batched_operating_points)
        from repro.hdl.compile import runtime

        # A guarded behaviour cannot broadcast: the batch stamps it per lane
        # through the lane devices' stamp program, and every lane solves to
        # the serial interpreter's bits.
        circuit = diode_circuit()
        circuit.resistor("R2", "n1", "n3", 1e3)

        def behavior(ctx):
            v = ctx.across("e")
            if v > 1.0:
                ctx.contribute("e", (v - 0.5) / ctx.param("R"))
            else:
                ctx.contribute("e", v / (2.0 * ctx.param("R")))

        circuit.add(BehavioralDevice(
            "XG", [Port("e", circuit.electrical_node("n3"), circuit.ground,
                        ELECTRICAL)], behavior, params={"R": 1e3}))
        assert circuit["XG"].batch_safe is False
        interpreted = []
        try_stamp = runtime.try_stamp

        def counting(device, ctx):
            if device.name == "XG":
                interpreted.append(ctx)
            return try_stamp(device, ctx)

        monkeypatch.setattr(runtime, "try_stamp", counting)
        columns = ParameterColumns(circuit, [
            ("V1", "dc", np.array([1.0, 2.0, 3.0])),
            ("XG", "R", np.array([1e3, 2e3, 5e2]))])
        results = batched_operating_points(circuit, COMPILED, columns)
        # The lanes cross the guard: one miss retraces and is interpreted.
        assert len(interpreted) == 1
        monkeypatch.undo()
        for lane, op in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = OperatingPointAnalysis(circuit, INTERP).run()
            finally:
                columns.restore()
            assert op.iterations == reference.iterations
            assert np.array_equal(op.raw, reference.raw)

    def test_non_real_parameter_stamps_per_lane_like_serial(self):
        from repro.circuit.analysis.batch import (ParameterColumns,
                                                  batched_operating_points)

        # A bool is no number a model means: the batch stamps the device
        # per lane through its stamp program, which hands the call to the
        # interpreter exactly as the serial op does.
        circuit = Circuit()
        circuit.voltage_source("V1", "n1", "0", 2.0)
        circuit.resistor("R1", "n1", "n2", 1e3)

        def behavior(ctx):
            ctx.contribute("e", ctx.across("e") / ctx.param("R"))

        circuit.add(BehavioralDevice(
            "XR", [Port("e", circuit.electrical_node("n2"), circuit.ground,
                        ELECTRICAL)], behavior, params={"R": True}))
        assert circuit["XR"].batch_safe_for(COMPILED) is False
        columns = ParameterColumns(circuit, [
            ("V1", "dc", np.array([1.0, 2.0, 3.0]))])
        results = batched_operating_points(circuit, COMPILED, columns)
        for lane, op in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = OperatingPointAnalysis(circuit, COMPILED).run()
            finally:
                columns.restore()
            assert op.iterations == reference.iterations
            assert np.array_equal(op.raw, reference.raw)

    def test_batch_safe_honors_options_escape_hatch(self):
        circuit = diode_circuit()
        assert circuit["DB"].batch_safe_for(COMPILED) is True
        assert circuit["DB"].batch_safe_for(INTERP) is False


class TestIRPasses:
    def test_constant_folding_matches_python_floats(self):
        builder = ir.IRBuilder()
        node = builder.binary("/", builder.const(1.0), builder.const(3.0))
        assert isinstance(node, ir.Const)
        assert node.value.hex() == (1.0 / 3.0).hex()

    def test_hash_consing_is_cse(self):
        builder = ir.IRBuilder()
        v = builder.input("across", "e")
        a = builder.binary("*", v, builder.const(2.0))
        b = builder.binary("*", v, builder.const(2.0))
        assert a is b  # structurally equal -> the same interned object

    @pytest.mark.parametrize("make", [
        lambda b, x: b.binary("*", x, b.const(1.0)),
        lambda b, x: b.binary("*", b.const(1.0), x),
        lambda b, x: b.binary("/", x, b.const(1.0)),
        lambda b, x: b.binary("**", x, b.const(1.0)),
        lambda b, x: b.binary("-", x, b.const(0.0)),
        lambda b, x: b.unary("pos", x),
        lambda b, x: b.unary("neg", b.unary("neg", x)),
    ], ids=["mul1", "1mul", "div1", "pow1", "sub0", "pos", "negneg"])
    def test_exact_identities_simplify_away(self, make):
        builder = ir.IRBuilder()
        x = builder.input("across", "e")
        assert passes.simplify(builder, make(builder, x)) is x

    @pytest.mark.parametrize("make", [
        # x + 0.0 flips -0.0 to +0.0; 0.0 - x has the same zero-sign
        # hazard; x * 0.0 is wrong for negative and non-finite x.
        lambda b, x: b.binary("+", x, b.const(0.0)),
        lambda b, x: b.binary("-", b.const(0.0), x),
        lambda b, x: b.binary("*", x, b.const(0.0)),
    ], ids=["add0", "0sub", "mul0"])
    def test_inexact_identities_preserved(self, make):
        builder = ir.IRBuilder()
        x = builder.input("across", "e")
        node = make(builder, x)
        assert passes.simplify(builder, node) is node

    def test_simplify_is_idempotent(self):
        builder = ir.IRBuilder()
        x = builder.input("across", "e")
        node = builder.binary("*", builder.unary("neg", builder.unary(
            "neg", x)), builder.const(1.0))
        once = passes.simplify(builder, node)
        assert passes.simplify(builder, once) is once


class TestFingerprint:
    def test_deterministic(self):
        payload = ("op", ("e", 1.0, ("across", "e")), None, True)
        assert ir.fingerprint(payload) == ir.fingerprint(payload)

    def test_component_sensitivity(self):
        base = ("op", ("e", 1.0))
        assert ir.fingerprint(base) != ir.fingerprint(("op", ("e", 2.0)))
        assert ir.fingerprint(base) != ir.fingerprint(("dc", ("e", 1.0)))

    def test_zero_sign_and_type_distinguished(self):
        assert ir.fingerprint((0.0,)) != ir.fingerprint((-0.0,))
        assert ir.fingerprint((1,)) != ir.fingerprint(("1",))
        assert ir.fingerprint((1,)) != ir.fingerprint((1.0,))
        assert ir.fingerprint((True,)) != ir.fingerprint((1,))

    def test_nesting_shape_distinguished(self):
        assert ir.fingerprint(("a", ("b", "c"))) != \
            ir.fingerprint(("a", "b", "c"))

    def test_equivalent_devices_share_kernels(self):
        # Two independent devices with structurally identical behaviours
        # land on the same fingerprint -> the same cached KernelSet.
        kernels = []
        for _ in range(2):
            circuit = Circuit()
            circuit.voltage_source("V1", "a", "0", 1.0)
            device = behavioral_resistor(circuit, "XS", "a", "0", 123.0)
            kernels.append(hdl_compile.compile_device(device))
        assert kernels[0] is kernels[1]

    def test_param_defaults_distinguish_kernels(self):
        # A ``ctx.param`` default is baked into the kernel's gather plan:
        # behaviours differing only in it must not share a kernel set
        # (found by the generated-netlist equivalence test).
        def build(default):
            circuit = Circuit()
            circuit.voltage_source("V1", "a", "0", 1.0)

            def behavior(ctx):
                ctx.contribute("e", ctx.param("g", default) * ctx.across("e"))

            return circuit, circuit.add(BehavioralDevice(
                "XD", [Port("e", circuit.electrical_node("a"), circuit.ground,
                            ELECTRICAL)], behavior))

        kernels = [hdl_compile.compile_device(build(g)[1])
                   for g in (1e-3, 2e-3)]
        assert kernels[0] is not kernels[1]
        for g in (1e-3, 2e-3):
            compiled, interp = (OperatingPointAnalysis(build(g)[0], options)
                                .run() for options in (COMPILED, INTERP))
            assert np.array_equal(compiled.raw, interp.raw)
