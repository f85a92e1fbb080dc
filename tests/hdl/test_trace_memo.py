"""The trace memo: each behaviour is traced once per trace key, not per device.

A device's trace key holds everything a trace can bake into the IR -- the
mode, a snapshot of the behaviour (code, closure cells, defaults, globals)
and the device layout -- so a fresh device with a known key binds the
memoized kernel sets without running its behaviour.  Every check compares
the compiled path with the AD interpreter bitwise (signed zeros included):
a key that wrongly merged two behaviours would stamp one with the other's
constants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    OperatingPointAnalysis,
    SimulationOptions,
    Step,
    TransientAnalysis,
)
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.errors import DeviceError
from repro.hdl import compile as hdl_compile
from repro.hdl.compile import codegen, runtime
from repro.natures import ELECTRICAL
from repro.telemetry import registry
from repro.transducers import TransverseElectrostaticTransducer

COMPILED = SimulationOptions(behavioral_compile=True)
INTERP = SimulationOptions(behavioral_compile=False)


def one_device(behavior, drive=Step(0.0, 2.0, ramp=1e-4),
               **device_kwargs) -> Circuit:
    """A source (a ramp to 2 V by default) behind 1 kOhm loading one
    behavioral device ``XB``."""
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", drive)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.add(BehavioralDevice(
        "XB", [Port("e", circuit.electrical_node("out"), circuit.ground,
                    ELECTRICAL)], behavior, **device_kwargs))
    return circuit


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run_exact(build) -> dict[str, float]:
    """Op and transient of ``build()`` compiled and interpreted, asserted
    bitwise equal; returns the compiled runs' counter deltas."""
    before = registry.snapshot()
    op = OperatingPointAnalysis(build(), COMPILED).run()
    tran = TransientAnalysis(build(), t_stop=3e-4, t_step=2e-5,
                             options=COMPILED).run()
    counters = registry.delta(before)["counters"]
    op_ref = OperatingPointAnalysis(build(), INTERP).run()
    tran_ref = TransientAnalysis(build(), t_stop=3e-4, t_step=2e-5,
                                 options=INTERP).run()
    assert same_bits(op.raw, op_ref.raw)
    assert set(op.keys()) == set(op_ref.keys())
    for key in op_ref.keys():
        assert same_bits(op[key], op_ref[key]), key
    assert same_bits(tran.time, tran_ref.time)
    assert set(tran._data) == set(tran_ref._data)
    for name in tran_ref._data:
        assert same_bits(tran._data[name], tran_ref._data[name]), name
    return counters


def traces(counters) -> float:
    return counters.get("hdl.trace.count", 0)


# ------------------------------------------------------- distinct keys
def closure_scale(g):
    def behavior(ctx):
        v = ctx.across("e")
        ctx.contribute("e", v / 1e3 + g * v)
        ctx.record("z", g * v)
    return lambda: one_device(behavior)


def resistor_behavior(ctx):
    ctx.contribute("e", ctx.across("e") / ctx.param("R"))


def integ_behavior(ctx):
    x = ctx.integ(ctx.across("e"), key="x")
    ctx.contribute("e", ctx.across("e") / 1e3 + 1e-6 * x)
    ctx.record("x", x)


def optional_unknown_behavior(ctx):
    v = ctx.across("e")
    try:
        i = ctx.unknown("i")
    except DeviceError:
        ctx.contribute("e", v / 2e3)
        return
    ctx.contribute("e", i)
    ctx.equation("i", v - 2e3 * i)


DISTINCT = {
    "closure float": (closure_scale(1e-3), closure_scale(2e-3)),
    "closure signed zero": (closure_scale(0.0), closure_scale(-0.0)),
    "state initials": tuple(
        lambda x0=x0: one_device(integ_behavior, state_initials={"x": x0})
        for x0 in (1e-3, 2e-3)),
    "extra unknowns": tuple(
        lambda extra=extra: one_device(optional_unknown_behavior,
                                       extra_unknowns=extra)
        for extra in (("i",), ())),
    "param value type": tuple(
        lambda r=r: one_device(resistor_behavior, params={"R": r})
        for r in (1000, 1e3)),
}


@pytest.mark.parametrize("case", sorted(DISTINCT))
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_differing_behaviours_keep_distinct_keys(case, order):
    builds = DISTINCT[case]
    devices = [build()["XB"] for build in builds]
    assert runtime._trace_key(devices[0], "op") is not None
    assert runtime._trace_key(devices[0], "op") \
        != runtime._trace_key(devices[1], "op")
    hdl_compile.clear_cache()
    for position in order:
        # A fresh key: the op and tran modes each trace once, and the
        # compiled results are the interpreter's bits.
        assert traces(run_exact(builds[position])) == 2


# --------------------------------------------------------- shared keys
def transducer_circuit(area, gap):
    circuit = Circuit()
    circuit.voltage_source("V1", "a", "0", Step(0.0, 10.0, ramp=1e-4))
    TransverseElectrostaticTransducer(area=area, gap=gap).add_to_circuit(
        circuit, "XT", "a", "0", "m", "0", closed_form=True)
    circuit.spring("K1", "m", "0", 5.0)
    circuit.damper("B1", "m", "0", 1e-3)
    circuit.mass("M1", "m", 1e-6)
    return circuit


SHARED = {
    "bound attributes": (lambda: transducer_circuit(1e-4, 1.5e-4),
                         lambda: transducer_circuit(2e-4, 1e-4)),
    "param values": tuple(
        lambda r=r: one_device(resistor_behavior, params={"R": r})
        for r in (1e3, 2.5e3)),
}


@pytest.mark.parametrize("case", sorted(SHARED))
def test_devices_differing_in_parameter_values_share_a_key(case):
    first, second = SHARED[case]
    name = "XT" if case == "bound attributes" else "XB"
    assert runtime._trace_key(first()[name], "tran") is not None
    assert runtime._trace_key(first()[name], "tran") \
        == runtime._trace_key(second()[name], "tran")
    run_exact(first)
    counters = run_exact(second)
    assert traces(counters) == 0
    assert counters["hdl.compile.cache_hits"] >= 2


# ------------------------------------------------------ unkeyed / guards
def test_unkeyable_closure_traces_per_device():
    def build():
        circuit = one_device(resistor_behavior, params={"R": 1e3})
        for name in ("XL1", "XL2"):
            coefficients = [1e-3]  # a list: mutable, so not keyable

            def behavior(ctx, coefficients=coefficients):
                ctx.contribute("e", coefficients[0] * ctx.across("e"))

            circuit.add(BehavioralDevice(
                name, [Port("e", circuit.electrical_node("out"),
                            circuit.ground, ELECTRICAL)], behavior))
        return circuit

    assert runtime._trace_key(build()["XL1"], "op") is None
    run_exact(build)
    counters = run_exact(build)
    # Two list-holding devices per circuit, traced again in every mode of
    # every circuit: op (1 circuit) plus op and tran (1 circuit).
    assert counters["hdl.trace.unkeyed"] == 6
    assert traces(counters) == 6


def guarded_behavior(ctx):
    v = ctx.across("e")
    if v > 0.5:
        ctx.contribute("e", (v - 0.25) / 1e3)
    else:
        ctx.contribute("e", v / 2e3)


def guarded_op(drive):
    before = registry.snapshot()
    compiled = OperatingPointAnalysis(
        one_device(guarded_behavior, drive=drive), COMPILED).run()
    counters = registry.delta(before)["counters"]
    reference = OperatingPointAnalysis(
        one_device(guarded_behavior, drive=drive), INTERP).run()
    assert same_bits(compiled.raw, reference.raw)
    return counters


def test_shared_key_across_a_guard_retraces_exactly():
    hdl_compile.clear_cache()
    # Newton starts at 0 V, below the 0.5 V guard; a 0.5 V drive settles
    # below it, a 3 V drive above it.
    assert traces(guarded_op(0.5)) == 1
    crossing = guarded_op(3.0)
    assert crossing["hdl.fallback.guard_miss"] == 1
    assert traces(crossing) == 1
    assert len(hdl_compile.runtime._MEMO) == 1
    (variants,) = hdl_compile.runtime._MEMO.values()
    assert len(variants) == 2
    # Both sides are memoized now: later devices on either side trace
    # nothing and miss no guard.
    for drive in (0.5, 3.0):
        counters = guarded_op(drive)
        assert traces(counters) == 0
        assert counters.get("hdl.fallback.guard_miss", 0) == 0


def test_untraceable_behaviour_traces_once_per_key():
    def behavior(ctx):
        v = ctx.across("e")
        # float() concretizes: the tracer refuses, the mode disables.
        plain = float(getattr(v, "value", v))
        ctx.contribute("e", v / (1e3 + 0.0 * plain))

    def build():
        return one_device(behavior)

    first = run_exact(build)
    assert traces(first) == 2
    second = run_exact(build)
    assert traces(second) == 0
    assert second["hdl.fallback.disabled"] > 0
    assert runtime._MEMO[runtime._trace_key(build()["XB"], "op")] is None


def test_clear_cache_empties_the_memo():
    run_exact(closure_scale(3e-3))
    assert hdl_compile.cache_info()["traces"] >= 2
    hdl_compile.clear_cache()
    assert hdl_compile.cache_info() == {"kernels": 0, "stamp_functions": 0,
                                        "traces": 0}
    assert traces(run_exact(closure_scale(3e-3))) == 2


def test_full_tables_evict_and_stay_exact(monkeypatch):
    # Past the limit a compiler table is cleared and the eviction counted;
    # devices built after it compile again and still stamp the
    # interpreter's bits.
    monkeypatch.setattr(codegen, "_CACHE_LIMIT", 2)
    hdl_compile.clear_cache()
    before = registry.snapshot()
    for scale in (1e-3, 2e-3, 3e-3):
        run_exact(closure_scale(scale))
    for table in (codegen._CACHE, codegen._STAMPS, runtime._MEMO):
        assert 0 < len(table) <= 2
    evictions = registry.delta(before)["counters"]["hdl.cache.evictions"]
    assert evictions >= 3
    # An evicted key traces again, exactly.
    again = run_exact(closure_scale(1e-3))
    assert traces(again) == 2
    assert again["hdl.cache.evictions"] > 0
