"""HDL-A generics live in ``device.params`` and nowhere else.

An elaborated entity reads every generic through ``ctx.param`` on each
call, so whatever writes the device's parameters -- ``set_parameter``,
sensitivity seeds, campaign parameter columns -- reaches the interpreter
and the compiled kernels alike, and a generic is a kernel input instead of
a baked constant.  Each test below pins one path that used to return a
silently wrong number (or leak kernels) while the interpreter kept its own
copy of the generics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignRunner, CircuitEvaluator, GridSweep
from repro.circuit import (Circuit, OperatingPointAnalysis, Pulse,
                           SimulationOptions, TransientAnalysis)
from repro.hdl import compile as hdl_compile
from repro.hdl import instantiate, parse
from repro.hdl.codegen import LISTING1_SOURCE

LISTING1 = parse(LISTING1_SOURCE)
SELECT = parse("""
ENTITY gsel IS
  GENERIC (mode, g : analog);
  PIN (p, n : electrical);
END ENTITY gsel;
ARCHITECTURE a OF gsel IS
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      IF mode > 0.5 THEN
        [p, n].i %= g*[p, n].v;
      ELSE
        [p, n].i %= g*[p, n].v*[p, n].v*[p, n].v;
      END IF;
  END RELATION;
END ARCHITECTURE a;
""")
COMPILED = SimulationOptions(behavioral_compile=True)
INTERP = SimulationOptions(behavioral_compile=False)


def listing1_on_spring(params):
    """Listing 1 driven at 10 V against a spring (module level: the batch
    backend may pickle it)."""
    circuit = Circuit("listing-1 on a spring")
    circuit.voltage_source("VS", "a", "0", params.get("vdd", 10.0))
    circuit.add(instantiate(
        LISTING1, "eletran", name="X1",
        generics={"A": params.get("A", 1e-6), "d": 1e-6, "er": 1.0},
        pins={"a": circuit.electrical_node("a"), "b": circuit.ground,
              "c": circuit.mechanical_node("m"), "e": circuit.ground}))
    circuit.spring("K", "m", "0", 10.0)
    return circuit


def listing1_resonator(area):
    circuit = Circuit("listing-1 resonator")
    circuit.voltage_source("VS", "a", "0",
                           Pulse(0.0, 10.0, delay=1e-3, rise=1e-3, width=6e-3))
    circuit.add(instantiate(
        LISTING1, "eletran", name="X1",
        generics={"A": area, "d": 0.15e-3, "er": 1.0},
        pins={"a": circuit.electrical_node("a"), "b": circuit.ground,
              "c": circuit.mechanical_node("m"), "e": circuit.ground}))
    circuit.mass("M1", "m", 1e-4)
    circuit.spring("K1", "m", "0", 200.0)
    circuit.damper("D1", "m", "0", 0.04)
    return circuit


def spring_force(area):
    return OperatingPointAnalysis(listing1_on_spring({"A": area})).run()["i(K)"]


def assert_transients_identical(a, b):
    assert np.array_equal(a.time, b.time)
    assert set(a._data) == set(b._data)
    for name in a._data:
        assert np.array_equal(np.asarray(a._data[name]),
                              np.asarray(b._data[name])), name


@pytest.mark.parametrize("options", [COMPILED, INTERP],
                         ids=["compiled", "interpreted"])
class TestSetParameter:
    def test_operating_point_equals_fresh_device(self, options):
        circuit = listing1_on_spring({"A": 1e-6})
        OperatingPointAnalysis(circuit, options).run()
        circuit["X1"].set_parameter("a", 2e-6)
        tuned = OperatingPointAnalysis(circuit, options).run()
        fresh = OperatingPointAnalysis(listing1_on_spring({"A": 2e-6}),
                                       options).run()
        assert np.array_equal(tuned.raw, fresh.raw)
        assert tuned.iterations == fresh.iterations

    def test_transient_equals_fresh_device(self, options):
        circuit = listing1_resonator(1e-4)
        TransientAnalysis(circuit, t_stop=2e-3, t_step=1e-4,
                          options=options).run()
        circuit["X1"].set_parameter("a", 2e-4)
        tuned = TransientAnalysis(circuit, t_stop=8e-3, t_step=1e-4,
                                  options=options).run()
        fresh = TransientAnalysis(listing1_resonator(2e-4), t_stop=8e-3,
                                  t_step=1e-4, options=options).run()
        assert_transients_identical(tuned, fresh)


@pytest.mark.parametrize("options", [COMPILED, INTERP],
                         ids=["compiled", "interpreted"])
def test_op_sensitivity_to_generic_matches_central_difference(options):
    analysis = OperatingPointAnalysis(listing1_on_spring({"A": 1e-6}),
                                      options)
    exact = analysis.sensitivities(["X1.a"], ["i(K)"]).derivative("i(K)",
                                                                  "X1.a")
    step = 1e-9
    central = (spring_force(1e-6 + step) - spring_force(1e-6 - step)) \
        / (2.0 * step)
    assert exact == pytest.approx(central, rel=1e-6)


def test_batch_campaign_over_generic_equals_serial():
    spec = GridSweep(A=[1e-6, 2e-6, 3e-6], vdd=[5.0, 10.0])
    serial = CampaignRunner(backend="serial").run(
        spec, CircuitEvaluator(listing1_on_spring))
    batch = CampaignRunner(backend="batch").run(
        spec, CircuitEvaluator(listing1_on_spring,
                               param_map={"A": "X1.a", "vdd": "VS.dc"}))
    assert len(serial) == len(batch) == 6
    for a, b in zip(serial, batch):
        assert a.params == b.params
        assert a.error is None and b.error is None
        assert set(a.outputs) == set(b.outputs)
        for key, value in a.outputs.items():
            assert abs(b.outputs[key] - value) <= 1e-12 * max(1.0, abs(value))
    forces = [row.outputs["f(K)"] for row in serial]
    assert len(set(forces)) == len(forces)


def selector_divider(params):
    """A generic-guarded conductance behind a resistor."""
    circuit = Circuit("selector divider")
    circuit.voltage_source("V1", "in", "0", 3.0)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.add(instantiate(
        SELECT, "gsel", name="X1",
        generics={"mode": params.get("mode", 1.0), "g": params.get("g", 1e-3)},
        pins={"p": circuit.electrical_node("out"), "n": circuit.ground}))
    return circuit


def test_batch_campaign_over_guarding_generic_equals_serial():
    # A variant guarded on a generic has no lanes stamp function: the batch
    # stamps it per lane, and each lane takes its own arm of the IF.
    spec = GridSweep(mode=[0.0, 1.0], g=[5e-4, 2e-3])
    serial = CampaignRunner(backend="serial").run(
        spec, CircuitEvaluator(selector_divider))
    batch = CampaignRunner(backend="batch").run(
        spec, CircuitEvaluator(selector_divider,
                               param_map={"mode": "X1.mode", "g": "X1.g"}))
    for a, b in zip(serial, batch):
        assert a.params == b.params
        assert a.error is None and b.error is None
        for key, value in a.outputs.items():
            assert abs(b.outputs[key] - value) <= 1e-12 * max(1.0, abs(value))
    currents = {(row.params["mode"], row.params["g"]): row.outputs["i(X1.p_n)"]
                for row in serial}
    assert len(set(currents.values())) == 4


def test_distinct_generic_values_share_kernels():
    OperatingPointAnalysis(listing1_on_spring({"A": 1e-6}), COMPILED).run()
    first = hdl_compile.cache_info()
    for k in range(1, 200):
        OperatingPointAnalysis(
            listing1_on_spring({"A": 1e-6 * (1.0 + 1e-3 * k)}),
            COMPILED).run()
    after = hdl_compile.cache_info()
    assert after["kernels"] == first["kernels"]
    assert after["stamp_functions"] == first["stamp_functions"]
