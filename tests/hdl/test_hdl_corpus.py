"""Compiled ≡ interpreter, bitwise, on parsed HDL-A models.

The corpus is the paper's HDL-A flow: Listing 1, a dead-zone ``clip`` that
branches on its port voltage, the PXT-generated table capacitor and
electrostatic macromodel, a ROM Foster chain exported by ``rom_to_hdl``,
and a model that branches on its generics (``IF mode > 0.5``,
``IF mode xor flag`` and ``limit(g, lo, hi)``).  Each runs at seeded generic values in op, tran and
AC with ``behavioral_compile`` on and off, and the two runs must agree bit
for bit.  Generics are kernel inputs and HDL comparisons on traced values
record guards, so the branching models compile instead of falling back to
the interpreter.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuit import (ACAnalysis, Circuit, OperatingPointAnalysis, Pulse,
                           SimulationOptions, Sine, TransientAnalysis)
from repro.fem import SpringMassChain
from repro.hdl import instantiate, parse
from repro.hdl.codegen import LISTING1_SOURCE
from repro.pxt import (generate_electrostatic_macromodel,
                       generate_table_capacitor)
from repro.pxt.macromodel import PiecewiseLinearModel
from repro.rom import rom_from_matrices, rom_to_hdl
from repro.telemetry import registry

COMPILED = SimulationOptions(behavioral_compile=True, trtol=10.0)
INTERP = SimulationOptions(behavioral_compile=False, trtol=10.0)

CLIP_SOURCE = """
ENTITY clip IS
  GENERIC (lim : analog := 1.0);
  PIN (p, n : electrical);
END ENTITY clip;
ARCHITECTURE a OF clip IS
  VARIABLE v : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      v := [p, n].v;
      IF v > lim THEN
        [p, n].i %= (v - lim)*1.0e-3;
      ELSIF v < -lim THEN
        [p, n].i %= (v + lim)*1.0e-3;
      ELSE
        [p, n].i %= 0.0;
      END IF;
  END RELATION;
END ARCHITECTURE a;
"""

BRANCH_SOURCE = """
ENTITY gsel IS
  GENERIC (mode : analog := 1.0; flag : analog := 1.0;
           g : analog := 2.0e-3; lo : analog := 1.0e-4; hi : analog := 1.0e-3);
  PIN (p, n : electrical);
END ENTITY gsel;
ARCHITECTURE a OF gsel IS
  VARIABLE v : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      v := [p, n].v;
      IF mode > 0.5 THEN
        [p, n].i %= limit(g, lo, hi)*v;
      ELSE
        [p, n].i %= g*v + 1.0e-6*v*v*v;
      END IF;
      IF mode xor flag THEN
        [p, n].i %= 1.0e-4*v;
      ELSE
        [p, n].i %= 2.0e-4*v;
      END IF;
  END RELATION;
END ARCHITECTURE a;
"""

#: Generic exponents: arithmetic that folded to constants while generics
#: were baked into the trace now runs in the kernel, in the same order.
POWER_SOURCE = """
ENTITY gpow IS
  GENERIC (g : analog := 1.0e-3; n : analog := 2.0);
  PIN (p, m : electrical);
END ENTITY gpow;
ARCHITECTURE a OF gpow IS
  VARIABLE v : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      v := [p, m].v;
      [p, m].i %= g*v + 1.0e-4*(exp(v)**n - 1.0) + g*v*(v*v + 1.0)**(n/2.0);
  END RELATION;
END ARCHITECTURE a;
"""

GAP, AREA = 1e-6, 1e-8
DISPLACEMENTS = np.linspace(-0.3 * GAP, 0.3 * GAP, 7)
CAPACITANCE = PiecewiseLinearModel(
    tuple(DISPLACEMENTS), tuple(8.8542e-12 * AREA / (GAP + DISPLACEMENTS)),
    quantity="capacitance", unit="F")
FORCE = PiecewiseLinearModel(
    tuple(DISPLACEMENTS),
    tuple(8.8542e-12 * AREA * 100.0 / (2.0 * (GAP + DISPLACEMENTS) ** 2)),
    quantity="force", unit="N")

MODULES = {
    "listing1": parse(LISTING1_SOURCE),
    "clip": parse(CLIP_SOURCE),
    "branch": parse(BRANCH_SOURCE),
    "power": parse(POWER_SOURCE),
    "table_capacitor": parse(generate_table_capacitor("ptcap", CAPACITANCE)),
    "macromodel": parse(generate_electrostatic_macromodel(
        "pxtel", CAPACITANCE, FORCE, 10.0)),
}


def jitter(rng, value):
    return value * rng.uniform(0.8, 1.2)


def _transducer(circuit, module, entity, generics):
    """A two-port electrostatic entity on a mass-spring-damper plate."""
    circuit.add(instantiate(
        module, entity, name="X1", generics=generics,
        pins={"a": circuit.electrical_node("a"), "b": circuit.ground,
              "c": circuit.mechanical_node("m"), "e": circuit.ground}))
    circuit.mass("M1", "m", 1e-10)
    circuit.spring("K1", "m", "0", 1.0)
    circuit.damper("D1", "m", "0", 2e-5)


def build_listing1(rng, drive, ac):
    circuit = Circuit("listing 1")
    circuit.voltage_source("VS", "a", "0", drive, ac=ac)
    _transducer(circuit, MODULES["listing1"], "eletran",
                {"A": jitter(rng, AREA), "d": jitter(rng, GAP),
                 "er": jitter(rng, 1.0)})
    return circuit


def build_macromodel(rng, drive, ac):
    circuit = Circuit("pxt macromodel")
    circuit.voltage_source("VS", "a", "0", drive, ac=ac)
    _transducer(circuit, MODULES["macromodel"], "pxtel",
                {"vref": jitter(rng, 10.0)})
    return circuit


def _one_port(module, entity, generics, drive, ac):
    circuit = Circuit(entity)
    circuit.voltage_source("V1", "in", "0", drive, ac=ac)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.add(instantiate(module, entity, name="X1", generics=generics,
                            pins={"p": circuit.electrical_node("out"),
                                  "n": circuit.ground}))
    return circuit


def build_clip(rng, drive, ac):
    return _one_port(MODULES["clip"], "clip", {"lim": jitter(rng, 1.0)},
                     drive, ac)


def build_branch(rng, drive, ac, mode=None):
    generics = {"mode": float(rng.integers(2)) if mode is None else mode,
                "flag": float(rng.integers(2)) if mode is None else 1.0,
                "g": jitter(rng, 2e-3), "lo": jitter(rng, 1e-4),
                "hi": jitter(rng, 1e-3)}
    return _one_port(MODULES["branch"], "gsel", generics, drive, ac)


def build_power(rng, drive, ac):
    # n = 0 took the tracer's ``x ** 0.0`` shortcut while generics were
    # baked constants; as a kernel input it is a runtime power.
    generics = {"g": jitter(rng, 1e-3), "n": float(rng.choice([0.0, 0.5, 2.0]))}
    circuit = Circuit("gpow")
    circuit.voltage_source("V1", "in", "0", drive, ac=ac)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.add(instantiate(MODULES["power"], "gpow", name="X1",
                            generics=generics,
                            pins={"p": circuit.electrical_node("out"),
                                  "m": circuit.ground}))
    return circuit


def build_table_capacitor(rng, drive, ac):
    # The table capacitor's displacement is baked into the source text;
    # its one generic (``scale``) is seeded here.
    return _one_port(MODULES["table_capacitor"], "ptcap",
                     {"scale": jitter(rng, 1.0)}, drive, ac)


def build_rom_chain(rng, drive, ac):
    chain = SpringMassChain(
        masses=tuple(jitter(rng, m) for m in (1e-4, 2e-4, 1.5e-4)),
        stiffnesses=(200.0, 150.0, 120.0))
    mass, _, stiffness = chain.matrices()
    rom = rom_from_matrices(mass, stiffness, order=3, drive_dof=-1,
                            output_dofs=[-1], rayleigh=(0.5, 1e-5))
    circuit = Circuit("rom foster chain")
    circuit.force_source("F1", "m", "0", drive, ac=ac)
    circuit.add(instantiate(
        parse(rom_to_hdl("romchain", rom)), "romchain", name="X1",
        generics={},
        pins={"p0": circuit.mechanical_node("m"),
              "p1": circuit.mechanical_node("i1"),
              "p2": circuit.mechanical_node("i2"),
              "p3": circuit.ground}))
    return circuit


PULSE = Pulse(0.0, 10.0, delay=1e-4, rise=1e-4, width=1e-3)
SINE = Sine(0.0, 3.0, 500.0)

#: name -> (builder, dc drive, transient drive, t_stop, t_step, AC grid)
CORPUS = {
    "listing1": (build_listing1, 10.0, PULSE, 1.5e-3, 2e-5, [1e2, 1e4, 1e6]),
    "clip": (build_clip, 2.0, SINE, 4e-3, 2e-5, [1.0, 1e3]),
    "branch": (build_branch, 2.0, SINE, 4e-3, 2e-5, [1.0, 1e3]),
    "power": (build_power, 1.5, Sine(0.0, 1.5, 500.0), 2e-3, 2e-5,
              [1.0, 1e3]),
    "table_capacitor": (build_table_capacitor, 1.0,
                        Pulse(0.0, 1.0, delay=1e-6, rise=1e-6, width=1e-4),
                        2e-4, 2e-6, [1e3, 1e5, 1e7]),
    "macromodel": (build_macromodel, 10.0, PULSE, 1.5e-3, 2e-5,
                   [1e2, 1e4, 1e6]),
    "rom_chain": (build_rom_chain, 1e-3,
                  Pulse(0.0, 1e-3, delay=1e-3, rise=1e-3, width=2e-2),
                  3e-2, 2e-4, [40.0, 150.0, 400.0]),
}
SEEDS = (1, 2)


def build(name, seed, drive, ac=0.0):
    return CORPUS[name][0](np.random.default_rng(seed), drive, ac)


def run_transient(name, seed, options):
    _, _, wave, t_stop, t_step, _ = CORPUS[name]
    return TransientAnalysis(build(name, seed, wave), t_stop=t_stop,
                             t_step=t_step, options=options).run()


def transient_digest(result):
    sha = hashlib.sha256()
    for array in [result.time, *(result._data[k] for k in sorted(result._data))]:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(CORPUS))
class TestCompiledEqualsInterpreter:
    def test_operating_point(self, name, seed):
        dc = CORPUS[name][1]
        compiled, interp = (
            OperatingPointAnalysis(build(name, seed, dc), options).run()
            for options in (COMPILED, INTERP))
        assert np.array_equal(compiled.raw, interp.raw)
        assert compiled.iterations == interp.iterations
        assert compiled.signals() == interp.signals()

    def test_transient(self, name, seed):
        compiled = run_transient(name, seed, COMPILED)
        interp = run_transient(name, seed, INTERP)
        assert transient_digest(compiled) == transient_digest(interp)

    def test_ac(self, name, seed):
        _, dc, _, _, _, freqs = CORPUS[name]
        compiled, interp = (
            ACAnalysis(build(name, seed, dc, ac=1.0), freqs, options).run()
            for options in (COMPILED, INTERP))
        assert compiled.signals() == interp.signals()
        for signal in interp.signals():
            assert np.array_equal(compiled[signal], interp[signal]), signal


#: Digests of the compiled transients at seed 1, recorded when the
#: interpreter still held its own copy of the generics (and ``clip`` ran
#: entirely interpreted): reading generics through ``ctx.param`` and
#: tracing HDL branches as guards moved no bit.
TRANSIENT_PINS = {
    "listing1":
        "faf9b2e528b1a3e2f1f9505da92ae083c800290e6223cf39cb248fa5120af058",
    "clip":
        "1d66bec83d269e6fdd956337d36d274522e3a1a899b86f31d99151b77da216ce",
}


@pytest.mark.parametrize("name", list(TRANSIENT_PINS))
def test_transient_pins(name):
    assert transient_digest(run_transient(name, 1, COMPILED)) \
        == TRANSIENT_PINS[name]


def _disabled(run) -> float:
    before = registry.snapshot()
    run()
    return registry.delta(before)["counters"].get("hdl.fallback.disabled", 0)


@pytest.mark.parametrize("name", ["clip", "branch"])
def test_branching_models_compile(name):
    assert _disabled(lambda: run_transient(name, 1, COMPILED)) == 0
    assert _disabled(lambda: OperatingPointAnalysis(
        build(name, 1, CORPUS[name][1]), COMPILED).run()) == 0


@pytest.mark.parametrize("mode", [0.0, 1.0])
def test_generic_branch_takes_either_arm(mode):
    rng = np.random.default_rng(3)
    circuit = build_branch(rng, 2.0, 0.0, mode=mode)
    generics = circuit["X1"].params
    assert _disabled(
        lambda: OperatingPointAnalysis(circuit, COMPILED).run()) == 0
    op = OperatingPointAnalysis(circuit, COMPILED).run()
    v = op["v(out)"]
    if mode > 0.5:
        g = min(max(generics["g"], generics["lo"]), generics["hi"])
        expected = g * v + 2.0e-4 * v
    else:
        expected = generics["g"] * v + 1.0e-6 * v * v * v + 1.0e-4 * v
    assert op["i(X1.p_n)"] == pytest.approx(expected, rel=1e-12)
