"""The record pass is the only device pass of an accepted transient step.

Newton's last assembly of a step is at the iterate before its final
update, so the integrator states it left pending are stale.  The record
pass at the converged point refreshes them: a device's ``record`` at an
accepted point makes every ``ctx.ddt``/``ctx.integ`` call its ``stamp``
makes there (the ``Device.record`` contract), and no residual-only
assembly runs in between.  These tests pin that contract on generated
circuits holding every device class whose stamp keeps integrator state
(capacitors, inductors, masses, springs and behaviours, guarded ones
included, compiled and interpreted), the built-in transients bit for bit
against digests taken with the separate acceptance assembly, and the
assembly count that the change removes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuit import (Circuit, OperatingPointAnalysis, Pulse,
                           SimulationOptions, Step, TransientAnalysis)
from repro.circuit.analysis.op import collect_outputs, output_columns
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.devices.mechanical import Mass, Spring
from repro.circuit.devices.passive import Capacitor, Inductor
from repro.circuit.mna import Integrator, MNASystem, StampContext
from repro.natures import ELECTRICAL
from repro.system import PAPER_PARAMETERS

SEEDS = range(12)


def _behavior(rng):
    """A one-port behaviour with ``ddt``/``integ`` state; guarded ones
    write a different state key on each side of their threshold."""
    g, c = float(rng.uniform(1e-4, 1e-3)), float(rng.uniform(1e-9, 1e-8))
    initial = float(rng.uniform(-1e-3, 1e-3))
    threshold = float(rng.uniform(-0.5, 0.5)) if rng.random() < 0.6 else None

    def behavior(ctx):
        v = ctx.across("p")
        if threshold is not None and v > threshold:
            current = 2.0 * g * v + c * ctx.ddt(v, key="hi")
        else:
            current = g * v + c * ctx.ddt(v * v, key="lo")
        x = ctx.integ(v, key="x", initial=initial)
        ctx.contribute("p", current + 1e-3 * x)
        ctx.record("x", x)
    return behavior, threshold is not None


def generated_circuit(seed: int) -> tuple[Circuit, set[str]]:
    """A driven resistor ladder loaded by random capacitors, inductors and
    behaviours, a transducer, and a force-driven mass-spring chain."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"record-{seed}")
    circuit.voltage_source("V1", "n1", "0",
                           Step(0.0, float(rng.uniform(1.0, 3.0)),
                                time=1e-5, ramp=2e-4))
    circuit.resistor("R1", "n1", "n2", 1e3)
    circuit.resistor("R2", "n2", "n3", 2e3)
    circuit.resistor("R3", "n3", "0", 3e3)
    names = ["n1", "n2", "n3", "0"]
    features: set[str] = set()
    for k in range(int(rng.integers(2, 5))):
        # Each element in series with a resistor: no source/inductor loop.
        p, n = (names[i] for i in rng.choice(4, size=2, replace=False))
        circuit.resistor(f"Rs{k}", f"s{k}", n, float(rng.uniform(1e2, 1e3)))
        n = f"s{k}"
        kind = rng.choice(["C", "L", "B"])
        if kind == "C":
            circuit.capacitor(f"C{k}", p, n, float(rng.uniform(1e-9, 1e-7)))
        elif kind == "L":
            circuit.inductor(f"L{k}", p, n, float(rng.uniform(1e-3, 1e-1)))
        else:
            behavior, guarded = _behavior(rng)
            features |= {"guard"} if guarded else set()
            circuit.add(BehavioralDevice(
                f"X{k}", [Port("p", circuit.electrical_node(p),
                               circuit.electrical_node(n), ELECTRICAL)],
                behavior))
    # Always one of each built-in class, and a behaviour.
    circuit.capacitor("Cb", "n2", "0", 1e-8)
    circuit.inductor("Lb", "n3", "0", 1e-2)
    behavior, guarded = _behavior(rng)
    features |= {"guard"} if guarded else set()
    circuit.add(BehavioralDevice(
        "Xb", [Port("p", circuit.electrical_node("n2"), circuit.ground,
                    ELECTRICAL)], behavior))
    PAPER_PARAMETERS.transducer().add_to_circuit(
        circuit, "XDCR", "n1", "0", "m", "0",
        closed_form=bool(rng.integers(2)))
    circuit.force_source("F1", "m", "0", Pulse(0.0, 1e-4, delay=1e-5,
                                               rise=5e-5, width=2e-4))
    circuit.mass("M1", "m", float(rng.uniform(1e-7, 1e-6)))
    circuit.spring("K1", "m", "m2", float(rng.uniform(1.0, 20.0)))
    circuit.damper("D1", "m", "0", 1e-3)
    circuit.mass("M2", "m2", float(rng.uniform(1e-7, 1e-6)))
    circuit.spring("K2", "m2", "0", float(rng.uniform(1.0, 20.0)))
    return circuit, features


def _pending(integrator: Integrator) -> tuple[dict, ...]:
    """The pending states, values as exact hex strings."""
    return tuple({key: float(value).hex() for key, value in store.items()}
                 for store in (integrator._pending_values,
                               integrator._pending_derivs,
                               integrator._pending_integrals))


def test_generated_corpus_covers_every_stateful_device_class():
    classes, features = set(), set()
    for seed in SEEDS:
        circuit, seen = generated_circuit(seed)
        classes |= {type(device) for device in circuit}
        features |= seen
    assert {Capacitor, Inductor, Mass, Spring, BehavioralDevice} <= classes
    assert "guard" in features


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "interpreted"])
@pytest.mark.parametrize("seed", SEEDS)
def test_record_refreshes_what_the_stamp_writes(seed, compiled):
    """After Newton stamped the pre-update iterate, a record at ``x``
    leaves exactly the pending states that a residual-only assembly at
    ``x`` followed by the record leaves: same keys, same bits."""
    circuit, _ = generated_circuit(seed)
    method = "backward_euler" if seed % 2 else "trapezoidal"
    options = SimulationOptions(behavioral_compile=compiled,
                                integration_method=method)
    system = MNASystem(circuit)
    integrator = Integrator(method)
    x = OperatingPointAnalysis(circuit, options).run().raw
    integrator.priming = True
    integrator.set_step(1e-6)
    system.assemble(x, "tran", 0.0, integrator, options,
                    want_jacobian=False)
    integrator.commit()
    integrator.priming = False
    rng = np.random.default_rng(1000 + seed)
    for step in range(1, 6):
        t = 1e-6 * step
        x_newton = rng.uniform(-1.0, 1.0, system.size)
        x = rng.uniform(-1.0, 1.0, system.size)

        def pending(refresh: bool):
            integrator.discard()
            system.assemble(x_newton, "tran", t, integrator, options)
            if refresh:
                system.assemble(x, "tran", t, integrator, options,
                                want_jacobian=False)
            row = collect_outputs(system, StampContext(
                system, x, "tran", t, integrator, options,
                want_jacobian=False))
            return _pending(integrator), row

        (refreshed, row), (recorded, row_only) = pending(True), pending(False)
        assert recorded == refreshed
        assert row_only == row
        integrator.commit()


# ----------------------------------------------------- built-in digests
def _digest(result) -> str:
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(result.time, dtype=float).tobytes())
    for name in sorted(result._data):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(result._data[name],
                                        dtype=float).tobytes())
    return sha.hexdigest()


def _rcl() -> Circuit:
    circuit = Circuit("rcl")
    circuit.voltage_source("V1", "a", "0", Pulse(0.0, 2.0, delay=1e-4,
                                                 rise=2e-5, fall=3e-5,
                                                 width=4e-4))
    circuit.resistor("R1", "a", "b", 100.0)
    circuit.capacitor("C1", "b", "0", 1e-6)
    circuit.inductor("L1", "b", "c", 1e-2)
    circuit.resistor("R2", "c", "0", 50.0)
    return circuit


def _mass_spring() -> Circuit:
    circuit = Circuit("mass-spring")
    circuit.force_source("F1", "m", "0", Pulse(0.0, 1e-3, delay=2e-4,
                                               rise=1e-4, fall=1e-4,
                                               width=1e-3))
    circuit.mass("M1", "m", 1e-6)
    circuit.spring("K1", "m", "0", 10.0)
    circuit.damper("D1", "m", "0", 2e-4)
    circuit.spring("K2", "m", "n", 5.0)
    circuit.mass("M2", "n", 5e-7)
    return circuit


#: ``case -> (sha256, accepted, rejected, Newton iterations)``, recorded
#: while every accepted step still ran a residual-only assembly before its
#: record pass.  The rejected steps make a stale pending state show.
BUILTIN_PINS = {
    ("rcl", "trapezoidal"): (
        "208013231737f80442a8b4aac7e0f2f64877e561009d1a5b5a9008d84249c400",
        738, 10, 1370),
    ("rcl", "backward_euler"): (
        "eec4e27ddb314018a2665feb0af970331ac22fed1d9466c43b1dc6c60495a6ef",
        682, 4, 1265),
    ("mass_spring", "trapezoidal"): (
        "53b73fd53d18e4e55481f24d4eb7fa855c5f0b306f44a94b112c88505d31a7c2",
        534, 9, 1015),
    ("mass_spring", "backward_euler"): (
        "53e913d29f40f99e216f5c8d01b7109f488a08996ca4e8942959ef5dcec88ffc",
        563, 10, 1030),
}


@pytest.mark.parametrize("case,method", sorted(BUILTIN_PINS))
def test_builtin_transient_pinned(case, method):
    build, t_stop, t_step = {"rcl": (_rcl, 2e-3, 1e-5),
                             "mass_spring": (_mass_spring, 4e-3, 2e-5)}[case]
    result = TransientAnalysis(
        build(), t_stop=t_stop, t_step=t_step,
        options=SimulationOptions(integration_method=method)).run()
    stats = result.statistics
    assert (_digest(result), stats["accepted"], stats["rejected"],
            stats["newton_iterations"]) == BUILTIN_PINS[(case, method)]


# ---------------------------------------------------- assembly counts
def test_transient_assembles_residual_only_once(monkeypatch):
    """The priming pass is a default transient's only residual-only
    assembly: no acceptance assembly per step, none to record the op."""
    kinds = []
    assemble = MNASystem.assemble

    def counting(self, *args, **kwargs):
        kinds.append(kwargs.get("want_jacobian", True))
        return assemble(self, *args, **kwargs)

    monkeypatch.setattr(MNASystem, "assemble", counting)
    result = TransientAnalysis(generated_circuit(0)[0], t_stop=2e-4,
                               t_step=1e-5).run()
    assert result.statistics["accepted"] >= 20
    assert kinds.count(False) == 1
    assert kinds.count(True) >= result.statistics["newton_iterations"]


# ------------------------------------------------------ output columns
def test_output_columns_fill_missing_signals_with_nan():
    rows = [{"b": 1.0, "a": 2.0}, {}, {"a": 3.0, "b": 4.0, "c": 5.0}]
    columns = output_columns(rows)
    assert list(columns) == ["a", "b", "c"]
    np.testing.assert_array_equal(columns["a"], [2.0, np.nan, 3.0])
    np.testing.assert_array_equal(columns["b"], [1.0, np.nan, 4.0])
    np.testing.assert_array_equal(columns["c"], [np.nan, np.nan, 5.0])
    np.testing.assert_array_equal(output_columns([{"a": 1.0}, {}])["a"],
                                  [1.0, np.nan])
    assert output_columns([]) == {} == output_columns([{}, {}])
