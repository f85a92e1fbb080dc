"""Stamp programs: shared behavioral stamp functions, fallbacks, telemetry.

A system holding behavioral devices assembles through one stamp program per
``(mode, task)``: built-in devices keep ``device.stamp`` and each compiled
behavioral device runs a process-shared stamp function with its bound
arguments.  The contract is the compiler's: results bitwise identical to
the AD interpreter.  Besides a hand-written figure-5 array, the checks run
on a seeded generator of small behavioral netlists covering port topologies
(shared, ground and non-ground negative nodes, colliding leaves), extra
unknowns, ``ddt``/``integ`` state with non-zero initial values, all three
parameter sources with float, int and ``np.float64`` values, guards the
drive ramp crosses, and dense and sparse assembly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import (
    Circuit,
    OperatingPointAnalysis,
    SimulationOptions,
    Sine,
    Step,
    TransientAnalysis,
)
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.mna import MNASystem
from repro.hdl import compile as hdl_compile
from repro.hdl.compile import runtime
from repro.natures import ELECTRICAL, MECHANICAL_TRANSLATION
from repro.system import PAPER_PARAMETERS, build_drive_waveform
from repro.telemetry import registry

FALLBACKS = ("collide", "param", "guard_miss", "disabled", "arith")


def fallback_counts(before: dict) -> dict[str, float]:
    counters = registry.delta(before)["counters"]
    return {reason: counters.get(f"hdl.fallback.{reason}", 0)
            for reason in FALLBACKS}


def assert_results_identical(compiled, interp):
    assert np.array_equal(compiled.time, interp.time)
    assert set(compiled._data) == set(interp._data)
    for name in interp._data:
        assert np.array_equal(np.asarray(compiled._data[name]),
                              np.asarray(interp._data[name])), name


# ------------------------------------------------------- figure-5 array
def figure5_array(cells: int, seed: int | None = None) -> Circuit:
    """Closed-form transducer cells, each loading a behavioral resonator;
    ``seed`` jitters mass, stiffness and damping by up to 2 %."""
    rng = np.random.default_rng(seed)
    circuit = Circuit("figure-5 array")
    drive = build_drive_waveform(10.0, delay=0.5e-3, rise=0.2e-3,
                                 width=3.5e-3, fall=0.2e-3)
    circuit.voltage_source("VS", "a", "0", drive)
    for i in range(cells):
        values = [PAPER_PARAMETERS.mass, PAPER_PARAMETERS.stiffness,
                  PAPER_PARAMETERS.damping]
        if seed is not None:
            values = [v * (1.0 + rng.uniform(-0.02, 0.02)) for v in values]
        PAPER_PARAMETERS.transducer().add_to_circuit(
            circuit, f"XDCR{i}", "a", "0", f"m{i}", "0", closed_form=True)
        mech = circuit.mechanical_node(f"m{i}")

        def mass(ctx):
            ctx.contribute("mech", ctx.param("m")
                           * ctx.ddt(ctx.across("mech"), key="p"))

        def spring(ctx):
            x = ctx.integ(ctx.across("mech"), key="x")
            ctx.contribute("mech", ctx.param("k") * x)
            ctx.record("x", x)

        def damper(ctx):
            ctx.contribute("mech", ctx.param("a") * ctx.across("mech"))

        for suffix, behavior, value in zip("mka", (mass, spring, damper),
                                           values):
            circuit.add(BehavioralDevice(
                f"res{i}_{suffix}",
                [Port("mech", mech, circuit.ground, MECHANICAL_TRANSLATION)],
                behavior, params={suffix: value}))
    return circuit


def figure5_transient(circuit, t_stop=2e-3, **options):
    return TransientAnalysis(circuit, t_stop=t_stop, t_step=2e-5,
                             options=SimulationOptions(trtol=7.0,
                                                       **options)).run()


class TestFigure5Array:
    def test_steady_state_counts_no_fallbacks(self):
        before = registry.snapshot()
        figure5_transient(figure5_array(2))
        assert fallback_counts(before) == dict.fromkeys(FALLBACKS, 0)

    def test_fresh_circuit_compiles_no_stamp_functions(self):
        figure5_transient(figure5_array(8, seed=1))
        before = registry.snapshot()
        cached = hdl_compile.cache_info()["stamp_functions"]
        figure5_transient(figure5_array(8, seed=2))
        assert registry.delta(before)["counters"].get(
            "hdl.stamp_fn.compiles", 0) == 0
        assert hdl_compile.cache_info()["stamp_functions"] == cached

    def test_fresh_jittered_array_runs_no_traces(self):
        # Every behaviour of the array is keyed (closure-free resonators,
        # the transducer's geometry bound by type): after one array has
        # been traced, a fresh seed-jittered one binds the memoized kernel
        # sets -- one cache hit per device and mode -- and traces nothing.
        figure5_transient(figure5_array(8, seed=1))
        circuit = figure5_array(8, seed=3)
        behavioral = sum(isinstance(device, BehavioralDevice)
                         for device in circuit)
        before = registry.snapshot()
        compiled = figure5_transient(circuit)
        counters = registry.delta(before)["counters"]
        assert counters.get("hdl.trace.count", 0) == 0
        assert counters.get("hdl.trace.unkeyed", 0) == 0
        assert counters["hdl.compile.cache_hits"] == 2 * behavioral == 64
        interp = figure5_transient(figure5_array(8, seed=3),
                                   behavioral_compile=False)
        assert_results_identical(compiled, interp)

    def test_summary_telemetry_observes_once_per_assembly(self):
        off = figure5_transient(figure5_array(2))
        before = registry.snapshot()
        on = figure5_transient(figure5_array(2), telemetry="summary")
        histograms = registry.delta(before)["histograms"]
        assemblies = sum(digest["count"] for name, digest
                         in histograms.items()
                         if name.startswith("mna.assembly."))
        assert assemblies > 0
        assert histograms["hdl.kernel.eval_s"]["count"] == assemblies
        assert_results_identical(on, off)

    def test_cells_share_one_function_per_device_kind(self):
        program = op_program(figure5_array(3))
        kinds = {}
        for fn, _, device in program.entries:
            # res<i>_<m|k|a> -> element kind; XDCR<i> -> XDCR; VS
            kind = device.name[-1] if device.name.startswith("res") \
                else device.name.rstrip("0123456789")
            kinds.setdefault(kind, set()).add(fn)
        assert set(kinds) == {"VS", "XDCR", "m", "k", "a"}
        assert all(len(fns) == 1 for fns in kinds.values()), kinds


def op_program(circuit, options=None, task="jac"):
    """The ``("op", task)`` stamp program of a fresh system of ``circuit``
    (after an operating point traced its behavioral devices)."""
    options = options or SimulationOptions()
    op = OperatingPointAnalysis(circuit, options).run()
    system = MNASystem(circuit)
    system.assemble(op.raw, "op", 0.0, None, options)
    return system.stamp_programs[("op", task)]


# ----------------------------------------------------------- fallbacks
def two_port_device(circuit, name, a, b, c):
    """Ports ``a-b`` and ``b-c``: two leaves share node ``b``."""
    def behavior(ctx):
        v = ctx.across("p")
        ctx.contribute("p", v * (1.0 + 0.1 * v * v) / 1e3)
        ctx.contribute("q", ctx.across("q") / 2e3 + 1e-4 * v)

    node = circuit.electrical_node
    return circuit.add(BehavioralDevice(
        name, [Port("p", node(a), node(b), ELECTRICAL),
               Port("q", node(b), node(c), ELECTRICAL)], behavior))


def _divider() -> Circuit:
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", Step(0.0, 3.0, ramp=1e-4))
    circuit.resistor("R1", "in", "mid", 1e3)
    two_port_device(circuit, "X2", "mid", "low", "0")
    circuit.resistor("R2", "low", "0", 5e2)
    return circuit


class TestFallbackCounters:
    def test_colliding_leaves_count_collide(self):
        before = registry.snapshot()
        compiled = TransientAnalysis(_divider(), t_stop=2e-4,
                                     t_step=2e-5).run()
        assert fallback_counts(before)["collide"] > 0
        interp = TransientAnalysis(
            _divider(), t_stop=2e-4, t_step=2e-5,
            options=SimulationOptions(behavioral_compile=False)).run()
        assert_results_identical(compiled, interp)

    def test_sparse_assembly_stays_compiled(self):
        # Sparse Jacobians stamp COO triplets through the program: every
        # behavioral device runs a stamp function, with no fallback.
        program = op_program(figure5_array(2),
                             SimulationOptions(linear_solver="sparse"),
                             task="triplet")
        assert all(args is not None for _, args, device in program.entries
                   if device.compiled_stamps)
        before = registry.snapshot()
        compiled = figure5_transient(figure5_array(2), linear_solver="sparse")
        assert fallback_counts(before) == dict.fromkeys(FALLBACKS, 0)
        interp = figure5_transient(figure5_array(2), linear_solver="sparse",
                                   behavioral_compile=False)
        assert_results_identical(compiled, interp)

    def test_guard_crossing_counts_guard_miss(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", Step(0.0, 4.0, ramp=2e-3))
        circuit.resistor("R1", "in", "out", 1e3)

        def behavior(ctx):
            v = ctx.across("e")
            if v > 1.0:
                ctx.contribute("e", (v - 0.5) / 1e3)
            else:
                ctx.contribute("e", v / 2e3)

        circuit.add(BehavioralDevice(
            "XG", [Port("e", circuit.electrical_node("out"), circuit.ground,
                        ELECTRICAL)], behavior))
        before = registry.snapshot()
        TransientAnalysis(circuit, t_stop=3e-3, t_step=1e-4).run()
        assert fallback_counts(before)["guard_miss"] > 0

    def test_guard_flips_switch_between_traced_variants(self, monkeypatch):
        # A sine drive crosses the guard in both directions many times:
        # once both branches are traced, the program switches variants by
        # itself and the interpreter does not stamp again.
        def build():
            circuit = Circuit()
            circuit.voltage_source("V1", "in", "0",
                                   Sine(amplitude=2.0, frequency=1e3))
            circuit.resistor("R1", "in", "out", 1e3)

            def behavior(ctx):
                v = ctx.across("e")
                if v > 0.0:
                    ctx.contribute("e", v / 1e3)
                else:
                    ctx.contribute("e", v / 3e3)

            circuit.add(BehavioralDevice(
                "XS", [Port("e", circuit.electrical_node("out"),
                            circuit.ground, ELECTRICAL)], behavior))
            return circuit

        calls = []
        try_stamp = runtime.try_stamp

        def counting(device, ctx):
            calls.append(ctx.analysis)
            return try_stamp(device, ctx)

        monkeypatch.setattr(runtime, "try_stamp", counting)
        before = registry.snapshot()
        compiled = TransientAnalysis(build(), t_stop=5e-3, t_step=5e-5).run()
        assert fallback_counts(before)["guard_miss"] == 1
        # Interpreted stamps: the priming assembly and the one guard miss
        # (op and tran trace when their programs are built).
        assert len(compiled.time) > 100 and calls == ["tran", "tran"], calls
        interp = TransientAnalysis(
            build(), t_stop=5e-3, t_step=5e-5,
            options=SimulationOptions(behavioral_compile=False)).run()
        assert_results_identical(compiled, interp)

    def test_untraceable_model_counts_disabled(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", 1.0)
        circuit.resistor("R1", "in", "out", 1e3)

        def behavior(ctx):
            v = ctx.across("e")
            # float() concretizes: the tracer refuses, the mode disables.
            plain = float(getattr(v, "value", v))
            ctx.contribute("e", v / (1e3 + 0.0 * plain))

        circuit.add(BehavioralDevice(
            "XU", [Port("e", circuit.electrical_node("out"), circuit.ground,
                        ELECTRICAL)], behavior))
        before = registry.snapshot()
        OperatingPointAnalysis(circuit).run()
        assert fallback_counts(before)["disabled"] > 0

    def test_non_float_parameter_stays_compiled(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", 2.0)
        circuit.resistor("R1", "in", "out", 1e3)

        def behavior(ctx):
            ctx.contribute("e", ctx.across("e") / ctx.param("R"))

        circuit.add(BehavioralDevice(
            "XR", [Port("e", circuit.electrical_node("out"), circuit.ground,
                        ELECTRICAL)], behavior, params={"R": 2e3}))
        reference = OperatingPointAnalysis(circuit).run()
        for value in (2000, np.float64(2e3)):
            # The stamp function widens the value as the interpreter would.
            circuit["XR"].params["R"] = value
            before = registry.snapshot()
            widened = OperatingPointAnalysis(circuit).run()
            assert fallback_counts(before)["param"] == 0
            assert np.array_equal(widened.raw, reference.raw)
        # A bool is no number a model means: the interpreter takes it.
        circuit["XR"].params["R"] = True
        before = registry.snapshot()
        compiled = OperatingPointAnalysis(circuit).run()
        assert fallback_counts(before)["param"] > 0
        interp = OperatingPointAnalysis(
            circuit, SimulationOptions(behavioral_compile=False)).run()
        assert np.array_equal(compiled.raw, interp.raw)


# ----------------------------------------------- generated netlists
class _Owner:
    """Parameter-binding owner (a transducer-geometry stand-in)."""

    def __init__(self, g: float) -> None:
        self.g = g


def _term(rng, port: str, n: int, owner: _Owner):
    """One random contribution term of ``port``: ``(fn, features,
    params)`` with ``fn(ctx, across)`` and the params-dict entries it reads."""
    kind = rng.choice(["param", "binding", "default", "cubic", "ddt",
                       "integ", "guard", "time"])
    g = float(rng.uniform(0.2e-3, 2e-3))
    key = f"{port}{n}"
    if kind == "param":
        return (lambda ctx, v: ctx.param(f"g{key}") * v,
                {"param"}, {f"g{key}": g})
    if kind == "binding":
        return (lambda ctx, v: owner.g * v, {"binding"}, {})
    if kind == "default":
        return (lambda ctx, v: ctx.param(f"d{key}", g) * v, {"default"}, {})
    if kind == "cubic":
        return (lambda ctx, v: g * v * (1.0 + 0.05 * v * v), {"nonlinear"},
                {})
    if kind == "ddt":
        c = float(rng.uniform(1e-9, 1e-8))
        return (lambda ctx, v: c * ctx.ddt(v, key=key), {"ddt"}, {})
    if kind == "integ":
        initial = float(rng.uniform(-2e-3, 2e-3))
        return (lambda ctx, v: 1e-3 * ctx.integ(v, key=key, initial=initial),
                {"integ"}, {})
    if kind == "guard":
        threshold = float(rng.uniform(0.3, 1.5))

        def guarded(ctx, v):
            if v > threshold:
                return g * threshold + 2.0 * g * (v - threshold)
            return g * v
        return guarded, {"guard"}, {}
    return (lambda ctx, v: g * v + 1e-6 * ctx.time, {"time"}, {})


def generated_netlist(seed: int):
    """A small well-posed circuit with 1-3 random behavioral devices.

    A ramped source drives a resistor ladder ``n1 - n2 - n3 - 0``; the
    behavioral devices hang 1-2 ports off random node pairs.  Returns the
    circuit and the set of features it exercises.
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"generated-{seed}")
    circuit.voltage_source("V1", "n1", "0",
                           Step(0.0, float(rng.uniform(1.0, 3.0)),
                                time=1e-5, ramp=2e-4))
    circuit.resistor("R1", "n1", "n2", 1e3)
    circuit.resistor("R2", "n2", "n3", 2e3)
    circuit.resistor("R3", "n3", "0", 3e3)
    names = ["n1", "n2", "n3", "0"]
    features: set[str] = set()
    for d in range(int(rng.integers(1, 4))):
        owner = _Owner(float(rng.uniform(0.2e-3, 2e-3)))
        ports, terms, params = [], {}, {}
        for k in range(int(rng.integers(1, 3))):
            p, n = rng.choice(4, size=2, replace=False)
            if names[p] == "0" and rng.random() < 0.5:
                p, n = n, p
            port = f"p{k}"
            ports.append(Port(port, circuit.electrical_node(names[p]),
                              circuit.electrical_node(names[n]), ELECTRICAL))
            features.add("ground" if "0" in (names[p], names[n])
                         else "floating")
            terms[port] = []
            for t in range(int(rng.integers(1, 3))):
                fn, feats, extra = _term(rng, port, t, owner)
                terms[port].append(fn)
                features |= feats
                params.update(extra)
        nodes = [node for port in ports for node in (port.p, port.n)
                 if not node.is_ground]
        if len(nodes) != len(set(nodes)):
            features.add("collide")
        unknowns = ("i",) if rng.random() < 0.3 else ()
        features |= {"unknown"} if unknowns else set()
        inductance = float(rng.uniform(1e-3, 1e-2))

        def behavior(ctx, terms=terms, unknowns=unknowns, L=inductance):
            for port, fns in terms.items():
                v = ctx.across(port)
                total = fns[0](ctx, v)
                for fn in fns[1:]:
                    total = total + fn(ctx, v)
                ctx.contribute(port, total)
            if unknowns:
                i = ctx.unknown("i")
                ctx.contribute("p0", i)
                ctx.equation("i", ctx.across("p0") - 1e3 * i
                             - L * ctx.ddt(i, key="iL"))
                ctx.record("iL", i)

        circuit.add(BehavioralDevice(
            f"X{d}", ports, behavior, params=params, extra_unknowns=unknowns,
            parameter_bindings={"gb": (owner, "g")}))
    return circuit, features


SEEDS = range(40)

#: ``(linear solver, parameter cast)`` runs of every generated netlist.
#: Stamp functions widen ``int`` and ``np.float64`` parameters exactly as
#: the interpreter computes with them (the int cast keeps them non-zero).
CORPUS_RUNS = (("auto", float), ("sparse", float),
               ("auto", lambda g: max(1, round(g * 1e3))),
               ("auto", np.float64))


def cast_parameters(circuit, cast):
    for device in circuit:
        if isinstance(device, BehavioralDevice):
            for name in device.parameter_names():
                device.set_parameter(name, cast(device.get_parameter(name)))
    return circuit


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_netlist_compiled_matches_interpreter(seed):
    """Compiled ≡ interpreter: op and one transient (BE or trapezoidal by
    seed), under dense and sparse assembly and with float, int and
    ``np.float64`` parameters -- none of which leaves compiled code."""
    method = "backward_euler" if seed % 2 else "trapezoidal"
    for solver, cast in CORPUS_RUNS:
        results = []
        for compiled in (True, False):
            options = SimulationOptions(behavioral_compile=compiled,
                                        integration_method=method,
                                        linear_solver=solver)
            before = registry.snapshot()
            op = OperatingPointAnalysis(
                cast_parameters(generated_netlist(seed)[0], cast), options)
            results.append((op.run(), TransientAnalysis(
                cast_parameters(generated_netlist(seed)[0], cast),
                t_stop=3e-4, t_step=2e-5, options=options).run()))
            if compiled:
                assert fallback_counts(before)["param"] == 0
                assert solver == "auto" \
                    or ("op", "triplet") in op.system.stamp_programs
        (op_c, tran_c), (op_i, tran_i) = results
        assert np.array_equal(op_c.raw, op_i.raw)
        assert op_c.iterations == op_i.iterations
        assert_results_identical(tran_c, tran_i)


def test_generated_corpus_covers_every_feature():
    seen = set()
    for seed in SEEDS:
        seen |= generated_netlist(seed)[1]
    assert seen >= {"ground", "floating", "collide", "unknown", "ddt",
                    "integ", "param", "binding", "default", "guard",
                    "nonlinear", "time"}


def test_generated_guards_force_retraces():
    before = registry.snapshot()
    for seed in SEEDS:
        if "guard" in generated_netlist(seed)[1]:
            TransientAnalysis(generated_netlist(seed)[0], t_stop=3e-4,
                              t_step=2e-5).run()
    assert fallback_counts(before)["guard_miss"] > 0


def test_different_circuits_share_stamp_functions():
    """Two circuits with the same device shapes run one stamp function per
    shape; the second compiles none."""
    def build(r_load, name):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", 2.0)
        circuit.resistor("R1", "in", name, r_load)

        def behavior(ctx):
            v = ctx.across("e")
            ctx.contribute("e", ctx.param("g") * v * (1.0 + 0.1 * v * v))

        circuit.add(BehavioralDevice(
            "XB", [Port("e", circuit.electrical_node(name), circuit.ground,
                        ELECTRICAL)], behavior, params={"g": 1.5e-3}))
        return circuit

    first = op_program(build(1e3, "out"))
    before = registry.snapshot()
    second = op_program(build(2.2e3, "load"))
    assert registry.delta(before)["counters"].get(
        "hdl.stamp_fn.compiles", 0) == 0
    (fn_first, args_first, _), = [e for e in first.entries
                                  if e[2].name == "XB"]
    (fn_second, args_second, _), = [e for e in second.entries
                                    if e[2].name == "XB"]
    assert fn_first is fn_second
    assert args_first != args_second


def test_telemetry_enabled_path_matches_off():
    with telemetry.session(mode="summary"):
        on = TransientAnalysis(generated_netlist(5)[0], t_stop=3e-4,
                               t_step=2e-5).run()
    off = TransientAnalysis(generated_netlist(5)[0], t_stop=3e-4,
                            t_step=2e-5).run()
    assert_results_identical(on, off)
