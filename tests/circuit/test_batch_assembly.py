"""Grouped batched assembly against a per-device golden loop.

``assemble_batch`` stamps each batch-safe device class once through a group
view and adds the buffered values into the residual and Jacobian through an
ordered scatter.  Its contract is that every entry sums the same
contributions in the same order as stamping device by device, so residual,
dense Jacobian and CSR lanes must be *bitwise* equal to the per-device loop
kept below (:func:`golden_assembly`).  The batched op/DC-sweep drivers and
the campaign batch backend stay within 1e-12 of serial, with byte-equal
error rows and identical lane iteration counts.  Under
``jacobian_reuse="chord"`` every lane keeps its own chord schedule, so an
operating-point lane matches serial chord Newton to 1e-12 with the same
iteration count, and a lane the batch retires carries the error type
serial Newton raises; chord DC sweeps still agree only to the Newton
tolerance.  DC sweeps warm-start each point from the last and, with
``continue_on_failure``, restart a failed lane from zero like the serial
sweep.

The netlists come from a seeded in-repo generator: R/C/L/D, current and
voltage sources, the mechanical twins (mass, spring, damper, force and
velocity sources), ground on either terminal, parallel duplicates inside one
group, parameter columns on a subset of a group's members, guard-free and
guarded behavioral devices, dense and forced-sparse assembly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignRunner, CircuitEvaluator, PointList
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis import batch
from repro.circuit.analysis.batch import (BatchStage, ParameterColumns,
                                          assemble_batch, batched_dcsweeps,
                                          batched_operating_points)
from repro.circuit.analysis.dcsweep import DCSweepAnalysis
from repro.circuit.analysis.op import (RETIREMENT_ERRORS, NewtonWorkspace,
                                       OperatingPointAnalysis, newton_lanes,
                                       newton_solve)
from repro.circuit.devices.base import TwoTerminalDevice
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.devices.mechanical import Damper
from repro.circuit.devices.nonlinear import Diode
from repro.circuit.mna import BatchStampContext, MNASystem
from repro.errors import AnalysisError, ConvergenceError, SingularMatrixError
from repro.natures import ELECTRICAL
from repro.telemetry import registry

SEEDS = range(40)
LANES = 4
SPARSE = SimulationOptions(linear_solver="sparse", sparse_threshold=1)
DENSE = SimulationOptions()
FEATURES = {"R", "C", "L", "D", "I", "V", "mass", "spring", "damper",
            "force", "velocity", "ground_p", "ground_n", "parallel",
            "subset_column", "behavioral", "guarded", "sparse", "dense"}


# ----------------------------------------------------------------- generator
class _Shorts:
    """Union-find over nodes joined by DC shorts (inductors, springs,
    voltage and velocity sources): a short closing a loop would make the
    operating point singular, so the generator skips it."""

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, node: str) -> str:
        while self.parent.get(node, node) != node:
            node = self.parent[node]
        return node

    def join(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _conductance(ctx):
    ctx.contribute("e", ctx.param("g") * ctx.across("e"))


def _guarded(ctx):
    v = ctx.across("e")
    if v > 0.3:
        ctx.contribute("e", (v - 0.15) * ctx.param("g"))
    else:
        ctx.contribute("e", 0.5 * v * ctx.param("g"))


def generate(seed: int) -> tuple[Circuit, set[str], list]:
    """A well-posed random netlist, its feature set and its column targets
    ``[(device, param, base value)]``."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"generated-{seed}")
    features: set[str] = set()
    shorts = _Shorts()
    nodes = [f"n{i}" for i in range(int(rng.integers(3, 6)))]
    circuit.voltage_source("VS", "n0", "0", float(rng.uniform(1.0, 4.0)))
    shorts.join("n0", "0")
    resistors: list[tuple[str, str, str]] = []

    def pair(pool):
        a, b = rng.choice(["0"] + pool, size=2, replace=False)
        return str(a), str(b)

    def mark_ground(p, n):
        if p == "0":
            features.add("ground_p")
        if n == "0":
            features.add("ground_n")

    # Resistive backbone: every node has a DC path to the source.
    for i, node in enumerate(nodes[1:], start=1):
        other = str(rng.choice(["0"] + nodes[:i]))
        p, n = (node, other) if rng.random() < 0.5 else (other, node)
        mark_ground(p, n)
        circuit.resistor(f"RB{i}", p, n, float(rng.uniform(50.0, 500.0)))
        resistors.append((f"RB{i}", p, n))
    features.add("R")
    for index in range(int(rng.integers(4, 9))):
        kind = str(rng.choice(["R", "R", "C", "L", "D", "D", "I", "V"]))
        name = f"{kind}{index}"
        p, n = pair(nodes)
        if kind == "R":
            if resistors and rng.random() < 0.4:
                _, p, n = resistors[int(rng.integers(len(resistors)))]
                features.add("parallel")
            circuit.resistor(name, p, n, float(rng.uniform(50.0, 500.0)))
            resistors.append((name, p, n))
        elif kind == "C":
            circuit.capacitor(name, p, n, float(rng.uniform(1e-9, 1e-6)))
        elif kind == "L":
            if not shorts.join(p, n):
                continue
            circuit.inductor(name, p, n, float(rng.uniform(1e-6, 1e-3)))
        elif kind == "D":
            circuit.diode(name, p, n, float(rng.uniform(1e-14, 1e-12)))
        elif kind == "I":
            circuit.current_source(name, p, n, float(rng.uniform(-1e-3, 1e-3)))
        elif not shorts.join(p, n):
            continue
        else:
            circuit.voltage_source(name, p, n, float(rng.uniform(-1.0, 1.0)))
        mark_ground(p, n)
        features.add(kind)
    if rng.random() < 0.6:
        masses = [f"m{i}" for i in range(int(rng.integers(1, 3)))]
        circuit.force_source("FS", masses[0], "0", float(rng.uniform(-1.0, 1.0)))
        features.add("force")
        for i, node in enumerate(masses):
            other = str(rng.choice(["0"] + masses[:i]))
            circuit.damper(f"DMP{i}", node, other, float(rng.uniform(0.5, 5.0)))
            circuit.mass(f"M{i}", node, float(rng.uniform(1e-9, 1e-6)))
            if rng.random() < 0.6 and shorts.join(node, other):
                circuit.spring(f"K{i}", node, other,
                               float(rng.uniform(1.0, 10.0)))
                features.add("spring")
        if len(masses) > 1 and shorts.join(masses[1], "0"):
            circuit.velocity_source("US", masses[1], "0",
                                    float(rng.uniform(-0.5, 0.5)))
            features.add("velocity")
        features.update({"mass", "damper"})
    for name, behavior, feature in (("XB", _conductance, "behavioral"),
                                    ("XG", _guarded, "guarded")):
        if rng.random() < 0.3:
            node = str(rng.choice(nodes[1:]))
            circuit.add(BehavioralDevice(
                name, [Port("e", circuit.electrical_node(node),
                            circuit.ground, ELECTRICAL)],
                behavior, params={"g": float(rng.uniform(1e-3, 1e-2))}))
            features.add(feature)
    # Columns on a subset of the resistors (never all of them), plus some
    # of the source level, a diode and a damper.
    picked = rng.choice(len(resistors), size=max(1, len(resistors) // 2),
                        replace=False)
    targets = [(resistors[int(i)][0], "resistance") for i in picked]
    if len(picked) < len(resistors):
        features.add("subset_column")
    if rng.random() < 0.5:
        targets.append(("VS", "dc"))
    for cls, param in ((Diode, "saturation_current"), (Damper, "damping")):
        names = [device.name for device in circuit if type(device) is cls]
        if names and rng.random() < 0.6:
            targets.append((names[0], param))
    if "guarded" in features and rng.random() < 0.5:
        targets.append(("XG", "g"))
    columns = [(name, param, circuit[name].get_parameter(param))
               for name, param in targets]
    return circuit, features, columns


def options_for(seed: int) -> SimulationOptions:
    return SPARSE if seed % 2 else DENSE


def draw_columns(circuit, targets, rng) -> ParameterColumns:
    return ParameterColumns(circuit, [
        (name, param, base * (1.0 + 0.1 * rng.normal(size=LANES)))
        for name, param, base in targets])


# ---------------------------------------------------------------- golden loop
class _GoldenContext(BatchStampContext):
    """The per-device batched accumulation: every ``add_*`` call lands in
    the residual / dense Jacobian / triplet lists at once."""

    def __init__(self, system, x, options, want_jacobian, force_dense):
        super().__init__(system, x, "op", options,
                         want_jacobian=want_jacobian, force_dense=force_dense)
        n = system.size
        self.res = np.zeros((self.batch, n))
        if want_jacobian and not self.use_sparse:
            self.jac = np.zeros((self.batch, n, n))
        self.rows, self.cols, self.vals = [], [], []

    def add_res(self, row, value):
        if row >= 0:
            self.res[:, row] += value

    def add_jac(self, row, col, value):
        if row < 0 or col < 0 or not self.want_jacobian:
            return
        if self.use_sparse:
            self.rows.append(row)
            self.cols.append(col)
            self.vals.append(value)
        else:
            self.jac[:, row, col] += value


def golden_assembly(system, x, options, columns, want_jacobian):
    """``(res, jac)`` stamped device by device; ``jac`` is the dense stack
    or the list of CSR lanes."""
    columns.set_arrays(options)
    safe = [device.batch_safe_for(options) for device in system.circuit]
    ctx = _GoldenContext(system, x, options, want_jacobian,
                         force_dense=not all(safe))
    for device, ok in zip(system.circuit, safe):
        if ok:
            device.stamp(ctx)
    unsafe = [device for device, ok in zip(system.circuit, safe) if not ok]
    for lane in range(ctx.batch):
        columns.set_unsafe_lane(lane)
        for device in unsafe:
            device.stamp(ctx.lane_context(lane))
    gmin, n_nodes = options.gmin, system.num_nodes
    if not want_jacobian:
        jac = None
    elif ctx.use_sparse:
        rows = ctx.rows + list(range(n_nodes))
        vals = np.empty((len(rows), ctx.batch))
        for i, value in enumerate(ctx.vals + [gmin] * n_nodes):
            vals[i] = value
        jac = system.structure_cache.assemble_batch(
            rows, ctx.cols + list(range(n_nodes)), vals, system.size)
    else:
        idx = np.arange(n_nodes)
        ctx.jac[:, idx, idx] += gmin
        jac = ctx.jac
    ctx.res[:, :n_nodes] += gmin * x[:, :n_nodes]
    return ctx.res, jac


def assert_same_bits(res, jac, ctx):
    assert res.tobytes() == ctx.res.tobytes()
    if jac is None:
        return
    new = ctx.jacobian()
    if isinstance(jac, np.ndarray):
        assert jac.tobytes() == np.ascontiguousarray(new).tobytes()
    else:
        assert len(jac) == len(new)
        for a, b in zip(jac, new):
            assert a.data.tobytes() == b.data.tobytes()
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.indptr, b.indptr)


def lane_stamps(before) -> float:
    return registry.delta(before)["counters"].get("mna.batch.lane_stamps", 0)


# -------------------------------------------------------------------- tests
def test_corpus_covers_features():
    covered = set()
    for seed in SEEDS:
        covered |= generate(seed)[1]
        covered.add("sparse" if options_for(seed) is SPARSE else "dense")
    assert FEATURES <= covered, sorted(FEATURES - covered)


@pytest.mark.parametrize("seed", SEEDS)
def test_grouped_assembly_is_bitwise_per_device(seed):
    circuit, _, targets = generate(seed)
    options = options_for(seed)
    system = MNASystem(circuit)
    rng = np.random.default_rng(1000 + seed)
    lane_devices = sum(not device.batch_safe_for(options)
                       for device in circuit)
    before = registry.snapshot()
    assemblies = 0
    # Two column draws through one system: the group stacks must follow.
    for _ in range(2):
        with draw_columns(circuit, targets, rng) as columns:
            for _ in range(2):
                x = 0.5 * rng.normal(size=(LANES, system.size))
                for want_jacobian in (True, False):
                    res, jac = golden_assembly(system, x, options, columns,
                                               want_jacobian)
                    ctx = assemble_batch(system, x, "op", options, columns,
                                         want_jacobian=want_jacobian)
                    assemblies += 1
                    assert_same_bits(res, jac, ctx)
    assert lane_stamps(before) == assemblies * LANES * lane_devices


def serial_op(circuit, columns, lane, options):
    columns.set_lane(lane)
    try:
        return OperatingPointAnalysis(circuit, options).run()
    finally:
        columns.restore()


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_op_matches_serial(seed):
    circuit, _, targets = generate(seed)
    options = options_for(seed)
    columns = draw_columns(circuit, targets, np.random.default_rng(seed))
    results = batched_operating_points(circuit, options, columns)
    for lane, result in enumerate(results):
        if result is None:
            # Retired lane: plain serial Newton from zero fails there too
            # (the serial rerun may still rescue it by source stepping).
            columns.set_lane(lane)
            try:
                with pytest.raises((ConvergenceError, SingularMatrixError)):
                    newton_solve(MNASystem(circuit), np.zeros(len(
                        MNASystem(circuit).unknown_labels())), "op", 0.0,
                        None, options)
            finally:
                columns.restore()
            continue
        reference = serial_op(circuit, columns, lane, options)
        assert result.iterations == reference.iterations
        assert set(result.keys()) == set(reference.keys())
        for key, value in reference.items():
            assert abs(result[key] - value) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_batched_dcsweep_matches_serial(seed):
    circuit, _, targets = generate(seed)
    targets = [target for target in targets if target[0] != "VS"]
    if not targets:
        targets = [("RB1", "resistance",
                    circuit["RB1"].get_parameter("resistance"))]
    options = options_for(seed)
    columns = draw_columns(circuit, targets, np.random.default_rng(seed))
    sweep = np.linspace(0.5, 3.0, 3)
    results = batched_dcsweeps(circuit, "VS", sweep, options, columns)
    for lane, result in enumerate(results):
        assert result is not None
        columns.set_lane(lane)
        try:
            reference = DCSweepAnalysis(circuit, "VS", sweep, options).run()
        finally:
            columns.restore()
        assert set(result.keys()) == set(reference.keys())
        for key in reference.keys():
            want = reference.column(key)
            assert np.all(np.abs(result.column(key) - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_chord_lanes_match_serial(seed):
    # Each lane keeps its own chord schedule (ride, stall refactor, held
    # Jacobian), so it follows serial chord Newton: same outcome, same
    # iteration count, the same solution to 1e-12.
    circuit, _, targets = generate(seed)
    options = options_for(seed).with_(jacobian_reuse="chord")
    columns = draw_columns(circuit, targets, np.random.default_rng(seed))
    system = MNASystem(circuit)
    workspace = NewtonWorkspace(options)
    with columns:
        lanes = newton_lanes(
            BatchStage(system, "op", options, columns, 1.0, workspace),
            np.zeros((LANES, system.size)), options, workspace,
            ("op", None, 1.0, system.structure_cache.generation))
    for lane, reason in enumerate(lanes.reason):
        columns.set_lane(lane)
        try:
            if reason is None:
                x, iterations = newton_solve(
                    MNASystem(circuit), np.zeros(system.size), "op", 0.0,
                    None, options)
                assert lanes.iterations[lane] == iterations
                assert np.all(np.abs(lanes.x[lane] - x)
                              <= 1e-12 * np.maximum(1.0, np.abs(x)))
                continue
            with pytest.raises(RETIREMENT_ERRORS[reason]):
                newton_solve(MNASystem(circuit), np.zeros(system.size), "op",
                             0.0, None, options)
        finally:
            columns.restore()


@pytest.mark.parametrize("seed", SEEDS[2::4])
def test_batched_dcsweep_restarts_failed_points_like_serial(seed):
    circuit, _, targets = generate(seed)
    targets = [target for target in targets if target[0] != "VS"] or [
        ("RB1", "resistance", circuit["RB1"].get_parameter("resistance"))]
    options = options_for(seed).with_(max_newton_iterations=12)
    columns = draw_columns(circuit, targets, np.random.default_rng(seed))
    # Warm starts from each solved point; the 30 V and 60 V points fail in
    # some lanes and restart them from zero.
    sweep = [0.5, 30.0, 1.0, 2.5, 60.0, 3.0]
    results = batched_dcsweeps(circuit, "VS", sweep, options, columns,
                               continue_on_failure=True)
    for lane, result in enumerate(results):
        columns.set_lane(lane)
        try:
            reference = DCSweepAnalysis(circuit, "VS", sweep, options,
                                        continue_on_failure=True).run()
        finally:
            columns.restore()
        assert set(result.keys()) == set(reference.keys())
        for key in reference.keys():
            want, got = reference.column(key), result.column(key)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.all(np.abs(got - want)[~np.isnan(want)]
                          <= 1e-12 * np.maximum(1.0, np.abs(want))[
                              ~np.isnan(want)])


@pytest.mark.parametrize("seed", SEEDS[1::4])
def test_batched_chord_dcsweep_warm_starts_match_serial(seed):
    circuit, _, targets = generate(seed)
    targets = [target for target in targets if target[0] != "VS"] or [
        ("RB1", "resistance", circuit["RB1"].get_parameter("resistance"))]
    options = options_for(seed).with_(jacobian_reuse="chord")
    columns = draw_columns(circuit, targets, np.random.default_rng(seed))
    sweep = np.linspace(0.5, 3.0, 4)
    results = batched_dcsweeps(circuit, "VS", sweep, options, columns)
    for lane, result in enumerate(results):
        columns.set_lane(lane)
        try:
            reference = DCSweepAnalysis(circuit, "VS", sweep, options).run()
        finally:
            columns.restore()
        if result is None:
            continue  # retired to the serial sweep, as above
        for key in reference.keys():
            want = reference.column(key)
            assert np.all(np.abs(result.column(key) - want)
                          <= options.vntol + options.reltol * np.abs(want))


def build_case(params):
    circuit = generate(int(params["case"]))[0]
    if "rval" in params:
        circuit["RB1"].set_parameter("resistance", halve(params["rval"]))
    return circuit


def halve(value):
    return 0.5 * value


@pytest.mark.parametrize("seed", SEEDS[1::4])
def test_campaign_batch_matches_serial_with_transform(seed):
    # The column maps through a transform; one NaN point fails in both
    # paths and must come back as the byte-equal serial error row.
    values = [200.0, 300.0, float("nan"), 400.0, 500.0]
    spec = PointList([{"case": float(seed), "rval": value}
                      for value in values])
    options = options_for(seed)
    serial = CampaignRunner(backend="serial").run(
        spec, CircuitEvaluator(build_case, options=options))
    before = registry.snapshot()
    batched = CampaignRunner(backend="batch").run(
        spec, CircuitEvaluator(build_case, options=options,
                               param_map={"rval": ("RB1.resistance",
                                                   halve)}))
    reruns = registry.delta(before)["counters"].get(
        "campaign.batch.serial_reruns", 0)
    assert reruns == 1
    errors = [row.error for row in serial if row.error is not None]
    assert len(errors) == 1
    for a, b in zip(serial, batched):
        assert a.params == b.params
        assert a.error == b.error
        if a.error is None:
            assert set(a.outputs) == set(b.outputs)
            for key, value in a.outputs.items():
                assert abs(b.outputs[key] - value) <= 1e-12 * max(
                    1.0, abs(value))


def test_stamp_calls_per_assembly_are_per_class():
    circuit, _, targets = generate(3)
    system = MNASystem(circuit)
    with draw_columns(circuit, targets, np.random.default_rng(0)) as columns:
        plan = batch.batch_plan(system, DENSE, columns)
    safe = [device for device in circuit if device.batch_safe_for(DENSE)]
    classes = {type(device) for device in safe if device.batch_grouped}
    singles = [device for device in safe if not device.batch_grouped]
    assert len(plan.stampers) == len(classes) + len(singles)


class _Taps(TwoTerminalDevice):
    """Batch-safe conductance stamped ``taps`` times: its call count is a
    knob, to exercise a scatter whose probe went stale."""

    batch_safe = True

    def __init__(self, name, p, n, taps):
        super().__init__(name, p, n)
        self.taps = taps

    def stamp(self, ctx):
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        current = 1e-3 * self.branch_across(ctx)
        for _ in range(self.taps):
            ctx.add_through(ip, in_, current)
            ctx.add_through_jac(ip, in_, ip, 1e-3)
            ctx.add_through_jac(ip, in_, in_, -1e-3)


def test_changed_stamp_calls_are_probed_again():
    circuit, _, targets = generate(2)
    taps = circuit.add(_Taps("T", circuit.node("n1"), circuit.node("n2"), 1))
    system = MNASystem(circuit)
    rng = np.random.default_rng(0)
    with draw_columns(circuit, targets, rng) as columns:
        for count in (1, 3, 2):
            taps.taps = count
            x = rng.normal(size=(LANES, system.size))
            res, jac = golden_assembly(system, x, DENSE, columns, True)
            assert_same_bits(res, jac, assemble_batch(system, x, "op", DENSE,
                                                      columns))


def test_stamp_calls_that_follow_values_are_rejected():
    circuit, _, targets = generate(2)
    taps = circuit.add(_Taps("T", circuit.node("n1"), circuit.node("n2"), 1))
    stamp = _Taps.stamp

    def flipping(self, ctx):
        self.taps = 3 - self.taps
        stamp(self, ctx)

    taps.stamp = flipping.__get__(taps)
    system = MNASystem(circuit)
    with draw_columns(circuit, targets, np.random.default_rng(0)) as columns:
        with pytest.raises(AnalysisError, match="must not branch"):
            assemble_batch(system, np.zeros((LANES, system.size)), "op",
                           DENSE, columns)
