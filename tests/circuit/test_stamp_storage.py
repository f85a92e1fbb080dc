"""Serial assembly on Python floats against the ndarray accumulation.

A serial ``StampContext`` accumulates its residual in a Python list and
its dense Jacobian in a flat list (up to ``LIST_JACOBIAN_LIMIT`` unknowns)
or a flat ndarray (above it), and converts them when the assembly ends.
These tests replay what one assembly stamps into ``np.zeros`` arrays,
element by element as an ndarray context accumulates (then gmin,
vectorized), and require the assembled context to be byte-equal: its
residual, its dense Jacobian and its triplet stream.  Two recordings are
replayed: the exact sequence of ``add_*`` calls, recorded by a context
subclass (which the interpreter stamps), and the exact stream of writes
into the context's lists, recorded by *tapes* that stand in for them
(built-in stamps and compiled stamp functions alike).  The seeded circuits
mix built-in devices with behavioral ones (parameters, cubic, ``ddt``,
``integ``, guarded and time terms, extra unknowns) on either side of
``sparse_threshold``, in op and transient, with full and residual-only
assemblies, under either dense storage.  A guarded behavioral device
stamps a batch per lane through ``lane_context``, straight into the
lane's rows: they must read the same replay onto their starting values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import Circuit, SimulationOptions, Step, mna
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.mna import (BatchStampContext, Integrator, MNASystem,
                               StampContext, compile_runtime)
from repro.natures import ELECTRICAL

SEEDS = range(24)
THRESHOLD = 6
SOLVERS = {"auto": SimulationOptions(sparse_threshold=THRESHOLD),
           "dense": SimulationOptions(linear_solver="dense")}
#: ``LIST_JACOBIAN_LIMIT`` values that put every corpus circuit on one side.
STORAGES = {"list": 10 ** 9, "ndarray": 0}


@pytest.fixture(params=STORAGES)
def storage(request, monkeypatch):
    monkeypatch.setattr(mna, "LIST_JACOBIAN_LIMIT", STORAGES[request.param])
    return request.param


# ------------------------------------------------------------------ circuits
def _behavior(rng):
    """A random one-port behaviour, its params and whether it is guarded."""
    g = float(rng.uniform(2e-4, 2e-3))
    cubic = float(rng.uniform(1e-5, 1e-4)) if rng.random() < 0.5 else 0.0
    cap = float(rng.uniform(1e-9, 1e-8)) if rng.random() < 0.5 else 0.0
    initial = float(rng.uniform(-1e-3, 1e-3)) if rng.random() < 0.4 else None
    threshold = float(rng.uniform(0.1, 0.6)) if rng.random() < 0.5 else None
    timed = rng.random() < 0.3
    unknown = rng.random() < 0.3
    inductance = float(rng.uniform(1e-3, 1e-2))

    def behavior(ctx):
        v = ctx.across("p")
        total = ctx.param("g") * v
        if cubic:
            total = total + cubic * v * v * v
        if cap:
            total = total + cap * ctx.ddt(v, key="q")
        if initial is not None:
            total = total + 1e-3 * ctx.integ(v, key="phi", initial=initial)
        if threshold is not None and v > threshold:
            total = total + 3.0 * g * (v - threshold)
        if timed:
            total = total + 1e-6 * ctx.time
        ctx.contribute("p", total)
        if unknown:
            i = ctx.unknown("i")
            ctx.contribute("p", i)
            ctx.equation("i", ctx.across("p") - 1e3 * i
                         - inductance * ctx.ddt(i, key="iL"))

    return behavior, {"g": g}, ("i",) if unknown else (), threshold is not None


def generated_circuit(seed: int):
    """A driven resistor chain over 2-9 nodes, 1-4 random built-ins (C, L,
    diode, VCCS, current source) and 1-3 behavioral one-ports between
    random node pairs.  Returns the circuit and its guarded devices."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(f"storage-{seed}")
    nodes = [f"n{i}" for i in range(int(rng.integers(2, 10)))]
    circuit.voltage_source("V1", nodes[0], "0",
                           Step(0.0, float(rng.uniform(0.5, 2.0)),
                                time=1e-5, ramp=2e-4))
    for i in range(1, len(nodes)):
        circuit.resistor(f"R{i}", nodes[i - 1], nodes[i],
                         float(rng.uniform(5e2, 5e3)))
    circuit.resistor("RL", nodes[-1], "0", 1e3)
    names = nodes + ["0"]

    def pair():
        p, n = rng.choice(len(names), size=2, replace=False)
        return names[p], names[n]

    for k in range(int(rng.integers(1, 5))):
        kind = rng.choice(["C", "L", "D", "G", "I"])
        p, n = pair()
        if kind == "C":
            circuit.capacitor(f"C{k}", p, n, float(rng.uniform(1e-9, 1e-8)))
        elif kind == "L":
            circuit.inductor(f"L{k}", p, n, float(rng.uniform(1e-3, 1e-2)))
        elif kind == "D":
            circuit.diode(f"D{k}", p, n)
        elif kind == "G":
            cp, cn = pair()
            circuit.vccs(f"G{k}", p, n, cp, cn, float(rng.uniform(1e-4, 1e-3)))
        else:
            circuit.current_source(f"I{k}", p, n,
                                   float(rng.uniform(-1e-3, 1e-3)))
    guarded = []
    for d in range(int(rng.integers(1, 4))):
        p, n = pair()
        behavior, params, unknowns, guard = _behavior(rng)
        device = circuit.add(BehavioralDevice(
            f"X{d}", [Port("p", circuit.electrical_node(p),
                           circuit.electrical_node(n), ELECTRICAL)],
            behavior, params=params, extra_unknowns=unknowns))
        if guard:
            guarded.append(device)
    return circuit, guarded


# --------------------------------------------------------------------- tapes
class _Step:
    """``tape[index]`` read by ``+=`` / ``-=``: the signed increment."""

    __slots__ = ("index", "sign", "value")

    def __init__(self, index: int, sign: int = 0, value=None) -> None:
        self.index, self.sign, self.value = index, sign, value

    def __add__(self, value):
        return _Step(self.index, 1, value)

    def __sub__(self, value):
        return _Step(self.index, -1, value)


class _Tape:
    """Stands in for an accumulation list and records ``(index, sign,
    value)`` for every ``tape[index] += value`` / ``-= value``."""

    def __init__(self) -> None:
        self.steps: list[tuple] = []

    def __getitem__(self, index: int) -> _Step:
        return _Step(index)

    def __setitem__(self, index: int, step: _Step) -> None:
        assert step.index == index and step.sign
        self.steps.append((index, step.sign, step.value))


def replay(steps, start: np.ndarray) -> np.ndarray:
    """``start`` with every recorded increment applied in order."""
    out = start.copy()
    for index, sign, value in steps:
        if sign > 0:
            out[index] += value
        else:
            out[index] -= value
    return out


def taped_stamps(system, ctx) -> StampContext:
    """Run the stamps of one assembly (no gmin, no finish) over ``ctx``
    with tapes for its residual and dense Jacobian."""
    ctx._res = _Tape()
    if ctx._jac is not None:
        ctx._jac = _Tape()
    if system.stamp_programs is None:
        for device in system.circuit:
            device.stamp(ctx)
    else:
        compile_runtime().run_stamps(system, ctx)
    return ctx


class _Recorder(StampContext):
    """Records every ``add_res`` / ``add_jac`` call as ``(row, col, value)``
    (``col`` None for the residual) instead of accumulating.  Being a
    subclass, it is stamped by the interpreter."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: list[tuple] = []

    def add_res(self, row, value) -> None:
        self.calls.append((row, None, value))

    def add_jac(self, row, col, value) -> None:
        if self.want_jacobian:
            self.calls.append((row, col, value))


# --------------------------------------------------------------------- tests
def _assemblies(system, seed: int, options):
    """``(args, want_jacobian)`` of full and residual-only op and transient
    assemblies at one iterate; the transient ones after a committed step."""
    rng = np.random.default_rng(1000 + seed)
    x0, x1 = 0.3 * rng.normal(size=(2, system.size))
    integrator = Integrator("backward_euler" if seed % 2 else "trapezoidal")
    integrator.set_step(float(rng.uniform(1e-7, 1e-6)))
    system.assemble(x0, "tran", 1e-5, integrator, options)
    integrator.commit()
    return [((x1, analysis, time, integ, options), want_jacobian)
            for analysis, time, integ in (("op", 0.0, None),
                                          ("tran", 2e-5, integrator))
            for want_jacobian in (True, False)]


def assert_assembled(real, res, jac, triplets) -> None:
    """``real`` byte-equal to the replayed ``res`` and ``jac`` (dense) or
    ``triplets`` (sparse), before gmin, which is applied here."""
    system, x = real.system, real.x
    n_nodes, gmin = system.num_nodes, real.options.gmin
    res[:n_nodes] += gmin * x[:n_nodes]
    assert real.res.tobytes() == res.tobytes()
    if not real.want_jacobian:
        assert real.jac is None
    elif not real.use_sparse:
        idx = np.arange(n_nodes)
        jac[idx, idx] += gmin
        assert real.jac.tobytes() == jac.tobytes()
        assert real.jacobian() is real.jac
    else:
        rows, cols, vals = triplets
        diag = list(range(n_nodes))
        assert list(real._jac_rows) == rows + diag
        assert list(real._jac_cols) == cols + diag
        vals = np.array(vals + [gmin] * n_nodes, dtype=float)
        assert real._jac_vals.tobytes() == vals.tobytes()
        csr = system.structure_cache.assemble(rows + diag, cols + diag, vals,
                                              system.size)
        assert real.jacobian().data.tobytes() == csr.data.tobytes()


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_add_calls_replay_to_the_assembled_bytes(seed, solver, storage):
    system = MNASystem(generated_circuit(seed)[0])
    n = system.size
    for args, want_jacobian in _assemblies(system, seed, SOLVERS[solver]):
        real = system.assemble(*args, want_jacobian=want_jacobian)
        recorder = _Recorder(system, *args, want_jacobian=want_jacobian)
        for device in system.circuit:
            device.stamp(recorder)
        res, jac = np.zeros(n), np.zeros((n, n))
        triplets = ([], [], [])
        for row, col, value in recorder.calls:
            if row < 0 or (col is not None and col < 0):
                continue
            if col is None:
                res[row] += value
            elif real.use_sparse:
                for stream, item in zip(triplets, (row, col, value)):
                    stream.append(item)
            else:
                jac[row, col] += value
        assert_assembled(real, res, jac, triplets)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_storage_writes_replay_to_the_assembled_bytes(seed, solver, storage):
    system = MNASystem(generated_circuit(seed)[0])
    n = system.size
    for args, want_jacobian in _assemblies(system, seed, SOLVERS[solver]):
        real = system.assemble(*args, want_jacobian=want_jacobian)
        tape = taped_stamps(system, StampContext(
            system, *args, want_jacobian=want_jacobian))
        res = replay(tape._res.steps, np.zeros(n))
        jac = None if tape._jac is None else \
            replay(tape._jac.steps, np.zeros(n * n)).reshape(n, n)
        triplets = (tape._jac_rows, tape._jac_cols, tape._jac_vals) \
            if tape.use_sparse else None
        assert_assembled(real, res, jac, triplets)


def test_corpus_covers_both_sides_of_the_threshold():
    sizes = {MNASystem(generated_circuit(seed)[0]).size > THRESHOLD
             for seed in SEEDS}
    assert sizes == {False, True}
    assert any(generated_circuit(seed)[1] for seed in SEEDS)


@pytest.mark.parametrize("extra", [0, 1])
def test_the_size_chooses_the_dense_storage(extra):
    circuit = Circuit("chain")
    size = mna.LIST_JACOBIAN_LIMIT + extra
    for i in range(size):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}" if i + 1 < size
                         else "0", 1e3)
    system = MNASystem(circuit)
    assert system.size == size
    ctx = system.assemble(np.ones(size), "op", 0.0, None, SOLVERS["dense"])
    assert isinstance(ctx._jac, list) == (extra == 0)
    assert ctx.jac.shape == (size, size)


def test_early_reads_are_read_only_snapshots():
    circuit, _ = generated_circuit(0)
    system = MNASystem(circuit)
    ctx = StampContext(system, np.ones(system.size), "op", 0.0, None,
                       SOLVERS["dense"])
    ctx.add_res(0, 2.0)
    ctx.add_jac(0, 1, 3.0)
    res, jac = ctx.res, ctx.jac
    assert (res[0], jac[0, 1]) == (2.0, 3.0)
    with pytest.raises(ValueError):
        res[0] = 1.0
    ctx.add_res(0, 1.0)
    assert (res[0], ctx.res[0]) == (2.0, 3.0)


@pytest.mark.parametrize("seed", [seed for seed in SEEDS
                                  if generated_circuit(seed)[1]])
def test_lane_context_stamps_replay_onto_the_lane(seed):
    circuit, guarded = generated_circuit(seed)
    system = MNASystem(circuit)
    options = SOLVERS["dense"]
    n, lanes = system.size, 3
    rng = np.random.default_rng(2000 + seed)
    x = 0.4 * rng.normal(size=(lanes, n))
    batch = BatchStampContext(system, x, "op", options, force_dense=True)
    # The rows the lane-axis stamps left.
    batch.res = start_res = rng.normal(size=(lanes, n))
    batch.jac = start_jac = rng.normal(size=(lanes, n, n))
    start_res, start_jac = start_res.copy(), start_jac.copy()
    stamp = compile_runtime().stamp_devices
    # One lane context per device and lane, each stamping into the rows
    # the previous one left.
    programs = {device.name: {} for device in guarded}
    for lane in range(lanes):
        for device in guarded:
            stamp(programs[device.name], [device], batch.lane_context(lane))
    for lane in range(lanes):
        tape = StampContext(system, x[lane], "op", 0.0, None, options)
        tape._res, tape._jac = _Tape(), _Tape()
        for device in guarded:
            stamp({}, [device], tape)
        res = replay(tape._res.steps, start_res[lane])
        jac = replay(tape._jac.steps, start_jac[lane].ravel())
        assert batch.res[lane].tobytes() == res.tobytes()
        assert np.ascontiguousarray(batch.jac[lane]).tobytes() == \
            jac.reshape(n, n).tobytes()
