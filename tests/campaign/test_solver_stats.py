"""Linalg/compiler cache counters: recording sites and CampaignResult.solver_stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignResult, CampaignRow, CampaignRunner, GridSweep
from repro.campaign.results import SOLVER_STATS
from repro.campaign.runner import CircuitEvaluator
from repro.circuit import Circuit
from repro.circuit.devices.passive import Resistor
from repro.circuit.devices.sources import VoltageSource
from repro.linalg import (FactorizationCache, FactorizedSolver,
                          StructureCache, batched_factorize)
from repro.telemetry import registry


def build_divider(params: dict) -> Circuit:
    circuit = Circuit()
    n_in = circuit.electrical_node("in")
    n_out = circuit.electrical_node("out")
    circuit.add(VoltageSource("V1", n_in, circuit.ground, 5.0))
    circuit.add(Resistor("R1", n_in, n_out, float(params["r_top"])))
    circuit.add(Resistor("R2", n_out, circuit.ground, 1e3))
    return circuit


def build_behavioral(params: dict) -> Circuit:
    """Divider with a behavioral conductance: exercises the HDL compiler."""
    from repro.circuit.devices.behavioral import BehavioralDevice, Port
    from repro.natures import ELECTRICAL

    circuit = Circuit()
    n_in = circuit.electrical_node("in")
    n_out = circuit.electrical_node("out")
    circuit.add(VoltageSource("V1", n_in, circuit.ground,
                              float(params["v"])))
    circuit.add(Resistor("R1", n_in, n_out, 1e3))

    def behavior(ctx):
        ctx.contribute("p", ctx.param("g") * ctx.across("p"))

    circuit.add(BehavioralDevice(
        "G1", [Port("p", n_out, circuit.ground, ELECTRICAL)], behavior,
        params={"g": 1e-3}))
    return circuit


def cached_evaluator(point: dict) -> dict:
    """Evaluator that exercises the FactorizationCache inside workers."""
    cache = FactorizationCache(maxsize=4)
    matrix = np.eye(3) * float(point["v"])
    cache.factorize(matrix)
    cache.factorize(matrix)  # second call is a guaranteed hit
    solution = cache.solve(matrix, np.ones(3))
    return {"x0": float(solution[0])}


#: The ``solver_stats`` keys the linalg layer records.
LINALG_KEYS = tuple(key for key, name in SOLVER_STATS.items()
                    if name.startswith("linalg."))

LANES = 3


def _spd(n: int = 4, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def _factorize():
    solver = FactorizedSolver("dense")
    return lambda: solver.factorize(_spd())


def _batched_factorize():
    return lambda: batched_factorize(np.stack([_spd()] * LANES))


def _transposed(backend):
    def site():
        handle = FactorizedSolver(backend).factorize(_spd())
        return lambda: handle.solve_transposed(np.ones(4))
    return site


def _batched_transposed(backend):
    def site():
        handle = batched_factorize(np.stack([_spd()] * LANES), backend)
        return lambda: handle.solve_transposed(np.ones((LANES, 4)))
    return site


def _cache_miss():
    cache = FactorizationCache()
    return lambda: cache.factorize(_spd())


def _cache_hit():
    cache = FactorizationCache()
    cache.factorize(_spd())
    return lambda: cache.factorize(_spd())


def _cache_eviction():
    cache = FactorizationCache(maxsize=1)
    cache.factorize(_spd())
    return lambda: cache.factorize(_spd(scale=2.0))


TRIPLETS = ([0, 1, 1, 0], [0, 1, 0, 0], [2.0, 3.0, -1.0, 1.0])


def _structure_rebuild():
    structure = StructureCache()
    return lambda: structure.assemble(*TRIPLETS, n=2)


def _structure_reuse():
    structure = StructureCache()
    structure.assemble(*TRIPLETS, n=2)
    return lambda: structure.assemble(*TRIPLETS, n=2)


def _structure_reuse_batch():
    structure = StructureCache()
    structure.assemble(*TRIPLETS, n=2)
    values = np.column_stack([TRIPLETS[2]] * LANES)
    return lambda: structure.assemble_batch(*TRIPLETS[:2], values, n=2)


#: (site, expected solver_stats movement): every key not listed must stay.
SITES = {
    "factorize": (_factorize, {"factorizations": 1}),
    "batched_factorize": (_batched_factorize, {"factorizations": LANES}),
    "transposed_dense": (_transposed("dense"), {"transpose_solves": 1}),
    "transposed_superlu": (_transposed("superlu"), {"transpose_solves": 1}),
    "batched_transposed_dense": (_batched_transposed("dense"),
                                 {"transpose_solves": LANES}),
    "batched_transposed_superlu": (_batched_transposed("superlu"),
                                   {"transpose_solves": LANES}),
    "cache_miss": (_cache_miss, {"factorization_cache_misses": 1,
                                 "factorizations": 1}),
    "cache_hit": (_cache_hit, {"factorization_cache_hits": 1}),
    "cache_eviction": (_cache_eviction, {"factorization_cache_misses": 1,
                                         "factorizations": 1,
                                         "factorization_cache_evictions": 1}),
    "structure_rebuild": (_structure_rebuild, {"structure_rebuilds": 1}),
    "structure_reuse": (_structure_reuse, {"structure_reuses": 1}),
    "structure_reuse_batch": (_structure_reuse_batch,
                              {"structure_reuses": 1}),
}


class TestRecordingSites:
    @pytest.mark.parametrize("site", SITES)
    def test_site_moves_its_solver_stats(self, site):
        # Exact equality over every linalg key: a recording site that
        # bumps a misspelt registry name leaves its key at zero and fails.
        prepare, expected = SITES[site]
        action = prepare()
        before = registry.snapshot()
        action()
        counters = registry.delta(before)["counters"]
        moved = {key: counters[SOLVER_STATS[key]] for key in LINALG_KEYS
                 if SOLVER_STATS[key] in counters}
        assert moved == expected

    def test_sites_cover_every_linalg_key(self):
        assert len(LINALG_KEYS) == 7
        covered = set().union(*(expected for _, expected in SITES.values()))
        assert covered == set(LINALG_KEYS)


class TestCampaignAggregation:
    SPEC = GridSweep(v=[1.0, 2.0, 3.0, 4.0])

    def test_serial_counts_cache_traffic(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        stats = result.solver_stats
        # Per point: 2 hits (the repeat factorize + the cached solve),
        # 1 miss, 1 real factorization.
        assert stats["factorization_cache_hits"] == 2 * len(self.SPEC.points())
        assert stats["factorization_cache_misses"] == len(self.SPEC.points())
        assert stats["factorizations"] == len(self.SPEC.points())

    def test_pool_matches_serial(self):
        serial = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        pool = CampaignRunner("pool", processes=2).run(self.SPEC,
                                                       cached_evaluator)
        assert pool.solver_stats == serial.solver_stats

    def test_circuit_evaluator_factorizations_visible(self):
        evaluator = CircuitEvaluator(build_divider, outputs=("v(out)",))
        spec = GridSweep(r_top=[5e2, 1e3, 2e3])
        result = CampaignRunner("serial").run(spec, evaluator)
        assert result.solver_stats["factorizations"] >= 3

    def test_solver_summary_rates(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        summary = result.solver_summary()
        assert summary["factorization_cache_hit_rate"] == pytest.approx(2 / 3)
        assert summary["structure_reuse_rate"] == 0.0

    def test_repr_mentions_factorizations(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        assert "factorizations" in repr(result)

    def test_derived_results_have_empty_stats(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        filtered = result.filter(lambda row: row["v"] > 2.0)
        assert filtered.solver_stats == {}
        summary = filtered.solver_summary()
        assert summary["factorization_cache_hit_rate"] == 0.0

    def test_manual_construction_defaults_empty(self):
        row = CampaignRow(0, {"v": 1.0}, {"y": 2.0})
        result = CampaignResult([row])
        assert result.solver_stats == {}


class TestHdlCompileCounters:
    SPEC = GridSweep(v=[1.0, 2.0, 3.0])

    def test_behavioral_campaign_counts_kernel_cache(self):
        evaluator = CircuitEvaluator(build_behavioral, outputs=("v(out)",))
        result = CampaignRunner("serial").run(self.SPEC, evaluator)
        stats = result.solver_stats
        # One kernel-cache event per point (the fingerprint-keyed cache is
        # process-wide, so the compile itself may predate this campaign --
        # only the compile+hit total is deterministic here).
        events = stats["hdl_compiles"] + stats["hdl_compile_cache_hits"]
        assert events >= len(self.SPEC.points())
        assert stats["hdl_compile_cache_hits"] >= 2
        summary = result.solver_summary()
        assert summary["hdl_compile_cache_hit_rate"] > 0.0

    def test_non_behavioral_campaign_reports_zero_rate(self):
        result = CampaignRunner("serial").run(self.SPEC, cached_evaluator)
        stats = result.solver_stats
        assert stats["hdl_compiles"] == 0
        assert stats["hdl_compile_cache_hits"] == 0
        assert result.solver_summary()["hdl_compile_cache_hit_rate"] == 0.0
