"""repro.linalg -- the shared factorization-caching linear-solver core.

One subsystem owns every ``A x = b`` in the reproduction:

* :class:`~repro.linalg.solvers.FactorizedSolver` abstracts the two direct
  backends (dense LAPACK LU and SuperLU, both raising
  :class:`~repro.errors.LinAlgError` on a singular matrix) behind
  :class:`~repro.linalg.solvers.Factorization` handles -- factor once,
  back-substitute many times,
* :class:`~repro.linalg.cache.FactorizationCache` holds the last handle and
  its matrix, and returns that handle while the matrix repeats exactly
  (Newton iterations, a linear circuit at a fixed transient step, a
  repeated campaign point) instead of factoring it again,
* :class:`~repro.linalg.structure.StructureCache` caches the COO->CSR
  reduction of a repeated triplet assembly so per-iteration sparse assembly
  is a value update instead of a sort-and-deduplicate rebuild.

Besides their per-instance counters, the solvers and caches bump
process-wide ``linalg.*`` counters in :mod:`repro.telemetry.registry`
(``linalg.factorizations``, ``linalg.factorization_cache_hits`` /
``_misses``, ``linalg.structure_rebuilds`` / ``_reuses``,
``linalg.transpose_solves``); campaign results report them merged over
every worker.

The circuit analyses (:mod:`repro.circuit.analysis`), the FE solvers
(:mod:`repro.fem`) and the reduced-order models (:mod:`repro.rom`) all
route through here; see the README architecture section for the reuse
semantics exposed on :class:`~repro.circuit.analysis.options.SimulationOptions`.
"""

from __future__ import annotations

from .batch import (BATCH_BACKENDS, BatchedDenseLU, BatchedFactorization,
                    BatchedSparseLU, batched_factorize)
from .cache import FactorizationCache
from .sensitivity import (SENSITIVITY_METHODS, SensitivityResult,
                          SpectralSensitivities, solve_sensitivities,
                          sweep_spectral_sensitivities)
from .solvers import BACKENDS, Factorization, FactorizedSolver
from .structure import StructureCache

__all__ = [
    "BACKENDS",
    "BATCH_BACKENDS",
    "SENSITIVITY_METHODS",
    "BatchedDenseLU",
    "BatchedFactorization",
    "BatchedSparseLU",
    "Factorization",
    "FactorizedSolver",
    "FactorizationCache",
    "SensitivityResult",
    "SpectralSensitivities",
    "StructureCache",
    "batched_factorize",
    "solve_sensitivities",
    "sweep_spectral_sensitivities",
]
