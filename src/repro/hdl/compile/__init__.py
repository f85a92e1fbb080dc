"""Behavioral-model compiler: typed IR, passes, and code generation.

Lowers behavioral models -- Python behaviour closures and elaborated HDL-A
architectures alike -- to a typed expression IR by concolic tracing
(:mod:`.trace`), simplifies it with bitwise-exact passes (:mod:`.passes`),
and emits, from one printer, the stamp functions MNA assembly runs --
dense and sparse residual/Jacobian, residual-only, output-record, and the
batch-lane residual/Jacobian of a ``BatchStampContext`` (:mod:`.codegen`).
:mod:`.runtime` wires them into ``BehavioralDevice`` stamping -- one stamp
program per device list, mode and task -- with the interpreter retained as
the verified fallback.

Traced variants are cached process-wide by a SHA-256 structural
fingerprint (:func:`repro.hdl.compile.ir.fingerprint`), keyed by content
rather than identity; stamp functions are cached per kernel, task, mode
and geometry shape, so instances share them; and the trace memo maps a
device's trace key to its kernel sets, so a known behaviour is traced
once per process, not per instance (``cache_info()`` reports all three).
Registry counters: ``hdl.compile.count`` / ``hdl.compile.cache_hits``
track kernel compiles vs. cache reuse (a trace-memo hit counts as a cache
hit), ``hdl.trace.count`` / ``hdl.trace.unkeyed`` the traces that run and
those of behaviours without a key, ``hdl.stamp_fn.compiles``
stamp-function generation and ``hdl.fallback.<reason>`` every silent
fallback (see :mod:`.runtime`).  With telemetry on, the ``hdl.kernel.eval_s`` histogram
gets one observation per ``MNASystem.run_stamps`` of a system holding
behavioral devices: the wall time of that whole stamp pass.

Escape hatch: ``SimulationOptions(behavioral_compile=False)`` per run.
"""

from . import ir, passes
from .codegen import KernelSet, compile_variant
from .runtime import (MAX_VARIANTS, batch_ready, cache_info, clear_cache,
                      state_for, try_stamp)
from .trace import TraceError, TracedVariant, trace_behavior

__all__ = [
    "ir", "passes", "KernelSet", "compile_variant", "cache_info",
    "clear_cache", "TraceError", "TracedVariant", "trace_behavior",
    "compile_device", "state_for", "try_stamp", "batch_ready",
    "MAX_VARIANTS",
]


def compile_device(device, mode: str = "op", stamp_ctx=None) -> KernelSet:
    """Trace, simplify and compile one device's behaviour for ``mode``.

    Convenience entry point for tests and tooling; the stamping hot path
    goes through :mod:`.runtime`, which additionally manages guard variants
    and fallback state.
    """
    variant = passes.simplify_variant(trace_behavior(device, mode, stamp_ctx))
    return compile_variant(variant)
