"""Numerical small-signal linearization around an operating point.

The paper contrasts nonlinear behavioral models with *linearized equivalent
circuits*.  This module provides the bridge between the two worlds: given any
circuit (including behavioral transducers), it extracts the small-signal
conductance matrix ``G`` and capacitance/susceptance matrix ``C`` such that
``Y(s) = G + s*C`` around the DC bias, and computes driving-point or
transfer quantities from them.

The extraction reads the coefficients of ``s**0`` and ``s**1`` straight off
the one small-signal assembly
(:meth:`~repro.circuit.mna.MNASystem.assemble_ac`), which keeps every
Jacobian entry as exact real coefficients of the powers of ``s``: every
built-in device and behavioral ``ddt`` term lands on those two.  An
``integ`` term (a behavioral spring, a transducer's displacement state) is
a power ``s**-1``, and ``ddt(ddt(x))`` is ``s**2``; no ``(G, C)`` pair can
represent either, so the extraction refuses them.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError, LinAlgError
from ..linalg import FactorizedSolver
from .analysis.op import OperatingPointAnalysis
from .analysis.options import SimulationOptions
from .analysis.results import OperatingPoint
from .mna import MAX_S_POWER, MNASystem
from .netlist import Circuit, Node

__all__ = ["small_signal_matrices", "input_admittance", "input_impedance",
           "equivalent_capacitance"]


def small_signal_matrices(circuit: Circuit, operating_point: OperatingPoint | None = None,
                          options: SimulationOptions | None = None
                          ) -> tuple[np.ndarray, np.ndarray, MNASystem]:
    """Extract the (G, C) small-signal matrices of ``circuit`` around its bias.

    Returns ``(G, C, system)`` where the matrices are dense numpy arrays in
    the MNA unknown ordering of ``system`` and ``Y(s) = G + s*C``.  Raises
    :class:`~repro.errors.AnalysisError` naming the unknowns of every
    non-zero coefficient of another power of ``s`` (``integ`` terms,
    ``ddt(ddt(x))``).
    """
    options = options or SimulationOptions()
    system = MNASystem(circuit)
    if operating_point is None:
        operating_point = OperatingPointAnalysis(circuit, options).run()
    if operating_point.raw.shape != (system.size,):
        raise AnalysisError("operating point does not match this circuit")
    ctx = system.assemble_ac(operating_point.raw, options)
    others = [power for power in range(-MAX_S_POWER, MAX_S_POWER + 1)
              if power not in (0, 1) and ctx.coefficient(power).any()]
    if others:
        labels = system.unknown_labels()
        mask = np.any([ctx.coefficient(power) for power in others], axis=0)
        rows, cols = np.nonzero(mask)
        unknowns = sorted({labels[i] for i in np.concatenate((rows, cols))})
        powers = ", ".join(f"s**{power}" for power in others)
        raise AnalysisError(
            f"small-signal admittance has {powers} terms at "
            f"{', '.join(unknowns)}; Y = G + sC cannot represent them")
    return ctx.coefficient(0), ctx.coefficient(1), system


def input_admittance(circuit: Circuit, node: str | Node, frequency: float,
                     operating_point: OperatingPoint | None = None,
                     options: SimulationOptions | None = None) -> complex:
    """Driving-point admittance seen from ``node`` to ground at ``frequency``.

    The admittance is computed by injecting a unit AC current into the node
    and reading the resulting node voltage: ``Y = I / V = 1 / V``.
    """
    omega = 2.0 * np.pi * float(frequency)
    if not omega > 0.0:
        raise AnalysisError(f"frequency must be positive, got {frequency}")
    options = options or SimulationOptions()
    system = MNASystem(circuit)
    if operating_point is None:
        operating_point = OperatingPointAnalysis(circuit, options).run()
    ctx = system.assemble_ac(operating_point.raw, options)
    node_obj = circuit.node(node) if isinstance(node, str) else node
    index = system.index_of(node_obj)
    if index < 0:
        raise AnalysisError("cannot probe the ground node")
    rhs = np.zeros(system.size, dtype=complex)
    rhs[index] = 1.0
    try:
        solution = FactorizedSolver("dense").solve(ctx.at(omega), rhs)
    except LinAlgError as exc:
        raise AnalysisError(f"singular small-signal matrix: {exc}") from exc
    voltage = solution[index]
    if voltage == 0.0:
        raise AnalysisError("node voltage is zero; admittance is unbounded")
    return 1.0 / complex(voltage)


def input_impedance(circuit: Circuit, node: str | Node, frequency: float,
                    operating_point: OperatingPoint | None = None,
                    options: SimulationOptions | None = None) -> complex:
    """Driving-point impedance ``1 / Y`` seen from ``node`` to ground."""
    return 1.0 / input_admittance(circuit, node, frequency, operating_point, options)


def equivalent_capacitance(circuit: Circuit, node: str | Node, frequency: float = 1e3,
                           operating_point: OperatingPoint | None = None,
                           options: SimulationOptions | None = None) -> float:
    """Small-signal capacitance seen from ``node`` to ground.

    Computed from the imaginary part of the driving-point admittance,
    ``C = Im(Y) / omega`` -- exactly how Table 2's input impedances are
    verified against the behavioral transducer models in the benchmarks.
    """
    admittance = input_admittance(circuit, node, frequency, operating_point, options)
    omega = 2.0 * np.pi * float(frequency)
    return float(np.imag(admittance) / omega)
