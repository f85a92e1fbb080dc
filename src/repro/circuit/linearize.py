"""Numerical small-signal linearization around an operating point.

The paper contrasts nonlinear behavioral models with *linearized equivalent
circuits*.  This module provides the bridge between the two worlds: given any
circuit (including behavioral transducers), it extracts the small-signal
conductance matrix ``G`` and capacitance/susceptance matrix ``C`` such that
``Y(omega) = G + j*omega*C`` around the DC bias, and computes driving-point
or transfer quantities from them.

The extraction assembles the complex small-signal system at two angular
frequencies and splits it with the AC analysis' own
:func:`~repro.circuit.analysis.ac.gcs_decompose` into ``G + j*omega*C +
S/(j*omega)``.  ``G``/``C`` is exact for circuits whose reactive elements
are linear-in-``omega`` admittances -- every built-in device and behavioral
``ddt`` terms.  An ``integ`` term (a behavioral spring, a transducer's
displacement state) puts a non-zero ``S`` on the system, which no ``(G, C)``
pair can represent, so the extraction refuses it.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError, LinAlgError
from ..linalg import FactorizedSolver
from .analysis.ac import gcs_decompose
from .analysis.op import OperatingPointAnalysis
from .analysis.options import SimulationOptions
from .analysis.results import OperatingPoint
from .mna import MNASystem
from .netlist import Circuit, Node

__all__ = ["small_signal_matrices", "input_admittance", "input_impedance",
           "equivalent_capacitance"]


def small_signal_matrices(circuit: Circuit, operating_point: OperatingPoint | None = None,
                          options: SimulationOptions | None = None,
                          probe_frequency: float = 1.0) -> tuple[np.ndarray, np.ndarray, MNASystem]:
    """Extract the (G, C) small-signal matrices of ``circuit`` around its bias.

    Returns ``(G, C, system)`` where the matrices are dense numpy arrays in
    the MNA unknown ordering of ``system`` and ``Y(omega) = G + j*omega*C``.
    Raises :class:`~repro.errors.AnalysisError` for a ``probe_frequency``
    that is not positive (before any solve), and naming the unknowns of
    the non-zero ``S/(j*omega)`` entries when the admittance has ``integ``
    terms.
    """
    if not probe_frequency > 0.0:
        raise AnalysisError(
            f"probe_frequency must be positive, got {probe_frequency}")
    options = options or SimulationOptions()
    system = MNASystem(circuit)
    if operating_point is None:
        operating_point = OperatingPointAnalysis(circuit, options).run()
    if operating_point.raw.shape != (system.size,):
        raise AnalysisError("operating point does not match this circuit")
    states = dict(operating_point.integrator_states)
    omega = 2.0 * np.pi * probe_frequency
    y1 = system.assemble_ac(operating_point.raw, omega, states, options).matrix
    y2 = system.assemble_ac(operating_point.raw, 2.0 * omega, states, options).matrix
    conductance, capacitance, integ_map = gcs_decompose(y1, y2, omega,
                                                        2.0 * omega)
    if np.any(integ_map):
        labels = system.unknown_labels()
        rows, cols = np.nonzero(integ_map)
        unknowns = sorted({labels[i] for i in np.concatenate((rows, cols))})
        raise AnalysisError(
            f"small-signal admittance has integ terms (S/(jw)) at "
            f"{', '.join(unknowns)}; Y = G + jwC cannot represent them")
    return conductance, capacitance, system


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
    states = dict(operating_point.integrator_states)
    ctx = system.assemble_ac(operating_point.raw, omega, states, options)
    node_obj = circuit.node(node) if isinstance(node, str) else node
    index = system.index_of(node_obj)
    if index < 0:
        raise AnalysisError("cannot probe the ground node")
    rhs = np.zeros(system.size, dtype=complex)
    rhs[index] = 1.0
    try:
        solution = FactorizedSolver("dense").solve(ctx.matrix, rhs)
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
