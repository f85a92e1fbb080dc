"""Reduced-order-model (ROM) circuit device.

:class:`ROMDevice` embeds a :class:`~repro.rom.statespace.ReducedModel` --
the projected second-order system ``Mr q'' + Cr q' + Kr q = B f`` -- as a
multi-terminal device of the MNA solver, so a distilled FE structure can sit
in a netlist next to transducers, sources and lumped elements and be swept
through op/ac/tran analyses like any other device.

Each ROM input column becomes one mechanical port in the force-current
analogy: the port through variable is the force ``f_j`` the circuit applies
to the structure's drive DOF and the port across variable is that DOF's
velocity.  The device declares the reduced displacements ``q_i``, the
reduced velocities ``s_i`` and the port forces ``f_j`` as auxiliary MNA
unknowns with the implicit equations

* ``d(q_i)/dt - s_i = 0``                       (definition of velocity),
* ``sum_k Mr[i,k] d(s_k)/dt + Cr[i,:] s + Kr[i,:] q - B[i,:] f = 0``,
* ``sum_i B[i,j] s_i - across(port_j) = 0``     (port velocity consistency),

built on the :class:`~repro.circuit.devices.behavioral.BehavioralDevice`
engine, which supplies exact dual-number Jacobians and the op/ac/tran
operator semantics (``ddt -> 0`` at DC, ``s`` in AC, discretized by the
transient integrator) without any ROM-specific solver code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ...errors import DeviceError
from ...natures import MECHANICAL_TRANSLATION, get_nature
from ..netlist import Node
from .behavioral import BehavioralDevice, BehaviorContext, Port

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.rom -> here)
    from ...rom.statespace import ReducedModel

__all__ = ["ROMDevice"]


class ROMDevice(BehavioralDevice):
    """A reduced-order macromodel as a multi-terminal circuit device.

    Parameters
    ----------
    name:
        Device name.
    rom:
        The :class:`~repro.rom.statespace.ReducedModel` to embed.  One port
        per input column is required.
    ports:
        Sequence of ``(p, n)`` node pairs, one per ROM input, in input-column
        order.
    nature:
        Port nature (default: translational mechanical, i.e. velocity across
        and force through).
    """

    def __init__(self, name: str, rom: "ReducedModel",
                 ports: Sequence[tuple[Node, Node]],
                 nature=MECHANICAL_TRANSLATION) -> None:
        reduced_m = np.asarray(rom.M, dtype=float)
        reduced_c = np.asarray(rom.C, dtype=float)
        reduced_k = np.asarray(rom.K, dtype=float)
        input_map = np.asarray(rom.B, dtype=float)
        output_map = np.asarray(rom.L, dtype=float)
        order = reduced_m.shape[0]
        if len(ports) != input_map.shape[1]:
            raise DeviceError(
                f"ROM device {name!r}: the model has {input_map.shape[1]} "
                f"input(s) but {len(ports)} port(s) were given")
        resolved_nature = get_nature(nature)
        port_objects = [
            Port(f"p{j}", p, n, resolved_nature)
            for j, (p, n) in enumerate(ports)
        ]
        state_names = tuple(f"q{i}" for i in range(order)) \
            + tuple(f"s{i}" for i in range(order)) \
            + tuple(f"f{j}" for j in range(len(ports)))
        self.rom = rom
        self._order = order
        self._num_ports = len(ports)
        self._matrices = (reduced_m, reduced_c, reduced_k, input_map, output_map)

        super().__init__(name, port_objects, self._behavior,
                         params={}, extra_unknowns=state_names)

    # -------------------------------------------------------------- behaviour
    def _behavior(self, ctx: BehaviorContext) -> None:
        reduced_m, reduced_c, reduced_k, input_map, output_map = self._matrices
        order, num_ports = self._order, self._num_ports
        q = [ctx.unknown(f"q{i}") for i in range(order)]
        s = [ctx.unknown(f"s{i}") for i in range(order)]
        f = [ctx.unknown(f"f{j}") for j in range(num_ports)]
        dq = [ctx.ddt(q[i], key=f"dq{i}") for i in range(order)]
        ds = [ctx.ddt(s[i], key=f"ds{i}") for i in range(order)]
        for i in range(order):
            ctx.equation(f"q{i}", dq[i] - s[i])
            residual = 0.0
            for k in range(order):
                if reduced_m[i, k] != 0.0:
                    residual = residual + reduced_m[i, k] * ds[k]
                if reduced_c[i, k] != 0.0:
                    residual = residual + reduced_c[i, k] * s[k]
                if reduced_k[i, k] != 0.0:
                    residual = residual + reduced_k[i, k] * q[k]
            for j in range(num_ports):
                if input_map[i, j] != 0.0:
                    residual = residual - input_map[i, j] * f[j]
            ctx.equation(f"s{i}", residual)
        for j in range(num_ports):
            velocity = 0.0
            for i in range(order):
                if input_map[i, j] != 0.0:
                    velocity = velocity + input_map[i, j] * s[i]
            ctx.equation(f"f{j}", velocity - ctx.across(f"p{j}"))
            ctx.contribute(f"p{j}", f[j])
        # Observed displacements y = L q, recorded as y0, y1, ...  Records
        # carry no Jacobian information, so the superposition runs on plain
        # values -- with a full-DOF output map the dual-number form would
        # cost O(n * r) derivative arithmetic on every Newton iteration.
        q_values = np.array([float(np.real(getattr(qi, "value", qi)))
                             for qi in q])
        for row, value in enumerate(output_map @ q_values):
            ctx.record(f"y{row}", float(value))

    def describe(self) -> str:
        return (f"rom order={self._order} method={self.rom.method} "
                f"ports={self._num_ports}")
