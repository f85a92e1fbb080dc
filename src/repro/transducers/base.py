"""Common interface of the conservative transducer models.

Each transducer class provides three complementary views of the same device,
mirroring how the paper uses them:

1. **Analytical quantities** -- capacitance/inductance, stored (co-)energy,
   charge/flux and force as plain functions of the drive and displacement
   (Tables 2 and 3), used directly by tests, the PXT reference solutions and
   the quasi-static examples.
2. **A nonlinear behavioral device** (:meth:`ConservativeTransducer.build_device`)
   for the circuit simulator, i.e. what the HDL-A model of Listing 1
   elaborates to.  By default the port contributions are obtained from the
   co-energy with the energy-method AD machinery; ``closed_form=True``
   switches to the hand-derived Table 3 expressions (both are tested to
   agree).
3. **A linearized equivalent circuit** via :mod:`repro.transducers.linearized`.

Port and sign conventions (identical to Listing 1 of the paper):

* the electrical port across variable is the voltage ``v``, the mechanical
  port across variable is the velocity of the free plate,
* the displacement ``x`` is the running integral of that velocity, starting
  from the bias displacement ``x0``,
* the gap of the transverse devices is ``d + x`` (as printed in Table 2),
* the mechanical contribution is the Table 3 force expression, contributed
  with the standard "flow from pin c through the device to pin d"
  convention.  With the drive polarity of the paper's figure-3 system this
  produces positive displacements for positive drive voltages, matching the
  traces of figure 5.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from ..circuit.devices.behavioral import BehavioralDevice, BehaviorContext, Port
from ..circuit.netlist import Circuit, Node
from ..errors import TransducerError
from ..natures import ELECTRICAL, MECHANICAL_TRANSLATION
from .energy_method import EnergyDerivation, differentiate_coenergy

__all__ = ["TransducerPortSpec", "ConservativeTransducer", "numeric_parameter"]


def numeric_parameter(x):
    """Coerce a constructor parameter to float, but keep duals intact.

    Transducer geometry parameters seeded as :class:`repro.ad.Dual` flow
    through the closed-form evaluation methods (capacitance, force,
    co-energy) by the chain rule, which is how the optimization layer gets
    exact design-parameter gradients.  Dual-seeded instances are for direct
    evaluation only -- circuit devices and HDL code generation need plain
    floats (``parameters()`` strips the derivative part).
    """
    from ..ad import is_dual

    return x if is_dual(x) else float(x)


@dataclass(frozen=True)
class TransducerPortSpec:
    """Description of one transducer port (used for documentation/reports)."""

    name: str
    nature_name: str
    effort: str
    flow: str
    state: str


class ConservativeTransducer(ABC):
    """Base class of the four conservative transducers of figure 2."""

    #: ``"voltage"`` for capacitive devices (electrostatic), ``"current"`` for
    #: inductive devices (electromagnetic, electrodynamic).
    drive_kind: str = "voltage"

    #: Human-readable label used in reports and the transducer library.
    label: str = "conservative transducer"

    # ------------------------------------------------------------ analytics
    @abstractmethod
    def coenergy(self, drive, displacement):
        """Co-energy W*(drive, x) stored in the transducer.

        For capacitive devices the drive is the port voltage and
        ``W* = C(x) v^2 / 2``; for inductive devices the drive is the port
        current and ``W* = L(x) i^2 / 2`` (Table 2 of the paper).  The
        implementation must be written with plain arithmetic so it can be
        evaluated on AD dual numbers.
        """

    @abstractmethod
    def force(self, drive, displacement):
        """Closed-form force contribution at the mechanical port (Table 3)."""

    def charge_or_flux(self, drive, displacement):
        """Closed-form charge (capacitive) or flux linkage (inductive).

        Default implementation differentiates the co-energy; subclasses
        override with the simple closed form ``C(x) v`` / ``L(x) i``.
        """
        partial_drive, _ = differentiate_coenergy(
            self.coenergy, float(drive), float(displacement),
            scales=self.characteristic_scales())
        return partial_drive

    def energy_method_force(self, drive, displacement) -> float:
        """Force obtained from the co-energy by AD (step 3 of the recipe)."""
        _, partial_x = differentiate_coenergy(
            self.coenergy, float(drive), float(displacement),
            scales=self.characteristic_scales())
        return float(partial_x)

    @abstractmethod
    def characteristic_scales(self) -> tuple[float, float]:
        """Characteristic magnitudes of (drive, displacement) for numerics."""

    def derivation(self) -> EnergyDerivation:
        """Describe the energy-method derivation of this transducer."""
        drive_state = "charge q" if self.drive_kind == "voltage" else "flux linkage"
        return EnergyDerivation(
            port_states=(drive_state, "displacement x"),
            efforts=("electrical effort", "mechanical effort"),
            energy_description=self.label,
        )

    def port_specs(self) -> tuple[TransducerPortSpec, TransducerPortSpec]:
        """Port descriptions (electrical + mechanical translation)."""
        return (
            TransducerPortSpec("elec", ELECTRICAL.name, "voltage", "current", "charge"),
            TransducerPortSpec("mech", MECHANICAL_TRANSLATION.name, "force",
                               "velocity", "displacement"),
        )

    # ------------------------------------------------------------ behaviour
    def _behavior_voltage_driven(self, closed_form: bool, x0: float):
        """Behaviour callable for capacitive (voltage-driven) transducers."""
        # The closed forms never read the scales; keeping them out of the
        # closure keeps its trace key free of the geometry values
        # (:mod:`repro.hdl.compile.runtime`).
        scales = None if closed_form else self.characteristic_scales()

        def behavior(ctx: BehaviorContext) -> None:
            voltage = ctx.across("elec")
            velocity = ctx.across("mech")
            displacement = ctx.integ(velocity, key="x", initial=x0)
            if closed_form:
                charge = self.charge_or_flux(voltage, displacement)
                force = self.force(voltage, displacement)
            else:
                charge, force = differentiate_coenergy(
                    self.coenergy, voltage, displacement, scales=scales)
            ctx.contribute("elec", ctx.ddt(charge, key="q"))
            ctx.contribute("mech", force)
            ctx.record("x", displacement)
            ctx.record("force", force)
            ctx.record("charge", charge)

        return behavior

    def _behavior_current_driven(self, closed_form: bool, x0: float):
        """Behaviour callable for inductive (current-driven) transducers.

        The port current is an extra unknown ``i``; the implicit branch
        equation ``v - d(flux)/dt = 0`` plays the role of the HDL-A equation
        block.
        """
        scales = None if closed_form else self.characteristic_scales()

        def behavior(ctx: BehaviorContext) -> None:
            voltage = ctx.across("elec")
            velocity = ctx.across("mech")
            displacement = ctx.integ(velocity, key="x", initial=x0)
            current = ctx.unknown("i")
            if closed_form:
                flux = self.charge_or_flux(current, displacement)
                force = self.force(current, displacement)
            else:
                flux, force = differentiate_coenergy(
                    self.coenergy, current, displacement, scales=scales)
            ctx.contribute("elec", current)
            ctx.equation("i", voltage - ctx.ddt(flux, key="flux"))
            ctx.contribute("mech", force)
            ctx.record("x", displacement)
            ctx.record("force", force)
            ctx.record("flux", flux)

        return behavior

    def build_device(self, name: str, elec_p: Node, elec_n: Node,
                     mech_p: Node, mech_n: Node, *, x0: float = 0.0,
                     closed_form: bool = False) -> BehavioralDevice:
        """Elaborate this transducer into a behavioral circuit device.

        Parameters
        ----------
        name:
            Device name in the netlist.
        elec_p, elec_n:
            Electrical terminal nodes (pins a, b of Listing 1).
        mech_p, mech_n:
            Mechanical terminal nodes (pins c, d of Listing 1); ``mech_n`` is
            normally the mechanical reference frame.
        x0:
            Initial/bias displacement of the free plate [m].
        closed_form:
            Use the hand-derived Table 3 expressions instead of the
            energy-method AD derivation (the default).  The two agree to the
            accuracy of the Hessian chain rule and are cross-checked in the
            test-suite.
        """
        ports = [
            Port(name="elec", p=elec_p, n=elec_n, nature=ELECTRICAL),
            Port(name="mech", p=mech_p, n=mech_n, nature=MECHANICAL_TRANSLATION),
        ]
        if self.drive_kind == "voltage":
            behavior = self._behavior_voltage_driven(closed_form, x0)
            extra: Sequence[str] = ()
        elif self.drive_kind == "current":
            behavior = self._behavior_current_driven(closed_form, x0)
            extra = ("i",)
        else:
            raise TransducerError(f"unknown drive kind {self.drive_kind!r}")
        device = BehavioralDevice(
            name,
            ports,
            behavior,
            params=self.parameters(),
            state_initials={"x": float(x0)},
            extra_unknowns=extra,
            parameter_bindings={
                generic: (self, attribute)
                for generic, attribute in self.parameter_attributes().items()
            },
        )
        #: Back-reference for introspection (which transducer produced this
        #: device); the parameter bindings above keep the device's tunable
        #: parameters and the transducer attributes in lock-step.
        device.transducer = self
        #: The energy-method behaviour differentiates the co-energy with its
        #: own dual/Hessian machinery and cannot carry foreign parameter
        #: seeds; only the closed-form behaviour is exactly dual-seedable.
        device.dual_parameter_safe = bool(closed_form)
        return device

    def add_to_circuit(self, circuit: Circuit, name: str, elec_p: str, elec_n: str,
                       mech_p: str, mech_n: str, **kwargs) -> BehavioralDevice:
        """Convenience wrapper: create nodes by name and add the device."""
        device = self.build_device(
            name,
            circuit.electrical_node(elec_p), circuit.electrical_node(elec_n),
            circuit.mechanical_node(mech_p), circuit.mechanical_node(mech_n),
            **kwargs)
        circuit.add(device)
        return device

    # -------------------------------------------------------------- metadata
    @abstractmethod
    def parameters(self) -> dict[str, float]:
        """Constructor parameters (the HDL-A generics) as a dictionary."""

    def parameter_attributes(self) -> dict[str, str]:
        """Tunable generic name -> instance attribute mapping.

        These are the parameters the sensitivity layer can seed with AD
        duals on a built device (physical constants like ``e0``/``mu0`` are
        deliberately excluded).  The behaviour closures read the attributes
        directly, so a seeded attribute flows through the closed-form
        evaluation by the chain rule -- which requires the device to be
        built with ``closed_form=True`` (the energy-method path
        finite-differences its Hessian on plain floats and cannot carry
        foreign seeds).
        """
        return {}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v:g}" for k, v in self.parameters().items())
        return f"{type(self).__name__}({params})"
