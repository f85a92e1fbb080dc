"""Elaboration: turn an analyzed HDL-A model into a simulatable device.

``instantiate`` binds an entity/architecture pair to

* concrete generic values (the model parameters),
* concrete circuit nodes for every pin,

and produces a :class:`~repro.circuit.devices.behavioral.BehavioralDevice`
whose behaviour callable *interprets* the architecture's procedural blocks:

* the generics are the device's ``params`` and read through ``ctx.param``,
  so ``set_parameter``, sensitivity seeds and campaign columns reach the
  model, and the compiler traces them as kernel inputs,
* the ``init`` block runs first (constants like ``e0 := 8.8542e-12``),
* then the block whose domain list matches the active analysis
  (``dc`` -> a ``dc`` block if present, otherwise the ``ac, transient``
  block; ``transient``/``ac`` likewise),
* assignments build up a local environment, pin accesses read the port
  across variables, ``ddt``/``integ`` map onto the behaviour context's
  operators with state keys derived from the AST node ids, and ``%=``
  contributions accumulate into the ports.

The interpreter works on dual numbers transparently, so a parsed HDL model
gets exact Newton Jacobians and AC linearization for free -- the property the
paper attributes to HDL-A models being "valid for the dc, ac and transient
SPICE analysis domains".  Relational and logical operators compare value
parts without ``float()``, so under the tracer an ``IF`` on a port quantity
or a generic records a guard like a Python ``if`` in a closure.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..circuit.devices.behavioral import BehavioralDevice, BehaviorContext, Port
from ..circuit.netlist import Node
from ..errors import HDLElaborationError
from ..natures import get_nature
from .ast_nodes import (
    Assignment,
    BinaryOp,
    Contribution,
    Expression,
    FunctionCall,
    Identifier,
    IfStatement,
    Module,
    NumberLiteral,
    PinAccess,
    Statement,
    UnaryOp,
)
from .semantic import AnalyzedModel, analyze
from .stdlib import ANALOG_OPERATORS, BUILTIN_FUNCTIONS

__all__ = ["HDLEntityInstance", "instantiate"]


class HDLEntityInstance:
    """A bound entity/architecture ready to produce behavioral devices.

    Splitting instantiation into this object and :meth:`build_device` lets
    callers (e.g. the PXT round-trip tests) reuse one analyzed model for many
    devices with different generic values.
    """

    def __init__(self, model: AnalyzedModel) -> None:
        self.model = model

    # ------------------------------------------------------------------ binding
    def build_device(self, name: str, generics: Mapping[str, float],
                     pins: Mapping[str, Node],
                     initial_states: Mapping[str, float] | None = None) -> BehavioralDevice:
        """Bind generics and pins, returning the behavioral device."""
        entity = self.model.entity
        resolved_generics: dict[str, float] = {}
        provided = {key.lower(): float(value) for key, value in generics.items()}
        for generic in entity.generics:
            key = generic.name.lower()
            if key in provided:
                resolved_generics[key] = provided.pop(key)
            elif generic.default is not None:
                resolved_generics[key] = float(generic.default)
            else:
                raise HDLElaborationError(
                    f"generic {generic.name!r} of entity {entity.name!r} has no value")
        if provided:
            raise HDLElaborationError(
                f"unknown generics for entity {entity.name!r}: {sorted(provided)}")

        resolved_pins: dict[str, Node] = {}
        given_pins = {key.lower(): node for key, node in pins.items()}
        for pin in entity.pins:
            key = pin.name.lower()
            if key not in given_pins:
                raise HDLElaborationError(
                    f"pin {pin.name!r} of entity {entity.name!r} is not connected")
            resolved_pins[key] = given_pins.pop(key)
        if given_pins:
            raise HDLElaborationError(
                f"unknown pins for entity {entity.name!r}: {sorted(given_pins)}")

        ports = []
        for pin_p, pin_n in self.model.port_pairs:
            nature = get_nature(self.model.pin_natures[pin_p])
            ports.append(Port(name=self.model.port_name(pin_p, pin_n),
                              p=resolved_pins[pin_p], n=resolved_pins[pin_n],
                              nature=nature))

        return BehavioralDevice(
            name,
            ports,
            _Interpreter(self.model),
            params=resolved_generics,
            state_initials=dict(initial_states or {}),
        )


def instantiate(module: Module, entity_name: str, *, name: str,
                generics: Mapping[str, float], pins: Mapping[str, Node],
                architecture: str | None = None,
                initial_states: Mapping[str, float] | None = None) -> BehavioralDevice:
    """Analyze, bind and elaborate an entity in one call (the common path)."""
    model = analyze(module, entity_name, architecture)
    return HDLEntityInstance(model).build_device(name, generics, pins, initial_states)


# --------------------------------------------------------------------------- interpreter
class _Interpreter:
    """Behaviour callable interpreting the architecture's procedural blocks."""

    def __init__(self, model: AnalyzedModel) -> None:
        self.model = model

    # The behaviour protocol of BehavioralDevice: __call__(ctx).
    def __call__(self, ctx: BehaviorContext) -> None:
        env: dict[str, object] = {
            generic.name.lower(): ctx.param(generic.name.lower())
            for generic in self.model.entity.generics}
        env["pi"] = math.pi
        env["temperature"] = 300.15
        env["time"] = ctx.time
        domain = self._domain_for(ctx.analysis)
        blocks = list(self.model.architecture.blocks)
        init_blocks = [block for block in blocks if block.applies_to("init")]
        main_blocks = [block for block in blocks
                       if block.applies_to(domain) and not block.applies_to("init")]
        if not main_blocks:
            # Fall back to any non-init block (a model written only for
            # "ac, transient" must still provide its DC behaviour).
            main_blocks = [block for block in blocks if not block.applies_to("init")]
        for block in init_blocks:
            for statement in block.statements:
                self._execute(statement, ctx, env)
        for block in main_blocks:
            for statement in block.statements:
                self._execute(statement, ctx, env)
        # Expose declared states and variables (e.g. the displacement ``x`` of
        # Listing 1, which is a VARIABLE assigned from integ()) in the results.
        for name in (*self.model.states, *self.model.variables):
            if name.lower() in env:
                try:
                    ctx.record(name, env[name.lower()])
                except (TypeError, ValueError):
                    continue

    @staticmethod
    def _domain_for(analysis: str) -> str:
        if analysis in ("op", "dc"):
            return "dc"
        if analysis == "tran":
            return "transient"
        return analysis

    # ------------------------------------------------------------------ statements
    def _execute(self, statement: Statement, ctx: BehaviorContext,
                 env: dict[str, object]) -> None:
        if isinstance(statement, Assignment):
            value = statement.value
            # ``x := integ(S);`` uses the assigned name as the state key so
            # that callers can pass initial_states={"x": x0} by name.
            if isinstance(value, FunctionCall) and value.name.lower() in ANALOG_OPERATORS:
                argument = self._evaluate(value.arguments[0], ctx, env)
                key = statement.target.lower()
                if value.name.lower() == "ddt":
                    env[key] = ctx.ddt(argument, key=key)
                else:
                    env[key] = ctx.integ(argument, key=key)
                return
            env[statement.target.lower()] = self._evaluate(value, ctx, env)
            return
        if isinstance(statement, Contribution):
            port = self.model.port_name(statement.pin_p, statement.pin_n)
            ctx.contribute(port, self._evaluate(statement.value, ctx, env))
            return
        if isinstance(statement, IfStatement):
            for condition, body in statement.branches:
                if _truthy(self._evaluate(condition, ctx, env)):
                    for inner in body:
                        self._execute(inner, ctx, env)
                    return
            for inner in statement.else_branch:
                self._execute(inner, ctx, env)
            return
        raise HDLElaborationError(f"cannot execute statement {type(statement).__name__}")

    # ------------------------------------------------------------------ expressions
    def _evaluate(self, expression: Expression | None, ctx: BehaviorContext,
                  env: dict[str, object]):
        if expression is None:
            raise HDLElaborationError("empty expression during elaboration")
        if isinstance(expression, NumberLiteral):
            return expression.value
        if isinstance(expression, Identifier):
            key = expression.name.lower()
            if key in env:
                return env[key]
            raise HDLElaborationError(
                f"identifier {expression.name!r} used before assignment")
        if isinstance(expression, UnaryOp):
            operand = self._evaluate(expression.operand, ctx, env)
            if expression.operator == "-":
                return -operand
            if expression.operator == "+":
                return operand
            if expression.operator == "not":
                return 0.0 if _truthy(operand) else 1.0
            raise HDLElaborationError(f"unknown unary operator {expression.operator!r}")
        if isinstance(expression, BinaryOp):
            return self._binary(expression, ctx, env)
        if isinstance(expression, PinAccess):
            port = self.model.port_name(expression.pin_p, expression.pin_n)
            return ctx.across(port)
        if isinstance(expression, FunctionCall):
            return self._call(expression, ctx, env)
        raise HDLElaborationError(f"cannot evaluate {type(expression).__name__}")

    def _binary(self, expression: BinaryOp, ctx: BehaviorContext, env: dict[str, object]):
        operator = expression.operator
        left = self._evaluate(expression.left, ctx, env)
        right = self._evaluate(expression.right, ctx, env)
        if operator == "+":
            return left + right
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            return left / right
        if operator == "**":
            return left ** right
        if operator == "=":
            return 1.0 if _value(left) == _value(right) else 0.0
        if operator == "/=":
            return 1.0 if _value(left) != _value(right) else 0.0
        if operator == "<":
            return 1.0 if _value(left) < _value(right) else 0.0
        if operator == "<=":
            return 1.0 if _value(left) <= _value(right) else 0.0
        if operator == ">":
            return 1.0 if _value(left) > _value(right) else 0.0
        if operator == ">=":
            return 1.0 if _value(left) >= _value(right) else 0.0
        if operator == "and":
            return 1.0 if (_truthy(left) and _truthy(right)) else 0.0
        if operator == "or":
            return 1.0 if (_truthy(left) or _truthy(right)) else 0.0
        if operator == "xor":
            return 1.0 if (_truthy(left) != _truthy(right)) else 0.0
        raise HDLElaborationError(f"unknown binary operator {operator!r}")

    def _call(self, expression: FunctionCall, ctx: BehaviorContext, env: dict[str, object]):
        name = expression.name.lower()
        if name in ANALOG_OPERATORS:
            argument = self._evaluate(expression.arguments[0], ctx, env)
            key = f"node{expression.node_id}"
            if name == "ddt":
                return ctx.ddt(argument, key=key)
            return ctx.integ(argument, key=key)
        function = BUILTIN_FUNCTIONS.get(name)
        if function is None:
            raise HDLElaborationError(f"unknown function {expression.name!r}")
        arguments = [self._evaluate(arg, ctx, env) for arg in expression.arguments]
        return function(*arguments)


def _value(x):
    return getattr(x, "value", x)


def _truthy(x) -> bool:
    return bool(_value(x) != 0.0)
