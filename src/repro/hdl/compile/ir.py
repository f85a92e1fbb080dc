"""Typed expression IR for compiled behavioral models.

The IR is a small, immutable expression language the concolic tracer
(:mod:`repro.hdl.compile.trace`) builds while a behavioral model runs once
through the interpreter, and the code generator
(:mod:`repro.hdl.compile.codegen`) lowers to scalar or batch-lane
Python stamp functions.  Nodes are hash-consed by an :class:`IRBuilder`, so
structurally identical subexpressions are *the same object* -- common
subexpression elimination falls out of construction, and fingerprinting /
equality are identity-cheap.

Node kinds
----------
``Const``    -- a float literal baked at trace time (model constants).
``Input``    -- a runtime input: port across value, extra unknown, device
                parameter, or analysis time.
``Unary``    -- ``neg`` / ``pos``.
``Binary``   -- ``+ - * / **`` with the operand order preserved.
``Call``     -- an :mod:`repro.ad.functions` elementary function.
``Compare``  -- ``< <= > >= == !=`` on values; appears only as a
                :class:`Select` condition or a trace guard.
``Select``   -- ``a if cond else b`` (runtime branch, no re-trace needed).
``Ddt``      -- the HDL-A ``ddt`` operator (state keyed per device).
``Integ``    -- the HDL-A ``integ`` operator with its initial value.

Fingerprints are stable SHA-256 digests of the canonical serialization, so
process-wide kernel caching keys by content, not identity.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

__all__ = [
    "Node", "Const", "Input", "Unary", "Binary", "Call", "Compare",
    "Select", "Ddt", "Integ", "IRBuilder", "fingerprint", "walk",
]

#: Elementary functions the IR may call (mirrors ``repro.ad.functions``).
CALL_FUNCTIONS = frozenset({
    "sqrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "atan", "asin", "acos", "sign", "abs",
})

#: Valid comparison operators for ``Compare`` nodes.
COMPARE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})

#: Valid ``Input`` kinds.
INPUT_KINDS = frozenset({"across", "unknown", "param", "time"})


class Node:
    """Base class of all IR nodes.

    Instances are immutable and interned by the owning :class:`IRBuilder`;
    two nodes built by the same builder are structurally equal iff they are
    the same object.  ``key`` is the canonical structural tuple used for
    interning and fingerprinting.
    """

    __slots__ = ("key",)

    def children(self) -> tuple["Node", ...]:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}{self.key[1:]}"


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)
        self.key = ("const", self.value.hex())


class Input(Node):
    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str) -> None:
        if kind not in INPUT_KINDS:
            raise ValueError(f"unknown input kind {kind!r}")
        self.kind = kind
        self.name = str(name)
        self.key = ("input", kind, self.name)


class Unary(Node):
    __slots__ = ("op", "x")

    def __init__(self, op: str, x: Node) -> None:
        if op not in ("neg", "pos"):
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self.x = x
        self.key = ("unary", op, x.key)

    def children(self):
        return (self.x,)


class Binary(Node):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Node, b: Node) -> None:
        if op not in ("+", "-", "*", "/", "**"):
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.a = a
        self.b = b
        self.key = ("binary", op, a.key, b.key)

    def children(self):
        return (self.a, self.b)


class Call(Node):
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: Iterable[Node]) -> None:
        if fn not in CALL_FUNCTIONS:
            raise ValueError(f"unknown call {fn!r}")
        self.fn = fn
        self.args = tuple(args)
        self.key = ("call", fn, *(a.key for a in self.args))

    def children(self):
        return self.args


class Compare(Node):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Node, b: Node) -> None:
        if op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison {op!r}")
        self.op = op
        self.a = a
        self.b = b
        self.key = ("compare", op, a.key, b.key)

    def children(self):
        return (self.a, self.b)


class Select(Node):
    """``a if cond else b`` -- a runtime branch, evaluated per call/lane."""

    __slots__ = ("cond", "a", "b")

    def __init__(self, cond: Compare, a: Node, b: Node) -> None:
        self.cond = cond
        self.a = a
        self.b = b
        self.key = ("select", cond.key, a.key, b.key)

    def children(self):
        return (self.cond, self.a, self.b)


class Ddt(Node):
    """HDL-A ``ddt``: value delegated to the stamp context's integrator.

    ``state`` is the per-device state key suffix (the device name is added
    at stamp time, matching ``BehaviorContext._full_key``).
    """

    __slots__ = ("x", "state")

    def __init__(self, x: Node, state: str) -> None:
        self.x = x
        self.state = str(state)
        self.key = ("ddt", self.state, x.key)

    def children(self):
        return (self.x,)


class Integ(Node):
    """HDL-A ``integ`` with its resolved initial value baked in."""

    __slots__ = ("x", "state", "initial")

    def __init__(self, x: Node, state: str, initial: float) -> None:
        self.x = x
        self.state = str(state)
        self.initial = float(initial)
        self.key = ("integ", self.state, self.initial.hex(), x.key)

    def children(self):
        return (self.x,)


class IRBuilder:
    """Hash-consing factory: structurally equal nodes are interned once."""

    def __init__(self) -> None:
        self._interned: dict[tuple, Node] = {}

    def _intern(self, node: Node) -> Node:
        return self._interned.setdefault(node.key, node)

    def const(self, value: float) -> Const:
        return self._intern(Const(value))

    def input(self, kind: str, name: str) -> Input:
        return self._intern(Input(kind, name))

    def unary(self, op: str, x: Node) -> Node:
        return self._intern(Unary(op, x))

    def binary(self, op: str, a: Node, b: Node) -> Node:
        if isinstance(a, Const) and isinstance(b, Const):
            return self.const(_fold_binary(op, a.value, b.value))
        return self._intern(Binary(op, a, b))

    def call(self, fn: str, *args: Node) -> Node:
        return self._intern(Call(fn, args))

    def compare(self, op: str, a: Node, b: Node) -> Compare:
        return self._intern(Compare(op, a, b))

    def select(self, cond: Compare, a: Node, b: Node) -> Node:
        return self._intern(Select(cond, a, b))

    def ddt(self, x: Node, state: str) -> Node:
        return self._intern(Ddt(x, state))

    def integ(self, x: Node, state: str, initial: float) -> Node:
        return self._intern(Integ(x, state, initial))


def _fold_binary(op: str, a: float, b: float) -> float:
    # Constant folding uses the same Python float ops the interpreter would,
    # so folded results are bitwise what the interpreter computes.
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return a ** b


def walk(roots: Iterable[Node]):
    """Post-order walk over the unique nodes reachable from ``roots``."""
    seen: set[int] = set()
    order: list[Node] = []

    def visit(node: Node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.children():
            visit(child)
        order.append(node)

    for root in roots:
        visit(root)
    return order


def fingerprint(payload: Iterable) -> str:
    """Stable SHA-256 digest of a canonical (nested tuple/str) payload."""
    digest = hashlib.sha256()
    _feed(digest, payload)
    return digest.hexdigest()


def _feed(digest, obj) -> None:
    if isinstance(obj, str):
        digest.update(b"s")
        digest.update(obj.encode())
    elif isinstance(obj, (tuple, list)):
        digest.update(b"(")
        for item in obj:
            _feed(digest, item)
        digest.update(b")")
    elif isinstance(obj, bool):
        digest.update(b"b1" if obj else b"b0")
    elif isinstance(obj, int):
        digest.update(f"i{obj}".encode())
    elif isinstance(obj, float):
        digest.update(f"f{obj.hex()}".encode())
    elif obj is None:
        digest.update(b"n")
    else:  # pragma: no cover - defensive
        digest.update(repr(obj).encode())
    digest.update(b";")
