"""HDL-A source-code generation.

PXT's last step is to emit an HDL-A behavioral model of the characterized
device ("A HDL-A model is then generated ...").  This module provides the
text emitters used for that purpose, plus the reference listing of the
paper's transverse electrostatic transducer (Listing 1) used by the tests
and documentation.

Everything generated here parses back through :func:`repro.hdl.parse` and
elaborates into a working device -- the round trip is covered by the
integration tests.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..errors import HDLError

__all__ = [
    "generate_entity",
    "generate_architecture",
    "generate_model",
    "table1d_expression",
    "format_number",
    "LISTING1_SOURCE",
]


def format_number(value: float) -> str:
    """Format a float as an HDL-A literal (always with a decimal or exponent)."""
    text = repr(float(value))
    if "e" in text or "." in text or "inf" in text or "nan" in text:
        return text
    return text + ".0"


def generate_entity(name: str, generics: Mapping[str, float | None],
                    pins: Mapping[str, str]) -> str:
    """Emit an ENTITY declaration.

    ``generics`` maps generic names to default values (``None`` for no
    default); ``pins`` maps pin names to nature names.  Pins of the same
    nature are grouped on one line, as in Listing 1.
    """
    if not pins:
        raise HDLError(f"entity {name!r} needs at least one pin")
    lines = [f"ENTITY {name} IS"]
    if generics:
        parts = []
        for generic, default in generics.items():
            if default is None:
                parts.append(f"{generic} : analog")
            else:
                parts.append(f"{generic} : analog := {format_number(default)}")
        lines.append(f"  GENERIC ({'; '.join(parts)});")
    groups: dict[str, list[str]] = {}
    for pin, nature in pins.items():
        groups.setdefault(nature, []).append(pin)
    pin_parts = [f"{', '.join(names)} : {nature}" for nature, names in groups.items()]
    lines.append(f"  PIN ({'; '.join(pin_parts)});")
    lines.append(f"END ENTITY {name};")
    return "\n".join(lines)


def generate_architecture(entity_name: str, *, architecture_name: str = "a",
                          variables: Sequence[str] = (),
                          states: Sequence[str] = (),
                          init_statements: Sequence[str] = (),
                          body_statements: Sequence[str] = (),
                          body_domains: str = "dc, ac, transient") -> str:
    """Emit an ARCHITECTURE with an init block and one main procedural block.

    The statement sequences are pre-formatted HDL-A statements *without*
    trailing semicolons (added here) so callers can build them with ordinary
    string formatting.
    """
    if not body_statements:
        raise HDLError("an architecture needs at least one body statement")
    lines = [f"ARCHITECTURE {architecture_name} OF {entity_name} IS"]
    if variables:
        lines.append(f"  VARIABLE {', '.join(variables)} : analog;")
    if states:
        lines.append(f"  STATE {', '.join(states)} : analog;")
    lines.append("BEGIN")
    lines.append("  RELATION")
    if init_statements:
        lines.append("    PROCEDURAL FOR init =>")
        lines.extend(f"      {statement.rstrip(';')};" for statement in init_statements)
    lines.append(f"    PROCEDURAL FOR {body_domains} =>")
    lines.extend(f"      {statement.rstrip(';')};" for statement in body_statements)
    lines.append("  END RELATION;")
    lines.append(f"END ARCHITECTURE {architecture_name};")
    return "\n".join(lines)


def generate_model(name: str, generics: Mapping[str, float | None],
                   pins: Mapping[str, str], *,
                   variables: Sequence[str] = (),
                   states: Sequence[str] = (),
                   init_statements: Sequence[str] = (),
                   body_statements: Sequence[str] = (),
                   header_comment: str | None = None) -> str:
    """Emit a complete entity + architecture source file."""
    parts = []
    if header_comment:
        parts.extend(f"-- {line}" for line in header_comment.splitlines())
    parts.append(generate_entity(name, generics, pins))
    parts.append("")
    parts.append(generate_architecture(
        name, variables=variables, states=states,
        init_statements=init_statements, body_statements=body_statements))
    return "\n".join(parts) + "\n"


def table1d_expression(argument: str, xs: Iterable[float], ys: Iterable[float]) -> str:
    """Emit a ``table1d`` call for a piecewise-linear macromodel.

    ``argument`` is the HDL expression of the abscissa (e.g. ``"x"`` or
    ``"V"``); ``xs`` must be strictly increasing.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise HDLError("table1d needs matching abscissa/ordinate lists")
    if len(xs) < 2:
        raise HDLError("table1d needs at least two breakpoints")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise HDLError("table1d breakpoints must be strictly increasing")
    pairs = ", ".join(
        f"{format_number(x)}, {format_number(y)}" for x, y in zip(xs, ys))
    return f"table1d({argument}, {pairs})"


#: The paper's Listing 1 (transverse electrostatic transducer), reproduced in
#: the HDL-A subset accepted by this package.  The only edits relative to the
#: printed listing are purely syntactic: the duplicate use of ``d`` as both a
#: generic and a pin name is resolved by renaming the pins to ``c, e`` (the
#: original would shadow the gap parameter), and the procedural domains
#: include ``dc`` so the model defines its operating point.
LISTING1_SOURCE = """
ENTITY eletran IS
  GENERIC (A, d, er : analog);
  PIN (a, b : electrical; c, e : mechanical1);
END ENTITY eletran;

ARCHITECTURE a OF eletran IS
  VARIABLE e0, x : analog;
  STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR dc, ac, transient =>
      V := [a, b].v;
      S := [c, e].tv;
      x := integ(S);
      [a, b].i %= e0*er*A/(d + x)*ddt(V);
      [c, e].f %= -e0*er*A*V*V/(2.0*(d+x)*(d+x));
  END RELATION;
END ARCHITECTURE a;
"""
