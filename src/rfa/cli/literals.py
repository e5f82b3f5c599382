"""Textual fuzzy literals.

Two shapes: basis numbers written ``tri(a;b;d)`` / ``trap(a;b;c;d)`` and
elements written ``r``, ``r + q*A`` or ``r - q*A``.  Whitespace is free,
scientific notation is accepted, and the unicode minus sign is treated as
``-``.  Parse errors carry the character offset of the first offending
position.

Literals are read by the expression tokenizer and parser
(``rfa.cli.expressions``) through its constants-only productions: a
signed number is a ``+``/``-`` token immediately followed by a number
token, so ``2 + -3*A`` has the fuzzy coefficient ``-3`` while ``- 3`` is
rejected.
"""

from __future__ import annotations

from ..core import BasisNumber, LcNumber
from .expressions import ExprError, _Parser

__all__ = ["LiteralError", "parse_fuzzy_literal", "print_literal"]


class LiteralError(ExprError):
    """Malformed fuzzy literal; ``position`` is the character offset."""


class _LiteralParser(_Parser):
    """The constants-only productions of the expression grammar."""

    error = LiteralError

    def real(self) -> float:
        """A number token, optionally signed by an operator right before it."""
        token = self.take()
        kind, value, pos = token
        if kind == "op" and value in "+-":
            kind, number, number_pos = self.peek()
            if kind == "num" and number_pos == pos + 1:
                self.take()
                return -number if value == "-" else number
        elif kind == "num":
            return value
        self.fail("expected a real number", token)

    def literal(self):
        kind, value, pos = self.peek()
        if kind == "name" and value in ("tri", "trap"):
            self.take()
            self.expect_op("(")
            values = [self.real()]
            for _ in range(2 if value == "tri" else 3):
                self.expect_op(";")
                values.append(self.real())
            self.expect_op(")")
            self.expect_end()
            try:
                if value == "tri":
                    return BasisNumber.triangular(*values)
                return BasisNumber.trapezoidal(*values)
            except ValueError as exc:
                raise LiteralError(str(exc), pos) from exc
        re_part = self.real()
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            fu_part = (-1.0 if value == "-" else 1.0) * self.real()
            self.expect_op("*")
            kind, name, _ = self.peek()
            if kind != "name" or name != "A":
                self.fail("expected 'A'", self.peek())
            self.take()
            self.expect_end()
            return LcNumber(re_part, fu_part)
        self.expect_end()
        return LcNumber(re_part, 0.0)


def parse_fuzzy_literal(text: str):
    """Parse a literal into a BasisNumber or an LcNumber."""
    return _LiteralParser(text).literal()


def print_literal(value) -> str:
    """Canonical text form; parsing it back reproduces the value."""
    if isinstance(value, BasisNumber):
        # a 0-level and a 1-level; a point 1-level is written as tri
        if len(value.levels) != 2:
            raise ValueError("bases tabulated at more than two alpha-levels have no literal form")
        (_, a, d), (_, b, c) = value.levels
        if repr(b) == repr(c):
            return f"tri({a!r};{b!r};{d!r})"
        return f"trap({a!r};{b!r};{c!r};{d!r})"
    if isinstance(value, LcNumber):
        if value.fu == 0.0:
            return repr(value.re)
        if value.fu < 0.0:
            return f"{value.re!r} - {-value.fu!r}*A"
        return f"{value.re!r} + {value.fu!r}*A"
    raise TypeError(f"no literal form for {value!r}")
