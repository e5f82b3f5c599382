"""Expression evaluation over the correlated-number field.

Conventional precedence with ``*`` and ``/`` as the field product and
quotient, ``^`` as the power (integer exponents use the polar angle
multiple, real exponents the principal logarithm) and the functions
``exp``, ``log``, ``sqrt``, ``conj``, ``norm``, ``polar`` and ``psi_mul``.
``A`` is bound to the pure fuzzy unit unless the caller rebinds it.
``polar(z)`` packs ``(modulus, argument)`` into the component slots so it
can be displayed like any other value.

An expression is compiled once into a tree of closures, so evaluating it
again costs closure calls only.  The parser builds each node over an
operation table: over ``_SCALAR`` the tree maps bindings to an element;
over ``_ARRAY`` (``eval_expression_batch``) it takes many samples in one
pass over float64 arrays and rounds each as the scalar tree does.  The
same tokenizer and parser read fuzzy literals (``rfa.cli.literals``)
through a constants-only production.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from ..analytic import _exp, _log, _pow_real
from ..core import (
    LcNumber,
    _cross_product_psi_parts,
    _difference,
    _each,
    _is_zero,
    _join,
    _nth_root,
    _parts,
    _polar,
    _pow_int,
    _prod,
    _quotient,
    _select,
    _sum,
    _wrap,
)

__all__ = ["ExprError", "UnboundVariableError", "calls_psi_mul", "eval_expression", "eval_expression_batch"]

# ``env -> value``: ``env`` binds names to elements over ``_SCALAR``, to
# ``(re, fu)`` pairs of floats or of float64 arrays over ``_ARRAY``
Compiled = Callable[[dict], object]


class ExprError(ValueError):
    """Malformed or unevaluable expression; ``position`` is the offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class UnboundVariableError(ExprError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^(),;])"
    r"|(?P<bad>\S))"
)

# Deepest nesting of parentheses, calls, signs and powers.  Each level
# costs a few interpreter frames when parsing and evaluating, so the bound
# keeps both far below Python's recursion limit.
_MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """``(kind, value, offset)`` triples ending in an ``end`` token.

    A character that starts no token is a ``bad`` token; no production
    accepts one, so the parser reports it once it gets there.
    """
    tokens = []
    for m in _TOKEN.finditer(text.replace("−", "-")):
        kind = m.lastgroup
        value = float(m.group(kind)) if kind == "num" else m.group(kind)
        tokens.append((kind, value, m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _constant(value, what: str, pos: int) -> tuple[float, float]:
    """The ``(re, fu)`` floats of an operand: an element's own, or those every sample holds.

    Samples that differ raise, and the per-sample evaluation decides the
    outcome sample by sample.
    """
    re, fu = value
    if isinstance(re, np.ndarray):
        if not ((re == re[0]).all() and (fu == fu[0]).all()):
            raise ExprError(f"{what} is not the same number at every sample", pos)
        re, fu = float(re[0]), float(fu[0])
    return re, fu


def _power(lhs, rhs, pos: int):
    x, fu = _constant(rhs, "exponent", pos)
    if fu != 0.0:
        raise ExprError("exponent must be crisp", pos)
    if not math.isfinite(x):
        raise ValueError(f"exponent {x} is not a finite number")
    if x == int(x):
        return _pow_int(lhs, x)
    return _pow_real(lhs, x)


def _log_branch(z, branch, pos: int):
    k, fu = _constant(branch, "log branch", pos)
    if fu == 0.0 and not math.isfinite(k):
        raise ValueError(f"log branch {k} is not a finite number")
    if fu != 0.0 or k != int(k):
        raise ExprError("log branch must be a crisp integer", pos)
    return _log(z, int(k))


def _on_elements(kernel):
    """``kernel`` over elements: each operand as its ``(re, fu)`` floats, the result an element."""
    return lambda *operands, **options: _wrap(complex(*kernel(*map(_parts, operands), **options)))


# every function and power, written once over ``(re, fu)`` pairs of floats
# or of float64 arrays
_KERNELS = {
    "^": _power,
    "log_branch": _log_branch,
    "psi_mul": _cross_product_psi_parts,
    "exp": _exp,
    "log": _log,
    "sqrt": lambda z: _nth_root(z, 2, 0),
    "conj": lambda z: (z[0], -z[1]),
    "norm": lambda z: (_each(math.hypot, *z), _select(_is_zero(z), 0.0, 0.0)),
    "polar": _polar,
}
# the operations on elements and on ``(re, fu)`` pairs, keyed by operator
# symbol, function name or node kind: ``const`` lifts a literal once, field
# operators are ``LcNumber``'s own over ``_SCALAR``, the rest the kernels above
_SCALAR = {
    "const": lambda z: z,
    "neg": operator.neg,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    **{key: _on_elements(kernel) for key, kernel in _KERNELS.items()},
}
_ARRAY = {
    "const": _parts,
    "neg": lambda z: (-z[0], -z[1]),
    "+": _sum, "-": _difference, "*": _prod, "/": _quotient,
    **_KERNELS,
}
# the names the grammar calls; ``log`` with a second argument is ``log_branch``
_FUNCTIONS = ("exp", "log", "sqrt", "conj", "norm", "polar", "psi_mul")


def _apply(fn, a: Compiled, b: Compiled | None = None) -> Compiled:
    """The node ``fn(a)``, or ``fn(a, b)`` with ``a`` evaluated first."""
    if b is None:
        return lambda env: fn(a(env))
    return lambda env: fn(a(env), b(env))


class _Parser:
    """Recursive descent over the token list.

    Expression productions return compiled closures ``env -> value``
    over the operation ``table``; ``rfa.cli.literals`` adds the
    constants-only productions.  ``error`` is the exception class raised
    for malformed input.
    """

    error = ExprError
    psi_mul = False  # set once a psi_mul node, the one reader of a1, is built

    def __init__(self, text: str, a1: float = 0.0, table: dict = _SCALAR):
        self.tokens = _tokenize(text)
        for token in self.tokens:
            if token[0] == "num" and not math.isfinite(token[1]):
                self.fail("number is beyond the double range", token)
        self.i = 0
        self.depth = 0
        self.a1 = a1
        self.table = table

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, token):
        kind, value, pos = token
        if kind == "bad":
            message = f"unexpected character {value!r}"
        raise self.error(message, pos)

    def at_op(self, symbol: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value == symbol

    def expect_op(self, symbol: str) -> None:
        if not self.at_op(symbol):
            self.fail(f"expected {symbol!r}", self.peek())
        self.take()

    def expect_end(self) -> None:
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input", self.peek())

    # -- expressions -----------------------------------------------------

    def parse(self) -> Compiled:
        node = self.expr()
        self.expect_end()
        return node

    def _chain(self, operand, symbols: tuple[str, ...]) -> Compiled:
        """Left-associative run of binary operators, evaluated in a loop."""
        first = operand()
        rest = []
        while self.peek()[0] == "op" and self.peek()[1] in symbols:
            rest.append((self.table[self.take()[1]], operand()))
        if not rest:
            return first

        def chain(env):
            acc = first(env)
            for op, node in rest:
                acc = op(acc, node(env))
            return acc

        return chain

    def expr(self) -> Compiled:
        return self._chain(self.term, ("+", "-"))

    def term(self) -> Compiled:
        return self._chain(self.unary, ("*", "/"))

    def unary(self) -> Compiled:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("expression nests too deeply", self.peek())
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            node = self.unary()
            if value == "-":
                node = _apply(self.table["neg"], node)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Compiled:
        base = self.atom()
        if not self.at_op("^"):
            return base
        pos = self.take()[2]
        return _apply(partial(self.table["^"], pos=pos), base, self.unary())

    def atom(self) -> Compiled:
        token = self.take()
        kind, value, pos = token
        if kind == "num":
            constant = self.table["const"](LcNumber(value, 0.0))
            return lambda env: constant
        if kind == "name":
            if self.at_op("("):
                self.take()
                args = []
                if not self.at_op(")"):
                    args.append(self.expr())
                    while self.at_op(","):
                        self.take()
                        args.append(self.expr())
                self.expect_op(")")
                return self.call(value, args, pos)

            def variable(env):
                try:
                    return env[value]
                except KeyError:
                    raise UnboundVariableError(f"unbound variable {value!r}", pos) from None

            return variable
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("expected a value", token)

    def call(self, name: str, args: list[Compiled], pos: int) -> Compiled:
        if name == "psi_mul":
            if len(args) != 2:
                raise ExprError(f"psi_mul takes 2 argument(s), got {len(args)}", pos)
            self.psi_mul = True
            return _apply(partial(self.table["psi_mul"], a1=self.a1), *args)
        if name == "log" and len(args) == 2:
            return _apply(partial(self.table["log_branch"], pos=pos), *args)
        if name not in _FUNCTIONS:
            raise ExprError(f"unknown function {name!r}", pos)
        if len(args) != 1:
            takes = "1 or 2 arguments" if name == "log" else "1 argument(s)"
            raise ExprError(f"{name} takes {takes}, got {len(args)}", pos)
        return _apply(self.table[name], args[0])


_FUZZY_UNIT = LcNumber(0.0, 1.0)


@lru_cache(maxsize=64)
def _compile(expr: str, a1: float, array: bool) -> Compiled:
    """``expr`` as a closure over ``_ARRAY`` or ``_SCALAR``; ``a1`` is baked in for ``psi_mul``."""
    return _Parser(expr, a1, _ARRAY if array else _SCALAR).parse()


def calls_psi_mul(expr: str) -> bool:
    """Whether ``expr`` calls ``psi_mul``, so that its value depends on ``a1``."""
    parser = _Parser(expr)
    parser.parse()
    return parser.psi_mul


def eval_expression(expr: str, bindings=None, a1: float = 0.0) -> LcNumber:
    """Evaluate ``expr`` with ``A`` and any caller bindings in scope.

    ``a1`` is the basis 1-level used by ``psi_mul``.  The compiled form of
    ``expr`` is cached, so repeated calls skip parsing; an unbound name
    raises ``UnboundVariableError`` when evaluation reaches it.
    """
    env = {"A": _FUZZY_UNIT}
    if bindings:
        env.update(bindings)
    return _compile(expr, a1, False)(env)


def eval_expression_batch(expr: str, bindings: dict, a1: float = 0.0) -> np.ndarray:
    """``eval_expression`` at n samples at once, as a complex128 array.

    ``bindings`` maps names to elements or to complex128 arrays of length
    n, at least one of them an array; entry ``i`` of the result is bit for
    bit ``eval_expression`` with entry ``i`` of each array bound, its
    ``re`` and ``fu`` as real and imaginary parts.  Where
    ``eval_expression`` raises at some sample, this raises
    ``ArithmeticError`` or ``ValueError`` too, and so may it where
    ``eval_expression`` does not (a zero base under a power, an exponent
    that varies between samples); evaluate per sample then.  Run it under
    ``np.errstate(all="ignore")``, as overflow to ``inf`` is not an error.

    ``A`` and each element bound stay one ``(re, fu)`` float pair, so a
    subexpression of them alone is computed once, as the closures compute it.
    """
    n = next(len(v) for v in bindings.values() if isinstance(v, np.ndarray))
    env = {"A": _parts(_FUZZY_UNIT)}
    for name, value in bindings.items():
        env[name] = (value.real, value.imag) if isinstance(value, np.ndarray) else _parts(value)
    return _join(*(np.broadcast_to(part, n) for part in _compile(expr, a1, True)(env)))
