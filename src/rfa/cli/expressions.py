"""Expression evaluation over the correlated-number field.

Conventional precedence with ``*`` and ``/`` as the field product and
quotient, ``^`` as the power (integer exponents use the polar angle
multiple, real exponents the principal logarithm) and the functions
``exp``, ``log``, ``sqrt``, ``conj``, ``norm``, ``polar`` and ``psi_mul``.
``A`` is bound to the pure fuzzy unit unless the caller rebinds it.
``polar(z)`` packs ``(modulus, argument)`` into the component slots so it
can be displayed like any other value.

An expression is compiled once into a tree of closures from bindings to
an element, so evaluating it again costs closure calls only.  Each closure
also carries an array form, ``batch``, that evaluates the node at many
samples in one pass over float64 arrays and rounds every sample as the
closure does; ``eval_expression_batch`` runs it (at every quadrature
sample, say).  The same tokenizer and parser read fuzzy literals
(``rfa.cli.literals``) through a constants-only production.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import astuple
from functools import lru_cache
from typing import Callable

import numpy as np

from ..analytic import _exp_rfa_batch, _log_rfa_batch, _pow_real_batch, exp_rfa, log_rfa, pow_real
from ..core import (
    LcNumber,
    _as_complex,
    _difference,
    _each,
    _join,
    _nth_root_batch,
    _pow_int_batch,
    _prod,
    _quotient_batch,
    _sum,
    _to_polar_batch,
    conjugate,
    norm_phi,
    nth_root,
    pow_int,
    to_polar,
)
from ..dynamics import _cross_product_psi_parts, cross_product_psi

__all__ = ["ExprError", "UnboundVariableError", "eval_expression", "eval_expression_batch"]

# ``env -> LcNumber``, with the array form ``batch(env, n)`` attached: there
# ``env`` binds names to ``(re, fu)`` pairs of float64 arrays of length n
Compiled = Callable[[dict], LcNumber]


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


# each name or symbol maps to its scalar function and its array form
_UNARY = {
    "exp": (exp_rfa, _exp_rfa_batch),
    "log": (log_rfa, _log_rfa_batch),
    "sqrt": (lambda z: nth_root(z, 2, 0), lambda z: _nth_root_batch(z, 2, 0)),
    "conj": (conjugate, lambda z: (z[0], -z[1])),
    "norm": (lambda z: LcNumber(norm_phi(z), 0.0), lambda z: (_each(math.hypot, *z), np.zeros_like(z[0]))),
    "polar": (lambda z: LcNumber(*astuple(to_polar(z))), _to_polar_batch),
}
_ADDITIVE = {"+": (operator.add, _sum), "-": (operator.sub, _difference)}
_MULTIPLICATIVE = {"*": (operator.mul, _prod), "/": (operator.truediv, _quotient_batch)}


def _node(scalar, batch) -> Compiled:
    """``scalar`` with its array form attached as ``scalar.batch``."""
    scalar.batch = batch
    return scalar


def _crisp_constant(value, what: str, pos: int) -> float:
    """The one finite real that every sample of ``value`` holds.

    Anything else raises, and the per-sample evaluation decides the
    outcome sample by sample.
    """
    re, fu = value
    x = float(re[0])
    if fu.any() or not (re == x).all() or not math.isfinite(x):
        raise ExprError(f"{what} is not the same finite crisp number at every sample", pos)
    return x


class _Parser:
    """Recursive descent over the token list.

    Expression productions return compiled closures ``env -> LcNumber``;
    ``rfa.cli.literals`` adds the constants-only productions.  ``error`` is
    the exception class raised for malformed input.
    """

    error = ExprError

    def __init__(self, text: str, a1: float = 0.0):
        self.tokens = _tokenize(text)
        for token in self.tokens:
            if token[0] == "num" and not math.isfinite(token[1]):
                self.fail("number is beyond the double range", token)
        self.i = 0
        self.depth = 0
        self.a1 = a1

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

    def _chain(self, operand, ops) -> Compiled:
        """Left-associative run of binary operators, evaluated in a loop."""
        first = operand()
        rest, batch_rest = [], []
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                break
            self.take()
            node = operand()
            op, batch_op = ops[value]
            rest.append((op, node))
            batch_rest.append((batch_op, node.batch))
        if not rest:
            return first

        def chain(env):
            acc = first(env)
            for op, node in rest:
                acc = op(acc, node(env))
            return acc

        def chain_batch(env, n):
            acc = first.batch(env, n)
            for op, batch in batch_rest:
                acc = op(acc, batch(env, n))
            return acc

        return _node(chain, chain_batch)

    def expr(self) -> Compiled:
        return self._chain(self.term, _ADDITIVE)

    def term(self) -> Compiled:
        return self._chain(self.unary, _MULTIPLICATIVE)

    def unary(self) -> Compiled:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("expression nests too deeply", self.peek())
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            node = self.unary()
            if value == "-":
                node = _negated(node)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Compiled:
        base = self.atom()
        if not self.at_op("^"):
            return base
        pos = self.take()[2]
        exponent = self.unary()

        def power(env):
            lhs = base(env)
            rhs = exponent(env)
            if rhs.fu != 0.0:
                raise ExprError("exponent must be crisp", pos)
            if rhs.re == int(rhs.re):
                return pow_int(lhs, int(rhs.re))
            return pow_real(lhs, rhs.re)

        def power_batch(env, n):
            lhs = base.batch(env, n)
            x = _crisp_constant(exponent.batch(env, n), "exponent", pos)
            if x == int(x):
                return _pow_int_batch(lhs, int(x))
            return _pow_real_batch(lhs, x)

        return _node(power, power_batch)

    def atom(self) -> Compiled:
        token = self.take()
        kind, value, pos = token
        if kind == "num":
            constant = LcNumber(value, 0.0)
            return _node(lambda env: constant, lambda env, n: _broadcast(constant, n))
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

            return _node(variable, lambda env, n: variable(env))
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("expected a value", token)

    def call(self, name: str, args: list[Compiled], pos: int) -> Compiled:
        if name == "psi_mul":
            if len(args) != 2:
                raise ExprError(f"psi_mul takes 2 argument(s), got {len(args)}", pos)
            b, c, a1 = args[0], args[1], self.a1
            return _node(
                lambda env: cross_product_psi(b(env), c(env), a1),
                lambda env, n: _cross_product_psi_parts(b.batch(env, n), c.batch(env, n), a1),
            )
        if name == "log" and len(args) == 2:
            z, branch = args

            def log_branch(env):
                zv, n = z(env), branch(env)
                if n.fu != 0.0 or n.re != int(n.re):
                    raise ExprError("log branch must be a crisp integer", pos)
                return log_rfa(zv, int(n.re))

            def log_branch_batch(env, n):
                zv = z.batch(env, n)
                k = _crisp_constant(branch.batch(env, n), "log branch", pos)
                if k != int(k):
                    raise ExprError("log branch must be a crisp integer", pos)
                return _log_rfa_batch(zv, int(k))

            return _node(log_branch, log_branch_batch)
        if name not in _UNARY:
            raise ExprError(f"unknown function {name!r}", pos)
        if len(args) != 1:
            takes = "1 or 2 arguments" if name == "log" else "1 argument(s)"
            raise ExprError(f"{name} takes {takes}, got {len(args)}", pos)
        (fn, batch_fn), arg = _UNARY[name], args[0]
        return _node(lambda env: fn(arg(env)), lambda env, n: batch_fn(arg.batch(env, n)))


def _negated(node: Compiled) -> Compiled:
    return _node(lambda env: -node(env), lambda env, n: tuple(-part for part in node.batch(env, n)))


_FUZZY_UNIT = LcNumber(0.0, 1.0)


@lru_cache(maxsize=64)
def _compile(expr: str, a1: float) -> Compiled:
    """``expr`` as a closure over bindings; ``a1`` is baked in for ``psi_mul``."""
    return _Parser(expr, a1).parse()


def eval_expression(expr: str, bindings=None, a1: float = 0.0) -> LcNumber:
    """Evaluate ``expr`` with ``A`` and any caller bindings in scope.

    ``a1`` is the basis 1-level used by ``psi_mul``.  The compiled form of
    ``expr`` is cached, so repeated calls skip parsing; an unbound name
    raises ``UnboundVariableError`` when evaluation reaches it.
    """
    env = {"A": _FUZZY_UNIT}
    if bindings:
        env.update(bindings)
    return _compile(expr, a1)(env)


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
    """
    n = next(len(v) for v in bindings.values() if isinstance(v, np.ndarray))
    env = {"A": _broadcast(_FUZZY_UNIT, n)}
    for name, value in bindings.items():
        if isinstance(value, np.ndarray):
            env[name] = value.real, value.imag
        else:
            env[name] = _broadcast(value, n)
    return _join(*_compile(expr, a1).batch(env, n))


def _broadcast(value, n: int):
    """One element as n samples: read-only views that take no memory per sample."""
    z = _as_complex(value)
    return np.broadcast_to(z.real, n), np.broadcast_to(z.imag, n)
