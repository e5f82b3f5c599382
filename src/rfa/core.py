"""Field arithmetic on fuzzy numbers linearly correlated with a basis.

Fix an asymmetric fuzzy number ``A``.  Every element handled here has the
form ``z = re + fu*A``.  Asymmetry of the basis makes the coefficient pair
``(re, fu)`` unique, and the coefficient algebra is then exactly the
algebra of ``re + fu*i``.  So ``LcNumber`` holds one Python ``complex`` and
hands addition, multiplication, division, negation, equality and hashing
to it; norm and polar decomposition mirror their complex counterparts.
The basis itself never enters the arithmetic; it is only needed to
materialise alpha-cuts, the sup metric and exports.
"""

from __future__ import annotations

import cmath
import math
import operator
from bisect import bisect_right
from itertools import repeat
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlphaBand",
    "BasisNumber",
    "LcNumber",
    "LcSpace",
    "PolarForm",
    "ZERO",
    "ONE",
    "norm_phi",
    "conjugate",
    "to_polar",
    "from_polar",
    "pow_int",
    "nth_root",
    "alpha_cut",
    "d_infty",
    "is_asymmetric",
]


@dataclass(frozen=True)
class BasisNumber:
    """A basis fuzzy number: its table of alpha-levels.

    ``levels`` holds rows ``(alpha, lower, upper)`` with alphas strictly
    increasing from 0 to 1, finite endpoints, ``lower <= upper`` and each
    level inside the one before it; any other table is refused.
    ``level(alpha)`` returns a row's stored endpoints at that row and
    interpolates linearly between rows.  A triangular or trapezoidal number
    is two rows, its 0-level and its 1-level.
    """

    levels: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        rows = tuple((float(a), float(lo), float(hi)) for a, lo, hi in self.levels)
        if len(rows) < 2:
            raise ValueError(f"a basis needs at least its 0- and 1-levels, got {len(rows)} row(s)")
        for a, lo, hi in rows:
            if not all(map(math.isfinite, (a, lo, hi))):
                raise ValueError(f"basis level at alpha={a} has endpoints [{lo}, {hi}]; all must be finite")
            if lo > hi:
                raise ValueError(f"basis level at alpha={a} has lower {lo} > upper {hi}")
        if rows[0][0] != 0.0 or rows[-1][0] != 1.0:
            raise ValueError(f"basis alphas must run from 0 to 1, got {rows[0][0]} to {rows[-1][0]}")
        for (a0, lo0, hi0), (a1, lo1, hi1) in zip(rows, rows[1:]):
            if not a0 < a1:
                raise ValueError(f"basis alphas must increase strictly, got {a1} after {a0}")
            if lo1 < lo0 or hi1 > hi0:
                raise ValueError(f"basis level at alpha={a1} [{lo1}, {hi1}] leaves [{lo0}, {hi0}] at alpha={a0}")
        object.__setattr__(self, "levels", rows)
        # the levels nest, so a finite 0-level span keeps every difference
        # that ``level`` takes finite
        _, lo, hi = rows[0]
        if not math.isfinite(hi - lo):
            raise ValueError(f"basis 0-level [{lo}, {hi}] has a span {hi - lo} that is not a finite double")

    @classmethod
    def triangular(cls, a: float, b: float, d: float) -> "BasisNumber":
        return cls(((0.0, a, d), (1.0, b, b)))

    @classmethod
    def trapezoidal(cls, a: float, b: float, c: float, d: float) -> "BasisNumber":
        return cls(((0.0, a, d), (1.0, b, c)))

    @classmethod
    def tabulated(cls, levels) -> "BasisNumber":
        """Build a basis from rows ``(alpha, lower, upper)`` given in any order."""
        return cls(tuple(sorted((float(a), float(lo), float(hi)) for a, lo, hi in levels)))

    def level(self, alpha: float) -> tuple[float, float]:
        """Endpoints ``[lower(alpha), upper(alpha)]`` of the alpha-level.

        Between rows ``(a0, lo0, hi0)`` and ``(a1, lo1, hi1)`` the weight is
        ``w = (alpha - a0) / (a1 - a0)``, the lower endpoint ``lo0 + w*(lo1 -
        lo0)`` and the upper ``hi0 - w*(hi0 - hi1)``; on a two-row table
        these are the usual triangular and trapezoidal formulas.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        rows = self.levels
        i = bisect_right(rows, alpha, key=operator.itemgetter(0))
        a0, lo0, hi0 = rows[i - 1]
        if alpha == a0:
            return lo0, hi0
        a1, lo1, hi1 = rows[i]
        w = (alpha - a0) / (a1 - a0)
        return lo0 + w * (lo1 - lo0), hi0 - w * (hi0 - hi1)

    def one_level_value(self) -> float:
        """The single point of the 1-level; raises if it is an interval."""
        lo, hi = self.level(1.0)
        if lo != hi:
            raise ValueError(f"1-level of the basis is the interval [{lo}, {hi}], not a point")
        return lo


# Largest variation of the endpoint sum that still counts as symmetric.
_ASYMMETRY_EPS = 1e-9


def is_asymmetric(basis: BasisNumber) -> bool:
    """Whether ``lower(alpha) + upper(alpha)`` actually varies with alpha.

    A constant endpoint sum would make coefficient pairs non-unique, so all
    constructions on this space require the test to pass.  The sum is linear
    between the rows of ``basis.levels``, so the rows decide it exactly.
    The half-sums are compared against half the tolerance: they cannot
    overflow as the sums of endpoints near the double limit do, and halving
    a normal double is exact, so every other decision is the sums' own.
    """
    (_, lo0, hi0), *rest = basis.levels
    base = lo0 * 0.5 + hi0 * 0.5
    return any(abs((lo * 0.5 + hi * 0.5) - base) > _ASYMMETRY_EPS * 0.5 for _, lo, hi in rest)


def _divide(num: complex, den: complex) -> complex:
    """The complex quotient behind ``LcNumber``'s ``/``; the zero element refuses."""
    if not den:
        raise ZeroDivisionError("division by the zero element")
    return num / den


# Element kernels.  Each is written once, over elements as ``(re, fu)``
# pairs whose parts are Python floats (one element) or float64 arrays (one
# entry per sample), and rounds every entry as it rounds that element:
# ``+ - * /`` on arrays are ufuncs in CPython's operand order, and a
# transcendental is one libm call per entry through ``math`` (numpy's own
# kernels round differently, and which one runs depends on the CPU).  Only
# ``_each``, ``_rect``, ``_select``, ``_has_zero`` and ``_quotient`` tell
# floats from arrays, by ``isinstance(x, np.ndarray)``.  Where the float
# path raises, or takes a branch the array path does not reproduce, the
# array path raises ``ArithmeticError`` or ``ValueError`` and the caller
# replays the samples one by one.


def _each(fn, *args, dtype=np.float64):
    """``fn(*args)`` per entry: the plain call when the first is a float.

    On arrays ``fn`` maps over the entries in one pass, each array read
    through ``memoryview`` as one Python float per entry, and a float
    argument is repeated for every entry.
    """
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    columns = [memoryview(a) if isinstance(a, np.ndarray) else repeat(a) for a in args]
    return np.fromiter(map(fn, *columns), dtype, len(args[0]))


def _rect(m, angle):
    """``(m * cos(angle), m * sin(angle))`` per entry.

    On arrays each entry is one ``cmath.rect`` call, which computes exactly
    that for finite operands only, so a non-finite entry raises
    ``FloatingPointError``.
    """
    if not isinstance(m, np.ndarray):
        return m * math.cos(angle), m * math.sin(angle)
    if not (np.isfinite(m).all() and np.isfinite(angle).all()):
        raise FloatingPointError("rect of a modulus or angle that is not finite")
    z = _each(cmath.rect, m, angle, dtype=np.complex128)
    return z.real, z.imag


def _select(mask, a, b):
    """``a`` where ``mask`` holds, else ``b``: per entry on arrays."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def _is_zero(z):
    """Whether each entry is the zero element: a bool, or a mask over arrays."""
    return (z[0] == 0.0) & (z[1] == 0.0)


def _has_zero(z) -> bool:
    """Whether any entry is the zero element."""
    zero = _is_zero(z)
    return zero.any() if isinstance(zero, np.ndarray) else zero


def _join(re: np.ndarray, fu: np.ndarray) -> np.ndarray:
    """The complex128 array ``re + fu*i``."""
    out = np.empty(len(re), dtype=np.complex128)
    out.real = re
    out.imag = fu
    return out


def _sum(a, b):
    return a[0] + b[0], a[1] + b[1]


def _difference(a, b):
    return a[0] - b[0], a[1] - b[1]


def _prod(a, b):
    """``a * b`` over ``(re, im)`` pairs, rounded as CPython's complex product."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cross_product_psi_parts(b, c, a1: float):
    """``cross_product_psi`` over ``(re, fu)`` pairs of floats or of arrays."""
    (rb, qb), (rc, qc) = b, c
    return rb * rc - a1 * a1 * qc * qb, qb * (rc + qc * a1) + qc * (rb + qb * a1)


def _quotient(num, den):
    """``num / den`` per entry, as CPython 3.11's ``_Py_c_quot`` rounds it.

    On arrays numerator and denominator are divided through by the larger
    part of the denominator (Smith's method), each branch chosen by a mask;
    a NaN part takes neither branch and gives NaN.
    """
    if _has_zero(den):
        raise ZeroDivisionError("division by the zero element")
    (a_re, a_fu), (b_re, b_fu) = num, den
    if not isinstance(b_re, np.ndarray):
        q = complex(a_re, a_fu) / complex(b_re, b_fu)
        return q.real, q.imag
    abs_re, abs_fu = np.abs(b_re), np.abs(b_fu)
    by_re = abs_re >= abs_fu
    by_fu = ~by_re & (abs_fu >= abs_re)
    ratio = b_fu / b_re
    denom = b_re + b_fu * ratio
    re = np.where(by_re, (a_re + a_fu * ratio) / denom, np.nan)
    fu = np.where(by_re, (a_fu - a_re * ratio) / denom, np.nan)
    ratio = b_re / b_fu
    denom = b_re * ratio + b_fu
    re = np.where(by_fu, (a_re * ratio + a_fu) / denom, re)
    fu = np.where(by_fu, (a_fu * ratio - a_re) / denom, fu)
    return re, fu


def _show(z) -> str:
    """An element's ``repr`` from its parts."""
    return f"LcNumber({z[0]!r}, {z[1]!r})"


class LcNumber:
    """Element ``re + fu*A``, held as the complex number ``re + fu*i``.

    Arithmetic never inspects the basis: the operators delegate to the
    complex value, so the field operations are CPython's own.  Like
    ``fractions.Fraction``, instances are immutable values: ``re`` and
    ``fu`` are read-only and the hash is that of the complex value, which
    ``complex(z)`` returns (so numpy packs elements into complex arrays).
    """

    __slots__ = ("_z",)

    def __init__(self, re: float, fu: float):
        self._z = complex(float(re), float(fu))

    re = property(operator.attrgetter("_z.real"), doc="The real coefficient.")
    fu = property(operator.attrgetter("_z.imag"), doc="The fuzzy coefficient, the multiple of ``A``.")

    def _arithmetic(op):
        def method(self, other):
            other = _as_complex(other)
            if other is None:
                return NotImplemented
            return _wrap(op(self._z, other))

        return method

    __add__ = __radd__ = _arithmetic(operator.add)
    __sub__ = _arithmetic(operator.sub)
    __rsub__ = _arithmetic(lambda z, other: other - z)
    __mul__ = __rmul__ = _arithmetic(operator.mul)
    __truediv__ = _arithmetic(_divide)
    __rtruediv__ = _arithmetic(lambda z, other: _divide(other, z))
    del _arithmetic

    def __neg__(self):
        return _wrap(-self._z)

    def __complex__(self) -> complex:
        return self._z

    def __eq__(self, other):
        if isinstance(other, LcNumber):
            return self._z == other._z
        return NotImplemented

    def __hash__(self):
        return hash(self._z)

    def __repr__(self):
        return _show(_parts(self))


def _wrap(value: complex) -> LcNumber:
    """An LcNumber around ``value`` without re-validating its parts."""
    z = object.__new__(LcNumber)
    z._z = value
    return z


# an element as the ``(re, fu)`` floats that the kernels take
_parts = operator.attrgetter("_z.real", "_z.imag")


def _as_complex(value):
    """The complex value of an operand; reals embed as ``(value, 0)``."""
    if isinstance(value, LcNumber):
        return value._z
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    return None


ZERO = LcNumber(0.0, 0.0)
ONE = LcNumber(1.0, 0.0)


def norm_phi(z: LcNumber) -> float:
    """Euclidean norm of the coefficient pair."""
    return math.hypot(z.re, z.fu)


def conjugate(z: LcNumber) -> LcNumber:
    """Negate the fuzzy coefficient; ``z * conjugate(z)`` is the squared norm."""
    return LcNumber(z.re, -z.fu)


@dataclass(frozen=True)
class PolarForm:
    """Polar coordinates ``(modulus, argument)`` with argument in (-pi, pi]."""

    modulus: float
    argument: float


def _polar_parts(z):
    """``(modulus, argument)`` per entry; a zero entry gives ``(0, 0)`` or ``(0, pi)``."""
    re, fu = z
    arg = _each(math.atan2, fu, re)
    return _each(math.hypot, re, fu), _select(arg <= -math.pi, math.pi, arg)


def _polar(z):
    if _has_zero(z):
        raise ValueError("argument of the zero element is undefined")
    return _polar_parts(z)


def to_polar(z: LcNumber) -> PolarForm:
    """Polar decomposition; the zero element has no argument."""
    return PolarForm(*_polar(_parts(z)))


def from_polar(p: PolarForm) -> LcNumber:
    return _wrap(complex(*_rect(p.modulus, p.argument)))


def _pow_int(z, n: int):
    """``pow_int`` per entry: a zero entry gives zero, or raises for ``n < 0``."""
    zero = _is_zero(z)
    if n == 0:
        # one at every entry, the zero element's included
        return _select(zero, 1.0, 1.0), _select(zero, 0.0, 0.0)
    if n < 0 and _has_zero(z):
        raise ZeroDivisionError("negative power of the zero element")
    k = abs(n)
    try:
        power = z
        if k > 1:
            # a zero entry has modulus 0 here; its result is replaced below
            modulus, arg = _polar_parts(z)
            angle = float(k) * arg
            if np.isinf(angle).any():
                raise OverflowError("the angle multiple overflows")
            power = _rect(_each(math.pow, modulus, float(k)), angle)
        if n < 0:
            if _has_zero(power):
                raise OverflowError("the power underflows to zero")
            return _quotient((1.0, 0.0), power)
    except OverflowError as exc:
        raise OverflowError(f"power {_show(z)}^{n} is out of range") from exc
    return _select(zero, 0.0, power[0]), _select(zero, 0.0, power[1])


def pow_int(z: LcNumber, n: int) -> LcNumber:
    """Integer power evaluated in polar form.

    Small exponents are answered directly so identities such as
    ``pow_int(z, 1)`` stay bitwise exact; everything else goes through the
    angle-multiple formula, and negative exponents through the reciprocal.  A power that
    overflows, or that underflows to zero under a negative exponent, raises
    ``OverflowError`` naming ``z`` and ``n``.
    """
    return _wrap(complex(*_pow_int(_parts(z), n)))


def _nth_root(z, n: int, branch: int = 0):
    if n < 1:
        raise ValueError(f"root order must be a positive integer, got {n}")
    if _has_zero(z):
        raise ValueError("roots of the zero element are undefined")
    modulus, arg = _polar_parts(z)
    k = branch % n
    return _rect(_each(math.pow, modulus, 1.0 / n), (arg + 2.0 * math.pi * k) / n)


def nth_root(z: LcNumber, n: int, branch: int = 0) -> LcNumber:
    """Branch ``k`` of the n-th root: modulus**(1/n) at angle (arg + 2*pi*k)/n.

    The branch index is reduced modulo ``n`` since angles repeat with that
    period.
    """
    return _wrap(complex(*_nth_root(_parts(z), n, branch)))


@dataclass(frozen=True)
class AlphaBand:
    """One alpha-level of an element: a closed interval tagged with its alpha."""

    alpha: float
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.lower > self.upper:
            raise ValueError(f"band endpoints out of order: [{self.lower}, {self.upper}]")


def _band_array(re: np.ndarray, fu: np.ndarray, basis: BasisNumber, alphas) -> np.ndarray:
    """Edges of the alpha-levels of the elements ``re + fu*A``.

    Entry ``[i, j]`` is ``[lower, upper]`` of element ``i`` at ``alphas[j]``:
    ``re`` plus the smaller and the larger of ``fu`` times the two basis
    endpoints.  An edge that overflows is ``inf`` or ``nan``, without a
    warning.
    """
    out = np.empty((re.size, len(alphas), 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, alpha in enumerate(alphas):
            lo, hi = basis.level(alpha)
            e1, e2 = fu * lo, fu * hi
            out[:, j, 0] = re + np.minimum(e1, e2)
            out[:, j, 1] = re + np.maximum(e1, e2)
    return out


def alpha_cut(z: LcNumber, basis: BasisNumber, alpha: float) -> AlphaBand:
    """The alpha-level of ``z``: ``{re + fu*x : x in [A]_alpha}``."""
    (lower, upper), = _band_array(np.array([z.re]), np.array([z.fu]), basis, (alpha,))[0].tolist()
    return AlphaBand(alpha, lower, upper)


def d_infty(b: LcNumber, c: LcNumber, basis: BasisNumber) -> float:
    """Sup metric: the largest endpoint distance of the alpha-levels.

    Every endpoint is linear in alpha between the rows of ``basis.levels``,
    so the supremum is taken at a row.  A NaN distance makes it NaN.
    """
    alphas = [alpha for alpha, _, _ in basis.levels]
    edges = _band_array(np.array([b.re, c.re]), np.array([b.fu, c.fu]), basis, alphas)
    edges_b, edges_c = edges.reshape(2, -1).tolist()
    distances = [abs(x - y) for x, y in zip(edges_b, edges_c)]
    return math.nan if any(map(math.isnan, distances)) else max([0.0, *distances])


@dataclass(frozen=True)
class LcSpace:
    """An asymmetric basis: the space in which coefficient pairs are unique.

    Construction is the single choke point that rejects a symmetric basis;
    the coefficient arithmetic itself never looks at it.
    """

    basis: BasisNumber

    def __post_init__(self):
        if not is_asymmetric(self.basis):
            raise ValueError("basis fuzzy number is symmetric; coefficient pairs would not be unique")
