"""Elementary mappings, numerical derivatives and contour integrals.

A fuzzy mapping takes elements ``z = x + y*A`` to elements ``u(x, y) +
v(x, y)*A``.  Differentiability of such a mapping is governed by the
Cauchy-Riemann equations on ``(u, v)``; this module estimates the partials
by central differences, reports the residuals of both equations, and
assembles the derivative from ``u_x`` and ``v_x``.  Integrals are computed
as quadrature of ``f(z(t)) * z'(t)`` along sampled paths, which for an
analytic integrand converges to the antiderivative difference and is
therefore path independent.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    LcNumber,
    _as_complex,
    _difference,
    _each,
    _has_zero,
    _join,
    _parts,
    _polar_parts,
    _prod,
    _rect,
    _show,
    _sum,
    _wrap,
    norm_phi,
)

__all__ = [
    "CrReport",
    "Path",
    "check_chain_rule",
    "contour_integral",
    "derivative_cr",
    "exp_rfa",
    "log_rfa",
    "poly_eval",
    "pow_real",
    "solve_linear_mapping_ode",
]

MapLike = Callable[[LcNumber], LcNumber]


def _exp(z):
    try:
        return _rect(_each(math.exp, z[0]), z[1])
    except OverflowError as exc:
        raise OverflowError(f"exp({_show(z)}) is out of range") from exc
    except ValueError as exc:  # math.cos of an infinite angle
        raise ValueError(f"exp({_show(z)}) is undefined: its fuzzy part is infinite") from exc


def exp_rfa(z: LcNumber) -> LcNumber:
    """Exponential by the Euler-type formula ``e^re * (cos fu + sin fu * A)``.

    An ``e^re`` beyond the double range raises ``OverflowError``, and an
    infinite ``fu`` ``ValueError``, each naming the argument.
    """
    return _wrap(complex(*_exp(_parts(z))))


def _log(z, n: int = 0):
    if _has_zero(z):
        raise ValueError("logarithm of the zero element is undefined")
    modulus, arg = _polar_parts(z)
    return _each(math.log, modulus), arg + 2.0 * math.pi * n


def log_rfa(z: LcNumber, n: int = 0) -> LcNumber:
    """Logarithm branch ``n``: ``(ln ||z||, arg z + 2*pi*n)``."""
    return _wrap(complex(*_log(_parts(z), n)))


def _pow_real(z, a: float):
    """``exp(a * log z)``; the real ``a`` multiplies as ``(a, 0)``, zero terms included."""
    if _has_zero(z):
        raise ValueError("real power of the zero element is undefined")
    return _exp(_prod(_log(z, 0), (float(a), 0.0)))


def pow_real(z: LcNumber, a: float) -> LcNumber:
    """Real power through the principal logarithm: ``exp(a * log z)``."""
    return _wrap(complex(*_pow_real(_parts(z), a)))


def poly_eval(coeffs, z: LcNumber) -> LcNumber:
    """Evaluate ``a0 + a1*z + ... + an*z^n`` by Horner's scheme."""
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class CrReport:
    """Central-difference partials of ``(u, v)`` plus the assembled derivative.

    ``residual1 = |u_x - v_y|`` and ``residual2 = |u_y + v_x|`` report how
    far the point is from satisfying the Cauchy-Riemann equations; they are
    diagnostics, never enforced.
    """

    d_ux: float
    d_uy: float
    d_vx: float
    d_vy: float
    residual1: float
    residual2: float
    derivative: LcNumber


def _stencil(h: float, c: float, name: str) -> tuple[float, float, float]:
    """``c - h``, ``c + h`` and the width between them as a double; a bad, lost or overflowing step raises.

    The width, not ``2*h``, divides a central difference (Press et al., *Numerical Recipes* 5.7).
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be finite and positive, got {h}")
    lo, hi = c - h, c + h
    if lo == hi:
        raise ValueError(f"step h={h} is lost at {name}={c}: {name} + h and {name} - h round to the same double")
    width = hi - lo
    if not math.isfinite(width):
        raise ValueError(f"step h={h} overflows at {name}={c}: ({name} + h) - ({name} - h) is {width}")
    return lo, hi, width


def derivative_cr(f: MapLike, z0: LcNumber, h: float = 1e-5) -> CrReport:
    """Numerical derivative at ``z0`` from a four-point central stencil.

    The derivative is ``u_x + v_x*A``; evaluation failures inside the
    stencil propagate unchanged.
    """
    x0, y0 = z0.re, z0.fu
    x_lo, x_hi, dx = _stencil(h, x0, "x0")
    y_lo, y_hi, dy = _stencil(h, y0, "y0")
    f_xp = f(LcNumber(x_hi, y0))
    f_xm = f(LcNumber(x_lo, y0))
    f_yp = f(LcNumber(x0, y_hi))
    f_ym = f(LcNumber(x0, y_lo))
    d_ux = (f_xp.re - f_xm.re) / dx
    d_vx = (f_xp.fu - f_xm.fu) / dx
    d_uy = (f_yp.re - f_ym.re) / dy
    d_vy = (f_yp.fu - f_ym.fu) / dy
    return CrReport(
        d_ux=d_ux,
        d_uy=d_uy,
        d_vx=d_vx,
        d_vy=d_vy,
        residual1=abs(d_ux - d_vy),
        residual2=abs(d_uy + d_vx),
        derivative=LcNumber(d_ux, d_vx),
    )


def check_chain_rule(g: MapLike, f: MapLike, z0: LcNumber, h: float = 1e-5) -> float:
    """Residual norm of ``(g o f)'(z0)`` against ``g'(f(z0)) * f'(z0)``."""
    composed = derivative_cr(lambda z: g(f(z)), z0, h).derivative
    outer = derivative_cr(g, f(z0), h).derivative
    inner = derivative_cr(f, z0, h).derivative
    return norm_phi(composed - outer * inner)


class Path:
    """A sampled integration path: at least two points, vertices included.

    The samples are held once, as the read-only ``complex128`` array ``z``
    (``re + fu*i`` per point); ``points`` is a view of it as ``LcNumber``
    values.  ``Path(points)`` takes ``LcNumber`` values or complex numbers.
    ``segment`` and ``polyline`` take ``LcNumber`` vertices and sample
    piecewise-linearly (polyline intervals are distributed proportionally
    to edge length, at least one per edge and ``max(samples - 1, edges)``
    in all).
    """

    __slots__ = ("_z",)

    def __init__(self, points):
        z = np.array(points, dtype=np.complex128)
        if z.ndim != 1 or len(z) < 2:
            raise ValueError("a path needs at least two sample points")
        if not np.isfinite(z).all():
            raise ValueError("path samples must be finite")
        z.flags.writeable = False
        self._z = z

    z = property(operator.attrgetter("_z"), doc="The samples as a read-only complex128 array.")

    @property
    def points(self) -> tuple[LcNumber, ...]:
        return tuple(map(_wrap, self._z.tolist()))

    @classmethod
    def segment(cls, z_start: LcNumber, z_end: LcNumber, samples: int = 10001) -> "Path":
        if samples < 2:
            raise ValueError(f"samples must be at least 2, got {samples}")
        return cls(_edge_samples([z_start, z_end], [samples - 1]))

    @classmethod
    def polyline(cls, vertices, samples: int = 10001) -> "Path":
        verts = list(vertices)
        if len(verts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        if samples < 2:
            raise ValueError(f"samples must be at least 2, got {samples}")
        lengths = [norm_phi(b - a) for a, b in zip(verts, verts[1:])]
        for k, ell in enumerate(lengths):
            if not math.isfinite(ell):
                raise OverflowError(
                    f"polyline edge {k} from {verts[k]} to {verts[k + 1]} has a length that is not finite"
                )
        # shares of the longest edge: their sum cannot overflow as the lengths' can
        longest = max(lengths)
        scaled = [ell / longest for ell in lengths] if longest > 0.0 else lengths
        total = sum(scaled)
        budget = max(samples - 1, len(lengths))
        counts = []
        for ell in scaled:
            share = budget * (ell / total) if total > 0.0 else budget / len(lengths)
            counts.append(max(1, round(share)))
        # absorb rounding drift into the longest edge; should that leave it
        # under one interval, the edges with the most intervals make up the rest
        k = lengths.index(longest)
        counts[k] += budget - sum(counts)
        if counts[k] < 1:
            most = [(-n, i) for i, n in enumerate(counts) if i != k]
            heapq.heapify(most)
            for _ in range(1 - counts[k]):
                n, i = heapq.heappop(most)
                counts[i] -= 1
                heapq.heappush(most, (n + 1, i))
            counts[k] = 1
        return cls(_edge_samples(verts, counts))


def _edge_samples(vertices, counts) -> np.ndarray:
    """``vertices`` joined by ``counts[k]`` equal steps along edge ``k``.

    Step ``i`` of ``n`` from ``a`` to ``b`` is ``a + (b - a) * (i / n)`` per
    component, in that order because printed integrals show its rounding,
    and each edge ends exactly on its vertex.
    """
    z = np.empty(sum(counts) + 1, dtype=np.complex128)
    z[0] = vertices[0]
    end = 0
    with np.errstate(all="ignore"):
        for a, b, n in zip(vertices, vertices[1:], counts):
            t = np.arange(1, n + 1) / n
            z.real[end + 1 : end + n + 1] = a.re + (b.re - a.re) * t
            z.imag[end + 1 : end + n + 1] = a.fu + (b.fu - a.fu) * t
            end += n
            z[end] = b
    return z


def _evaluate(f: MapLike, z: np.ndarray) -> np.ndarray:
    """``f`` at every sample of ``z``, as a complex128 array.

    When ``f`` has a ``batch`` attribute, ``f.batch(z)`` returns all values
    at once, bit for bit those ``f`` gives.  Should it raise
    ``ArithmeticError`` or ``ValueError``, its result is dropped and ``f``
    is called once per sample, in order, so the error raised is the first
    one ``f`` raises; other exceptions propagate.  Real results embed as
    ``(x, 0)``.
    """
    batch = getattr(f, "batch", None)
    if batch is not None:
        try:
            with np.errstate(all="ignore"):
                return batch(z)
        except (ArithmeticError, ValueError):
            pass
    return np.fromiter(map(_as_complex, map(f, map(_wrap, z.tolist()))), np.complex128, len(z))


def contour_integral(f: MapLike, path: Path, scheme: str = "trapezoid") -> LcNumber:
    """Quadrature of ``f`` along the path.

    Per sampled interval the increment is ``mean(f) * dz`` with the mean
    taken by the trapezoid rule or, for ``scheme="simpson"``, Simpson's rule
    with the chord midpoint (exact midpoint for piecewise-linear paths).
    A plain callable ``f`` is called once per sample, then once per
    midpoint, each time with an ``LcNumber``; an ``f`` with a ``batch``
    attribute is evaluated over all samples, then all midpoints, in one
    array pass each, falling back to the calls when that pass raises (see
    ``_evaluate``).  The means and increments are array operations that
    round as the same ``LcNumber`` expressions would, scalars acting as
    ``(c, 0)``; components are accumulated with ``fsum`` to keep long paths
    clean.
    """
    if scheme not in ("trapezoid", "simpson"):
        raise ValueError(f"unknown quadrature scheme {scheme!r}")
    z = path.z
    values = _evaluate(f, z)
    re, im = values.real, values.imag
    left, right = (re[:-1], im[:-1]), (re[1:], im[1:])
    if scheme == "simpson":
        chord = np.empty(len(z) - 1, dtype=np.complex128)
        with np.errstate(all="ignore"):
            chord.real = 0.5 * (z.real[:-1] + z.real[1:])
            chord.imag = 0.5 * (z.imag[:-1] + z.imag[1:])
        mid = _evaluate(f, chord)
    with np.errstate(all="ignore"):
        if scheme == "trapezoid":
            mean = _prod(_sum(left, right), (0.5, 0.0))
        else:
            weighted = _sum(_sum(left, _prod((mid.real, mid.imag), (4.0, 0.0))), right)
            mean = _prod(weighted, (1.0 / 6.0, 0.0))
        inc_re, inc_im = _prod(mean, (np.diff(z.real), np.diff(z.imag)))
    return LcNumber(math.fsum(memoryview(inc_re)), math.fsum(memoryview(inc_im)))


def solve_linear_mapping_ode(
    b: LcNumber,
    f: MapLike | None,
    z0: LcNumber,
    w0: LcNumber,
    z: LcNumber,
    samples: int = 10001,
) -> LcNumber:
    """Mapping-valued solution of ``w' + b*w = f`` with ``w(z0) = w0``.

    Evaluates ``e^{-b(z - z0)} (w0 + integral of e^{b(zeta - z0)} f(zeta))``
    with the integral taken along the straight segment from ``z0`` to ``z``.
    ``f=None`` selects the homogeneous case and skips quadrature entirely.
    The exponential is taken over all samples in one array pass, and ``f``
    is called once per sample; should either raise, the samples are
    replayed one by one, calling ``f`` again, so the first error is the one
    the per-sample kernel raises.
    """
    decay = exp_rfa(-(b * (z - z0)))
    if f is None:
        return w0 * decay

    def kernel(zeta):
        return exp_rfa(b * (zeta - z0)) * f(zeta)

    def kernel_batch(zeta):
        scale = _exp(_prod((b.re, b.fu), _difference((zeta.real, zeta.imag), (z0.re, z0.fu))))
        values = _evaluate(f, zeta)
        return _join(*_prod(scale, (values.real, values.imag)))

    kernel.batch = kernel_batch
    integral = contour_integral(kernel, Path.segment(z0, z, samples))
    return decay * (w0 + integral)
