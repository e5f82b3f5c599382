"""Fuzzy curves, linear flows and two-dimensional fuzzy dynamics.

A curve ``w(t) = x(t) + y(t)*A`` differentiates and integrates
componentwise.  Linear initial value problems ``w' = lambda * w`` have the
closed-form rotation/dilation solution ``w0 * e^(lambda t)``; the same
problem posed with the cross product built from 1-levels has a repeated
eigenvalue and a secular closed form instead.  Any of these systems can be
"realified" into an ordinary real system on the coefficient vector,
integrated with a fixed-step 4th-order Runge-Kutta scheme and "fuzzified"
back.  The oscillator and predator-prey applications come with their
conserved quantities so trajectories can be audited.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .analytic import Path, _exp, _stencil, contour_integral, derivative_cr, log_rfa
from .core import BasisNumber, LcNumber, ONE, ZERO, _band_array, _cross_product_psi_parts, _each, _prod, norm_phi

__all__ = [
    "FuzzyCurve",
    "IntegrationAbort",
    "LinearParams",
    "LvParams",
    "METHODS",
    "OscillatorParams",
    "PROJECTIONS",
    "PhasePortrait",
    "SYSTEMS",
    "System",
    "Trajectory",
    "check_curve_chain_rule",
    "cross_product_psi",
    "curve_derivative",
    "curve_integral",
    "linearized_lv",
    "lv_conserved",
    "lv_equilibria",
    "matrix_field",
    "oscillator_invariant",
    "oscillator_matrix",
    "phase_portrait",
    "realify_linear",
    "realify_linear_psi",
    "realify_lotka_volterra",
    "realify_oscillator",
    "rk4_integrate",
    "simulate_system",
    "solve_linear_analytic",
    "solve_linear_psi_analytic",
    "system_record",
    "time_grid",
]

Field = Callable[[float, Sequence[float]], Sequence[float]]


class IntegrationAbort(ArithmeticError):
    """Raised when the integrator produces a non-finite state."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"integration aborted at t={t}: non-finite state")


# ---------------------------------------------------------------------------
# fuzzy curves

@dataclass(frozen=True)
class FuzzyCurve:
    """Time-parameterised element ``w(t) = x(t) + y(t)*A``."""

    x: Callable[[float], float]
    y: Callable[[float], float]
    domain: tuple[float, float] | None = None

    def __call__(self, t: float) -> LcNumber:
        if self.domain is not None and not self.domain[0] <= t <= self.domain[1]:
            raise ValueError(f"t={t} outside the curve domain {self.domain}")
        return LcNumber(self.x(t), self.y(t))

    def __add__(self, other: "FuzzyCurve") -> "FuzzyCurve":
        return FuzzyCurve(
            lambda t: self.x(t) + other.x(t),
            lambda t: self.y(t) + other.y(t),
            domain=self.domain,
        )

    def __mul__(self, other: "FuzzyCurve") -> "FuzzyCurve":
        return FuzzyCurve(
            lambda t: self.x(t) * other.x(t) - self.y(t) * other.y(t),
            lambda t: self.x(t) * other.y(t) + self.y(t) * other.x(t),
            domain=self.domain,
        )


def curve_derivative(w: FuzzyCurve, t0: float, h: float = 1e-5) -> LcNumber:
    """Componentwise central difference ``x'(t0) + y'(t0)*A``."""
    lo, hi, width = _stencil(h, t0, "t0")
    if w.domain is not None and not (w.domain[0] <= lo and hi <= w.domain[1]):
        raise ValueError(f"stencil [{lo}, {hi}] leaves the curve domain {w.domain}")
    return LcNumber((w.x(hi) - w.x(lo)) / width, (w.y(hi) - w.y(lo)) / width)


def curve_integral(w: FuzzyCurve, a: float, b: float, samples: int = 1001) -> LcNumber:
    """Componentwise quadrature ``(integral of x, integral of y)`` over [a, b].

    This is ``contour_integral``'s Simpson rule on the real segment from
    ``a`` to ``b`` with ``samples`` points: ``dz`` is real there, so the two
    components integrate apart.  ``w`` is called ``2*samples - 1`` times, at
    the samples and the interval midpoints.
    """
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    # checked once: a sample a + (b - a)*t may round one ulp past b
    if w.domain is not None and not (w.domain[0] <= a and b <= w.domain[1]):
        raise ValueError(f"interval [{a}, {b}] leaves the curve domain {w.domain}")
    path = Path.segment(LcNumber(a, 0.0), LcNumber(b, 0.0), samples)
    return contour_integral(lambda t: LcNumber(w.x(t.re), w.y(t.re)), path, "simpson")


def check_curve_chain_rule(f, w: FuzzyCurve, t0: float, h: float = 1e-5) -> float:
    """Residual of ``d/dt f(w(t))`` against ``f'(w(t0)) * w'(t0)``."""
    composed = FuzzyCurve(lambda t: f(w(t)).re, lambda t: f(w(t)).fu, domain=w.domain)
    lhs = curve_derivative(composed, t0, h)
    rhs = derivative_cr(f, w(t0), h).derivative * curve_derivative(w, t0, h)
    return norm_phi(lhs - rhs)


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class Trajectory:
    """Discrete solution record: times plus coefficient pairs per variable.

    ``coeffs`` holds one row per time with columns ``(re, fu)`` interleaved
    in the order of ``names``.  Alpha-level bands are attached on demand,
    with the alphas they were computed for.
    """

    times: np.ndarray
    names: tuple[str, ...]
    coeffs: np.ndarray
    alphas: tuple[float, ...] | None = None
    bands: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.times.size, 2 * len(self.names)):
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"{self.times.size} times x {len(self.names)} variables"
            )
        if self.times.size == 0:
            raise ValueError("a trajectory needs at least one time step")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)

    def component(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        k = self.names.index(name)
        return self.coeffs[:, 2 * k], self.coeffs[:, 2 * k + 1]

    def state(self, i: int) -> tuple[LcNumber, ...]:
        row = self.coeffs[i]
        return tuple(LcNumber(row[2 * k], row[2 * k + 1]) for k in range(len(self.names)))

    def states(self):
        return map(self.state, range(len(self)))

    def attach_bands(self, basis: BasisNumber, alphas) -> "Trajectory":
        """Attach the alpha-level bands of every variable at ``alphas``.

        A band edge that is not a finite double raises ``OverflowError``
        naming the variable, the alpha and the first such time.
        """
        alphas = tuple(float(a) for a in alphas)
        bands = {name: _band_array(*self.component(name), basis, alphas) for name in self.names}
        bad = [~np.isfinite(band) for band in bands.values()]
        if any(b.any() for b in bad):
            i, k, j, _ = np.argwhere(np.stack(bad, axis=1))[0]
            raise OverflowError(f"alpha-band of {self.names[k]} at alpha={alphas[j]} is not finite at t={self.times[i]}")
        self.alphas, self.bands = alphas, bands
        return self


# ---------------------------------------------------------------------------
# linear flow under the field product

@dataclass(frozen=True)
class LinearParams:
    """Rate and initial state of ``w' = lambda * w``."""

    lmbda: LcNumber
    w0: LcNumber


def realify_linear(lmbda: LcNumber) -> np.ndarray:
    """Real 2x2 generator of the flow; eigenvalues ``re +- i*fu``."""
    return np.array([[lmbda.re, -lmbda.fu], [lmbda.fu, lmbda.re]])


def solve_linear_analytic(params: LinearParams, ts) -> Trajectory:
    """Closed-form flow ``w(t) = w0 * e^(lambda t)`` on the given grid.

    Row ``i`` is ``w0 * exp_rfa(lambda*ts[i])`` bit for bit.  An
    ``e^(lambda t)`` or a product with ``w0`` that is not a finite double
    raises ``OverflowError`` with the first such time.
    """
    ts = np.asarray(ts, dtype=float)
    lam, w0 = params.lmbda, params.w0
    return _closed_form(ts, (lam.re, lam.fu), lambda: _prod((w0.re, w0.fu), _exp((lam.re * ts, lam.fu * ts))),
                        f"linear flow: e^(lambda*t) with lambda={lam}",
                        f"linear flow: w0*e^(lambda*t) with w0={w0}, lambda={lam}")


def _closed_form(ts: np.ndarray, rates: tuple, coeffs: Callable, growth: str, solution: str) -> Trajectory:
    """The trajectory of ``w`` with the columns ``coeffs()``, which grow by ``e^(rates[0]*t)``.

    ``OverflowError`` names the first time where that exponential or an
    angle ``rates[1:]*t`` is not a finite double after ``growth``, else the
    first time with a non-finite cell after ``solution``.
    """
    with np.errstate(all="ignore"):
        try:
            re, fu = coeffs()
        except (OverflowError, FloatingPointError):  # math.exp beyond the range, a non-finite modulus or angle
            re = fu = np.full(len(ts), np.nan)
    bad = ~(np.isfinite(re) & np.isfinite(fu))
    if not bad.any():
        return Trajectory(ts, ("w",), np.column_stack((re, fu)))
    for t in ts.tolist():
        try:
            if not (math.isfinite(math.exp(rates[0] * t)) and all(math.isfinite(r * t) for r in rates[1:])):
                raise OverflowError
        except OverflowError:
            raise OverflowError(f"{growth} overflows at t={t}") from None
    raise OverflowError(f"{solution} overflows at t={float(ts[np.argmax(bad)])}")


# ---------------------------------------------------------------------------
# linear flow under the cross product

def cross_product_psi(b: LcNumber, c: LcNumber, a1: float) -> LcNumber:
    """Cross product built from the operands' 1-levels.

    With ``a1`` the single point of the basis 1-level, the product expands
    to ``(rb*rc - a1^2*qb*qc) + (qb*(rc + qc*a1) + qc*(rb + qb*a1))*A``.
    """
    return LcNumber(*_cross_product_psi_parts((b.re, b.fu), (c.re, c.fu), a1))


def realify_linear_psi(lmbda: LcNumber, a1: float) -> np.ndarray:
    """Real generator of the cross-product flow; double eigenvalue re + a1*fu."""
    l1, l2 = lmbda.re, lmbda.fu
    return np.array([[l1, -a1 * a1 * l2], [l2, l1 + 2.0 * a1 * l2]])


def solve_linear_psi_analytic(params: LinearParams, a1: float, ts) -> Trajectory:
    """Closed-form cross-product flow on the given grid.

    For a basis centred at zero (``a1 = 0``) this reduces to the secular
    form ``x0*e^(l1 t) + (y0 + x0 t)*e^(l1 t)*A``, which involves only the
    real part of the rate; that branch is evaluated directly so the
    reduction is bitwise.  An exponential or a cell that is not a finite
    double raises ``OverflowError`` with the first such time.
    """
    ts = np.asarray(ts, dtype=float)
    l1, l2 = params.lmbda.re, params.lmbda.fu
    x0, y0 = params.w0.re, params.w0.fu
    rate = l1 if a1 == 0.0 else l1 + a1 * l2
    lead = x0 + a1 * y0

    def coeffs():
        growth = _each(math.exp, rate * ts)
        if a1 == 0.0:
            return x0 * growth, (y0 + x0 * ts) * growth
        return -a1 * y0 * growth + lead * growth * (1.0 - a1 * ts), y0 * growth + lead * growth * ts

    given = f"lambda={params.lmbda}, a1={a1}"
    return _closed_form(ts, (rate,), coeffs, f"linear_psi flow: e^((re + a1*fu)*t) with {given}",
                        f"linear_psi flow: the solution with w0={params.w0}, {given}")


# ---------------------------------------------------------------------------
# fixed-step integrator

def matrix_field(matrix) -> Field:
    """Autonomous linear field ``s' = M s`` over plain float tuples."""
    rows = [tuple(float(v) for v in row) for row in np.asarray(matrix)]

    def fieldfn(t: float, s: Sequence[float]):
        return tuple(sum(m * v for m, v in zip(row, s)) for row in rows)

    return fieldfn


def _grid(t_span, dt: float) -> tuple[np.ndarray, int]:
    """Grid times ``t0 + j*dt`` over ``t_span`` and the number of full ``dt`` steps.

    A span that is a whole number of steps (to a relative 1e-9) ends with
    a full step landing exactly on ``t1``; otherwise a shortened last step
    from the last full one reaches ``t1``.  ``j`` converts to a double
    exactly, so each time is one product and one sum, as in Python floats.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError(f"time span must be increasing, got [{t0}, {t1}]")
    span = t1 - t0
    n_full = int(round(span / dt))
    exact = n_full > 0 and abs(n_full * dt - span) <= 1e-9 * max(dt, span)
    if not exact:
        n_full = int(math.floor(span / dt))
    ts = t0 + np.arange(n_full + 1) * dt
    if exact or ts[-1] >= t1:
        ts[-1] = t1
    else:
        ts = np.append(ts, t1)
    return ts, n_full


def time_grid(t_span, dt: float) -> np.ndarray:
    """The grid every RK4 path steps along, for analytic solutions to share."""
    return _grid(t_span, dt)[0]


def rk4_integrate(fieldfn: Field, s0: Sequence[float], t_span, dt: float):
    """Classical 4th-order Runge-Kutta on the ``time_grid`` of the span.

    Returns ``(times, states)`` arrays; the last time lands exactly on the
    end of the span, reached by a shortened step where ``dt`` does not
    divide it.  A non-finite state aborts with the offending time.
    """
    ts, n_full = _grid(t_span, dt)
    s = tuple(float(v) for v in s0)
    states = [s] + _rk4_steps(fieldfn, s, ts, n_full, dt, range(len(ts) - 1))
    return ts, np.asarray(states)


def _rk4_steps(fieldfn: Field, s: tuple, ts: np.ndarray, n_full: int, dt: float, steps: range) -> list:
    """Stage-by-stage RK4 over grid ``steps`` from the state ``s`` at ``ts[steps[0]]``.

    Step ``j`` goes from ``ts[j]`` to ``ts[j + 1]``, by ``dt`` for the
    first ``n_full`` steps and by the remainder of the span after them.
    The field sees the times as Python floats.
    """
    ts = ts.tolist()
    idx = range(len(s))
    states = []
    for j in steps:
        t = ts[j]
        h = dt if j < n_full else ts[-1] - t
        k1 = fieldfn(t, s)
        s2 = tuple(s[i] + 0.5 * h * k1[i] for i in idx)
        k2 = fieldfn(t + 0.5 * h, s2)
        s3 = tuple(s[i] + 0.5 * h * k2[i] for i in idx)
        k3 = fieldfn(t + 0.5 * h, s3)
        s4 = tuple(s[i] + h * k3[i] for i in idx)
        k4 = fieldfn(t + h, s4)
        s = tuple(s[i] + (h / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in idx)
        for v in s:
            if not math.isfinite(v):
                raise IntegrationAbort(ts[j + 1])
        states.append(s)
    return states


# steps per block of the linear propagator: P^1 .. P^_BLOCK are stacked once
_BLOCK = 256


def _rk4_polynomial(x: np.ndarray) -> np.ndarray:
    """RK4's stability function ``I + x + x^2/2 + x^3/6 + x^4/24``, by Horner."""
    eye = np.eye(len(x))
    return eye + x @ (eye + x @ (eye + x @ (eye + x / 4.0) / 3.0) / 2.0)


def _rk4_linear(matrix, s0: Sequence[float], t_span, dt: float):
    """``rk4_integrate`` on the linear field ``s' = M s``, as propagator powers.

    One classical RK4 step of length ``h`` maps ``s`` to ``P(hM) s`` exactly,
    so each block of up to ``_BLOCK`` states is one ``np.longdouble``
    product of the stacked powers of ``P(dt M)`` with the block's start
    state, stored as float64; its last long double row starts the next
    block, so round-off does not build up.  A ragged last step is one
    product with ``P(h_last M)``.  numpy multiplies long doubles in its own
    loops, not in BLAS or SIMD kernels, so the states depend on the long
    double format, not on the CPU.  A block that comes out non-finite is
    replayed stage by stage from its start, so an overflow aborts at the
    same grid time as ``rk4_integrate``.
    """
    ts, n_full = _grid(t_span, dt)
    m = np.asarray(matrix, dtype=np.longdouble)
    states = np.empty((len(ts), len(m)))
    states[0] = s0
    start = states[0].astype(np.longdouble)

    def advance(a: int, b: int, powers: np.ndarray) -> None:
        nonlocal start
        block, product = states[a + 1:b + 1], powers @ start
        block[:], start = product, product[-1]
        if not np.isfinite(block).all():
            block[:] = _rk4_steps(matrix_field(m), tuple(states[a].tolist()), ts, n_full, dt, range(a, b))
            start = block[-1].astype(np.longdouble)

    with np.errstate(all="ignore"):
        count = min(_BLOCK, n_full)
        if count:
            powers = np.empty((count, len(m), len(m)), dtype=np.longdouble)
            powers[0] = _rk4_polynomial(dt * m)
            k = 1
            while k < count:  # P^(i+1+k) = P^(i+1) P^k, doubling the stack
                n = min(k, count - k)
                np.matmul(powers[:n], powers[k - 1], out=powers[k:k + n])
                k += n
            for a in range(0, n_full, _BLOCK):
                b = min(a + _BLOCK, n_full)
                advance(a, b, powers[:b - a])
        if len(ts) - 1 > n_full:
            advance(n_full, n_full + 1, _rk4_polynomial((ts[-1] - ts[n_full]) * m)[None])
    return ts, states


# ---------------------------------------------------------------------------
# oscillator

@dataclass(frozen=True)
class OscillatorParams:
    """Initial pair for ``x' = -c1*y, y' = c2*x`` (plain oscillator: c1=c2=1)."""

    x0: LcNumber
    y0: LcNumber
    c1: LcNumber = ONE
    c2: LcNumber = ONE


def realify_oscillator(params: OscillatorParams) -> Field:
    """The four-component real system on ``(r, s, p, q)``.

    The state is the coefficient vector of the pair ``x = r + p*A``,
    ``y = s + q*A``: both real parts, then both fuzzy coefficients.
    """
    c1r, c1f = params.c1.re, params.c1.fu
    c2r, c2f = params.c2.re, params.c2.fu

    def fieldfn(t: float, state: Sequence[float]):
        r, s, p, q = state
        return (
            -(c1r * s - c1f * q),
            c2r * r - c2f * p,
            -(c1r * q + c1f * s),
            c2r * p + c2f * r,
        )

    return fieldfn


def oscillator_matrix(params: OscillatorParams) -> np.ndarray:
    """Real 4x4 generator of the oscillator on ``(r, s, p, q)``.

    The matrix of the linear field ``realify_oscillator`` evaluates.
    """
    c1r, c1f = params.c1.re, params.c1.fu
    c2r, c2f = params.c2.re, params.c2.fu
    return np.array(
        [
            [0.0, -c1r, 0.0, c1f],
            [c2r, 0.0, -c2f, 0.0],
            [0.0, -c1f, 0.0, -c1r],
            [c2f, 0.0, c2r, 0.0],
        ]
    )


def oscillator_invariant(x: LcNumber, y: LcNumber) -> LcNumber:
    """The conserved combination ``x*x + y*y`` of the plain oscillator.

    Componentwise this is ``(r^2 + s^2) - (p^2 + q^2)`` and ``2(rp + sq)``.
    """
    return x * x + y * y


# ---------------------------------------------------------------------------
# predator-prey

@dataclass(frozen=True)
class LvParams:
    """Fuzzy growth/death/predation/conversion rates plus initial populations."""

    alpha: LcNumber
    beta: LcNumber
    a: LcNumber
    b: LcNumber
    x0: LcNumber
    y0: LcNumber


def realify_lotka_volterra(params: LvParams) -> Field:
    """The four-component real system on ``(r, s, p, q)``.

    The state is the coefficient vector of the pair ``x = r + p*A``,
    ``y = s + q*A``: both real parts, then both fuzzy coefficients.  The
    fuzzy predator-prey equations ``x' = x*(alpha - a*y)`` and
    ``y' = y*(b*x - beta)`` evaluated in complex arithmetic on the pairs
    ``x = r + p*i`` and ``y = s + q*i``, which is the field product.
    """
    alpha, beta, a, b = (complex(z.re, z.fu) for z in (params.alpha, params.beta, params.a, params.b))

    def fieldfn(t: float, state: Sequence[float]):
        r, s, p, q = state
        x, y = complex(r, p), complex(s, q)
        dx, dy = x * (alpha - a * y), y * (b * x - beta)
        return (dx.real, dy.real, dx.imag, dy.imag)

    return fieldfn


def _rk4_lotka_volterra(params: LvParams, t_span, dt: float):
    """``rk4_integrate`` on ``realify_lotka_volterra(params)``, on the complex pair.

    The stages run on ``x`` and ``y`` as complex locals.  A real step times
    a complex value rounds like the generic step's per-component products,
    so the states are bit-identical.  The states come back as rows
    ``(x.re, x.fu, y.re, y.fu)``, the column order of ``Trajectory``.  A
    non-finite state aborts with the first offending grid time.
    """
    ts, n_full = _grid(t_span, dt)
    alpha, beta, a, b = (complex(z.re, z.fu) for z in (params.alpha, params.beta, params.a, params.b))
    x, y = complex(params.x0.re, params.x0.fu), complex(params.y0.re, params.y0.fu)
    xs, ys = [x], [y]
    append_x, append_y = xs.append, ys.append
    # the full steps, then the shortened last one where dt does not divide the span;
    # h stays a Python float, so the stages stay Python complex arithmetic
    for h, steps in ((dt, n_full), (float(ts[-1] - ts[n_full]), len(ts) - 1 - n_full)):
        hh, h6 = 0.5 * h, h / 6.0
        for _ in range(steps):
            k1x, k1y = x * (alpha - a * y), y * (b * x - beta)
            x2, y2 = x + hh * k1x, y + hh * k1y
            k2x, k2y = x2 * (alpha - a * y2), y2 * (b * x2 - beta)
            x3, y3 = x + hh * k2x, y + hh * k2y
            k3x, k3y = x3 * (alpha - a * y3), y3 * (b * x3 - beta)
            x4, y4 = x + h * k3x, y + h * k3y
            k4x, k4y = x4 * (alpha - a * y4), y4 * (b * x4 - beta)
            x = x + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
            y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
            append_x(x)
            append_y(y)
    states = np.empty((len(xs), 2), complex)
    states[:, 0], states[:, 1] = xs, ys
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise IntegrationAbort(float(ts[np.argmax(bad)]))
    return ts, states.view(float)


def lv_equilibria(params: LvParams):
    """The trivial equilibrium and the coexistence point ``(beta/b, alpha/a)``."""
    return ((ZERO, ZERO), (params.beta / params.b, params.alpha / params.a))


def lv_conserved(params: LvParams, x: LcNumber, y: LcNumber) -> LcNumber:
    """First integral ``alpha*ln y - a*y + beta*ln x - b*x``.

    Constant along exact trajectories.  Certified only while both
    populations keep a positive real part that dominates the fuzzy
    coefficient (principal logarithms stay in the right half plane);
    outside that region a value is still returned but flagged.
    """
    for z in (x, y):
        if not (z.re > 0.0 and abs(z.fu) < z.re):
            warnings.warn(
                "first integral evaluated outside its certified region "
                f"(state {z!r}); value has reduced trust",
                RuntimeWarning,
                stacklevel=2,
            )
            break
    return (
        params.alpha * log_rfa(y, 0)
        - params.a * y
        + params.beta * log_rfa(x, 0)
        - params.b * x
    )


def linearized_lv(params: LvParams) -> OscillatorParams:
    """Oscillator coefficients of the predator-prey linearisation.

    Around the coexistence point the deviations follow ``u' = -(a*beta/b)*v``
    and ``v' = (b*alpha/a)*u``, so the linearised model runs on the
    oscillator path with those coefficients and deviation initial data.
    """
    eq_x = params.beta / params.b
    eq_y = params.alpha / params.a
    return OscillatorParams(
        x0=params.x0 - eq_x,
        y0=params.y0 - eq_y,
        c1=params.a * params.beta / params.b,
        c2=params.b * params.alpha / params.a,
    )


# ---------------------------------------------------------------------------
# front door

METHODS = ("auto", "rk4")
PROJECTIONS = ("x-vs-s", "r-vs-y")


@dataclass(frozen=True)
class System:
    """One system class: its names, its config entries and how it runs.

    ``entries`` is the ``(section, key)`` config entry of each ``params``
    field, in field order; the ``"initial"`` keys name the trajectory's
    variables.  A linear class has ``generator(params, a1)``, its field's
    real matrix on every real part, then every fuzzy coefficient;
    ``rk4(params, t_span, dt)`` runs any other in ``Trajectory`` order.  Only
    ``closed_form(params, a1, ts)`` looks its solver up as a module global.
    """

    name: str
    aliases: tuple[str, ...]
    params: type
    entries: tuple[tuple[str, str], ...]
    generator: Callable | None = None
    rk4: Callable | None = None
    closed_form: Callable | None = None
    needs_a1: bool = False

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(key for section, key in self.entries if section == "initial")


SYSTEMS = {system.name: system for system in (
    System("linear", (), LinearParams, (("params", "lambda"), ("initial", "w")),
           generator=lambda p, a1: realify_linear(p.lmbda), closed_form=lambda p, a1, ts: solve_linear_analytic(p, ts)),
    System("linear_psi", ("linear-psi",), LinearParams, (("params", "lambda"), ("initial", "w")),
           generator=lambda p, a1: realify_linear_psi(p.lmbda, a1),
           closed_form=lambda p, a1, ts: solve_linear_psi_analytic(p, a1, ts), needs_a1=True),
    System("oscillator", (), OscillatorParams, (("initial", "x"), ("initial", "y"), ("params", "c1"), ("params", "c2")),
           generator=lambda p, a1: oscillator_matrix(p)),
    System("lotka_volterra", ("lv", "lotka-volterra"), LvParams,
           tuple(("params", key) for key in ("alpha", "beta", "a", "b")) + (("initial", "x"), ("initial", "y")),
           rk4=_rk4_lotka_volterra),
)}


def system_record(system) -> System:
    """The record of a system name or one of its aliases."""
    for record in SYSTEMS.values():
        if isinstance(system, str) and system in (record.name, *record.aliases):
            return record
    raise ValueError(f"unknown system {system!r}")


def simulate_system(
    system: str,
    params,
    t_span,
    dt: float = 1e-3,
    method: str = "auto",
    basis: BasisNumber | None = None,
) -> Trajectory:
    """Run the system named ``system`` (or an alias) and return its trajectory.

    ``linear`` and ``linear_psi`` default to their closed forms
    (``method="rk4"`` integrates the realified system instead); the
    oscillator and predator-prey systems always integrate.  RK4 runs as
    powers of the step propagator of the record's ``generator``, or as
    predator-prey's loop over the complex pair ``(x, y)``; both follow the
    grid and the abort rule of ``rk4_integrate``.  Bands are attached
    afterwards, with ``Trajectory.attach_bands``.  ``linear_psi`` reads the
    single point ``a1`` of its 1-level from ``basis``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    record = system_record(system)
    if record.needs_a1 and basis is None:
        raise ValueError(f"{system} needs a basis with a single-point 1-level")
    a1 = basis.one_level_value() if record.needs_a1 else None
    if method == "rk4" or record.closed_form is None:
        if record.generator is None:
            times, states = record.rk4(params, t_span, dt)
        else:  # the state is every real part, then every fuzzy coefficient
            start = [getattr(params, f.name) for f, (sec, _) in zip(fields(params), record.entries) if sec == "initial"]
            s0 = np.array(start, dtype=complex)
            times, states = _rk4_linear(record.generator(params, a1), np.r_[s0.real, s0.imag], t_span, dt)
            states = states.reshape(len(times), 2, -1).swapaxes(1, 2).reshape(len(times), -1)
        return Trajectory(times, record.variables, states)
    return record.closed_form(params, a1, time_grid(t_span, dt))


@dataclass
class PhasePortrait:
    """Phase-plane data: one crisp coordinate against one banded coordinate."""

    crisp_label: str
    fuzzy_label: str
    crisp: np.ndarray
    bands: np.ndarray


def phase_portrait(traj: Trajectory, projection: str) -> PhasePortrait:
    """Project a two-variable trajectory and its attached bands onto the phase plane.

    ``"x-vs-s"`` takes the alpha-bands of the first variable against the
    real part of the second; ``"r-vs-y"`` the other way round.  The bands are
    the ones ``Trajectory.attach_bands`` attached, not a copy; a crisp fuzzy
    coordinate has bands whose edges coincide.
    """
    if len(traj.names) != 2:
        raise ValueError("phase portraits need a two-variable trajectory")
    if projection not in PROJECTIONS:
        raise ValueError(f"unknown projection {projection!r}")
    if traj.bands is None:
        raise ValueError("phase portraits project the attached bands; call attach_bands first")
    fuzzy_name, crisp_name = traj.names if projection == PROJECTIONS[0] else traj.names[::-1]
    return PhasePortrait(
        crisp_label=crisp_name,
        fuzzy_label=fuzzy_name,
        crisp=traj.component(crisp_name)[0],
        bands=traj.bands[fuzzy_name],
    )
