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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import simpson

from .analytic import derivative_cr, exp_rfa, log_rfa
from .core import BasisNumber, LcNumber, ONE, ZERO, norm_phi

__all__ = [
    "FuzzyCurve",
    "IntegrationAbort",
    "LinearParams",
    "LvParams",
    "OscillatorParams",
    "PhasePortrait",
    "Trajectory",
    "check_curve_chain_rule",
    "cross_product_psi",
    "curve_derivative",
    "curve_integral",
    "fuzzify_pair",
    "fuzzify_single",
    "linearized_lv",
    "lv_conserved",
    "lv_equilibria",
    "matrix_field",
    "oscillator_invariant",
    "phase_portrait",
    "realify_linear",
    "realify_linear_psi",
    "realify_lotka_volterra",
    "realify_oscillator",
    "realify_pair",
    "realify_single",
    "rk4_integrate",
    "simulate_system",
    "solve_linear_analytic",
    "solve_linear_psi_analytic",
]

Field = Callable[[float, Sequence[float]], Sequence[float]]


class IntegrationAbort(ArithmeticError):
    """Raised when the integrator produces a non-finite state."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"integration aborted at t={t}: non-finite state")


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
        def re_part(t):
            return self.x(t) * other.x(t) - self.y(t) * other.y(t)

        def fu_part(t):
            return self.x(t) * other.y(t) + self.y(t) * other.x(t)

        return FuzzyCurve(re_part, fu_part, domain=self.domain)


def curve_derivative(w: FuzzyCurve, t0: float, h: float = 1e-5) -> LcNumber:
    """Componentwise central difference ``x'(t0) + y'(t0)*A``."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be finite and positive, got {h}")
    if w.domain is not None and not (w.domain[0] <= t0 - h and t0 + h <= w.domain[1]):
        raise ValueError(f"stencil [{t0 - h}, {t0 + h}] leaves the curve domain {w.domain}")
    inv = 0.5 / h
    return LcNumber((w.x(t0 + h) - w.x(t0 - h)) * inv, (w.y(t0 + h) - w.y(t0 - h)) * inv)


def curve_integral(w: FuzzyCurve, a: float, b: float, samples: int = 1001) -> LcNumber:
    """Componentwise quadrature ``(integral of x, integral of y)`` over [a, b]."""
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    ts = np.linspace(a, b, samples)
    xs = np.array([w.x(t) for t in ts])
    ys = np.array([w.y(t) for t in ts])
    return LcNumber(float(simpson(xs, x=ts)), float(simpson(ys, x=ts)))


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
    in the order of ``names``.  Alpha-level bands are attached on demand.
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
        for i in range(len(self)):
            yield self.state(i)

    def attach_bands(self, basis: BasisNumber, alphas) -> "Trajectory":
        alphas = tuple(float(a) for a in alphas)
        bands: dict[str, np.ndarray] = {}
        for name in self.names:
            re, fu = self.component(name)
            bands[name] = _band_array(re, fu, basis, alphas)
        self.alphas = alphas
        self.bands = bands
        return self


def _band_array(re: np.ndarray, fu: np.ndarray, basis: BasisNumber, alphas) -> np.ndarray:
    out = np.empty((re.size, len(alphas), 2))
    for j, alpha in enumerate(alphas):
        lo, hi = basis.level(alpha)
        e1 = fu * lo
        e2 = fu * hi
        out[:, j, 0] = re + np.minimum(e1, e2)
        out[:, j, 1] = re + np.maximum(e1, e2)
    return out


def realify_single(w: LcNumber) -> tuple[float, float]:
    return (w.re, w.fu)


def fuzzify_single(state: Sequence[float]) -> LcNumber:
    return LcNumber(state[0], state[1])


def realify_pair(x: LcNumber, y: LcNumber) -> tuple[float, float, float, float]:
    """Coefficient vector ``(r, s, p, q)`` of the pair ``x = r + pA, y = s + qA``."""
    return (x.re, y.re, x.fu, y.fu)


def fuzzify_pair(state: Sequence[float]) -> tuple[LcNumber, LcNumber]:
    r, s, p, q = state
    return LcNumber(r, p), LcNumber(s, q)


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
    """Closed-form flow ``w(t) = w0 * e^(lambda t)`` on the given grid."""
    ts = np.asarray(ts, dtype=float)
    lam, w0 = params.lmbda, params.w0
    coeffs = np.empty((ts.size, 2))
    for i, t in enumerate(ts):
        w = w0 * exp_rfa(LcNumber(lam.re * t, lam.fu * t))
        coeffs[i, 0] = w.re
        coeffs[i, 1] = w.fu
    return Trajectory(ts, ("w",), coeffs)


# ---------------------------------------------------------------------------
# linear flow under the cross product

def cross_product_psi(b: LcNumber, c: LcNumber, a1: float) -> LcNumber:
    """Cross product built from the operands' 1-levels.

    With ``a1`` the single point of the basis 1-level, the product expands
    to ``(rb*rc - a1^2*qb*qc) + (qb*(rc + qc*a1) + qc*(rb + qb*a1))*A``.
    """
    rb, qb = b.re, b.fu
    rc, qc = c.re, c.fu
    return LcNumber(
        rb * rc - a1 * a1 * qc * qb,
        qb * (rc + qc * a1) + qc * (rb + qb * a1),
    )


def realify_linear_psi(lmbda: LcNumber, a1: float) -> np.ndarray:
    """Real generator of the cross-product flow; double eigenvalue re + a1*fu."""
    l1, l2 = lmbda.re, lmbda.fu
    return np.array([[l1, -a1 * a1 * l2], [l2, l1 + 2.0 * a1 * l2]])


def solve_linear_psi_analytic(params: LinearParams, a1: float, ts) -> Trajectory:
    """Closed-form cross-product flow on the given grid.

    For a basis centred at zero (``a1 = 0``) this reduces to the secular
    form ``x0*e^(l1 t) + (y0 + x0 t)*e^(l1 t)*A``, which involves only the
    real part of the rate; that branch is evaluated directly so the
    reduction is bitwise.
    """
    ts = np.asarray(ts, dtype=float)
    l1, l2 = params.lmbda.re, params.lmbda.fu
    x0, y0 = params.w0.re, params.w0.fu
    coeffs = np.empty((ts.size, 2))
    if a1 == 0.0:
        for i, t in enumerate(ts):
            growth = math.exp(l1 * t)
            coeffs[i, 0] = x0 * growth
            coeffs[i, 1] = (y0 + x0 * t) * growth
    else:
        mu = l1 + a1 * l2
        lead = x0 + a1 * y0
        for i, t in enumerate(ts):
            growth = math.exp(mu * t)
            coeffs[i, 0] = -a1 * y0 * growth + lead * growth * (1.0 - a1 * t)
            coeffs[i, 1] = y0 * growth + lead * growth * t
    return Trajectory(ts, ("w",), coeffs)


# ---------------------------------------------------------------------------
# fixed-step integrator

def matrix_field(matrix) -> Field:
    """Autonomous linear field ``s' = M s`` over plain float tuples."""
    rows = [tuple(float(v) for v in row) for row in np.asarray(matrix)]

    def fieldfn(t: float, s: Sequence[float]):
        return tuple(sum(m * v for m, v in zip(row, s)) for row in rows)

    return fieldfn


def _grid(t_span, dt: float) -> tuple[list[float], int]:
    """Grid times over ``t_span`` and the number of full ``dt`` steps.

    A span that is a whole number of steps (to a relative 1e-9) ends with
    a full step landing exactly on ``t1``; otherwise a shortened last step
    from the last full one reaches ``t1``.
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
    ts = [t0 + j * dt for j in range(n_full + 1)]
    if exact or ts[-1] >= t1:
        ts[-1] = t1
    else:
        ts.append(t1)
    return ts, n_full


def time_grid(t_span, dt: float) -> np.ndarray:
    """The grid rk4_integrate visits, for analytic solutions to share."""
    return np.asarray(_grid(t_span, dt)[0])


def rk4_integrate(fieldfn: Field, s0: Sequence[float], t_span, dt: float):
    """Classical 4th-order Runge-Kutta on the ``time_grid`` of the span.

    Returns ``(times, states)`` arrays; the last time lands exactly on the
    end of the span, reached by a shortened step where ``dt`` does not
    divide it.  A non-finite state aborts with the offending time.
    """
    ts, n_full = _grid(t_span, dt)
    s = tuple(float(v) for v in s0)
    idx = range(len(s))
    states = [s]

    def step(t, s, h):
        k1 = fieldfn(t, s)
        s2 = tuple(s[i] + 0.5 * h * k1[i] for i in idx)
        k2 = fieldfn(t + 0.5 * h, s2)
        s3 = tuple(s[i] + 0.5 * h * k2[i] for i in idx)
        k3 = fieldfn(t + 0.5 * h, s3)
        s4 = tuple(s[i] + h * k3[i] for i in idx)
        k4 = fieldfn(t + h, s4)
        return tuple(s[i] + (h / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in idx)

    for j in range(len(ts) - 1):
        s = step(ts[j], s, dt if j < n_full else ts[-1] - ts[j])
        for v in s:
            if not math.isfinite(v):
                raise IntegrationAbort(ts[j + 1])
        states.append(s)
    return np.asarray(ts), np.asarray(states)


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

    This is the coefficient expansion of the fuzzy predator-prey equations;
    it agrees with evaluating them through the field product directly.
    """
    g_r, g_f = params.alpha.re, params.alpha.fu
    d_r, d_f = params.beta.re, params.beta.fu
    a_r, a_f = params.a.re, params.a.fu
    b_r, b_f = params.b.re, params.b.fu

    def fieldfn(t: float, state: Sequence[float]):
        r, s, p, q = state
        return (
            r * (g_r - a_r * s + a_f * q) + p * (-g_f + a_r * q + a_f * s),
            s * (-d_r + b_r * r - b_f * p) + q * (d_f - b_r * p - b_f * r),
            p * (g_r - a_r * s + a_f * q) + r * (g_f - a_r * q - a_f * s),
            q * (-d_r + b_r * r - b_f * p) + s * (-d_f + b_r * p + b_f * r),
        )

    return fieldfn


def lv_equilibria(params: LvParams):
    """The trivial equilibrium and the coexistence point ``(beta/b, alpha/a)``."""
    p2 = (params.beta / params.b, params.alpha / params.a)
    return ((ZERO, ZERO), p2)


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

def simulate_system(
    system: str,
    params,
    t_span,
    dt: float = 1e-3,
    method: str = "auto",
    a1: float | None = None,
    basis: BasisNumber | None = None,
    alphas=None,
) -> Trajectory:
    """Run one of the supported systems and return its trajectory.

    ``linear`` and ``linear_psi`` default to their closed forms
    (``method="rk4"`` integrates the realified system instead); the
    oscillator and predator-prey systems always integrate.  Alpha-level
    bands are attached when both ``basis`` and ``alphas`` are given.
    ``linear_psi`` needs the basis 1-level, either as ``a1`` or via the
    basis.
    """
    if method not in ("auto", "analytic", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if system == "linear":
        if method in ("auto", "analytic"):
            traj = solve_linear_analytic(params, time_grid(t_span, dt))
        else:
            times, states = rk4_integrate(
                matrix_field(realify_linear(params.lmbda)),
                realify_single(params.w0),
                t_span,
                dt,
            )
            traj = Trajectory(times, ("w",), states)
    elif system == "linear_psi":
        if a1 is None:
            if basis is None:
                raise ValueError("linear_psi needs a1 or a basis with a singleton 1-level")
            a1 = basis.one_level_value()
        if method in ("auto", "analytic"):
            traj = solve_linear_psi_analytic(params, a1, time_grid(t_span, dt))
        else:
            times, states = rk4_integrate(
                matrix_field(realify_linear_psi(params.lmbda, a1)),
                realify_single(params.w0),
                t_span,
                dt,
            )
            traj = Trajectory(times, ("w",), states)
    elif system == "oscillator":
        if method == "analytic":
            raise ValueError("the oscillator has no analytic path here; use rk4")
        times, states = rk4_integrate(
            realify_oscillator(params), realify_pair(params.x0, params.y0), t_span, dt
        )
        traj = Trajectory(times, ("x", "y"), states[:, (0, 2, 1, 3)])
    elif system == "lotka_volterra":
        if method == "analytic":
            raise ValueError("the predator-prey system has no analytic path; use rk4")
        times, states = rk4_integrate(
            realify_lotka_volterra(params), realify_pair(params.x0, params.y0), t_span, dt
        )
        traj = Trajectory(times, ("x", "y"), states[:, (0, 2, 1, 3)])
    else:
        raise ValueError(f"unknown system {system!r}")
    if basis is not None and alphas is not None:
        traj.attach_bands(basis, alphas)
    return traj


@dataclass
class PhasePortrait:
    """Phase-plane data: one crisp coordinate against one banded coordinate."""

    times: np.ndarray
    crisp_label: str
    fuzzy_label: str
    crisp: np.ndarray
    bands: np.ndarray
    alphas: tuple[float, ...]


def phase_portrait(traj: Trajectory, projection: str, basis: BasisNumber, alphas) -> PhasePortrait:
    """Project a two-variable trajectory onto the phase plane.

    ``"x-vs-s"`` renders the first variable as alpha-bands against the real
    part of the second; ``"r-vs-y"`` the other way round.  A crisp fuzzy
    coordinate degenerates to a plain point series.
    """
    if len(traj.names) != 2:
        raise ValueError("phase portraits need a two-variable trajectory")
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    alphas = tuple(float(a) for a in alphas)
    x_name, y_name = traj.names
    if projection == "x-vs-s":
        fuzzy_name, crisp_name = x_name, y_name
    elif projection == "r-vs-y":
        fuzzy_name, crisp_name = y_name, x_name
    else:
        raise ValueError(f"unknown projection {projection!r}")
    f_re, f_fu = traj.component(fuzzy_name)
    c_re, _ = traj.component(crisp_name)
    return PhasePortrait(
        times=traj.times,
        crisp_label=crisp_name,
        fuzzy_label=fuzzy_name,
        crisp=c_re,
        bands=_band_array(f_re, f_fu, basis, alphas),
        alphas=alphas,
    )
