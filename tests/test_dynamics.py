import cmath
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import rfa
from rfa import (
    BasisNumber,
    FuzzyCurve,
    IntegrationAbort,
    LcNumber,
    LinearParams,
    LvParams,
    OscillatorParams,
    Trajectory,
    cross_product_psi,
    curve_derivative,
    curve_integral,
    exp_rfa,
    linearized_lv,
    lv_conserved,
    lv_equilibria,
    norm_phi,
    oscillator_invariant,
    phase_portrait,
    realify_linear,
    realify_linear_psi,
    realify_lotka_volterra,
    rk4_integrate,
    simulate_system,
    solve_linear_analytic,
    solve_linear_psi_analytic,
)
from rfa.analytic import derivative_cr
from rfa.dynamics import (
    SYSTEMS,
    check_curve_chain_rule,
    matrix_field,
    oscillator_matrix,
    realify_oscillator,
    time_grid,
)
from rfa.cli import PRESETS, preset_config, run_scenario
from helpers import as_complex, assert_components, assert_matches_complex

DECAY_BASIS = BasisNumber.triangular(-0.5, 0, 0.51)
# its 1-level is the point a1 = 0.3
ONE_LEVEL_03 = BasisNumber.triangular(-1.0, 0.3, 1.0)


def lv_paper_params() -> LvParams:
    return LvParams(
        alpha=LcNumber(0.25, 0.001),
        beta=LcNumber(0.18, 0.003),
        a=LcNumber(0.01, 0),
        b=LcNumber(0.007, 0),
        x0=LcNumber(100, 5),
        y0=LcNumber(30, 2),
    )


# ---------------------------------------------------------------------------
# curves

def test_curve_derivative_examples():
    w = FuzzyCurve(lambda t: t, lambda t: t * t)
    assert norm_phi(curve_derivative(w, 1.0) - LcNumber(1, 2)) < 1e-9
    const = FuzzyCurve(lambda t: 4.0, lambda t: -1.0)
    assert curve_derivative(const, 0.3) == LcNumber(0, 0)
    spiral = FuzzyCurve(lambda t: math.cos(t), lambda t: math.sin(t))
    assert norm_phi(curve_derivative(spiral, 0.0) - LcNumber(0, 1)) < 1e-9


def test_curve_derivative_domain():
    w = FuzzyCurve(lambda t: t, lambda t: t, domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        curve_derivative(w, 1.0, h=1e-3)


def test_curves_add_componentwise_and_are_called_inside_their_domain():
    w = FuzzyCurve(lambda t: t, lambda t: 2 * t, domain=(0.0, 1.0))
    assert (w + w)(0.5) == LcNumber(1.0, 2.0)
    with pytest.raises(ValueError, match=r"t=2.0 outside the curve domain \(0.0, 1.0\)"):
        w(2.0)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_derivative_steps_must_be_finite_and_positive(h):
    with pytest.raises(ValueError, match="finite and positive"):
        curve_derivative(FuzzyCurve(lambda t: t, lambda t: t), 1.0, h=h)
    with pytest.raises(ValueError, match="finite and positive"):
        derivative_cr(lambda z: z, LcNumber(1, 0), h=h)


@pytest.mark.parametrize(
    "derive, centre",
    [
        (lambda f: derivative_cr(f, LcNumber(1e17, 0)), "x0=1e+17"),
        (lambda f: derivative_cr(f, LcNumber(1e308, 0)), "x0=1e+308"),
        (lambda f: derivative_cr(f, LcNumber(3, 1e17)), "y0=1e+17"),
        (lambda f: curve_derivative(FuzzyCurve(f, f), 1e300), "t0=1e+300"),
    ],
    ids=["x0", "x0-near-max", "y0", "t0"],
)
def test_a_step_lost_in_rounding_is_refused(derive, centre):
    # both stencil points round to the centre, which would read a derivative of 0
    calls = []
    name = centre.partition("=")[0]
    message = f"step h=1e-05 is lost at {centre}: {name} + h and {name} - h round to the same double"
    with pytest.raises(ValueError, match=re.escape(message)):
        derive(lambda v: calls.append(v) or v)
    assert calls == []


@pytest.mark.parametrize(
    "derive, step, centre",
    [
        (lambda f: derivative_cr(f, LcNumber(1, 0), 1e308), 1e308, "x0=1.0"),
        (lambda f: derivative_cr(f, LcNumber(0, 1.7e308), 1e307), 1e307, "y0=1.7e+308"),
        (lambda f: curve_derivative(FuzzyCurve(f, f), -1e308, 1e308), 1e308, "t0=-1e+308"),
    ],
    ids=["x0", "y0-near-max", "t0"],
)
def test_a_step_whose_width_overflows_is_refused(derive, step, centre):
    # (c + h) - (c - h) is not finite, so every partial would read nan or 0
    calls = []
    name = centre.partition("=")[0]
    message = f"step h={step} overflows at {centre}: ({name} + h) - ({name} - h) is inf"
    with pytest.raises(ValueError, match=re.escape(message)):
        derive(lambda v: calls.append(v) or v)
    assert calls == []


def test_a_step_a_few_ulps_wide_gives_a_linear_map_its_slope():
    # the stencil's points round to a width other than 2*h, which divides each difference
    assert curve_derivative(FuzzyCurve(lambda t: t, lambda t: 2 * t), 1e11) == LcNumber(1, 2)
    for f, z0, slope in [(lambda z: z, LcNumber(1e11, 0), LcNumber(1, 0)),
                         (lambda z: z * LcNumber(0, 1), LcNumber(0, 1e11), LcNumber(0, 1))]:
        report = derivative_cr(f, z0)
        assert (report.derivative, report.residual1, report.residual2) == (slope, 0.0, 0.0)


def test_curve_integral_examples():
    squared = FuzzyCurve(lambda t: 1 - t * t, lambda t: 2 * t)
    assert norm_phi(curve_integral(squared, 0, 1) - LcNumber(2 / 3, 1)) < 1e-9
    zero = FuzzyCurve(lambda t: 0.0, lambda t: 0.0)
    assert curve_integral(zero, 0, 1) == LcNumber(0, 0)
    const = FuzzyCurve(lambda t: 1.5, lambda t: -2.0)
    assert norm_phi(curve_integral(const, 0, 2) - LcNumber(3, -4)) < 1e-12
    with pytest.raises(ValueError):
        curve_integral(const, 1, 0)
    with pytest.raises(ValueError):
        curve_integral(const, 0, 1, samples=1)


@pytest.mark.parametrize("samples", [2, 3, 268, 1001])
def test_curve_integral_is_exact_for_cubics(samples):
    # Simpson's rule with interval midpoints, so even sample counts too
    squared = FuzzyCurve(lambda t: 1 - t * t, lambda t: 2 * t)
    assert norm_phi(curve_integral(squared, 0, 1, samples) - LcNumber(2 / 3, 1)) < 1e-15


def test_curve_integral_stays_in_the_curve_domain():
    w = FuzzyCurve(lambda t: t, lambda t: 1.0, domain=(0.0, 1.0))
    with pytest.raises(ValueError, match=r"interval \[2, 5\] leaves the curve domain \(0.0, 1.0\)"):
        curve_integral(w, 2, 5)
    assert norm_phi(curve_integral(w, 0.0, 1.0, samples=7) - LcNumber(0.5, 1.0)) < 1e-15


def test_curve_products_integrate_like_the_example():
    # (1 + tA)^2 as the square of the curve (1, t)
    base = FuzzyCurve(lambda t: 1.0, lambda t: t)
    squared = base * base
    assert norm_phi(curve_integral(squared, 0, 1) - LcNumber(2 / 3, 1)) < 1e-9


def test_curve_chain_rule():
    w = FuzzyCurve(lambda t: t, lambda t: t * t)
    assert check_curve_chain_rule(lambda z: z * z, w, 0.5) < 1e-5
    assert check_curve_chain_rule(exp_rfa, w, 0.25) < 1e-5


# ---------------------------------------------------------------------------
# linear flow under the field product

def test_linear_analytic_examples():
    params = LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    traj = solve_linear_analytic(params, [0.0, 2.0])
    assert traj.state(0)[0] == params.w0
    expected = as_complex(params.w0) * cmath.exp(complex(-0.5, 0.8) * 2)
    assert_matches_complex(traj.state(1)[0], expected, rel=1e-12)


def test_linear_analytic_pure_rotation_preserves_norm():
    params = LinearParams(LcNumber(0, 1.7), LcNumber(2, 2))
    traj = solve_linear_analytic(params, np.linspace(0, 10, 101))
    norms = [norm_phi(state[0]) for state in traj.states()]
    for n in norms:
        assert math.isclose(n, norms[0], rel_tol=1e-12)


def test_linear_analytic_norm_law():
    params = LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    ts = np.linspace(0, 10, 101)
    traj = solve_linear_analytic(params, ts)
    for t, state in zip(ts, traj.states()):
        assert math.isclose(
            norm_phi(state[0]), norm_phi(params.w0) * math.exp(-0.5 * t), rel_tol=1e-12
        )


def test_realify_linear_examples():
    assert np.array_equal(realify_linear(LcNumber(0, 1)), np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.array_equal(realify_linear(LcNumber(1, 0)), np.eye(2))
    assert np.array_equal(
        realify_linear(LcNumber(-0.5, 0.8)), np.array([[-0.5, -0.8], [0.8, -0.5]])
    )


def _char_poly(matrix, mu):
    (a, b), (c, d) = matrix
    return (a - mu) * (d - mu) - b * c


def test_realify_linear_eigenvalues_by_characteristic_polynomial():
    lam = LcNumber(-0.5, 0.8)
    m = realify_linear(lam)
    for mu in (complex(lam.re, lam.fu), complex(lam.re, -lam.fu)):
        assert abs(_char_poly(m, mu)) < 1e-12


# ---------------------------------------------------------------------------
# cross product flow

def test_cross_product_examples():
    assert cross_product_psi(LcNumber(1, 2), LcNumber(2, 3), 0.0) == LcNumber(2, 7)
    assert cross_product_psi(LcNumber(3, 0), LcNumber(-4, 0), 1.7) == LcNumber(-12, 0)
    assert cross_product_psi(LcNumber(1, 1), LcNumber(1, 1), 1.0) == LcNumber(0, 4)


def test_realify_linear_psi_examples():
    m = realify_linear_psi(LcNumber(0.3, 0.9), 0.0)
    assert np.array_equal(m, np.array([[0.3, 0.0], [0.9, 0.3]]))
    m = realify_linear_psi(LcNumber(-1.2, 0.0), 0.5)
    assert np.array_equal(m, -1.2 * np.eye(2))


def test_realify_linear_psi_double_eigenvalue():
    lam = LcNumber(-0.5, 0.8)
    for a1 in (0.0, 0.4, -0.3):
        m = realify_linear_psi(lam, a1)
        mu = lam.re + a1 * lam.fu
        # double root: both the polynomial and its derivative vanish
        assert abs(_char_poly(m, mu)) < 1e-12
        trace = m[0][0] + m[1][1]
        assert abs(2 * mu - trace) < 1e-12


def test_psi_solution_examples():
    params = LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    traj = solve_linear_psi_analytic(params, 0.0, [0.0, 2.0])
    assert traj.state(0)[0] == params.w0
    assert_components(traj.state(1)[0], 2 * math.exp(-1.0), 6 * math.exp(-1.0))


def test_psi_solution_is_rate_noise_insensitive_at_zero_centre():
    ts = np.linspace(0, 5, 64)
    outputs = []
    for l2 in (0.0, 0.8, 5.0):
        params = LinearParams(LcNumber(-0.5, l2), LcNumber(2, 2))
        outputs.append(solve_linear_psi_analytic(params, 0.0, ts).coeffs)
    assert np.array_equal(outputs[0], outputs[1])
    assert np.array_equal(outputs[0], outputs[2])


def test_psi_solution_reduces_to_secular_form_at_zero_centre():
    params = LinearParams(LcNumber(0.5, 1.0), LcNumber(2, 2))
    ts = np.linspace(0, 3, 31)
    traj = solve_linear_psi_analytic(params, 0.0, ts)
    for t, state in zip(ts, traj.states()):
        growth = math.exp(0.5 * t)
        assert state[0].re == 2 * growth
        assert state[0].fu == (2 + 2 * t) * growth


def test_psi_solution_general_centre_initial_condition():
    params = LinearParams(LcNumber(0.2, -0.4), LcNumber(1.5, -2.5))
    traj = solve_linear_psi_analytic(params, 0.7, [0.0, 1.0])
    assert traj.state(0)[0] == params.w0


# ---------------------------------------------------------------------------
# integrator

def test_rk4_exponential_oracle():
    times, states = rk4_integrate(
        matrix_field(realify_linear(LcNumber(1, 0))), (1.0, 0.0), (0.0, 1.0), 1e-3
    )
    assert times[-1] == 1.0
    assert abs(states[-1][0] - math.e) < 1e-9


def test_rk4_zero_field_is_constant():
    times, states = rk4_integrate(lambda t, s: (0.0, 0.0), (2.5, -1.0), (0.0, 1.0), 0.1)
    assert np.all(states == states[0])


def test_rk4_rotation_period():
    times, states = rk4_integrate(
        matrix_field(realify_linear(LcNumber(0, 1))), (1.0, 0.0), (0.0, 2 * math.pi), 1e-3
    )
    assert abs(states[-1][0] - 1.0) < 1e-6
    assert abs(states[-1][1]) < 1e-6


def test_rk4_partial_final_step():
    times, _ = rk4_integrate(lambda t, s: (1.0,), (0.0,), (0.0, 0.0015), 1e-3)
    assert times[-1] == 0.0015
    assert len(times) == 3
    grid = time_grid((0.0, 0.0015), 1e-3)
    assert np.array_equal(times, grid)


def test_rk4_abort_carries_time():
    with pytest.raises(IntegrationAbort) as info:
        rk4_integrate(lambda t, s: (float("inf"),), (1.0,), (0.0, 1.0), 0.25)
    assert info.value.t == pytest.approx(0.25)


def test_rk4_rejects_bad_steps():
    with pytest.raises(ValueError):
        rk4_integrate(lambda t, s: s, (1.0,), (0.0, 1.0), 0.0)


def test_empty_span_is_rejected_by_integrator_and_grid():
    for run in (
        lambda: rk4_integrate(lambda t, s: s, (1.0,), (1.0, 1.0), 0.1),
        lambda: time_grid((1.0, 1.0), 0.1),
    ):
        with pytest.raises(ValueError, match="increasing"):
            run()


def test_span_far_below_one_step_is_one_step():
    times, states = rk4_integrate(lambda t, s: (1.0,), (0.0,), (0.0, 1e-12), 1e-3)
    assert times.tolist() == [0.0, 1e-12] == time_grid((0.0, 1e-12), 1e-3).tolist()
    assert states[-1][0] == pytest.approx(1e-12)


GRID_CASES = {  # span, dt, and how many times t0 + j*dt come before t1
    "exact": ((0.0, 1.0), 0.1, 10),
    "ragged": ((0.0, 10.05), 0.1, 101),
    "offset": ((0.7, 3.1), 0.01, 240),
    "preset": (PRESETS["fig6"].t_span, PRESETS["fig6"].dt, 50000),
}


@pytest.mark.parametrize("span, dt, points", GRID_CASES.values(), ids=GRID_CASES.keys())
def test_every_path_steps_along_the_grid_of_python_float_times(span, dt, points):
    # each time is one product and one sum; np.linspace and np.arange(t0, t1, dt) round differently
    t0, t1 = span
    want = np.array([t0 + j * dt for j in range(points)] + [t1])
    seen = set()

    def still(t, s):
        seen.add(type(t))
        return (0.0,)

    grids = {"time_grid": time_grid(span, dt), "rk4_integrate": rk4_integrate(still, (1.0,), span, dt)[0]}
    for system, params in (
        ("linear", LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))),
        ("oscillator", OscillatorParams(LcNumber(1, 0.1), LcNumber(0, 0))),
        ("lotka_volterra", lv_paper_params()),
    ):
        grids[system] = simulate_system(system, params, span, dt).times
    for name, got in grids.items():
        assert got.dtype == np.float64 and np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    assert seen == {float}


# ---------------------------------------------------------------------------
# predator-prey

def test_lv_crisp_reduction():
    params = LvParams(
        alpha=LcNumber(0.25, 0),
        beta=LcNumber(0.18, 0),
        a=LcNumber(0.01, 0),
        b=LcNumber(0.007, 0),
        x0=LcNumber(100, 0),
        y0=LcNumber(30, 0),
    )
    fieldfn = realify_lotka_volterra(params)
    r, s = 80.0, 25.0
    out = fieldfn(0.0, (r, s, 0.0, 0.0))
    assert out[0] == pytest.approx(r * (0.25 - 0.01 * s))
    assert out[1] == pytest.approx(s * (-0.18 + 0.007 * r))
    assert out[2] == 0.0 and out[3] == 0.0


def test_lv_equilibria_paper_values():
    p1, p2 = lv_equilibria(lv_paper_params())
    assert p1 == (LcNumber(0, 0), LcNumber(0, 0))
    assert abs(p2[0].re - 25.714) < 1e-3
    assert abs(p2[0].fu - 0.4286) < 1e-3
    assert_components(p2[1], 25.0, 0.1)


def test_lv_equilibria_crisp_and_zero_rate():
    params = LvParams(
        alpha=LcNumber(1, 0),
        beta=LcNumber(0.5, 0),
        a=LcNumber(0.1, 0),
        b=LcNumber(0.2, 0),
        x0=LcNumber(1, 0),
        y0=LcNumber(1, 0),
    )
    _, p2 = lv_equilibria(params)
    assert_components(p2[0], 2.5, 0.0)
    assert_components(p2[1], 10.0, 0.0)
    bad = LvParams(
        alpha=LcNumber(1, 0),
        beta=LcNumber(1, 0),
        a=LcNumber(0, 0),
        b=LcNumber(1, 0),
        x0=LcNumber(1, 0),
        y0=LcNumber(1, 0),
    )
    with pytest.raises(ZeroDivisionError):
        lv_equilibria(bad)


def test_lv_field_vanishes_at_equilibria():
    params = lv_paper_params()
    fieldfn = realify_lotka_volterra(params)
    assert fieldfn(0.0, (0.0, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0, 0.0)
    _, (eq_x, eq_y) = lv_equilibria(params)
    out = fieldfn(0.0, (eq_x.re, eq_y.re, eq_x.fu, eq_y.fu))
    assert max(abs(v) for v in out) < 1e-12


def test_lv_field_matches_product_expansion():
    rng = random.Random(314159)
    for _ in range(100):
        params = LvParams(
            alpha=LcNumber(rng.uniform(0.1, 1), rng.uniform(-0.01, 0.01)),
            beta=LcNumber(rng.uniform(0.1, 1), rng.uniform(-0.01, 0.01)),
            a=LcNumber(rng.uniform(0.01, 0.1), rng.uniform(-0.01, 0.01)),
            b=LcNumber(rng.uniform(0.01, 0.1), rng.uniform(-0.01, 0.01)),
            x0=LcNumber(1, 0),
            y0=LcNumber(1, 0),
        )
        x = LcNumber(rng.uniform(-50, 150), rng.uniform(-10, 10))
        y = LcNumber(rng.uniform(-50, 150), rng.uniform(-10, 10))
        fieldfn = realify_lotka_volterra(params)
        got = fieldfn(0.0, (x.re, y.re, x.fu, y.fu))
        # independent route: the fuzzy equations evaluated with the field product
        dx = params.alpha * x - params.a * x * y
        dy = -params.beta * y + params.b * x * y
        expected = (dx.re, dy.re, dx.fu, dy.fu)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-12 * max(1.0, abs(e))


def test_lv_field_finite_at_paper_state():
    fieldfn = realify_lotka_volterra(lv_paper_params())
    out = fieldfn(0.0, (100.0, 30.0, 5.0, 2.0))
    assert all(math.isfinite(v) for v in out)


def test_lv_conserved_crisp_reduction_and_offset():
    params = LvParams(
        alpha=LcNumber(0.25, 0),
        beta=LcNumber(0.18, 0),
        a=LcNumber(0.01, 0),
        b=LcNumber(0.007, 0),
        x0=LcNumber(100, 0),
        y0=LcNumber(30, 0),
    )
    x, y = LcNumber(100, 0), LcNumber(30, 0)
    value = lv_conserved(params, x, y)
    classical = 0.25 * math.log(30) - 0.01 * 30 + 0.18 * math.log(100) - 0.007 * 100
    assert_components(value, classical, 0.0)
    k0 = lv_conserved(lv_paper_params(), LcNumber(100, 5), LcNumber(30, 2))
    assert math.isfinite(k0.re) and math.isfinite(k0.fu)


def test_lv_conserved_warns_outside_certified_region():
    params = lv_paper_params()
    with pytest.warns(RuntimeWarning):
        lv_conserved(params, LcNumber(1, 5), LcNumber(30, 2))


def test_lv_conservation_short_run():
    params = lv_paper_params()
    traj = simulate_system("lotka_volterra", params, (0.0, 5.0), dt=1e-3)
    reference = lv_conserved(params, *traj.state(0))
    scale = norm_phi(reference)
    for i in range(0, len(traj), 500):
        drift = norm_phi(lv_conserved(params, *traj.state(i)) - reference)
        assert drift / scale < 1e-6


# ---------------------------------------------------------------------------
# oscillator

def test_oscillator_invariant_examples():
    for t in (0.0, 0.7, 2.1):
        x = LcNumber(math.cos(t), 0)
        y = LcNumber(math.sin(t), 0)
        assert norm_phi(oscillator_invariant(x, y) - LcNumber(1, 0)) < 1e-15
    assert oscillator_invariant(LcNumber(1, 1), LcNumber(1, -1)) == LcNumber(0, 0)


def test_oscillator_invariant_components():
    x, y = LcNumber(3, 0.5), LcNumber(-2, 1.5)
    inv = oscillator_invariant(x, y)
    r, p, s, q = x.re, x.fu, y.re, y.fu
    assert inv.re == pytest.approx((r * r + s * s) - (p * p + q * q))
    assert inv.fu == pytest.approx(2 * (r * p + s * q))


def test_oscillator_conservation_short_run():
    params = OscillatorParams(LcNumber(100, 2), LcNumber(100, 2))
    traj = simulate_system("oscillator", params, (0.0, 5.0), dt=1e-3)
    reference = oscillator_invariant(*traj.state(0))
    for i in range(0, len(traj), 500):
        inv = oscillator_invariant(*traj.state(i))
        assert abs(inv.re - reference.re) / abs(reference.re) < 1e-9
        assert abs(inv.fu - reference.fu) / abs(reference.fu) < 1e-9


def test_oscillator_drift_shrinks_at_fourth_order():
    # measured where truncation still dominates roundoff
    def worst_drift(dt):
        params = OscillatorParams(LcNumber(100, 2), LcNumber(100, 2))
        traj = simulate_system("oscillator", params, (0.0, 50.0), dt=dt)
        reference = oscillator_invariant(*traj.state(0))
        worst = 0.0
        for state in traj.states():
            inv = oscillator_invariant(*state)
            worst = max(worst, abs(inv.re - reference.re) / abs(reference.re))
        return worst

    coarse, fine = worst_drift(0.05), worst_drift(0.025)
    assert fine <= coarse / 8


def test_linearized_lv_round_trip():
    osc = linearized_lv(lv_paper_params())
    expected_c1 = LcNumber(0.01, 0) * LcNumber(0.18, 0.003) / LcNumber(0.007, 0)
    assert norm_phi(osc.c1 - expected_c1) < 1e-15
    assert_components(osc.y0, 5.0, 1.9)


# ---------------------------------------------------------------------------
# simulate_system and friends

def test_simulate_linear_rk4_matches_analytic():
    params = LinearParams(LcNumber(0, 1), LcNumber(2, 2))
    numeric = simulate_system("linear", params, (0.0, 10.0), dt=1e-3, method="rk4")
    analytic = solve_linear_analytic(params, numeric.times)
    gap = np.max(np.abs(numeric.coeffs - analytic.coeffs))
    assert gap < 1e-6


def test_simulate_validates():
    params = LinearParams(LcNumber(0, 1), LcNumber(2, 2))
    with pytest.raises(ValueError):
        simulate_system("unknown", params, (0.0, 1.0))
    with pytest.raises(ValueError):
        simulate_system("oscillator", OscillatorParams(LcNumber(1, 0), LcNumber(1, 0)), (0.0, 1.0), method="analytic")
    with pytest.raises(ValueError, match="linear_psi needs a basis with a single-point 1-level"):
        simulate_system("linear_psi", params, (0.0, 1.0))


def test_simulate_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'euler'"):
        simulate_system("linear", LinearParams(LcNumber(0, 1), LcNumber(2, 2)), (0.0, 1.0), method="euler")


@pytest.mark.parametrize(
    "alias, name", [("lv", "lotka_volterra"), ("lotka-volterra", "lotka_volterra"), ("linear-psi", "linear_psi")]
)
def test_simulate_system_takes_the_aliases(alias, name):
    params = lv_paper_params() if name == "lotka_volterra" else LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    got = simulate_system(alias, params, (0.0, 0.5), dt=1e-2, basis=DECAY_BASIS)
    want = simulate_system(name, params, (0.0, 0.5), dt=1e-2, basis=DECAY_BASIS)
    assert got.names == want.names
    assert np.array_equal(got.times.view(np.uint64), want.times.view(np.uint64))
    assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))


def test_attach_bands_refuses_an_edge_that_is_not_finite():
    # y's fuzzy part 1e308 is finite; its 0-level edge 1.9e308 is not, its 0.5-level edge 0.95e308 is
    traj = Trajectory([0.0, 0.5, 1.0], ("x", "y"), [[1, 0, 1, 0], [1, 0, 0, 1e308], [1, 1e308, 0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^alpha-band of y at alpha=0.0 is not finite at t=0.5$"):
            traj.attach_bands(BasisNumber.triangular(-0.5, 0, 1.9), (1.0, 0.5, 0.0))
    assert traj.alphas is None and traj.bands is None
    traj.attach_bands(BasisNumber.triangular(-0.5, 0, 1.9), (1.0, 0.5))
    assert np.isfinite(traj.bands["y"]).all()


def test_simulate_attaches_nested_bands():
    params = LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    alphas = [i / 10 for i in range(11)]
    traj = simulate_system("linear", params, (0.0, 2.0), dt=0.01).attach_bands(DECAY_BASIS, alphas)
    bands = traj.bands["w"]
    assert bands.shape == (len(traj), 11, 2)
    for j in range(10):
        assert np.all(bands[:, j, 0] <= bands[:, j + 1, 0] + 1e-15)
        assert np.all(bands[:, j + 1, 1] <= bands[:, j, 1] + 1e-15)
    # the basis 1-level is {0}, so the top band collapses onto the real part
    assert np.array_equal(bands[:, 10, 0], traj.component("w")[0])
    assert np.array_equal(bands[:, 10, 1], traj.component("w")[0])


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), ("w",), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), ("w",), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^a trajectory needs at least one time step$"):
        Trajectory(np.empty(0), ("w",), np.empty((0, 2)))


def test_phase_portrait_projections():
    params = OscillatorParams(LcNumber(100, 2), LcNumber(100, 2))
    traj = simulate_system("oscillator", params, (0.0, 1.0), dt=0.01)
    traj.attach_bands(BasisNumber.triangular(-1, 0, 1.01), (0.0, 0.5, 1.0))
    fig6_style = phase_portrait(traj, "x-vs-s")
    assert fig6_style.fuzzy_label == "x" and fig6_style.crisp_label == "y"
    assert fig6_style.bands is traj.bands["x"] and fig6_style.bands.shape == (len(traj), 3, 2)
    assert np.array_equal(fig6_style.crisp, traj.component("y")[0])
    fig7_style = phase_portrait(traj, "r-vs-y")
    assert fig7_style.fuzzy_label == "y" and fig7_style.crisp_label == "x"
    assert fig7_style.bands is traj.bands["y"] and np.array_equal(fig7_style.crisp, traj.component("x")[0])
    with pytest.raises(ValueError):
        phase_portrait(traj, "sideways")


def test_phase_portrait_crisp_trajectory_degenerates_to_points():
    params = OscillatorParams(LcNumber(1, 0), LcNumber(0, 0))
    traj = simulate_system("oscillator", params, (0.0, 1.0), dt=0.01).attach_bands(DECAY_BASIS, (0.0, 1.0))
    portrait = phase_portrait(traj, "x-vs-s")
    assert np.array_equal(portrait.bands[:, 0, 0], portrait.bands[:, 0, 1])


def test_phase_portrait_needs_two_variables():
    params = LinearParams(LcNumber(0, 1), LcNumber(1, 0))
    traj = simulate_system("linear", params, (0.0, 1.0), dt=0.1).attach_bands(DECAY_BASIS, (0.0, 1.0))
    with pytest.raises(ValueError, match="two-variable"):
        phase_portrait(traj, "x-vs-s")


# ---------------------------------------------------------------------------
# kernels by system class: each is checked against the generic integrator

KERNEL_SPANS = {
    "exact": (0.0, 10.0),  # 39 full blocks of 256 steps and a partial one
    "ragged": (0.0, 1.2345),
    "below-one-step": (0.0, 4e-4),
}

FUZZY_OSCILLATOR = OscillatorParams(LcNumber(100, 2), LcNumber(100, 2), LcNumber(1.3, 0.2), LcNumber(0.7, -0.1))


def _cell_gap(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def _linear_kernel_case(system: str):
    """``simulate_system`` on one linear field, and the generic RK4 it replaces."""
    if system == "oscillator":
        p = FUZZY_OSCILLATOR
        s0 = (p.x0.re, p.y0.re, p.x0.fu, p.y0.fu)
        return (
            lambda span: simulate_system("oscillator", p, span, dt=1e-3).coeffs,
            lambda span: rk4_integrate(realify_oscillator(p), s0, span, 1e-3)[1][:, (0, 2, 1, 3)],
        )
    p = LinearParams(LcNumber(0.5, 1.0), LcNumber(2, 2))
    matrix = realify_linear(p.lmbda) if system == "linear" else realify_linear_psi(p.lmbda, 0.3)
    return (
        lambda span: simulate_system(system, p, span, dt=1e-3, method="rk4", basis=ONE_LEVEL_03).coeffs,
        lambda span: rk4_integrate(matrix_field(matrix), (p.w0.re, p.w0.fu), span, 1e-3)[1],
    )


@pytest.mark.parametrize("span", KERNEL_SPANS.values(), ids=KERNEL_SPANS.keys())
@pytest.mark.parametrize("system", ["linear", "linear_psi", "oscillator"])
def test_linear_propagator_matches_stage_by_stage_rk4(system, span):
    kernel, generic = _linear_kernel_case(system)
    got, ref = kernel(span), generic(span)
    assert got.shape == ref.shape
    assert _cell_gap(got, ref) < 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision here")
@pytest.mark.parametrize("params", [OscillatorParams(LcNumber(100, 2), LcNumber(100, 2)), FUZZY_OSCILLATOR])
def test_propagator_round_off_does_not_build_up(params):
    # exact-arithmetic RK4 ends at P(dt M)^n s0; extended precision stands in
    # for it.  Powers of P rounded to doubles drift to about 4e-13 here.
    x = 1e-3 * oscillator_matrix(params).astype(np.longdouble)
    eye = np.eye(4, dtype=np.longdouble)
    step = eye + x + x @ x / 2 + x @ x @ x / 6 + x @ x @ x @ x / 24
    s0 = np.array((params.x0.re, params.y0.re, params.x0.fu, params.y0.fu), dtype=np.longdouble)
    exact = np.linalg.matrix_power(step, 50000) @ s0
    got = simulate_system("oscillator", params, (0.0, 50.0), dt=1e-3).coeffs[-1, (0, 2, 1, 3)]
    assert float(np.max(np.abs(got - exact)) / np.max(np.abs(exact))) < 2e-14


# each generator's parameters and the element-level field it realifies, on the
# state of every variable's real part, then every fuzzy coefficient
ELEMENT_FIELDS = {
    "linear": (LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2)), lambda p, a1, s: p.lmbda * LcNumber(*s)),
    "linear_psi": (
        LinearParams(LcNumber(-1.2, 0.7), LcNumber(2, 2)),
        lambda p, a1, s: cross_product_psi(p.lmbda, LcNumber(*s), a1),
    ),
    "oscillator": (FUZZY_OSCILLATOR, lambda p, a1, s: realify_oscillator(p)(0.0, s)),
}


@pytest.mark.parametrize("record", [r for r in SYSTEMS.values() if r.generator is not None], ids=lambda r: r.name)
def test_generators_are_the_element_fields(record):
    params, field = ELEMENT_FIELDS[record.name]
    rng = random.Random(4)
    for _ in range(20):
        s = [rng.uniform(-10, 10) for _ in range(2 * len(record.variables))]
        want = field(params, 0.3, s)
        want = (want.re, want.fu) if isinstance(want, LcNumber) else want
        assert np.allclose(record.generator(params, 0.3) @ s, want, rtol=1e-15, atol=1e-13)


@pytest.mark.parametrize("span", KERNEL_SPANS.values(), ids=KERNEL_SPANS.keys())
@pytest.mark.parametrize(
    "params",
    [
        lv_paper_params(),
        replace(lv_paper_params(), a=LcNumber(0.01, 5e-4), b=LcNumber(0.007, -3e-4)),
        replace(lv_paper_params(), alpha=LcNumber(0.25, 0), beta=LcNumber(0.18, 0), x0=LcNumber(100, 0), y0=LcNumber(0, 0)),
    ],
    ids=["paper", "fuzzy-rates", "no-predators"],
)
def test_fused_lotka_volterra_is_bit_identical(params, span):
    got = simulate_system("lotka_volterra", params, span, dt=1e-3)
    s0 = (params.x0.re, params.y0.re, params.x0.fu, params.y0.fu)
    times, states = rk4_integrate(realify_lotka_volterra(params), s0, span, 1e-3)
    assert np.array_equal(got.times, times)
    assert np.array_equal(got.coeffs.view(np.uint64), states[:, (0, 2, 1, 3)].view(np.uint64))


def test_fused_lotka_volterra_aborts_where_stage_by_stage_rk4_does():
    # a prey population of 1e6 drives the predators past the double range within 7 steps
    params = LvParams(
        alpha=LcNumber(0.25, 0.001), beta=LcNumber(0.18, 0.003), a=LcNumber(0.01, 0), b=LcNumber(0.007, 0.001),
        x0=LcNumber(1e6, 5), y0=LcNumber(1e-3, 1e-4),
    )
    s0 = (params.x0.re, params.y0.re, params.x0.fu, params.y0.fu)
    with pytest.raises(IntegrationAbort) as generic:
        rk4_integrate(realify_lotka_volterra(params), s0, (0.0, 20.0), 1e-3)
    with pytest.raises(IntegrationAbort) as kernel:
        simulate_system("lotka_volterra", params, (0.0, 20.0), dt=1e-3)
    assert kernel.value.t == generic.value.t == 0.007


def test_fused_lotka_volterra_aborts_in_a_shortened_last_step():
    # the six full steps stay finite (predators near 1e249); the half step after them overflows
    params = LvParams(
        alpha=LcNumber(0.25, 0.001), beta=LcNumber(0.18, 0.003), a=LcNumber(0.01, 0), b=LcNumber(0.007, 0.001),
        x0=LcNumber(1e6, 5), y0=LcNumber(1e-3, 1e-4),
    )
    assert np.isfinite(simulate_system("lotka_volterra", params, (0.0, 0.006), dt=1e-3).coeffs).all()
    s0 = (params.x0.re, params.y0.re, params.x0.fu, params.y0.fu)
    with pytest.raises(IntegrationAbort) as generic:
        rk4_integrate(realify_lotka_volterra(params), s0, (0.0, 0.0065), 1e-3)
    with pytest.raises(IntegrationAbort) as kernel:
        simulate_system("lotka_volterra", params, (0.0, 0.0065), dt=1e-3)
    assert kernel.value.t == generic.value.t == 0.0065


@pytest.mark.parametrize(
    "system, params",
    [
        ("linear", LinearParams(LcNumber(800, 0), LcNumber(1, 0))),
        ("linear", LinearParams(LcNumber(1500, 0), LcNumber(1, 0))),
        ("linear_psi", LinearParams(LcNumber(800, 5), LcNumber(1, 1))),
        # P(dt M) itself overflows after a few powers
        ("oscillator", OscillatorParams(LcNumber(1, 0), LcNumber(0, 0), LcNumber(1e4, 0), LcNumber(1e4, 0))),
    ],
)
def test_propagator_aborts_where_stage_by_stage_rk4_does(system, params):
    span, dt = ((0.0, 100.0), 1.0) if system == "oscillator" else ((0.0, 1.0), 1e-3)
    if system == "oscillator":
        field, s0 = realify_oscillator(params), (params.x0.re, params.y0.re, params.x0.fu, params.y0.fu)
    else:
        matrix = realify_linear(params.lmbda) if system == "linear" else realify_linear_psi(params.lmbda, 0.3)
        field, s0 = matrix_field(matrix), (params.w0.re, params.w0.fu)
    with pytest.raises(IntegrationAbort) as generic:
        rk4_integrate(field, s0, span, dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationAbort) as kernel:
            simulate_system(system, params, span, dt=dt, method="rk4", basis=ONE_LEVEL_03)
    assert kernel.value.t == generic.value.t


def test_propagator_abort_times_of_growing_flows():
    for rate, t in ((800, 0.879), (1500, 474 * 1e-3)):
        with pytest.raises(IntegrationAbort) as info:
            simulate_system("linear", LinearParams(LcNumber(rate, 0), LcNumber(1, 0)), (0.0, 1.0), method="rk4")
        assert info.value.t == t


def test_vectorised_closed_form_matches_the_element_formula():
    for fig in ("fig2", "fig4"):
        scenario = preset_config(fig)
        params, lam = scenario.params, scenario.params.lmbda
        ts = time_grid(scenario.t_span, scenario.dt)
        got = solve_linear_analytic(params, ts).coeffs
        ref = np.array([(w.re, w.fu) for w in (params.w0 * exp_rfa(LcNumber(lam.re * t, lam.fu * t)) for t in ts)])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), fig


@pytest.mark.parametrize("a1", [0.0, 0.3])
def test_cross_product_closed_form_matches_the_element_formula(a1):
    params = LinearParams(LcNumber(0.5, 1.0), LcNumber(2, -1))
    (l1, l2), (x0, y0) = (params.lmbda.re, params.lmbda.fu), (params.w0.re, params.w0.fu)
    ts = time_grid((0.0, 10.0), 1e-3)
    ref = []
    for t in ts.tolist():
        if a1 == 0.0:
            growth = math.exp(l1 * t)
            ref.append((x0 * growth, (y0 + x0 * t) * growth))
        else:
            growth, lead = math.exp((l1 + a1 * l2) * t), x0 + a1 * y0
            ref.append((-a1 * y0 * growth + lead * growth * (1.0 - a1 * t), y0 * growth + lead * growth * t))
    got = solve_linear_psi_analytic(params, a1, ts).coeffs
    assert np.array_equal(got.view(np.uint64), np.array(ref).view(np.uint64))


def test_a_closed_form_with_a_non_finite_angle_names_the_exponential():
    params = LinearParams(LcNumber(0.0, 1e308), LcNumber(2, 2))
    with pytest.raises(OverflowError, match=r"^linear flow: e\^\(lambda\*t\) .* overflows at t=2\.0$"):
        solve_linear_analytic(params, np.array([0.0, 1.0, 2.0]))


_COEFFICIENT_DIGESTS = """
import hashlib, sys
from rfa.cli import PRESETS
from rfa.dynamics import simulate_system
for fig in sys.argv[1:]:
    s = PRESETS[fig]
    traj = simulate_system(s.system, s.params, s.t_span, dt=s.dt, method=s.method, basis=s.space.basis)
    print(fig, hashlib.sha256(traj.coeffs.tobytes()).hexdigest())
"""


def test_trajectory_bits_do_not_depend_on_the_cpu_features_or_the_blas_kernel():
    # closed forms (fig2-fig4) and the linear propagator (fig6, fig16), run
    # again with every SIMD target numpy dispatches to switched off and
    # OpenBLAS on its oldest x86-64 kernel
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    figs = ("fig2", "fig3", "fig4", "fig6", "fig16")
    expected = ""
    for fig in figs:
        s = PRESETS[fig]
        traj = simulate_system(s.system, s.params, s.t_span, dt=s.dt, method=s.method, basis=s.space.basis)
        expected += f"{fig} {hashlib.sha256(traj.coeffs.tobytes()).hexdigest()}\n"
    src = os.path.dirname(os.path.dirname(rfa.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
        "OPENBLAS_CORETYPE": "Prescott",
    }
    done = subprocess.run(
        [sys.executable, "-c", _COEFFICIENT_DIGESTS, *figs], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_closed_form_overflow_names_the_flow_and_time():
    params = LinearParams(LcNumber(800, 0), LcNumber(2, 2))
    with pytest.raises(OverflowError, match=r"linear flow: .* overflows at t=0\.888$"):
        solve_linear_analytic(params, time_grid((0.0, 1.0), 1e-3))


@pytest.mark.parametrize("a1", [0.0, 0.1])
def test_closed_forms_refuse_non_finite_cells(a1):
    # e^(lambda t) stays finite; its product with w0 does not from t=2
    params = LinearParams(LcNumber(10, 0), LcNumber(1e300, 0))
    ts = time_grid((0.0, 10.0), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^linear flow: w0\*e\^\(lambda\*t\) .* overflows at t=2\.0$"):
            solve_linear_analytic(params, ts)
        with pytest.raises(OverflowError, match=r"^linear_psi flow: the solution .* overflows at t=2\.0$"):
            solve_linear_psi_analytic(params, a1, ts)
        with pytest.raises(OverflowError, match=r"^linear_psi flow: e\^.* overflows at t=0\.888$"):
            solve_linear_psi_analytic(LinearParams(LcNumber(800, 0), LcNumber(2, 2)), a1, time_grid((0.0, 1.0), 1e-3))


def test_the_fig6_bands_keep_their_bits():
    s = PRESETS["fig6"]
    traj = simulate_system(s.system, s.params, s.t_span, dt=s.dt, method=s.method, basis=s.space.basis)
    traj.attach_bands(s.space.basis, s.alphas)
    digest = hashlib.sha256(b"".join(traj.bands[name].tobytes() for name in traj.names)).hexdigest()
    assert (len(traj), len(s.alphas)) == (50001, 11)
    assert digest == "52f48b159f8622e6e27dd2f4a239738422920de00f7a9d6aad5776e22a05bc63"


def test_phase_plot_reuses_the_attached_bands(monkeypatch, tmp_path):
    import rfa.dynamics

    band_array = rfa.dynamics._band_array
    calls = []

    def counted(re, fu, basis, alphas):
        calls.append(re.size * len(alphas) * 2)
        return band_array(re, fu, basis, alphas)

    monkeypatch.setattr(rfa.dynamics, "_band_array", counted)
    run_scenario(preset_config("fig6"), out_dir=tmp_path, formats=("svg",))
    assert calls == [2001 * 11 * 2] * 2  # x and y from attach_bands, none for the portrait

    traj = simulate_system("oscillator", FUZZY_OSCILLATOR, (0.0, 1.0), dt=0.01)
    with pytest.raises(ValueError, match="attach_bands"):
        phase_portrait(traj, "x-vs-s")
    traj.attach_bands(DECAY_BASIS, (0.0, 1.0))
    calls.clear()
    reused = phase_portrait(traj, "x-vs-s")
    assert calls == [] and reused.bands is traj.bands["x"]
