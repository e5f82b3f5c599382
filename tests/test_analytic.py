import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfa import (
    LcNumber,
    Path,
    check_chain_rule,
    contour_integral,
    derivative_cr,
    exp_rfa,
    log_rfa,
    norm_phi,
    poly_eval,
    pow_int,
    pow_real,
    solve_linear_mapping_ode,
)
from helpers import as_complex, assert_components, assert_matches_complex


def test_exp_examples():
    assert_components(exp_rfa(LcNumber(4, 3)), math.exp(4) * math.cos(3), math.exp(4) * math.sin(3))
    assert exp_rfa(LcNumber(0, 0)) == LcNumber(1, 0)
    unit = exp_rfa(LcNumber(0, math.pi / 2))
    assert_components(unit, 0.0, 1.0, tol=1e-15)


def test_exp_overflow_is_a_range_error():
    with pytest.raises(OverflowError):
        exp_rfa(LcNumber(1e4, 0))


def test_log_examples():
    assert log_rfa(LcNumber(1, 0), 0) == LcNumber(0, 0)
    assert_components(log_rfa(LcNumber(0, 1), 0), 0.0, math.pi / 2, tol=1e-15)
    assert_components(log_rfa(LcNumber(1, 0), 1), 0.0, 2 * math.pi, tol=1e-15)
    with pytest.raises(ValueError):
        log_rfa(LcNumber(0, 0), 0)


def test_log_exp_inversion():
    rng = random.Random(40313)
    for _ in range(200):
        z = LcNumber(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if norm_phi(z) < 1e-3:
            continue
        back = exp_rfa(log_rfa(z, 0))
        assert norm_phi(back - z) < 1e-10 * max(1.0, norm_phi(z))


def test_pow_real_examples():
    root = pow_real(LcNumber(1, math.sqrt(3)), 0.5)
    assert_components(root, math.sqrt(2) * math.sqrt(3) / 2, math.sqrt(2) / 2)
    z = LcNumber(2.5, -1.25)
    assert norm_phi(pow_real(z, 1.0) - z) < 1e-12
    assert pow_real(z, 0.0) == LcNumber(1, 0)
    with pytest.raises(ValueError):
        pow_real(LcNumber(0, 0), 0.5)


def test_poly_eval_examples():
    square = [LcNumber(0, 0), LcNumber(0, 0), LcNumber(1, 0)]
    assert poly_eval(square, LcNumber(1, 1)) == LcNumber(0, 2)
    assert poly_eval([LcNumber(4, -2)], LcNumber(9, 9)) == LcNumber(4, -2)
    square_plus_z = [LcNumber(0, 0), LcNumber(1, 0), LcNumber(1, 0)]
    assert poly_eval(square_plus_z, LcNumber(1, 1)) == LcNumber(1, 3)
    with pytest.raises(ValueError):
        poly_eval([], LcNumber(1, 1))


def test_example_mapping_components():
    # exp(z^2 + z) has components exp(x^2-y^2+x) * cos/sin(2xy+y)
    f = lambda z: exp_rfa(poly_eval([LcNumber(0, 0), LcNumber(1, 0), LcNumber(1, 0)], z))
    x, y = 0.7, -0.4
    out = f(LcNumber(x, y))
    scale = math.exp(x * x - y * y + x)
    assert_components(out, scale * math.cos(2 * x * y + y), scale * math.sin(2 * x * y + y))


# ---------------------------------------------------------------------------
# Cauchy-Riemann derivatives

def test_derivative_of_square():
    report = derivative_cr(lambda z: z * z, LcNumber(1, 1), h=1e-5)
    assert norm_phi(report.derivative - LcNumber(2, 2)) < 1e-8
    assert report.residual1 < 1e-8 and report.residual2 < 1e-8


def test_derivative_of_constant():
    report = derivative_cr(lambda z: LcNumber(3.25, -11), LcNumber(0.6, -0.2))
    assert report.derivative == LcNumber(0, 0)


def test_derivative_of_negated_exponential():
    report = derivative_cr(lambda z: exp_rfa(-z), LcNumber(0, 0))
    assert norm_phi(report.derivative - LcNumber(-1, 0)) < 1e-6


def test_derivative_closed_forms_at_random_points():
    rng = random.Random(2861)
    for _ in range(100):
        z = LcNumber(rng.uniform(-2, 2), rng.uniform(-2, 2))
        zc = as_complex(z)
        cases = [
            (lambda w: w * w, 2 * zc),
            (exp_rfa, cmath.exp(zc)),
            (lambda w: exp_rfa(-w), -cmath.exp(-zc)),
            (
                lambda w: poly_eval([LcNumber(1, -1), LcNumber(0, 2), LcNumber(3, 0)], w),
                complex(0, 2) + 2 * 3 * zc,
            ),
        ]
        for mapping, expected in cases:
            report = derivative_cr(mapping, z, h=1e-5)
            assert_matches_complex(report.derivative, expected, rel=1e-6)
            assert report.residual1 < 1e-6 and report.residual2 < 1e-6


def test_cr_residuals_of_integer_powers():
    rng = random.Random(777)
    for _ in range(100):
        z = LcNumber(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if norm_phi(z) < 0.1:
            continue
        report = derivative_cr(lambda w: pow_int(w, 3), z, h=1e-5)
        assert report.residual1 < 1e-6 and report.residual2 < 1e-6
        assert_matches_complex(report.derivative, 3 * as_complex(z) ** 2, rel=1e-6)


def test_derivative_of_exp_is_exp():
    rng = random.Random(1199)
    for _ in range(50):
        z = LcNumber(rng.uniform(-2, 2), rng.uniform(-2, 2))
        report = derivative_cr(exp_rfa, z)
        assert norm_phi(report.derivative - exp_rfa(z)) < 1e-6


def test_product_rule():
    rng = random.Random(5522)
    f = lambda z: z * z
    g = exp_rfa
    for _ in range(50):
        z = LcNumber(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        lhs = derivative_cr(lambda w: f(w) * g(w), z).derivative
        rhs = f(z) * derivative_cr(g, z).derivative + derivative_cr(f, z).derivative * g(z)
        assert norm_phi(lhs - rhs) < 1e-5


def test_chain_rule_examples():
    square = lambda z: z * z
    assert check_chain_rule(square, exp_rfa, LcNumber(0, 0)) < 1e-6
    identity = lambda z: z
    assert check_chain_rule(identity, exp_rfa, LcNumber(0.3, 0.1)) < 1e-8
    cube = lambda z: pow_int(z, 3)
    assert check_chain_rule(square, cube, LcNumber(1, 1)) < 1e-5


def test_derivative_propagates_stencil_failures():
    def brittle(z):
        if z.re > 1.0:
            raise RuntimeError("outside tabulated data")
        return z

    with pytest.raises(RuntimeError):
        derivative_cr(brittle, LcNumber(1.0, 0.0), h=1e-3)


# ---------------------------------------------------------------------------
# contour integration

def test_contour_integral_of_square():
    path = Path.segment(LcNumber(0, 0), LcNumber(1, 1), samples=10000)
    result = contour_integral(lambda z: z * z, path)
    assert norm_phi(result - LcNumber(-2 / 3, 2 / 3)) < 1e-6


def test_contour_integral_of_constant():
    k = LcNumber(2.5, -0.5)
    path = Path.segment(LcNumber(0, 0), LcNumber(1, 0), samples=101)
    result = contour_integral(lambda z: k, path)
    assert norm_phi(result - k) < 1e-14


def test_closed_loop_vanishes():
    square_loop = Path.polyline(
        [LcNumber(0, 0), LcNumber(1, 0), LcNumber(1, 1), LcNumber(0, 1), LcNumber(0, 0)],
        samples=8001,
    )
    result = contour_integral(lambda z: z * z, square_loop)
    assert norm_phi(result) < 1e-6


def test_path_independence():
    f = exp_rfa
    exact = as_complex(exp_rfa(LcNumber(1, 1))) - 1.0
    via_bottom = Path.polyline([LcNumber(0, 0), LcNumber(1, 0), LcNumber(1, 1)], samples=10001)
    via_top = Path.polyline([LcNumber(0, 0), LcNumber(0, 1), LcNumber(1, 1)], samples=10001)
    i1 = contour_integral(f, via_bottom)
    i2 = contour_integral(f, via_top)
    assert_matches_complex(i1, exact, rel=1e-6)
    assert_matches_complex(i2, exact, rel=1e-6)
    assert norm_phi(i1 - i2) < 2e-6


def test_quadrature_is_second_order():
    exact = LcNumber(-2 / 3, 2 / 3)

    def error(samples):
        path = Path.segment(LcNumber(0, 0), LcNumber(1, 1), samples=samples)
        return norm_phi(contour_integral(lambda z: z * z, path) - exact)

    coarse = error(129)
    fine = error(257)
    # halving the spacing must cut the error at least 4x (fp slack allowed)
    assert fine <= coarse / 4 + 1e-12


def test_simpson_scheme_is_sharper():
    path = Path.segment(LcNumber(0, 0), LcNumber(1, 1), samples=101)
    exact = LcNumber(-2 / 3, 2 / 3)
    trap = norm_phi(contour_integral(lambda z: z * z, path) - exact)
    simp = norm_phi(contour_integral(lambda z: z * z, path, scheme="simpson") - exact)
    assert simp < trap / 100


def test_path_validation():
    with pytest.raises(ValueError):
        Path.segment(LcNumber(0, 0), LcNumber(1, 0), samples=1)
    with pytest.raises(ValueError):
        Path.polyline([LcNumber(0, 0)])
    # vertices are elements, as segment's ends are; a tuple is no spelling of one
    with pytest.raises(TypeError):
        Path.polyline([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        contour_integral(lambda z: z, Path(points=(LcNumber(0, 0),)))


def test_polyline_with_an_edge_too_long_for_a_double_is_a_range_error():
    with pytest.raises(OverflowError, match=r"^polyline edge 1 from .* has a length that is not finite$"):
        Path.polyline([LcNumber(0, 0), LcNumber(1e308, 0), LcNumber(-1e308, 0)])


def test_polyline_shares_samples_when_the_edge_sum_overflows():
    # each edge is 1.7e308 long, so their sum is not a finite double
    path = Path.polyline([LcNumber(1e308, 0), LcNumber(-7e307, 0), LcNumber(1e308, 0)], samples=101)
    turn = [z.re for z in path.points].index(-7e307)
    assert (turn, len(path.points) - 1 - turn) == (50, 50)
    assert contour_integral(lambda z: LcNumber(1, 0), path) == LcNumber(0, 0)


def test_mapping_from_components():
    u = lambda x, y: math.exp(-x) * math.cos(y)
    v = lambda x, y: -math.exp(-x) * math.sin(y)
    report = derivative_cr(lambda z: LcNumber(u(z.re, z.fu), v(z.re, z.fu)), LcNumber(0, 0))
    assert norm_phi(report.derivative - LcNumber(-1, 0)) < 1e-6


def test_polyline_contains_vertices():
    verts = [LcNumber(0, 0), LcNumber(2, 0), LcNumber(2, 1)]
    path = Path.polyline(verts, samples=301)
    for v in verts:
        assert any(p == v for p in path.points)


def _loop_segment(a, b, samples):
    """Reference: the per-point ``LcNumber`` sampling of a segment."""
    n = samples - 1
    pts = [LcNumber(a.re + (b.re - a.re) * (i / n), a.fu + (b.fu - a.fu) * (i / n)) for i in range(samples)]
    pts[0], pts[-1] = a, b
    return pts


def _loop_polyline(verts, samples):
    """Reference: the per-point ``LcNumber`` sampling of a polyline."""
    lengths = [norm_phi(b - a) for a, b in zip(verts, verts[1:])]
    longest = max(lengths)
    scaled = [ell / longest for ell in lengths] if longest > 0.0 else lengths
    total = sum(scaled)
    budget = max(samples - 1, len(lengths))
    counts = []
    for ell in scaled:
        share = budget * (ell / total) if total > 0.0 else budget / len(lengths)
        counts.append(max(1, round(share)))
    k = lengths.index(longest)
    counts[k] += budget - sum(counts)
    while counts[k] < 1:
        # one interval back from the first edge with the most
        counts[k] += 1
        others = counts[:k] + [0] + counts[k + 1 :]
        counts[others.index(max(others))] -= 1
    pts = [verts[0]]
    for a, b, n in zip(verts, verts[1:], counts):
        for i in range(1, n + 1):
            pts.append(LcNumber(a.re + (b.re - a.re) * (i / n), a.fu + (b.fu - a.fu) * (i / n)))
        pts[-1] = b
    return pts


def _loop_contour_integral(f, pts, scheme):
    """Reference: the quadrature as one ``LcNumber`` expression per interval."""
    res, fus = [], []
    values = [f(z) for z in pts]
    for i in range(len(pts) - 1):
        z0, z1 = pts[i], pts[i + 1]
        dz = z1 - z0
        if scheme == "trapezoid":
            mean = 0.5 * (values[i] + values[i + 1])
        else:
            mid = f(LcNumber(0.5 * (z0.re + z1.re), 0.5 * (z0.fu + z1.fu)))
            mean = (values[i] + 4.0 * mid + values[i + 1]) * (1.0 / 6.0)
        inc = mean * dz
        res.append(inc.re)
        fus.append(inc.fu)
    return LcNumber(math.fsum(res), math.fsum(fus))


def _bits(z):
    return z.re.hex(), z.fu.hex()


def _outcome(call):
    try:
        return "value", _bits(call())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_C = LcNumber(0.75, -1.25)
_INTEGRANDS = {
    "square": lambda z: z * z,
    "cubic": lambda z: (z * z + _C) * z - 3.0,
    "exp": lambda z: exp_rfa(_C * z),
    "pole": lambda z: _C / (z - LcNumber(0.3, 0.7)),
    "norm": lambda z: LcNumber(norm_phi(z), 0.0),
    # silent overflow to inf, in one component or both, where the zero terms
    # of CPython's complex product show
    "huge": lambda z: z * z * LcNumber(1e300, -1e300),
    "huge_fu": lambda z: LcNumber(1.0, z.fu * 1e300 * 1e300),
}
_PAIR = st.tuples(st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(
    _PAIR,
    # None repeats the previous vertex, so some edges have zero length
    st.lists(st.one_of(_PAIR, st.none()), min_size=1, max_size=5),
    st.integers(-8, 8).map(lambda e: 10.0**e),
    st.integers(2, 2000),
    st.sampled_from(sorted(_INTEGRANDS)),
    st.sampled_from(["trapezoid", "simpson"]),
)
def test_array_quadrature_matches_the_lcnumber_loop_bit_for_bit(first, rest, scale, samples, name, scheme):
    verts = [LcNumber(scale * first[0], scale * first[1])]
    for pair in rest:
        verts.append(verts[-1] if pair is None else LcNumber(scale * pair[0], scale * pair[1]))
    path = Path.polyline(verts, samples=samples)
    pts = _loop_polyline(verts, samples)
    assert [_bits(p) for p in path.points] == [_bits(p) for p in pts]
    segment = Path.segment(verts[0], verts[-1], samples=samples)
    assert [_bits(p) for p in segment.points] == [_bits(p) for p in _loop_segment(verts[0], verts[-1], samples)]

    f = _INTEGRANDS[name]
    calls = []

    def counted(z):
        calls.append(z)
        return f(z)

    got = _outcome(lambda: contour_integral(counted, path, scheme=scheme))
    assert got == _outcome(lambda: _loop_contour_integral(f, pts, scheme))
    if got[0] == "value":
        # one call per sample, plus one per interval midpoint for Simpson
        assert len(calls) == (len(pts) if scheme == "trapezoid" else 2 * len(pts) - 1)


def test_polyline_keeps_its_sample_count_when_rounding_drift_exceeds_the_longest_edge():
    # lengths 1, 0.9, ..., 0.9: each 0.9 edge rounds its share of 16 up from
    # 1.58 to 2, and the drift of -4 would leave the longest edge -2 intervals
    verts = [LcNumber(0, 0)] + [LcNumber(1 + 0.9 * k, 0) for k in range(10)]
    path = Path.polyline(verts, samples=17)
    assert len(path.points) == 17
    re = [z.re for z in path.points]
    at = [re.index(v.re) for v in verts]
    assert [j - i for i, j in zip(at, at[1:])] == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_PAIR, st.none()), min_size=1, max_size=15), st.integers(2, 64))
def test_polyline_takes_exactly_its_sample_budget(rest, samples):
    verts = [LcNumber(0, 0)]
    for pair in rest:
        verts.append(verts[-1] if pair is None else LcNumber(*pair))
    path = Path.polyline(verts, samples=samples)
    assert len(path.z) == max(samples - 1, len(verts) - 1) + 1


# ---------------------------------------------------------------------------
# mapping-valued linear equation

def test_mapping_ode_homogeneous():
    out = solve_linear_mapping_ode(
        b=LcNumber(1, 0), f=None, z0=LcNumber(0, 0), w0=LcNumber(1, 0), z=LcNumber(1, 0)
    )
    assert_components(out, math.exp(-1), 0.0)


def test_mapping_ode_initial_condition():
    w0 = LcNumber(2, -1)
    out = solve_linear_mapping_ode(
        b=LcNumber(0.5, 0.25), f=lambda z: z, z0=LcNumber(1, 1), w0=w0, z=LcNumber(1, 1), samples=11
    )
    assert norm_phi(out - w0) < 1e-14


def test_mapping_ode_constant_forcing():
    c = LcNumber(0.75, 0.5)
    out = solve_linear_mapping_ode(
        b=LcNumber(1, 0),
        f=lambda z: c,
        z0=LcNumber(0, 0),
        w0=LcNumber(0, 0),
        z=LcNumber(1, 0),
        samples=10001,
    )
    expected = c * (1 - math.exp(-1))
    assert norm_phi(out - expected) < 1e-6


def _per_sample_mapping_ode(b, f, z0, w0, z, samples):
    """``solve_linear_mapping_ode`` with a kernel that has no array form."""
    kernel = lambda zeta: exp_rfa(b * (zeta - z0)) * f(zeta)
    integral = contour_integral(kernel, Path.segment(z0, z, samples))
    return exp_rfa(-(b * (z - z0))) * (w0 + integral)


def test_mapping_ode_calls_f_once_per_sample_and_matches_the_per_sample_kernel():
    args = LcNumber(0.6, -0.2), LcNumber(0.1, 0.3), LcNumber(1.0, -0.5), LcNumber(1.2, 0.1)
    b, z0, w0, z = args
    calls = []

    def f(zeta):
        calls.append(zeta)
        return zeta * zeta + 0.5

    out = solve_linear_mapping_ode(b, f, z0, w0, z, samples=257)
    assert len(calls) == 257
    expected = _per_sample_mapping_ode(b, f, z0, w0, z, 257)
    assert (out.re.hex(), out.fu.hex()) == (expected.re.hex(), expected.fu.hex())


def test_mapping_ode_replays_the_samples_when_a_call_fails():
    b, z0, w0, z = LcNumber(0.6, -0.2), LcNumber(0.0, 0.0), LcNumber(1.0, 0.0), LcNumber(2.0, 0.0)
    calls = []

    def f(zeta):
        calls.append(zeta)
        return 1 / (zeta - LcNumber(1.0, 0.0))

    with pytest.raises(ZeroDivisionError, match="division by the zero element"):
        solve_linear_mapping_ode(b, f, z0, w0, z, samples=11)
    # samples 0-5 in the array pass, then again one by one
    assert len(calls) == 12
    # an exponential out of range raises as the per-sample kernel does, naming the first sample
    with pytest.raises(OverflowError, match=r"exp\(LcNumber\(710\.0, 0\.0\)\) is out of range"):
        solve_linear_mapping_ode(LcNumber(1.0, 0.0), lambda zeta: zeta, z0, w0, LcNumber(1000.0, 0.0), samples=101)
