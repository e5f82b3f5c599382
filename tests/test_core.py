import cmath
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfa import core
from rfa import (
    AlphaBand,
    BasisNumber,
    LcNumber,
    LcSpace,
    Trajectory,
    alpha_cut,
    conjugate,
    d_infty,
    from_polar,
    is_asymmetric,
    norm_phi,
    nth_root,
    pow_int,
    to_polar,
)
from helpers import as_complex, assert_components, assert_matches_complex

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
elements = st.builds(LcNumber, coords, coords)


# ---------------------------------------------------------------------------
# basis numbers and asymmetry

def test_asymmetry_examples():
    assert is_asymmetric(BasisNumber.triangular(-0.5, 0, 0.51))
    assert not is_asymmetric(BasisNumber.triangular(-1, 0, 1))
    assert is_asymmetric(BasisNumber.triangular(-2, 0, 4))


def test_asymmetry_trapezoidal_and_tabulated():
    assert is_asymmetric(BasisNumber.trapezoidal(-1, 0, 0.5, 1))
    assert not is_asymmetric(BasisNumber.trapezoidal(-1, -0.5, 0.5, 1))
    table = BasisNumber.tabulated([(0.0, -0.5, 1.0), (0.5, -0.25, 0.5), (1.0, 0.0, 0.0)])
    assert is_asymmetric(table)
    symmetric = BasisNumber.tabulated([(0.0, -1.0, 1.0), (1.0, 0.0, 0.0)])
    assert not is_asymmetric(symmetric)


def _sum_decision(basis):
    """The endpoint-sum form of ``is_asymmetric``, kept as the reference."""
    (_, lo0, hi0), *rest = basis.levels
    return any(abs((lo + hi) - (lo0 + hi0)) > 1e-9 for _, lo, hi in rest)


def test_asymmetry_survives_endpoint_sums_beyond_the_double_range():
    # lo + hi is inf on both rows, so the sums call this basis symmetric
    assert is_asymmetric(BasisNumber.triangular(1e308, 1.5e308, 1.7e308))
    assert not is_asymmetric(BasisNumber.triangular(1e308, 1.35e308, 1.7e308))
    # a difference of differences would leave 2.97e284 here, not 0
    assert not is_asymmetric(BasisNumber.triangular(1e300, 1.35e300, 1.7e300))


_NEAR_TOLERANCE = st.sampled_from(
    [0.0, -0.0, 1e-9, -1e-9, 5e-10, 2e-9, 1.0000000000000002e-9, 9.999999999999999e-10,
     2.2250738585072014e-308, 5e-324, 1.0, 1e308]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _NEAR_TOLERANCE), min_size=3, max_size=6))
def test_asymmetry_by_half_sums_matches_the_sums_that_do_not_overflow(values):
    points = sorted(values)
    if len(points) == 3:
        build = lambda: BasisNumber.triangular(*points)
    elif len(points) == 4:
        build = lambda: BasisNumber.trapezoidal(*points)
    else:
        # three nested rows; with five points the 1-level is one point
        lows, highs = points[:3], points[-3:][::-1]
        build = lambda: BasisNumber.tabulated(zip((0.0, 0.5, 1.0), lows, highs))
    try:
        basis = build()
    except ValueError:
        return
    if all(math.isfinite(lo + hi) for _, lo, hi in basis.levels):
        assert is_asymmetric(basis) == _sum_decision(basis)


def test_basis_validation():
    with pytest.raises(ValueError):
        BasisNumber.triangular(1, 0, 2)
    with pytest.raises(ValueError):
        BasisNumber.trapezoidal(0, 2, 1, 3)
    with pytest.raises(ValueError):
        BasisNumber.tabulated([(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
    with pytest.raises(ValueError):
        # levels must nest
        BasisNumber.tabulated([(0.0, 0.0, 0.5), (1.0, -1.0, 1.0)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: BasisNumber.triangular(-1.7e308, -1.7e308, 1.7e308),
        lambda: BasisNumber.trapezoidal(-1e308, 0.0, 0.0, 1e308),
        lambda: BasisNumber.tabulated([(0.0, -1e308, 1e308), (0.5, -1.0, 1.0), (1.0, 0.0, 0.0)]),
    ],
    ids=["triangular", "trapezoidal", "tabulated"],
)
def test_basis_span_must_be_a_finite_double(build):
    # level(0.5) of the triangle was (-1.7e+308, -inf): d - b overflowed
    with pytest.raises(ValueError, match=r"span inf that is not a finite double"):
        build()


def _parent_tabulated_accepts(levels) -> bool:
    """Reference: the row checks the constructors made before the type made them."""
    rows = sorted((float(a), float(lo), float(hi)) for a, lo, hi in levels)
    if len(rows) < 2:
        return False
    for a, lo, hi in rows:
        if not all(map(math.isfinite, (a, lo, hi))) or not 0.0 <= a <= 1.0 or lo > hi:
            return False
    if rows[0][0] != 0.0 or rows[-1][0] != 1.0:
        return False
    for (a0, lo0, hi0), (a1, lo1, hi1) in zip(rows, rows[1:]):
        if a0 == a1 or lo1 < lo0 or hi1 > hi0:
            return False
    # the 0-level span check, which the type made before too
    return math.isfinite(rows[0][2] - rows[0][1])


_ROW_ALPHAS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.25, 1.5, math.nan, math.inf, -math.inf]),
    st.floats(0.0, 1.0),
)
_ROW_EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _basis_rows(draw):
    """Row lists: nested tables with one entry maybe replaced, or free draws."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(_ROW_ALPHAS, _ROW_EDGES, _ROW_EDGES), max_size=5))
    n = draw(st.integers(2, 5))
    alphas = [0.0, *draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2)), 1.0]
    points = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2 * n, max_size=2 * n)))
    rows = [list(row) for row in zip(draw(st.permutations(alphas)), points[:n], points[n:][::-1])]
    if draw(st.booleans()):
        # NaN, an infinity, a duplicate alpha, an inverted level or one that does not nest
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        rows[i][k] = draw(_ROW_ALPHAS if k == 0 else _ROW_EDGES)
    return [tuple(row) for row in rows]


@settings(max_examples=1000, deadline=None)
@given(_basis_rows(), st.lists(st.floats(0.0, 1.0), max_size=6))
@example([(0.0, 1.0, 0.0), (1.0, 5.0, 5.0)], [0.5])
@example([(1.0, 5.0, 5.0), (0.0, 0.0, 10.0)], [0.5])
def test_basis_accepts_exactly_the_tables_the_constructor_checks_accepted(levels, alphas):
    rows = sorted((float(a), float(lo), float(hi)) for a, lo, hi in levels)
    if not _parent_tabulated_accepts(levels):
        with pytest.raises(ValueError):
            BasisNumber(tuple(rows))
        with pytest.raises(ValueError):
            BasisNumber.tabulated(levels)
        return
    basis = BasisNumber(tuple(rows))
    assert basis == BasisNumber.tabulated(levels)
    if list(levels) != rows:
        with pytest.raises(ValueError, match="must increase strictly|must run from 0 to 1"):
            BasisNumber(tuple(levels))
    cuts = [basis.level(alpha) for alpha in sorted({0.0, 1.0, *alphas, *(a for a, _, _ in rows)})]
    for lo, hi in cuts:
        assert lo <= hi
    for (lo0, hi0), (lo1, hi1) in zip(cuts, cuts[1:]):
        assert lo0 <= lo1 and hi1 <= hi0


def test_basis_refuses_tables_built_directly():
    # level(0.5) was the inverted interval (3.0, 2.5)
    with pytest.raises(ValueError, match=r"alpha=0.0 has lower 1.0 > upper 0.0"):
        BasisNumber(((0.0, 1.0, 0.0), (1.0, 5.0, 5.0)))
    # level raised IndexError on rows out of order
    with pytest.raises(ValueError, match="must run from 0 to 1"):
        BasisNumber(((1.0, 5.0, 5.0), (0.0, 0.0, 10.0)))
    with pytest.raises(ValueError, match=r"alpha=1.0 \[-2.0, 0.0\] leaves \[-1.0, 1.0\] at alpha=0.0"):
        BasisNumber(((0.0, -1.0, 1.0), (1.0, -2.0, 0.0)))
    with pytest.raises(ValueError, match="must increase strictly"):
        BasisNumber(((0.0, -1.0, 1.0), (0.0, -1.0, 1.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="all must be finite"):
        BasisNumber(((0.0, -1.0, math.nan), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="at least its 0- and 1-levels"):
        BasisNumber(((0.0, -1.0, 1.0),))
    basis = BasisNumber(((0, -1, 2), (1, 0, 0)))
    assert basis.levels == ((0.0, -1.0, 2.0), (1.0, 0.0, 0.0))
    assert all(type(x) is float for row in basis.levels for x in row)


@settings(max_examples=500, deadline=None)
@given(st.lists(_ROW_EDGES, min_size=3, max_size=4))
def test_triangular_and_trapezoidal_accept_what_their_own_checks_accepted(values):
    build = BasisNumber.triangular if len(values) == 3 else BasisNumber.trapezoidal
    accepted = (
        all(map(math.isfinite, values))
        and values == sorted(values)
        and math.isfinite(values[-1] - values[0])
    )
    if accepted:
        build(*values)
    else:
        with pytest.raises(ValueError):
            build(*values)


def test_tabulated_interpolation_is_linear():
    table = BasisNumber.tabulated([(0.0, -2.0, 4.0), (1.0, 0.0, 0.0)])
    tri = BasisNumber.triangular(-2, 0, 4)
    for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
        assert table.level(alpha) == pytest.approx(tri.level(alpha))


def test_one_level_value():
    assert BasisNumber.triangular(-1, 0.25, 2).one_level_value() == 0.25
    with pytest.raises(ValueError):
        BasisNumber.trapezoidal(0, 1, 2, 3).one_level_value()


def _kind_level(points, alpha):
    """Reference: the closed-form triangular and trapezoidal level formulas."""
    if len(points) == 3:
        a, b, d = points
        return a + alpha * (b - a), d - alpha * (d - b)
    a, b, c, d = points
    return a + alpha * (b - a), d - alpha * (d - c)


def _hex(values):
    return [x.hex() for x in values]


_ENDPOINTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # ties and signed zeros
    st.sampled_from([-0.0, 0.0, -0.4, 1.175, 1.33]),
)


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(_ENDPOINTS, min_size=3, max_size=4),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
# the closed form puts this basis's 1-level at [1.1750000000000003, 1.175]
@example([-0.4, 1.175, 1.33], 0.5)
@example([-0.4, 1.175, 1.175, 1.33], 0.5)
def test_two_row_levels_are_the_stored_endpoints_and_the_closed_forms(values, alpha):
    points = sorted(values)
    build = BasisNumber.triangular if len(points) == 3 else BasisNumber.trapezoidal
    if not math.isfinite(points[-1] - points[0]):
        with pytest.raises(ValueError, match="not a finite double"):
            build(*points)
        return
    basis = build(*points)
    if len(points) == 3:
        assert basis.one_level_value().hex() == points[1].hex()
    assert _hex(basis.level(0.0)) == _hex((points[0], points[-1]))
    assert _hex(basis.level(1.0)) == _hex((points[1], points[-2]))
    assert _hex(basis.level(alpha)) == _hex(_kind_level(points, alpha))


def test_space_rejects_symmetric_basis():
    with pytest.raises(ValueError):
        LcSpace(BasisNumber.triangular(-1, 0, 1))
    space = LcSpace(BasisNumber.triangular(-0.5, 0, 0.51))
    assert space.basis.one_level_value() == 0.0
    bands = [alpha_cut(LcNumber(2, 3), space.basis, a) for a in [0.0, 1.0]]
    assert (bands[0].lower, bands[0].upper) == (0.5, 2 + 3 * 0.51)
    assert bands[1].lower == bands[1].upper == 2.0
    assert d_infty(LcNumber(1, 0), LcNumber(4, 0), space.basis) == 3.0


# ---------------------------------------------------------------------------
# field operations: pinned examples

def test_add_sub_examples():
    assert LcNumber(1, 2) + LcNumber(2, 3) == LcNumber(3, 5)
    z = LcNumber(4.25, -1.5)
    assert z + LcNumber(0, 0) == z
    assert LcNumber(1, 1) + LcNumber(-1, -1) == LcNumber(0, 0)
    assert LcNumber(3, 5) - LcNumber(2, 3) == LcNumber(1, 2)
    assert z - z == LcNumber(0, 0)
    assert LcNumber(0, 0) - LcNumber(2.5, -3) == LcNumber(-2.5, 3)
    # an operand that is neither an element nor a real is not one of the field's
    with pytest.raises(TypeError):
        LcNumber(1, 2) + "x"
    assert (LcNumber(1, 2) == "x") is False


def test_mul_examples():
    assert LcNumber(1, 2) * LcNumber(2, 3) == LcNumber(-4, 7)
    # a crisp left factor acts as the scalar product
    assert LcNumber(2.5, 0) * LcNumber(3, 4) == LcNumber(7.5, 10)
    z = LcNumber(-1.25, 0.75)
    assert z * LcNumber(1, 0) == z


def test_div_examples():
    assert_components(LcNumber(1, 0) / LcNumber(2, 3), 2 / 13, -3 / 13)
    p2x = LcNumber(0.18, 0.003) / LcNumber(0.007, 0)
    assert_components(p2x, 0.18 / 0.007, 0.003 / 0.007)
    assert abs(p2x.re - 25.714) < 1e-3 and abs(p2x.fu - 0.4286) < 1e-3
    z = LcNumber(3, -4)
    assert_components(z / z, 1.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        LcNumber(1, 1) / LcNumber(0, 0)


def test_norm_examples():
    assert norm_phi(LcNumber(3, 4)) == 5.0
    assert norm_phi(LcNumber(0, 0)) == 0.0
    assert norm_phi(LcNumber(1, math.sqrt(3))) == pytest.approx(2.0, abs=1e-15)


def test_elements_are_immutable_values():
    z = LcNumber(1, 2)
    with pytest.raises(AttributeError):
        z.re = 3.0
    assert hash(z) == hash(LcNumber(1.0, 2.0))
    assert len({z, LcNumber(1.0, 2.0), LcNumber(2, 1)}) == 2
    assert pickle.loads(pickle.dumps(z)) == z


def test_conjugate_examples():
    assert conjugate(LcNumber(1, 2)) == LcNumber(1, -2)
    assert conjugate(LcNumber(5, 0)) == LcNumber(5, 0)
    assert LcNumber(1, 2) * conjugate(LcNumber(1, 2)) == LcNumber(5, 0)


def test_polar_examples():
    p = to_polar(LcNumber(1, math.sqrt(3)))
    assert p.modulus == pytest.approx(2.0, abs=1e-15)
    assert p.argument == pytest.approx(math.pi / 3, abs=1e-15)
    assert to_polar(LcNumber(1, 0)) == to_polar(LcNumber(1, 0))
    assert to_polar(LcNumber(1, 0)).argument == 0.0
    assert to_polar(LcNumber(0, 1)).argument == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        to_polar(LcNumber(0, 0))


def test_argument_principal_range():
    for z in (LcNumber(-1, 0), LcNumber(-1, -0.0), LcNumber(-2, 1e-300)):
        arg = to_polar(z).argument
        assert -math.pi < arg <= math.pi


def test_pow_int_examples():
    root = nth_root(LcNumber(1, math.sqrt(3)), 2, 0)
    assert_components(root, math.sqrt(2) * math.sqrt(3) / 2, math.sqrt(2) / 2)
    cube = pow_int(LcNumber(1, 1), 3)
    assert_components(cube, -2.0, 2.0)
    z = LcNumber(0.3, -0.7)
    assert pow_int(z, 1) == z
    assert pow_int(z, 0) == LcNumber(1, 0)
    assert pow_int(LcNumber(0, 0), 5) == LcNumber(0, 0)
    with pytest.raises(ZeroDivisionError):
        pow_int(LcNumber(0, 0), -1)
    # an int exponent is named as given, every digit of it
    with pytest.raises(OverflowError, match=r"^power LcNumber\(1\.0, 1\.0\)\^100000000000000000000 is out of range$"):
        pow_int(LcNumber(1, 1), 10**20)


def test_pow_int_negative_matches_reciprocal():
    z = LcNumber(1.5, -2.0)
    expected = as_complex(z) ** -3
    assert_matches_complex(pow_int(z, -3), expected, rel=1e-12)


def test_nth_root_branches():
    z = LcNumber(-3, 4)
    for n in (2, 3, 5):
        for k in range(n):
            back = pow_int(nth_root(z, n, k), n)
            assert_matches_complex(back, as_complex(z), rel=1e-12)
    assert nth_root(z, 3, 4) == nth_root(z, 3, 1)
    with pytest.raises(ValueError):
        nth_root(LcNumber(0, 0), 2)
    with pytest.raises(ValueError):
        nth_root(z, 0)


# signed zeros, subnormals, the edges of the normal range, values near
# overflow and the non-finite doubles, besides any double at all
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-160,
                     1.3407807929942596e154, 1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(),
)


def _outcome(fn):
    try:
        return [x.hex() for x in fn()]
    except ArithmeticError as exc:
        return type(exc)


@settings(deadline=None, max_examples=500)
@given(
    st.lists(_EDGE_FLOATS.map(lambda x: x if x == 0.0 else abs(x)), min_size=1, max_size=8),
    st.one_of(st.integers(1, 3000), st.integers(1, 60).map(lambda n: 1.0 / n)),
)
def test_pow_each_is_the_builtin_power_bit_for_bit(bases, e):
    # the exponents of pow_int and nth_root, over moduli and a signed zero,
    # with the float exponent repeated for every entry
    got = _outcome(lambda: core._each(math.pow, np.array(bases), float(e)).tolist())
    assert got == _outcome(lambda: [pow(b, e) for b in bases])


@settings(deadline=None, max_examples=500)
@given(st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), min_size=1, max_size=8))
def test_rect_is_the_polar_product_bit_for_bit(pairs):
    m, angle = (np.array(column) for column in zip(*pairs))
    if not all(map(math.isfinite, m.tolist() + angle.tolist())):
        with pytest.raises(FloatingPointError):
            core._rect(m, angle)
        return
    re, fu = core._rect(m, angle)
    expected = [(r * math.cos(t), r * math.sin(t)) for r, t in pairs]
    assert [(x.hex(), y.hex()) for x, y in zip(re.tolist(), fu.tolist())] == [(x.hex(), y.hex()) for x, y in expected]


def _each_cases():
    # 10001 entries, more than a fixed block of 4096 would hold
    rng = np.random.default_rng(32)
    z = (rng.standard_normal(10001) + 1j * rng.standard_normal(10001)) * 10.0 ** rng.integers(-3, 4, 10001)
    z[:3] = [-0.0, complex(-1.0, -0.0), complex(0.0, -2.5)]
    pairs = z.tolist()
    three = np.broadcast_to(np.float64(3.0), len(z))
    moduli = np.abs(z.real)
    assert (z.real.strides, z.imag.strides, three.strides) == ((16,), (16,), (0,))
    return {
        "strided-real-views": (math.atan2, (z.imag, z.real), np.float64,
                               [math.atan2(w.imag, w.real) for w in pairs]),
        "zero-stride-broadcast": (math.hypot, (three, z.real), np.float64,
                                  [math.hypot(3.0, w.real) for w in pairs]),
        "repeated-float": (math.pow, (moduli, 0.5), np.float64, [pow(abs(w.real), 0.5) for w in pairs]),
        "complex-rect": (cmath.rect, (moduli, z.imag), np.complex128,
                         [cmath.rect(abs(w.real), w.imag) for w in pairs]),
    }


@pytest.mark.parametrize("case", ["strided-real-views", "zero-stride-broadcast", "repeated-float", "complex-rect"])
def test_each_is_the_per_entry_call_bit_for_bit(case):
    fn, args, dtype, expected = _each_cases()[case]
    got = core._each(fn, *args, dtype=dtype)
    assert got.dtype == dtype and len(got) == len(expected) == 10001
    assert np.array_equal(got.view(np.uint64), np.array(expected, dtype).view(np.uint64))


def test_each_raises_what_the_float_call_raises_mid_array():
    x = np.zeros(10001)
    x[5000] = 1000.0
    with pytest.raises(ArithmeticError) as expected:
        math.exp(1000.0)
    with pytest.raises(ArithmeticError) as got:
        core._each(math.exp, x)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_alpha_cut_examples():
    basis = BasisNumber.triangular(-0.5, 0, 1)
    band1 = alpha_cut(LcNumber(2, 3), basis, 1.0)
    assert (band1.lower, band1.upper) == (2.0, 2.0)
    band0 = alpha_cut(LcNumber(2, 3), basis, 0.0)
    assert (band0.lower, band0.upper) == (0.5, 5.0)
    crisp = alpha_cut(LcNumber(-7.5, 0), basis, 0.4)
    assert (crisp.lower, crisp.upper) == (-7.5, -7.5)
    with pytest.raises(ValueError):
        alpha_cut(LcNumber(1, 1), basis, 1.5)


def test_alpha_cut_negative_coefficient_swaps_endpoints():
    basis = BasisNumber.triangular(-0.5, 0, 1)
    band = alpha_cut(LcNumber(0, -2), basis, 0.0)
    assert (band.lower, band.upper) == (-2.0, 1.0)


def test_d_infty_examples():
    basis = BasisNumber.triangular(-0.5, 0, 1)
    z = LcNumber(1.25, -3)
    assert d_infty(z, z, basis) == 0.0
    assert d_infty(LcNumber(4, 0), LcNumber(1.5, 0), basis) == 2.5
    assert d_infty(LcNumber(0, 1), LcNumber(0, 0), basis) == 1.0


_BAND_BASES = [
    BasisNumber.triangular(-0.5, 0.0, 1.0),
    BasisNumber.triangular(0.0, 0.5, 1.0),
    BasisNumber.trapezoidal(-2.0, -1.0, 0.0, 3.0),
    BasisNumber.tabulated([(0.0, -1.0, 2.0), (0.3, -0.5, 1.0), (1.0, 0.25, 0.25)]),
]
_SIGNED_EDGES = _EDGE_FLOATS.flatmap(lambda x: st.sampled_from([x, -x]))


def _edge_hex(edges):
    return [(lower.hex(), upper.hex()) for lower, upper in edges]


@settings(deadline=None, max_examples=300)
@given(
    st.tuples(_SIGNED_EDGES, _SIGNED_EDGES),
    st.tuples(_SIGNED_EDGES, _SIGNED_EDGES),
    st.sampled_from(_BAND_BASES),
    st.lists(st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4),
)
# signed zeros, and an infinite fuzzy part times a zero basis endpoint
@example((-0.0, 0.0), (0.0, -0.0), _BAND_BASES[0], [0.0, 0.5, 1.0])
@example((-0.0, -5e-324), (1.0, math.inf), _BAND_BASES[1], [0.0, 1.0])
# a NaN part, and infinite fuzzy parts over a zero basis endpoint: NaN distances
@example((math.nan, 0.0), (1.0, 0.0), _BAND_BASES[0], [0.0])
@example((1.0, math.nan), (5.0, 0.0), _BAND_BASES[0], [1.0])
@example((0.0, math.inf), (1.0, math.inf), _BAND_BASES[0], [0.5])
def test_alpha_cut_d_infty_and_the_attached_bands_share_one_band_kernel(b, c, basis, alphas):
    cuts = [alpha_cut(LcNumber(*b), basis, alpha) for alpha in alphas]
    edges = [(cut.lower, cut.upper) for cut in cuts]
    try:
        traj = Trajectory([0.0], ("w",), [list(b)]).attach_bands(basis, alphas)
    except OverflowError:
        # a band edge that is not a finite double is refused
        assert not all(map(math.isfinite, sum(edges, ())))
    else:
        assert _edge_hex(edges) == _edge_hex(traj.bands["w"][0].tolist())
    # the sup metric: the largest edge distance at the rows of the basis,
    # or NaN when any edge distance is NaN
    distances = [0.0]
    for alpha, _, _ in basis.levels:
        cut_b, cut_c = alpha_cut(LcNumber(*b), basis, alpha), alpha_cut(LcNumber(*c), basis, alpha)
        distances += [abs(cut_b.lower - cut_c.lower), abs(cut_b.upper - cut_c.upper)]
    want = math.nan if any(map(math.isnan, distances)) else max(distances)
    assert d_infty(LcNumber(*b), LcNumber(*c), basis).hex() == want.hex()


# ---------------------------------------------------------------------------
# oracle equivalence and field axioms

def test_field_operations_match_complex_oracle():
    rng = random.Random(987123)
    for _ in range(1000):
        b = LcNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        c = LcNumber(rng.uniform(-10, 10), rng.uniform(-10, 10))
        zb, zc = as_complex(b), as_complex(c)
        assert_matches_complex(b + c, zb + zc, rel=1e-12)
        assert_matches_complex(b - c, zb - zc, rel=1e-12)
        assert_matches_complex(b * c, zb * zc, rel=1e-12)
        if abs(zc) > 1e-3:
            assert_matches_complex(b / c, zb / zc, rel=1e-12)


@settings(deadline=None, max_examples=200)
@given(elements, elements, elements)
def test_field_axioms(a, b, c):
    tol = 1e-10

    def close(u, v):
        return norm_phi(u - v) <= tol * max(1.0, norm_phi(u), norm_phi(v))

    assert close(a + b, b + a)
    assert close((a + b) + c, a + (b + c))
    assert close(a * b, b * a)
    assert close((a * b) * c, a * (b * c))
    assert close(a * (b + c), a * b + a * c)


@settings(deadline=None, max_examples=200)
@given(elements)
def test_reciprocal(z):
    if norm_phi(z) < 1e-6:
        return
    residual = (LcNumber(1, 0) / z) * z - LcNumber(1, 0)
    assert norm_phi(residual) < 1e-10


@settings(deadline=None, max_examples=200)
@given(elements, elements)
def test_polar_product_law(z1, z2):
    if norm_phi(z1) < 1e-6 or norm_phi(z2) < 1e-6:
        return
    prod = z1 * z2
    n1, n2, np_ = norm_phi(z1), norm_phi(z2), norm_phi(prod)
    assert math.isclose(np_, n1 * n2, rel_tol=1e-12)
    if np_ < 1e-6:
        return
    total = to_polar(z1).argument + to_polar(z2).argument
    diff = (to_polar(prod).argument - total) % (2 * math.pi)
    assert min(diff, 2 * math.pi - diff) < 1e-9


@settings(deadline=None, max_examples=100)
@given(elements, st.integers(min_value=0, max_value=10))
def test_alpha_band_nesting(z, steps):
    basis = BasisNumber.triangular(-0.5, 0, 0.51)
    alphas = [i / 10 for i in range(11)]
    bands = [alpha_cut(z, basis, a) for a in alphas]
    for outer, inner in zip(bands, bands[1:]):
        assert outer.lower <= inner.lower and inner.upper <= outer.upper


def test_polar_round_trip_over_magnitudes():
    rng = random.Random(5150)
    for _ in range(500):
        mag = 10 ** rng.uniform(-6, 6)
        ang = rng.uniform(-math.pi, math.pi)
        z = LcNumber(mag * math.cos(ang), mag * math.sin(ang))
        back = from_polar(to_polar(z))
        assert norm_phi(back - z) <= 1e-12 * norm_phi(z)


def test_alpha_band_validation():
    with pytest.raises(ValueError):
        AlphaBand(1.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        AlphaBand(0.5, 1.0, 0.0)
