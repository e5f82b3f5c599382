import contextlib
import importlib
import io
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rfa import (
    BasisNumber,
    LcNumber,
    Path,
    conjugate,
    contour_integral,
    cross_product_psi,
    exp_rfa,
    log_rfa,
    norm_phi,
    nth_root,
)
from rfa.cli import (
    ExprError,
    LiteralError,
    UnboundVariableError,
    eval_expression,
    parse_fuzzy_literal,
    print_literal,
)
from rfa.cli import expressions
from rfa.cli.expressions import eval_expression_batch
from helpers import assert_components


# ---------------------------------------------------------------------------
# literals

def test_literal_examples():
    basis = parse_fuzzy_literal("tri(-0.5;0;0.51)")
    assert isinstance(basis, BasisNumber)
    assert basis.levels == ((0.0, -0.5, 0.51), (1.0, 0.0, 0.0))
    assert parse_fuzzy_literal("100 + 2*A") == LcNumber(100, 2)
    assert parse_fuzzy_literal("3") == LcNumber(3, 0)


def test_literal_variants():
    assert parse_fuzzy_literal("1.5e-3+2E2*A") == LcNumber(1.5e-3, 200)
    assert parse_fuzzy_literal("  -2.5 - 3*A ") == LcNumber(-2.5, -3)
    assert parse_fuzzy_literal("−0.5 + 1*A") == LcNumber(-0.5, 1)
    trap = parse_fuzzy_literal("trap(0;1;2;3)")
    assert trap == BasisNumber.trapezoidal(0, 1, 2, 3)
    assert trap.levels == ((0.0, 0.0, 3.0), (1.0, 1.0, 2.0))


def test_literal_errors_carry_positions():
    with pytest.raises(LiteralError) as info:
        parse_fuzzy_literal("1 + *A")
    assert info.value.position == 4
    with pytest.raises(LiteralError):
        parse_fuzzy_literal("tri(1;0;2)")
    with pytest.raises(LiteralError) as info:
        parse_fuzzy_literal("2 + 3*A junk")
    assert info.value.position == 8
    with pytest.raises(LiteralError):
        parse_fuzzy_literal("tri(1;2)")


@pytest.mark.parametrize(
    "text, re, fu",
    [
        ("-0.0 + 1*A", -0.0, 1.0),
        ("1 - 0*A", 1.0, -0.0),
        ("1 - -0*A", 1.0, 0.0),
        ("2 + -3*A", 2.0, -3.0),
        ("2 - -3*A", 2.0, 3.0),
        ("+1.5 + +2*A", 1.5, 2.0),
        ("-0.0", -0.0, 0.0),
        (".5-.25*A", 0.5, -0.25),
        ("1e300 + 1e-300*A", 1e300, 1e-300),
    ],
)
def test_literal_signs_are_bit_exact(text, re, fu):
    z = parse_fuzzy_literal(text)
    assert (z.re.hex(), z.fu.hex()) == (re.hex(), fu.hex())


def test_basis_literal_keeps_signed_zero():
    basis = parse_fuzzy_literal(" tri ( -0 ; 0 ; 1 ) ")
    rows = [[x.hex() for x in row] for row in basis.levels]
    assert rows == [[(0.0).hex(), (-0.0).hex(), (1.0).hex()], [(1.0).hex(), (0.0).hex(), (0.0).hex()]]


@pytest.mark.parametrize(
    "text, position",
    [("- 2", 0), ("--2", 0), ("2 + - 3*A", 4), ("1 + 2*A$", 7), ("tri(1;2;3", 9), ("1;2", 1)],
)
def test_literal_sign_must_touch_its_number(text, position):
    with pytest.raises(LiteralError) as info:
        parse_fuzzy_literal(text)
    assert info.value.position == position


@pytest.mark.parametrize(
    "text, position", [("1e309", 0), ("-1e309", 1), ("2 + 1e400*A", 4), ("tri(-1;0;1e999)", 9)]
)
def test_literal_beyond_the_double_range_is_refused(text, position):
    with pytest.raises(LiteralError, match="beyond the double range") as info:
        parse_fuzzy_literal(text)
    assert info.value.position == position


def test_print_parse_round_trip():
    rng = random.Random(2024)
    for _ in range(1000):
        if rng.random() < 0.2:
            z = LcNumber(rng.uniform(-1e6, 1e6), 0.0)
        else:
            z = LcNumber(
                rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-8, 8),
                rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-8, 8),
            )
        assert parse_fuzzy_literal(print_literal(z)) == z


def test_basis_print_round_trip():
    basis = BasisNumber.triangular(-1, 0, 1.01)
    assert parse_fuzzy_literal(print_literal(basis)) == basis
    trap = BasisNumber.trapezoidal(-1, -0.25, 0.5, 2)
    assert parse_fuzzy_literal(print_literal(trap)) == trap


def test_basis_print_is_canonical():
    trap = BasisNumber.trapezoidal(-1, 0.25, 0.25, 2)
    assert print_literal(trap) == "tri(-1.0;0.25;2.0)"
    assert trap == BasisNumber.triangular(-1, 0.25, 2)
    # a signed-zero 1-level is an interval in bits, so it stays a trapezoid
    signed = BasisNumber.trapezoidal(-1, -0.0, 0.0, 2)
    assert print_literal(signed) == "trap(-1.0;-0.0;0.0;2.0)"
    back = parse_fuzzy_literal(print_literal(signed))
    assert [[x.hex() for x in row] for row in back.levels] == [[x.hex() for x in row] for row in signed.levels]
    assert print_literal(BasisNumber.tabulated([(0.0, -2.0, 4.0), (1.0, 0.0, 0.0)])) == "tri(-2.0;0.0;4.0)"
    with pytest.raises(ValueError):
        print_literal(BasisNumber.tabulated([(0.0, -0.5, 1.0), (0.5, -0.25, 0.5), (1.0, 0.0, 0.0)]))
    # a plain real is no literal value: an element is written with its fuzzy part
    with pytest.raises(TypeError):
        print_literal(3.0)


# ---------------------------------------------------------------------------
# expressions

def test_expression_examples():
    assert eval_expression("(1+2*A) * (2+3*A)") == LcNumber(-4, 7)
    assert eval_expression("psi_mul(1+2*A, 2+3*A)") == LcNumber(2, 7)
    assert eval_expression("exp(0)") == LcNumber(1, 0)


def test_expression_precedence_and_power():
    assert eval_expression("2+3*4") == LcNumber(14, 0)
    assert eval_expression("-2^2") == LcNumber(-4, 0)
    assert eval_expression("2^3^2") == LcNumber(512, 0)
    moivre = eval_expression("(1+1*A)^3")
    repeated = eval_expression("(1+1*A)*(1+1*A)*(1+1*A)")
    assert_components(moivre, repeated.re, repeated.fu)
    root = eval_expression("(1+3^0.5*A)^0.5")
    assert_components(root, math.sqrt(2) * math.sqrt(3) / 2, math.sqrt(2) / 2)


def test_expression_functions():
    assert eval_expression("conj(1+2*A)") == LcNumber(1, -2)
    assert eval_expression("norm(3+4*A)") == LcNumber(5, 0)
    polar = eval_expression("polar(1+3^0.5*A)")
    assert_components(polar, 2.0, math.pi / 3)
    sqrt2 = eval_expression("sqrt(4)")
    assert_components(sqrt2, 2.0, 0.0)
    assert_components(eval_expression("log(exp(1))"), 1.0, 0.0)
    branch = eval_expression("log(1, 1)")
    assert_components(branch, 0.0, 2 * math.pi, tol=1e-15)


def test_expression_bindings_and_a1():
    z = LcNumber(1, 1)
    assert eval_expression("z*z", {"z": z}) == LcNumber(0, 2)
    assert eval_expression("psi_mul(z, z)", {"z": z}, a1=1.0) == LcNumber(0, 4)
    assert eval_expression("A") == LcNumber(0, 1)


def test_expression_errors_are_distinct():
    with pytest.raises(ExprError) as info:
        eval_expression("1 + * 2")
    assert not isinstance(info.value, UnboundVariableError)
    assert info.value.position == 4
    with pytest.raises(UnboundVariableError):
        eval_expression("nope + 1")
    with pytest.raises(ZeroDivisionError):
        eval_expression("1 / (0 + 0*A)")
    with pytest.raises(ValueError) as info:
        eval_expression("log(0)")
    assert not isinstance(info.value, ExprError)
    with pytest.raises(ExprError):
        eval_expression("z ^ (1+1*A)", {"z": LcNumber(2, 0)})
    with pytest.raises(ExprError):
        eval_expression("mystery(1)")


def test_crisp_expressions_agree_with_real_arithmetic():
    cases = [
        ("((2.5+3)*4-1)/2", ((2.5 + 3) * 4 - 1) / 2),
        ("7^2 - 3.5", 7**2 - 3.5),
        ("2*(3+4)-5/8", 2 * (3 + 4) - 5 / 8),
        ("exp(1)", math.e),
    ]
    for text, expected in cases:
        got = eval_expression(text)
        assert got.fu == 0.0
        assert math.isclose(got.re, expected, rel_tol=1e-15)


def test_crisp_random_expressions_agree():
    rng = random.Random(642)
    for _ in range(100):
        a, b, c = (round(rng.uniform(0.5, 9.5), 3) for _ in range(3))
        text = f"({a}+{b})*{c} - {a}/{b}"
        got = eval_expression(text)
        assert math.isclose(got.re, (a + b) * c - a / b, rel_tol=1e-12)
        assert got.fu == 0.0


# ---------------------------------------------------------------------------
# array evaluation against the per-sample closures

_LEAVES = st.sampled_from(["z", "z", "A", "k", "q", "0", "1", "2", "0.5", "3", "1.175", "1e-3"])
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "-3", "0.5", "-0.5", "2.5", "(1+z)", "norm(z)", "(2+0*A)"])
_BRANCHES = st.sampled_from(["0", "1", "-2", "0.5", "z"])


# psi_mul takes two arguments and has its own strategy below
_UNARY_FUNCTIONS = [name for name in expressions._FUNCTIONS if name != "psi_mul"]


def test_the_scalar_and_array_tables_hold_the_same_operations():
    assert expressions._SCALAR.keys() == expressions._ARRAY.keys()
    # every entry is an operator, an inner node kind or a function the grammar calls
    inner = {"const", "neg", "+", "-", "*", "/", "^", "log_branch"}
    assert expressions._SCALAR.keys() == inner | set(expressions._FUNCTIONS)
    # each function and power is one kernel, the array table's own entry
    assert all(expressions._ARRAY[key] is kernel for key, kernel in expressions._KERNELS.items())


# signed zeros, subnormals, values near overflow, the non-finite doubles and
# plain values, each with either sign, besides any double at all
_EDGE_PARTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 2.0, 3.0, 1.3407807929942596e154,
                     1e308, 1.7976931348623157e308, math.inf, math.nan]),
    st.floats(),
).flatmap(lambda x: st.sampled_from([x, -x]))
_EDGE_ELEMENTS = st.tuples(_EDGE_PARTS, _EDGE_PARTS)
# exponents and log branches: crisp integers and reals, out of range, not
# finite and fuzzy
_CONSTANTS = st.sampled_from([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (-1.0, 0.0), (-2.0, 0.0), (-3.0, 0.0),
                              (0.5, 0.0), (-0.5, 0.0), (2.5, 0.0), (1e20, 0.0), (-1e300, 0.0), (math.inf, 0.0),
                              (math.nan, 0.0), (2.0, 1.0)])


# the per-sample reference: ``LcNumber``'s operators and the public element
# functions, so that no kernel is checked against itself; ``^``,
# ``log_branch`` and ``polar`` have no public function and keep the scalar
# evaluator's entry
_REFERENCE = {
    "const": expressions._SCALAR["const"],
    "neg": operator.neg,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": expressions._SCALAR["^"],
    "log_branch": expressions._SCALAR["log_branch"],
    "psi_mul": cross_product_psi,
    "exp": exp_rfa,
    "log": log_rfa,
    "sqrt": lambda z: nth_root(z, 2),
    "conj": conjugate,
    "norm": lambda z: LcNumber(norm_phi(z), 0.0),
    "polar": expressions._SCALAR["polar"],
}


def _parts_outcome(fn):
    try:
        z = fn()
    except (ArithmeticError, ValueError):
        return "raises"
    return z.re.hex(), z.fu.hex()


@pytest.mark.parametrize("key", sorted(expressions._ARRAY))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_array_operation_gives_the_scalar_bits_or_raises(key, data):
    n = data.draw(st.integers(1, 6), label="samples")
    elements = st.lists(_EDGE_ELEMENTS, min_size=n, max_size=n)
    reference, array = _REFERENCE[key], expressions._ARRAY[key]
    if key == "const":
        constant = LcNumber(*data.draw(_EDGE_ELEMENTS, label="constant"))
        re, fu = array(constant)
        assert (re.hex(), fu.hex()) == _parts_outcome(lambda: reference(constant))
        return
    operands, options = [data.draw(elements, label="operand")], {}
    if key in ("+", "-", "*", "/", "psi_mul"):
        operands.append(data.draw(elements, label="second operand"))
    elif key in ("^", "log_branch"):
        # the same at every sample, as the array pass needs, or varying
        operands.append(data.draw(st.one_of(_CONSTANTS.map(lambda c: [c] * n), elements), label="exponent"))
        options["pos"] = 0
    if key == "psi_mul":
        options["a1"] = data.draw(st.sampled_from([0.0, 1.175, -0.4]), label="a1")
    # an array pass meets a constant as one float pair next to the samples
    arguments = [tuple(map(np.array, zip(*operand))) for operand in operands]
    if len(operands) == 2:
        side = data.draw(st.sampled_from([None, 0, 1]), label="constant operand")
        if side is not None:
            operands[side] = [operands[side][0]] * n
            arguments[side] = operands[side][0]
    expected = [
        _parts_outcome(lambda: reference(*(LcNumber(*operand[i]) for operand in operands), **options))
        for i in range(n)
    ]
    try:
        with np.errstate(all="ignore"):
            # a constant base under a power, or a zeroth power, is one float pair
            re, fu = (np.broadcast_to(part, n) for part in array(*arguments, **options))
    except (ArithmeticError, ValueError):
        event("the array pass raised")
        return
    event("the array pass returned")
    # a pass that returns must give every scalar value, none of which raises
    assert list(zip(map(float.hex, re.tolist()), map(float.hex, fu.tolist()))) == expected


def test_a_literal_error_is_an_expression_error():
    assert issubclass(LiteralError, ExprError)
    with pytest.raises(ExprError) as info:
        parse_fuzzy_literal("1 + 2*B")
    assert isinstance(info.value, LiteralError) and info.value.position == 6


def _grow(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        pair.map("({0[0]} + {0[1]})".format),
        pair.map("({0[0]} - {0[1]})".format),
        pair.map("({0[0]} * {0[1]})".format),
        pair.map("({0[0]} / {0[1]})".format),
        pair.map("psi_mul({0[0]}, {0[1]})".format),
        inner.map("-{}".format),
        st.tuples(inner, _EXPONENTS).map("({0[0]})^{0[1]}".format),
        st.tuples(inner, _BRANCHES).map("log({0[0]}, {0[1]})".format),
        st.tuples(st.sampled_from(_UNARY_FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=5)
# exact zero, both signed zeros on either real half-axis, and plain points
_VERTICES = st.one_of(
    st.sampled_from([0j, complex(-0.0, -0.0), -1 + 0j, complex(-2.0, -0.0), complex(-1.0, 0.5), 2 + 0j,
                     complex(3.0, -0.0), 1j, complex(0.5, -1.5)]),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)


def _outcome(fn):
    try:
        z = fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return z.re.hex(), z.fu.hex()


@settings(max_examples=200, deadline=None)
@given(
    _EXPRESSIONS,
    st.lists(_VERTICES, min_size=2, max_size=4),
    st.sampled_from([1.0, 1e-3, 1e100, 1e200]),
    st.integers(2, 120),
    st.sampled_from(["trapezoid", "simpson"]),
    st.sampled_from([0.0, 1.175, -0.4]),
)
# numpy's exp, atan2 and hypot round differently from libm at a few percent
# of all inputs, and these paths give them hundreds
@example("exp((k * z))", [-1 + 0.5j, 0.7 - 0.2j, 1.2 + 1j], 1.0, 120, "simpson", 0.0)
@example("polar(z)", [-2.5 + 0.5j, 0.7 - 2.2j, 1.2 + 1j], 1.0, 120, "simpson", 0.0)
# signed zeros: atan2 gives -pi at -0 - 0*A and -2 - 0*A, and -0.0 at 3 - 0*A
@example("(z)^2", [complex(-0.0, -0.0), 1 + 1j], 1.0, 5, "trapezoid", 0.0)
@example("sqrt(z)", [complex(3.0, -0.0), complex(-2.0, -0.0)], 1.0, 4, "trapezoid", 0.0)
@example("psi_mul(z, (k + z))", [1 + 1j, -2 + 0.5j], 1.0, 9, "trapezoid", 1.175)
# constants next to samples: a float-pair denominator, a transcendental
# computed once, a power of zero and a constant that raises at every sample
@example("z/A", [1 + 0.5j, complex(-0.0, 2.0), -1 + 0j], 1.0, 7, "trapezoid", 0.0)
@example("exp(1+2*A)*z", [-1 + 0.5j, 0.7 - 0.2j], 1.0, 9, "simpson", 0.0)
@example("z^0*z", [0j, 1 + 1j], 1.0, 5, "trapezoid", 0.0)
@example("log(0)*z", [1 + 0j, 2 + 1j], 1.0, 5, "trapezoid", 0.0)
# crisp exponents and branches that vary from sample to sample
@example("(z)^norm(z)", [1 + 0j, 2 + 1j], 1.0, 9, "trapezoid", 0.0)
@example("log(z, z)", [1 + 0j, 3 + 0j], 1.0, 3, "trapezoid", 0.0)
@example("(z)^-0.5", [complex(2.0, -0.0), 3 + 0j, 1j], 1.0, 9, "trapezoid", 0.0)
@example("((z * exp(z)) / (k - z))", [0.5 - 1.5j, -1 + 0.5j], 1.0, 12, "simpson", 0.0)
# hypot and exp return inf without raising: the modulus of z overflows on
# the later samples, the real part of k * z on all of them
@example("sqrt(z)", [1e308 + 1e308j, 1.7e308 + 1.7e308j], 1.0, 5, "trapezoid", 0.0)
@example("(z)^2", [1e308 + 1e308j, 1.7e308 + 1.7e308j], 1.0, 5, "trapezoid", 0.0)
@example("exp((k * z))", [1e308 + 1e308j, 1.4e308 + 1.4e308j], 1.0, 5, "simpson", 0.0)
# cmath.rect(inf, 0.0) is (inf, 0.0) where inf * sin(0.0) is nan
@example("exp((z * 2))", [1e308 + 0j, 1.5e308 + 0j], 1.0, 5, "trapezoid", 0.0)
def test_array_evaluation_matches_the_closures_bit_for_bit(expr, vertices, scale, samples, scheme, a1):
    env = {"k": LcNumber(0.75, -1.25)}
    path = Path.polyline([LcNumber(v.real * scale, v.imag * scale) for v in vertices], samples)

    def mapping(z):
        return eval_expression(expr, {**env, "z": z}, a1=a1)

    def batch(z):
        return eval_expression_batch(expr, {**env, "z": z}, a1=a1)

    try:
        with np.errstate(all="ignore"):
            values = batch(path.z)
    except (ArithmeticError, ValueError):
        event("the array pass raised")
    else:
        event("the array pass returned")
        # a pass that returns must give every closure value, none of which raises
        expected = [complex(mapping(z)) for z in path.points]
        got = values.tolist()
        assert [(v.real.hex(), v.imag.hex()) for v in got] == [(v.real.hex(), v.imag.hex()) for v in expected]
    mapping_with_batch = lambda z: mapping(z)
    mapping_with_batch.batch = batch
    with_batch = _outcome(lambda: contour_integral(mapping_with_batch, path, scheme))
    assert with_batch == _outcome(lambda: contour_integral(mapping, path, scheme))


def test_an_array_pass_computes_a_constant_subtree_once(monkeypatch):
    scale = exp_rfa(LcNumber(1.0, 2.0))
    calls = []

    class CountedMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def exp(self, x):
            calls.append(x)
            return math.exp(x)

    monkeypatch.setattr("rfa.analytic.math", CountedMath())
    z = np.linspace(-1.0, 1.0, 1000) + 0.5j
    values = eval_expression_batch("exp(1+2*A)*z", {"z": z})
    assert calls == [1.0]
    assert values.tolist() == [complex(scale * LcNumber(v.real, v.imag)) for v in z.tolist()]


def _integrate(monkeypatch, *argv):
    """``rfa integrate`` in process; its exit code, output and per-sample calls."""
    cli_main = importlib.import_module("rfa.cli.main")
    calls = []
    per_sample = cli_main.eval_expression

    def counted(*args, **kwargs):
        calls.append(1)
        return per_sample(*args, **kwargs)

    monkeypatch.setattr(cli_main, "eval_expression", counted)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main.main(["integrate", *argv])
    return code, out.getvalue() + err.getvalue(), len(calls)


_POLYNOMIAL = ("c2*z^2 + c1*z + c0", "--bind", "c2=0.3 - 1.1*A", "--bind", "c1=-0.6 + 0.25*A",
               "--bind", "c0=1.5 + 0.4*A")


def test_integrate_takes_the_array_pass(monkeypatch):
    # a guard in the array pass that raised on these would keep every digit
    # and replay all 10001 samples; the digits are the per-sample closures'
    path = ("--path", "-1+0.5*A, 0.7-0.2*A, 1.2+1*A")
    runs = {
        ("k*exp(c*z)", *path, "--bind", "k=1.2 - 0.4*A", "--bind", "c=0.8 + 0.3*A", "--scheme", "simpson"):
            "2.062633966618707 + 1.6354181208869754*A\n",
        (*_POLYNOMIAL, *path, "--scheme", "trapezoid"): "3.3189666248139886 + 1.360483331426773*A\n",
        (*_POLYNOMIAL, *path, "--scheme", "simpson"): "3.3189666666666664 + 1.3604833333333335*A\n",
        ("sqrt(z)", *path, "--scheme", "simpson"): "1.161473884514942 + 1.7289019868205207*A\n",
        # a constant denominator whose real part is zero
        ("z/A", *path, "--scheme", "simpson"): "1.7 + 0.15500000000000005*A\n",
    }
    for argv, digits in runs.items():
        assert _integrate(monkeypatch, *argv) == (0, digits, 0), argv


def test_integrate_replays_every_sample_when_the_array_pass_raises(monkeypatch):
    # the last sample is the zero element, where log is undefined
    code, text, calls = _integrate(monkeypatch, "log(z)", "--path", "1, 0", "--samples", "41")
    assert (code, text, calls) == (3, "numeric error: logarithm of the zero element is undefined\n", 41)
    # an exponent that varies between samples is left to the closures
    code, text, calls = _integrate(monkeypatch, "z^norm(z)", "--path", "1, 2+1*A", "--samples", "101")
    assert (code, text, calls) == (0, "0.3928421218463821 + 3.399614666712812*A\n", 101)
