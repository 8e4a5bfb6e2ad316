import ast
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicvx import ExpressionError, eval_many, expr, parse
from dinicvx.expr import (MAX_DEPTH, BinOp, Call, FunctionAst, Guard, Neg, Num,
                          Piecewise, Var)

from expr_reference import eval_many_reference


def ev(src, x, arity=1):
    fn = parse(src, arity)
    return float(eval_many(fn, np.asarray([x], dtype=float))[0])


class TestParseBasics:
    def test_arithmetic(self):
        assert ev("1 + 2*3", 0.0) == 7.0
        assert ev("2^3^2", 0.0) == 512.0  # right associative
        assert ev("(1 + 2)*3", 0.0) == 9.0
        assert ev("7/2", 0.0) == 3.5

    def test_variable(self):
        assert ev("t", 0.25) == 0.25
        assert ev("t^2 - t", 3.0) == 6.0

    def test_unary_minus_binds_below_power(self):
        # -t^2 means -(t^2), not (-t)^2
        assert ev("-t^2", 2.0) == -4.0
        assert ev("(-t)^2", 2.0) == 4.0
        assert ev("--t", 5.0) == 5.0

    def test_calls(self):
        assert ev("abs(t)", -3.0) == 3.0
        assert ev("max(t, 0, -t)", -2.0) == 2.0
        assert ev("min(t^2, t)", 0.5) == 0.25
        assert ev("exp(0)", 1.0) == 1.0
        assert math.isclose(ev("log(exp(2))", 0.0), 2.0)
        assert ev("sqrt(t)", 9.0) == 3.0
        assert math.isclose(ev("sin(t)", math.pi / 2), 1.0)
        assert math.isclose(ev("cos(t)", 0.0), 1.0)

    def test_multivariate(self):
        fn = parse("x1^2 + x2^2", 2)
        vals = eval_many(fn, np.asarray([[1.0, 2.0], [0.0, 0.0]]))
        assert vals.tolist() == [5.0, 0.0]

    def test_scientific_notation(self):
        assert ev("1e-3*t", 2.0) == 0.002
        assert ev("2.5E2", 0.0) == 250.0


# Python's grammar gives + - * / ** and the signs the precedence and the
# associativity this one gives + - * / ^ and the signs.
_PYTHON_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def from_python(node: ast.expr):
    """The tree :func:`parse` makes of the source Python parsed as ``node``."""
    if isinstance(node, ast.Constant):
        return Num(float(node.value))
    if isinstance(node, ast.Name):
        return Var(0, node.id)
    if isinstance(node, ast.UnaryOp):
        arg = from_python(node.operand)
        return Neg(arg) if isinstance(node.op, ast.USub) else arg
    if isinstance(node, ast.BinOp):
        return BinOp(_PYTHON_OPS[type(node.op)], from_python(node.left),
                     from_python(node.right))
    assert isinstance(node, ast.Call), ast.dump(node)
    return Call(node.func.id, tuple(map(from_python, node.args)))


def unparenthesized(sub):
    """Sources built without the parentheses a printer would add, so that
    precedence decides the tree: signs stack (``--t``) and follow an
    operator (``t^-2``, ``t*-2``)."""
    return st.one_of(
        st.builds("{}{}{}".format, sub, st.sampled_from(["+", "-", "*", "/", "^", " ^ "]), sub),
        st.builds("{}{}".format, st.sampled_from(["-", "+"]), sub),
        sub.map("({})".format),
        st.builds("{}({})".format, st.sampled_from(["abs", "exp"]), sub),
        st.builds(lambda name, args: f"{name}({', '.join(args)})",
                  st.sampled_from(["max", "min"]), st.lists(sub, min_size=2, max_size=3)),
    )


_SOURCES = st.recursive(st.sampled_from(["t", "2", ".5", "3e-2", "1.25", "0"]),
                        unparenthesized, max_leaves=12)


class TestPrecedence:
    @given(_SOURCES)
    @settings(max_examples=500, deadline=None)
    def test_same_tree_as_pythons_parser(self, source):
        want = from_python(ast.parse(source.replace("^", "**"), mode="eval").body)
        assert repr(parse(source, 1).root) == repr(want)


class TestLexicalRules:
    @pytest.mark.parametrize("source,value", [(".5", 0.5), ("2e-3", 0.002), ("\u0663", 3.0)])
    def test_numbers(self, source, value):
        # \u0663 is ARABIC-INDIC DIGIT THREE, a decimal digit
        assert parse(source, 1).root == Num(value)

    def test_exponent_without_digits_is_a_name(self):
        with pytest.raises(ExpressionError, match="unexpected token 'e'") as ei:
            parse("1e", 1)
        assert ei.value.position == 1

    def test_malformed_number_fails_at_its_start(self):
        with pytest.raises(ExpressionError, match="malformed number '1.2.3'") as ei:
            parse("1.2.3", 1)
        assert ei.value.position == 0

    def test_offsets_count_characters(self):
        # \u00e9 is one character and two bytes of UTF-8: "$" is at offset 4, not 5
        with pytest.raises(ExpressionError, match=r"unexpected character '\$'") as ei:
            parse("\u00e9 + $", 1)
        assert ei.value.position == 4

    def test_whitespace_is_ignored(self):
        assert parse("\tt +\n 1 \t\n ", 1).root == parse("t+1", 1).root


class TestPiecewise:
    def test_first_match_wins(self):
        src = "piecewise(t < 0: 1, t < 2: 2, else: 3)"
        assert ev(src, -1.0) == 1.0
        assert ev(src, 1.0) == 2.0  # both guards true at t=-1 side; order decides
        assert ev(src, 5.0) == 3.0

    def test_overlapping_guards_use_order(self):
        src = "piecewise(t < 10: 1, t < 20: 2, else: 3)"
        assert ev(src, 0.0) == 1.0

    def test_boundary_strict_vs_weak(self):
        assert ev("piecewise(t < 0: 1, else: t)", 0.0) == 0.0
        assert ev("piecewise(t <= 0: 1, else: t)", 0.0) == 1.0

    def test_guard_comparing_undefined_falls_through(self):
        # log(t) undefined at t=-1, so the guard is false and else applies
        assert ev("piecewise(log(t) < 0: 5, else: 7)", -1.0) == 7.0

    def test_nested_piecewise(self):
        src = "piecewise(t < 0: piecewise(t < -1: 0, else: 1), else: 2)"
        assert ev(src, -2.0) == 0.0
        assert ev(src, -0.5) == 1.0
        assert ev(src, 0.5) == 2.0


class TestUndefined:
    def test_log_of_nonpositive(self):
        assert math.isnan(ev("log(t)", 0.0))
        assert math.isnan(ev("log(t)", -1.0))

    def test_sqrt_of_negative(self):
        assert math.isnan(ev("sqrt(t)", -0.5))

    def test_division_by_zero(self):
        assert math.isnan(ev("1/t", 0.0))

    def test_fractional_power_of_negative(self):
        assert math.isnan(ev("t^0.5", -1.0))

    def test_overflow_is_infinite_not_undefined(self):
        assert ev("exp(t)", 1e6) == math.inf
        assert ev("-exp(t)", 1e6) == -math.inf

    def test_value_kinds(self):
        assert ev("t", 2.0) == 2.0
        assert math.isnan(ev("log(t)", -1.0))
        vals = eval_many(parse("log(t)", 1), np.asarray([-1.0, 1.0, 0.0]))
        assert np.isnan(vals).tolist() == [True, False, True]


class TestErrors:
    def test_unknown_variable(self):
        parse("x1", 1)  # x1 is the first coordinate, legal at any arity
        with pytest.raises(ExpressionError):
            parse("x2", 1)  # out of range at arity 1
        with pytest.raises(ExpressionError):
            parse("t", 2)  # t is reserved for arity 1
        with pytest.raises(ExpressionError):
            parse("x3", 2)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExpressionError) as ei:
            parse("t + ", 1)
        assert ei.value.position == 4
        with pytest.raises(ExpressionError) as ei:
            parse("t ^^ 2", 1)
        assert ei.value.position >= 2

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            parse("tan(t)", 1)

    def test_wrong_call_arity(self):
        with pytest.raises(ExpressionError):
            parse("abs(t, 1)", 1)
        with pytest.raises(ExpressionError):
            parse("min(t)", 1)

    def test_piecewise_requires_else(self):
        with pytest.raises(ExpressionError):
            parse("piecewise(t < 0: 1)", 1)

    def test_piecewise_requires_a_guarded_branch(self):
        with pytest.raises(ExpressionError) as ei:
            parse("1 + piecewise(else: t)", 1)
        assert ei.value.position == 4

    def test_empty_source(self):
        with pytest.raises(ExpressionError):
            parse("", 1)

    def test_non_decimal_digits_in_a_variable_name(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'x\u00b2'") as ei:
            parse("x\u00b2", 2)
        assert ei.value.position == 0

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse("t) + 1", 1)


# ---------------------------------------------------------------------------
# eval_many against the evaluator it replaced, bit for bit


# Constants are what the parser makes: finite non-negative floats and the
# overflowing literal inf.
_NUMS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 0.3, 1e-300, 1e300, math.inf])
# 7.148085531751388 and -8.750837745039075 square differently under
# np.power with an array exponent than as x*x (numpy's SIMD power).
_POINTS = st.one_of(
    st.floats(-10, 10),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -1.0, 1e308, -5e-324,
                     7.148085531751388, -8.750837745039075]),
)


def trees(arity: int):
    leaves = st.one_of(_NUMS.map(Num),
                       st.integers(0, arity - 1).map(lambda i: Var(i, f"x{i + 1}")))

    def extend(sub):
        return st.one_of(
            sub.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
            st.builds(lambda name, a: Call(name, (a,)),
                      st.sampled_from(["abs", "exp", "log", "sqrt", "sin", "cos"]), sub),
            st.builds(lambda name, args: Call(name, tuple(args)),
                      st.sampled_from(["min", "max"]), st.lists(sub, min_size=2, max_size=3)),
            st.builds(lambda branches, otherwise: Piecewise(tuple(branches), otherwise),
                      st.lists(st.tuples(st.builds(Guard, sub,
                                                   st.sampled_from(["<", "<=", ">", ">="]),
                                                   sub), sub),
                               min_size=1, max_size=4),
                      sub),
        )

    return st.recursive(leaves, extend, max_leaves=12)


_TREES = {arity: trees(arity) for arity in (1, 2)}


@st.composite
def evaluations(draw):
    arity = draw(st.integers(1, 2))
    root = draw(_TREES[arity])
    m = draw(st.integers(1, 40))
    stride = draw(st.integers(1, 3))
    flat = np.asarray(draw(st.lists(_POINTS, min_size=m * arity * stride,
                                    max_size=m * arity * stride)))
    if arity == 1:
        pts = flat[::stride]
    else:
        # rows of stride * arity values, of which every stride-th is read
        pts = flat.reshape(m, arity * stride)[:, ::stride]
    return FunctionAst(root, arity, ""), pts


def int_bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def nest(open_: str, inner: str, levels: int, close: str = ")") -> str:
    return open_ * levels + inner + close * levels


def calls_left(n: int = 0) -> int:
    """How many more nested calls the recursion limit admits.  It counts
    the interpreter's own depth, which pytest's calls through C raise above
    the number of Python frames."""
    try:
        return calls_left(n + 1)
    except RecursionError:
        return n


def under_frames(per_level: int, run):
    """``run()`` under a recursion limit of ``per_level`` frames for each of
    MAX_DEPTH levels, and 10 more, above the current stack depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - calls_left() + per_level * MAX_DEPTH + 10)
    try:
        return run()
    finally:
        sys.setrecursionlimit(limit)


class TestDepthLimit:
    """An expression nests at most MAX_DEPTH levels; the parser stops at the
    first token that goes deeper, and whatever parses also evaluates."""

    # (source at the limit, its value at t = 0.5)
    AT_LIMIT = [
        (nest("(", "t", MAX_DEPTH - 1), 0.5),
        ("+".join(["t"] * MAX_DEPTH), 0.5 * MAX_DEPTH),
        ("*".join(["1"] * (MAX_DEPTH - 1) + ["t"]), 0.5),
        ("/".join(["t"] + ["1"] * (MAX_DEPTH - 1)), 0.5),
        (nest("-", "t", MAX_DEPTH - 1, ""), -0.5),
        (nest("abs(", "t", MAX_DEPTH - 1), 0.5),
        (nest("max(t, ", "t", MAX_DEPTH - 1), 0.5),
        ("t" + "^1" * (MAX_DEPTH - 1), 0.5),
        (nest("(", "t", MAX_DEPTH - 2) + "^1", 0.5),
        ("piecewise(t < 0: 1, else: " + nest("(", "t", MAX_DEPTH - 2) + ")", 0.5),
    ]

    @pytest.mark.parametrize("source,value", AT_LIMIT)
    def test_at_the_limit_parses_and_evaluates(self, source, value):
        assert eval_many(parse(source, 1), np.array([0.5]))[0] == value

    @pytest.mark.parametrize("source,value", AT_LIMIT)
    def test_a_level_costs_the_frames_max_depth_states(self, source, value):
        # at most 4 frames a level to parse, 3 to compile and 2 to evaluate
        fn = under_frames(4, lambda: parse(source, 1))
        compiled = under_frames(3, lambda: fn.compiled)
        cols = [np.array([0.5])]
        assert under_frames(2, lambda: compiled(cols))[0] == value

    # (source one level past the limit, offset of the first token past it)
    PAST = [
        (nest("(", "t", MAX_DEPTH), MAX_DEPTH - 1),
        ("+".join(["t"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),
        ("*".join(["t"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),
        ("/".join(["t"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),
        (nest("-", "t", MAX_DEPTH, ""), MAX_DEPTH - 1),
        (nest("abs(", "t", MAX_DEPTH), 4 * (MAX_DEPTH - 1)),
        ("t" + "^1" * MAX_DEPTH, 2 * MAX_DEPTH - 1),
        (nest("(", "t", MAX_DEPTH - 1) + "^1", 2 * MAX_DEPTH - 1),
        (nest("(", "t", MAX_DEPTH - 1) + " + t", 2 * MAX_DEPTH),
        ("t + " + nest("(", "t", MAX_DEPTH - 1), 2),
    ]

    @pytest.mark.parametrize("source,offset", PAST)
    def test_past_the_limit_fails_at_the_first_token_past_it(self, source, offset):
        with pytest.raises(ExpressionError, match="deeper than") as ei:
            parse(source, 1)
        assert ei.value.position == offset

    @pytest.mark.parametrize("source", [nest("(", "t", 10_000), "+".join(["t"] * 10_000),
                                        nest("-", "t", 10_000, ""), "t" + "^1" * 10_000])
    def test_far_past_the_limit_is_an_expression_error(self, source):
        with pytest.raises(ExpressionError, match="deeper than"):
            parse(source, 1)


class TestMatchesReferenceEvaluator:
    @given(evaluations())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_and_input_untouched(self, case):
        fn, pts = case
        before = pts.copy()
        out = eval_many(fn, pts)
        np.testing.assert_array_equal(int_bits(out), int_bits(eval_many_reference(fn, pts)))
        np.testing.assert_array_equal(int_bits(pts), int_bits(before))
        assert not np.shares_memory(out, pts)

    def test_square_keeps_the_array_exponent_power(self):
        xs = np.append(np.random.default_rng(0).uniform(-10, 10, 4096),
                       [7.148085531751388, -8.750837745039075])
        want = np.power(xs, np.full_like(xs, 2.0))
        np.testing.assert_array_equal(int_bits(eval_many(parse("t^2"), xs)), int_bits(want))
        if not (want != xs * xs).any():
            pytest.skip("numpy's power rounds as x*x does here; the sample tells nothing apart")

    def test_compiled_once_per_function(self, monkeypatch):
        compiled = []

        def counting(node):
            compiled.append(node)
            return compile_node(node)

        compile_node = expr._compile
        monkeypatch.setattr(expr, "_compile", counting)
        fn = FunctionAst(parse("piecewise(t < 0: -t, else: max(t, 2)^2)").root, 1, "")
        xs = np.linspace(-1.0, 1.0, 9)
        first = eval_many(fn, xs)
        nodes = len(compiled)
        assert compiled[0] is fn.root
        for _ in range(3):
            np.testing.assert_array_equal(eval_many(fn, xs), first)
            eval_many(fn, xs[:3])
        assert len(compiled) == nodes

    def test_a_bare_variable_is_a_copy(self):
        x = np.linspace(-1.0, 1.0, 5)
        out = eval_many(parse("t"), x)
        assert out is not x and not np.shares_memory(out, x)
        np.testing.assert_array_equal(out, x)
        pts = np.arange(6.0).reshape(3, 2)
        out = eval_many(parse("x2", 2), pts)
        assert not np.shares_memory(out, pts)
        np.testing.assert_array_equal(out, pts[:, 1])


class TestSourceForms:
    CASES = [
        "t^2",
        "-t^2",
        "abs(t) + 1",
        "max(0, abs(t) - 1)",
        "piecewise(t < 0: -t, else: t - 1)",
        "piecewise(t < -1: -t, t <= 1: -1, else: t - 1)",
        "min(t^2, (t - 1.5)^2 + 0.3)",
        "1/(t + 2)",
        "exp(abs(t))",
        "2*t - 3*t^2 + 0.5",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_parsed_source_matches_reference_evaluator(self, src):
        fn = parse(src, 1)
        xs = np.linspace(-2.0, 2.0, 41)
        np.testing.assert_array_equal(int_bits(eval_many(fn, xs)),
                                      int_bits(eval_many_reference(fn, xs)))

    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=5),
           st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_polynomial_literals_read_back_exactly(self, coefs, x):
        # repr of a float is read back as the same float, negatives included
        for c in coefs:
            assert int_bits(ev(f"({c!r})", 0.0)) == int_bits(c)
        src = " + ".join(f"({c!r})*t^{k}" for k, c in enumerate(coefs))
        fn = parse(src, 1)
        xs = np.asarray([x])
        np.testing.assert_array_equal(int_bits(eval_many(fn, xs)),
                                      int_bits(eval_many_reference(fn, xs)))
        want = sum(c * x ** k for k, c in enumerate(coefs))
        assert math.isclose(float(eval_many(fn, xs)[0]), want, rel_tol=1e-12, abs_tol=1e-12)
