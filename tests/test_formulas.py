"""Formula engine: grammar, round-trips, evaluation, and error cases."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc_estimator import formulas
from ftqc_estimator.errors import (
    DivisionByZeroError,
    FormulaDomainError,
    FormulaSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
)
from ftqc_estimator.formulas import BinOp, Call, Neg, Number, Variable


def parse(source):
    return formulas.parse_formula(source)


class TestParsing:
    def test_power_of_distance(self):
        tree = parse("2 * codeDistance ^ 2")
        assert tree == BinOp(
            "*", Number(2.0), BinOp("^", Variable("codeDistance"), Number(2.0))
        )

    def test_cycle_time_formula_shape(self):
        tree = parse("(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance")
        assert formulas.variables(tree) == {
            "twoQubitGateTime",
            "oneQubitMeasurementTime",
            "codeDistance",
        }

    def test_double_star_is_rejected_at_second_star(self):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse("2 ** d")
        assert excinfo.value.position == 3

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as excinfo:
            parse("sin(1)")
        assert excinfo.value.name == "sin"

    def test_known_functions_parse(self):
        for name in ("ceil", "floor", "log2", "sqrt"):
            assert parse(f"{name}(x)") == Call(name, Variable("x"))

    def test_caret_is_right_associative(self):
        assert parse("2 ^ 3 ^ 2") == BinOp(
            "^", Number(2.0), BinOp("^", Number(3.0), Number(2.0))
        )

    def test_unary_minus_binds_tighter_than_caret(self):
        # per the grammar, "-" applies to the operand before "^" attaches
        assert parse("-2 ^ 2") == BinOp("^", Neg(Number(2.0)), Number(2.0))

    def test_scientific_notation(self):
        assert parse("1.5e-4") == Number(1.5e-4)
        assert parse("2E3") == Number(2000.0)

    @pytest.mark.parametrize(
        "source,position",
        [
            ("", 0),
            ("   ", 3),
            ("2 +", 3),
            ("(1 + 2", 6),
            ("ceil(3", 6),
            ("1 2", 2),
            ("foo bar", 4),
            (5, 0),
            (None, 0),
        ],
    )
    def test_syntax_error_positions(self, source, position):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse(source)
        assert excinfo.value.position == position

    @pytest.mark.parametrize(
        "source",
        [
            "(" * 400 + "11 * logicalCycleTime" + ")" * 400,
            "11 * logicalCycleTime" + " + 1" * 2000,
            "11 * logicalCycleTime" + " ^ 1" * 3000,
        ],
        ids=["nested-parentheses", "long-sum", "power-chain"],
    )
    def test_overlong_formula_rejected(self, source):
        # each would exceed the recursion limit in the parser or in evaluate
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse(source)
        assert "256 tokens" in excinfo.value.expected

    def test_token_bound(self):
        longest = "-" * 255 + "x"  # 256 tokens, a tree 256 nodes deep
        tree = parse(longest)
        assert formulas.evaluate(tree, {"x": 2.0}) == -2.0
        assert parse(formulas.to_source(tree)) == tree
        nested = "(" * 127 + "x" + ")" * 127  # 255 tokens, the deepest parser recursion
        assert formulas.evaluate(parse(nested), {"x": 2.0}) == 2.0
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse("-" + longest)
        assert excinfo.value.position == 256

    def test_whitespace_insensitive(self):
        assert parse("1+2*3") == parse(" 1 + 2\t*  3 ")

    def test_identifier_charset(self):
        assert parse("a_1B") == Variable("a_1B")
        with pytest.raises(FormulaSyntaxError):
            parse("_hidden")


class TestEvaluation:
    def test_distance_squared(self):
        assert formulas.evaluate(parse("2 * codeDistance ^ 2"), {"codeDistance": 11}) == 242.0

    def test_cycle_time(self):
        env = {"twoQubitGateTime": 50, "oneQubitMeasurementTime": 100, "codeDistance": 11}
        tree = parse("(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance")
        assert formulas.evaluate(tree, env) == 4400.0

    def test_log2_identity(self):
        assert formulas.evaluate(parse("log2(1)"), {}) == 0.0

    def test_precedence_vector(self):
        assert formulas.evaluate(parse("2 + 3 * 4 ^ 2"), {}) == 50.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError) as excinfo:
            formulas.evaluate(parse("x + 1"), {"y": 2.0})
        assert excinfo.value.name == "x"

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            formulas.evaluate(parse("1 / (2 - 2)"), {})

    def test_zero_to_negative_power(self):
        with pytest.raises(DivisionByZeroError):
            formulas.evaluate(parse("0 ^ (0 - 1)"), {})

    @pytest.mark.parametrize(
        "source",
        [
            "log2(0)",
            "log2(0 - 3)",
            "sqrt(0 - 1)",
            "ceil(1e300 * 1e300)",
            "floor(1e300 * 1e300 - 1e300 * 1e300)",
        ],
    )
    def test_domain_errors(self, source):
        with pytest.raises(FormulaDomainError):
            formulas.evaluate(parse(source), {})

    def test_negative_base_integer_exponent_ok(self):
        assert formulas.evaluate(parse("(0 - 2) ^ 3"), {}) == -8.0

    def test_negative_base_fractional_exponent_rejected(self):
        with pytest.raises(FormulaDomainError):
            formulas.evaluate(parse("(0 - 2) ^ 0.5"), {})

    def test_sqrt_of_zero(self):
        assert formulas.evaluate(parse("sqrt(0)"), {}) == 0.0

    def test_non_finite_binding_rejected(self):
        with pytest.raises(ValueError):
            formulas.evaluate(parse("x"), {"x": float("inf")})

    def test_integer_exactness(self):
        env = {"d": 31.0}
        assert formulas.evaluate(parse("floor(4 * d ^ 2 + 8 * (d - 1))"), env) == 4084.0
        assert formulas.evaluate(parse("ceil(d * d)"), env) == 961.0

    def test_deterministic(self):
        tree = parse("sqrt(2) * log2(seven) + 1 / 3")
        env = {"seven": 7.0}
        first = formulas.evaluate(tree, env)
        assert all(formulas.evaluate(tree, env) == first for _ in range(5))


# ---------------------------------------------------------------------------
# randomized structural properties

_VARERS = ("alpha", "beta", "gamma")
_ENV = {"alpha": 1.5, "beta": 3.0, "gamma": 0.25}


def _leaf(rng: random.Random):
    if rng.random() < 0.5:
        return Number(round(rng.uniform(0.1, 10.0), 4))
    return Variable(rng.choice(_VARERS))


def reference_eval(node, env):
    """Naive recursive reference evaluator, independent of the engine."""
    kind = type(node).__name__
    if kind == "Number":
        return node.value
    if kind == "Variable":
        return env[node.name]
    if kind == "Neg":
        return -reference_eval(node.operand, env)
    if kind == "Call":
        x = reference_eval(node.arg, env)
        table = {
            "ceil": lambda v: float(math.ceil(v)),
            "floor": lambda v: float(math.floor(v)),
            "log2": lambda v: math.log2(v),
            "sqrt": lambda v: math.sqrt(v),
        }
        return table[node.func](x)
    left = reference_eval(node.left, env)
    right = reference_eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    if node.op == "^":
        return left**right
    raise AssertionError(node)


def random_tree(rng: random.Random, depth: int):
    """Random well-defined tree; avoids domain errors and overflow."""
    if depth == 0:
        return _leaf(rng)
    choice = rng.random()
    if choice < 0.15:
        return _leaf(rng)
    if choice < 0.30:
        return Neg(random_tree(rng, depth - 1))
    if choice < 0.45:
        arg = random_tree(rng, depth - 1)
        value = reference_eval(arg, _ENV)
        if value > 1e-9:
            return Call(rng.choice(("ceil", "floor", "log2", "sqrt")), arg)
        return Call(rng.choice(("ceil", "floor")), arg)
    op = rng.choice("+-*/^")
    left = random_tree(rng, depth - 1)
    if op == "^":
        if abs(reference_eval(left, _ENV)) > 1e20:
            op = "+"
        else:
            return BinOp("^", left, Number(float(rng.randint(0, 3))))
    right = random_tree(rng, depth - 1)
    if op == "/" and abs(reference_eval(right, _ENV)) < 1e-9:
        op = "+"
    return BinOp(op, left, right)


def test_differential_against_reference_evaluator():
    rng = random.Random(20240917)
    checked = 0
    for _ in range(1000):
        tree = random_tree(rng, rng.randint(1, 6))
        expected = reference_eval(tree, _ENV)
        reparsed = parse(formulas.to_source(tree))
        got = formulas.evaluate(reparsed, _ENV)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)
        checked += 1
    assert checked == 1000


def test_random_trees_round_trip():
    rng = random.Random(5150)
    for _ in range(500):
        tree = random_tree(rng, rng.randint(1, 6))
        source = formulas.to_source(tree)
        reparsed = parse(source)
        assert reparsed == tree
        assert parse(formulas.to_source(reparsed)) == reparsed


# hypothesis strategy over source text built from parsed-shaped trees
_sources = st.recursive(
    st.one_of(
        st.floats(min_value=0.001, max_value=1000.0, allow_nan=False).map(repr),
        st.sampled_from(_VARERS),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(("ceil", "floor")), inner).map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda s: f"-({s})"),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_sources)
def test_parse_serialize_parse_is_stable(source):
    tree = parse(source)
    assert parse(formulas.to_source(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(_sources)
def test_serialization_preserves_value(source):
    tree = parse(source)
    try:
        expected = formulas.evaluate(tree, _ENV)
    except DivisionByZeroError:
        return
    assert formulas.evaluate(parse(formulas.to_source(tree)), _ENV) == expected
