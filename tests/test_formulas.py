"""Formula engine: grammar, round-trips, evaluation, and error cases."""

import itertools
import math
import pickle
import random
import re
import struct
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc_estimator import formulas, jobs
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

    def test_serializing_a_non_node_raises_type_error(self):
        with pytest.raises(TypeError, match="not a formula node"):
            formulas.to_source("not a node")

    def test_literal_beyond_float_range_rejected(self):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse("1e999")
        assert excinfo.value.position == 0
        assert excinfo.value.expected == "a representable numeric literal"

    def test_whitespace_insensitive(self):
        assert parse("1+2*3") == parse(" 1 + 2\t*  3 ")

    def test_identifier_charset(self):
        assert parse("a_1B") == Variable("a_1B")
        with pytest.raises(FormulaSyntaxError):
            parse("_hidden")


class TestParseCache:
    def test_a_repeated_text_returns_an_equal_tree(self):
        source = "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance"
        first = parse(source)
        assert parse(source) == first == formulas._Parser(source).parse()
        assert formulas._parsed(source) is first

    @pytest.mark.parametrize("source", ["2 ** d", "sin(1)", "(1 + 2", "1e999", "x +" * 200])
    def test_a_bad_text_fails_the_same_way_on_every_call(self, source):
        before = formulas._parsed.cache_info()
        outcomes = [parse_outcome(formulas.parse_formula, source) for _ in range(3)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0] == parse_outcome(lambda s: ReferenceParser(s).parse(), source)
        after = formulas._parsed.cache_info()  # never kept: every call parses again
        assert (after.hits, after.misses) == (before.hits, before.misses + 3)

    def test_an_overlong_text_parses_but_is_not_kept(self):
        formulas._parsed.cache_clear()
        padding = " " * 1_000_000
        source = padding + "11 * logicalCycleTime" + padding  # 2 MB
        tree = parse(source)
        assert tree == BinOp("*", Number(11.0), Variable("logicalCycleTime"))
        assert formulas._parsed.cache_info().currsize == 0
        limit = formulas._MAX_CACHED_CHARS
        longest = "x".ljust(limit)
        parse(longest)
        parse(longest + " ")
        assert formulas._parsed.cache_info().currsize == 1  # the longest kept text only

    def test_the_cache_never_exceeds_its_entry_bound(self):
        formulas._parsed.cache_clear()
        bound = formulas._parsed.cache_info().maxsize
        for i in range(2 * bound + 10):
            assert parse(f"x + {i}") == BinOp("+", Variable("x"), Number(float(i)))
            assert 1 <= formulas._parsed.cache_info().currsize <= bound

    def test_the_caches_keep_the_texts_and_shapes_used_last(self):
        assert formulas._parsed.cache_info().maxsize == 1024
        assert formulas._maker.cache_info().maxsize == 256

    def test_a_text_over_the_limit_leaves_the_cache_as_it_was(self):
        parse("x + 1")  # the cache holds at least one entry
        before = formulas._parsed.cache_info()
        source = "x + 1".rjust(formulas._MAX_CACHED_CHARS + 1)
        assert parse(source) == parse("x + 1")
        assert formulas._parsed.cache_info() == before._replace(hits=before.hits + 1)


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


# ---------------------------------------------------------------------------
# the compiled evaluator against the tree walk it replaced


def tree_walk_eval(expr, env):
    """The engine's former evaluator, a recursive walk over the tree: the
    reference the compiled functions must match bit for bit, errors included."""
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, Variable):
        try:
            value = float(env[expr.name])
        except KeyError:
            raise UnboundVariableError(expr.name) from None
        if not math.isfinite(value):
            raise ValueError(f"variable {expr.name!r} is bound to non-finite {value!r}")
        return value
    if isinstance(expr, Neg):
        return -tree_walk_eval(expr.operand, env)
    if isinstance(expr, Call):
        arg = tree_walk_eval(expr.arg, env)
        if expr.func in ("ceil", "floor") and not math.isfinite(arg):
            raise FormulaDomainError(f"{expr.func} of non-finite value {arg!r}")
        if expr.func == "ceil":
            return float(math.ceil(arg))
        if expr.func == "floor":
            return float(math.floor(arg))
        if expr.func == "log2":
            if arg <= 0.0:
                raise FormulaDomainError(f"log2 of non-positive value {arg:g}")
            return math.log2(arg)
        if expr.func == "sqrt":
            if arg < 0.0:
                raise FormulaDomainError(f"sqrt of negative value {arg:g}")
            return math.sqrt(arg)
        raise UnknownFunctionError(expr.func)
    if isinstance(expr, BinOp):
        left = tree_walk_eval(expr.left, env)
        right = tree_walk_eval(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0.0:
                raise DivisionByZeroError(f"{left:g} / 0")
            return left / right
        if expr.op == "^":
            if left < 0.0 and not (math.isfinite(right) and right == math.floor(right)):
                raise FormulaDomainError(
                    f"negative base {left:g} with non-integer exponent {right:g}"
                )
            if left == 0.0 and right < 0.0:
                raise DivisionByZeroError("zero raised to a negative power")
            try:
                return left**right
            except OverflowError as exc:
                raise FormulaDomainError(f"{left:g} ^ {right:g} overflows") from exc
    raise TypeError(f"not a formula node: {expr!r}")


def outcome(evaluate, expr, env):
    """A result as (type, bits), NaN counted as one value, or a raised
    error as (type, message)."""
    try:
        value = evaluate(expr, env)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    if isinstance(value, float):
        return float, "nan" if math.isnan(value) else struct.pack("<d", value)
    return type(value), value


def assert_same_outcome(expr, env):
    expected = outcome(tree_walk_eval, expr, env)
    # twice: the first call compiles the tree, the second reuses its function
    assert outcome(formulas.evaluate, expr, env) == expected
    assert outcome(formulas.evaluate, expr, env) == expected
    return expected[0]


# values that reach every domain check: zero divisors and bases, negative
# bases under fractional exponents, overflow, and non-finite bindings
_EDGE_VALUES = (
    0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-308, 5e-324, 1e154, -1e200, 1e308,
    float("inf"), float("nan"),
)


def random_env(rng: random.Random) -> dict:
    """Some of the variables, each bound to an edge value or a random float."""
    return {
        name: rng.choice(_EDGE_VALUES) if rng.random() < 0.6 else rng.uniform(-20.0, 20.0)
        for name in _VARERS
        if rng.random() < 0.85
    }


def test_compiled_matches_tree_walk_on_random_trees_and_environments():
    rng = random.Random(4242)
    kinds = set()
    for _ in range(2000):
        tree = random_tree(rng, rng.randint(1, 6))
        for env in (_ENV, random_env(rng), random_env(rng)):
            kinds.add(assert_same_outcome(tree, env))
    # the environments reach every error the engine raises, and non-finite results
    assert {
        float, UnboundVariableError, ValueError, DivisionByZeroError, FormulaDomainError,
    } <= kinds


@settings(max_examples=300, deadline=None)
@given(
    _sources,
    st.dictionaries(
        st.sampled_from(_VARERS),
        st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
    ),
)
def test_compiled_matches_tree_walk_on_parsed_sources(source, env):
    assert_same_outcome(parse(source), env)


@pytest.mark.parametrize(
    "tree",
    [
        Call("cosh", Variable("alpha")),
        Call("cosh", Variable("missing")),
        BinOp("%", Number(1.0), Number(2.0)),
        BinOp("%", Variable("missing"), Number(2.0)),
        BinOp("+", Variable("missing"), "not a node"),
        BinOp("+", Number(1.0), "not a node"),
        Neg(None),
        "not a node",
        Number(2),  # hand-built: an int passes through unconverted
        BinOp("/", Number(2), Number(0)),
    ],
    ids=repr,
)
def test_compiled_matches_tree_walk_on_hand_built_trees(tree):
    assert_same_outcome(tree, _ENV)
    # a malformed tree, or a root that is no node, is generated code too
    run = formulas._compile(tree)
    assert run.__code__.co_filename == "<formula>"
    assert outcome(lambda expr, env: run(env), tree, _ENV) == outcome(tree_walk_eval, tree, _ENV)


@pytest.mark.parametrize(
    "source, exponent", [("(0 - 2) ^ (x * x)", "inf"), ("(0 - 2) ^ (x * x - x * x)", "nan")]
)
def test_a_negative_base_to_a_non_finite_power_is_a_domain_error(source, exponent):
    # x * x overflows to inf, and inf - inf is nan: neither is an integer
    assert assert_same_outcome(parse(source), {"x": 1e200}) is FormulaDomainError
    with pytest.raises(FormulaDomainError, match=f"^negative base -2 with non-integer exponent {exponent}$"):
        formulas.evaluate(parse(source), {"x": 1e200})


def with_new_constants(node, rng: random.Random):
    """A tree of ``node``'s shape with fresh numbers and variable names."""
    if isinstance(node, Number):
        finite = [value for value in _EDGE_VALUES if math.isfinite(value)]
        return Number(rng.choice(finite) if rng.random() < 0.3 else rng.uniform(0.1, 10.0))
    if isinstance(node, Variable):
        return Variable(rng.choice(_VARERS + ("missing",)))
    if isinstance(node, Neg):
        return Neg(with_new_constants(node.operand, rng))
    if isinstance(node, Call):
        return Call(node.func, with_new_constants(node.arg, rng))
    return BinOp(node.op, with_new_constants(node.left, rng), with_new_constants(node.right, rng))


def test_trees_of_one_shape_share_code_and_keep_their_own_constants():
    rng = random.Random(1919)
    kinds = set()
    for _ in range(300):
        shape = random_tree(rng, rng.randint(1, 5))
        siblings = [shape] + [with_new_constants(shape, rng) for _ in range(3)]
        # interleaved: each tree runs between runs of its siblings
        for env in (_ENV, random_env(rng), random_env(rng)):
            for tree in siblings:
                kinds.add(assert_same_outcome(tree, env))
        assert len({tree._run.__code__ for tree in siblings}) == 1
    assert {float, UnboundVariableError, DivisionByZeroError, FormulaDomainError} <= kinds


def test_threads_sharing_the_caches_get_the_tree_walk_results():
    rng = random.Random(2718)
    sources = [formulas.to_source(random_tree(rng, rng.randint(1, 4))) for _ in range(150)]
    expected = [outcome(tree_walk_eval, formulas._Parser(s).parse(), _ENV) for s in sources]
    failures = []

    def work(offset):
        for i in range(len(sources)):
            k = (i + offset) % len(sources)
            if outcome(formulas.evaluate, parse(sources[k]), _ENV) != expected[k]:
                failures.append(sources[k])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            formulas._parsed.cache_clear()
            formulas._maker.cache_clear()
            threads = [threading.Thread(target=work, args=(37 * n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert failures == []


def test_an_evaluated_tree_equals_and_hashes_like_a_fresh_parse():
    source = "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * ceil(sqrt(codeDistance))"
    env = {"twoQubitGateTime": 50.0, "oneQubitMeasurementTime": 100.0, "codeDistance": 9.0}
    tree = parse(source)
    formulas.evaluate(tree, env)
    fresh = formulas._Parser(source).parse()  # built anew, not the kept tree
    assert fresh is not tree and not hasattr(fresh, "_run")
    assert tree == fresh and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)
    assert formulas.to_source(tree) == formulas.to_source(fresh)
    assert formulas.variables(tree) == formulas.variables(fresh)
    # pickling leaves the compiled function behind; the copy evaluates alike
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and formulas.evaluate(copy, env) == formulas.evaluate(tree, env)


def test_a_tree_with_its_variables_kept_equals_and_hashes_like_a_fresh_parse():
    source = "log2(inputErrorRate) * codeDistance + sqrt(-codeDistance ^ 2) / cliffordErrorRate"
    tree = parse(source)
    names = formulas.variables(tree)
    assert names == {"inputErrorRate", "codeDistance", "cliffordErrorRate"}
    assert formulas.variables(tree) is names  # kept, not walked again
    fresh = formulas._Parser(source).parse()  # built anew, not the kept tree
    assert fresh is not tree and not hasattr(fresh, "_variables")
    assert tree == fresh and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)
    assert formulas.variables(fresh) == names
    # pickling leaves the kept set behind; the copy walks itself again
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and not hasattr(copy, "_variables")
    assert formulas.variables(copy) == names


# ---------------------------------------------------------------------------
# the precedence-climbing parser against the recursive descent it replaced

_REF_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_REF_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REF_OPERATORS = "+-*/^()"


def reference_tokenize(source):
    """The engine's former lexer, a loop over characters."""
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _REF_OPERATORS:
            yield (ch, ch, pos)
            pos += 1
            continue
        m = _REF_NUMBER_RE.match(source, pos)
        if m:
            yield ("number", m.group(), pos)
            pos = m.end()
            continue
        m = _REF_IDENT_RE.match(source, pos)
        if m:
            yield ("identifier", m.group(), pos)
            pos = m.end()
            continue
        raise FormulaSyntaxError(pos, "a number, variable, operator, or parenthesis")
    yield ("end", "", n)


class ReferenceParser:
    """The engine's former parser, one method per precedence level: the
    reference the precedence-climbing parser must match, errors included."""

    def __init__(self, source):
        self.tokens = list(itertools.islice(reference_tokenize(source), 257))
        if self.tokens[-1][0] != "end":
            raise FormulaSyntaxError(self.tokens[-1][2], "the end of the formula within 256 tokens")
        self.index = 0

    @property
    def kind(self):
        return self.tokens[self.index][0]

    def advance(self):
        self.index += 1
        return self.tokens[self.index - 1]

    def expect(self, kind, expected):
        if self.kind != kind:
            raise FormulaSyntaxError(self.tokens[self.index][2], expected)
        self.advance()

    def parse(self):
        expr = self.expr()
        if self.kind != "end":
            raise FormulaSyntaxError(self.tokens[self.index][2], "an operator or end of input")
        return expr

    def expr(self):
        node = self.term()
        while self.kind in ("+", "-"):
            node = BinOp(self.advance()[0], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.kind in ("*", "/"):
            node = BinOp(self.advance()[0], node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.kind == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        if self.kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.primary()

    def primary(self):
        kind, text, position = self.tokens[self.index]
        if kind == "number":
            self.advance()
            if not math.isfinite(float(text)):
                raise FormulaSyntaxError(position, "a representable numeric literal")
            return Number(float(text))
        if kind == "identifier":
            self.advance()
            if self.kind == "(":
                if text not in formulas.FUNCTIONS:
                    raise UnknownFunctionError(text, position)
                self.advance()
                arg = self.expr()
                self.expect(")", "')' to close the function call")
                return Call(text, arg)
            return Variable(text)
        if kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")", "')' to close the group")
            return inner
        raise FormulaSyntaxError(position, "a number, variable, function call, or '('")


def parse_outcome(parse_, source):
    """A parsed tree, or a raised error as its type and fields."""
    try:
        return parse_(source)
    except (FormulaSyntaxError, UnknownFunctionError) as exc:
        fields = ("position", "expected", "name")
        return type(exc), tuple(getattr(exc, field, None) for field in fields)


# the grammar walk's operands; the other tokens come only by a random draw
_ORACLE_OPERANDS = (
    "0", "7", "12", "3.5", ".5", "1.", "2e3", "4E-2", "1e+5", "٣", "٣.٣",
    "e", "E", "x", "codeDistance", "a_1", "ceil", "sin",
)
_ORACLE_OTHERS = ("1e999", ".", "+", "-", "*", "/", "^", "**", "(", ")")
_ORACLE_BAD = ("#", "_", "$", "é")
_ORACLE_GAPS = ("", "", " ", " ", "\t", "  ", "\xa0")


def oracle_tokens(rng: random.Random, count: int, bad: bool) -> list:
    """``count`` tokens, either drawn at random or walking the grammar (an
    operand, then an operator, with groups and calls closed in time) with a
    few replaced at random; ``bad`` mixes in characters that start no token."""
    vocabulary = _ORACLE_OPERANDS + _ORACLE_OTHERS + (_ORACLE_BAD if bad else ())
    if rng.random() < 0.5:
        return [rng.choice(vocabulary) for _ in range(count)]
    tokens, depth, operand = [], 0, True
    while len(tokens) + depth < count or operand and count:
        if operand:
            choice = rng.choice(("-", "(", "call", "x", "x", "x"))
            if choice in ("(", "call"):
                tokens.append("(" if choice == "(" else rng.choice(("ceil", "sqrt")) + "(")
                depth += 1
            elif choice == "-":
                tokens.append("-")
            else:
                tokens.append(rng.choice(_ORACLE_OPERANDS))
                operand = False
        elif depth and rng.random() < 0.3:
            tokens.append(")")
            depth -= 1
        else:
            tokens.append(rng.choice("+-*/^"))
            operand = True
    tokens += [")"] * depth
    for _ in range(rng.choice((0, 0, 1, 2))):
        if tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(vocabulary)
    return tokens


def test_parser_matches_recursive_descent_on_random_token_strings():
    rng = random.Random(1515)
    reached = set()
    for _ in range(20_000):
        count = int(301 * rng.random() ** 3)
        tokens = oracle_tokens(rng, count, bad=rng.random() < 0.25)
        source = "".join(token + rng.choice(_ORACLE_GAPS) for token in tokens)
        expected = parse_outcome(lambda s: ReferenceParser(s).parse(), source)
        assert parse_outcome(formulas.parse_formula, source) == expected, source
        if isinstance(expected, tuple):
            reached.add(expected[1][1] or expected[0].__name__)
        else:
            reached.add(type(expected).__name__)
    # the strings reach every error the parser raises, and every node type at the root
    assert reached == {
        "Number", "Variable", "Call", "Neg", "BinOp", "UnknownFunctionError",
        "a number, variable, operator, or parenthesis",
        "a number, variable, function call, or '('",
        "an operator or end of input",
        "')' to close the group",
        "')' to close the function call",
        "a representable numeric literal",
        "the end of the formula within 256 tokens",
    }


def test_job_decoding_looks_parse_formula_up_when_it_parses(monkeypatch):
    # the first load fills the per-record reader caches; a parse_formula
    # replaced afterwards must still see each inline formula of the job
    job_path = Path(__file__).parent / "golden" / "frontier_custom_units.json"
    jobs.load_job(job_path)
    parse_formula = formulas.parse_formula
    calls = []

    def counting(source):
        calls.append(source)
        return parse_formula(source)

    monkeypatch.setattr(formulas, "parse_formula", counting)
    jobs.load_job(job_path)
    assert len(calls) == 10
