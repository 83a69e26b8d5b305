"""Arithmetic formula strings: parsing, serialization, and evaluation.

QEC schemes and distillation units are configured with small arithmetic
formulas such as ``"2 * codeDistance ^ 2"``.  This module parses them into
immutable expression trees that evaluate against a mapping of named
variables.

Grammar (whitespace-insensitive)::

    expr    := unary (("+" | "-" | "*" | "/" | "^") unary)*
    unary   := "-" unary | primary
    primary := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` is right-associative and binds tighter than ``*`` and ``/``, which
bind tighter than ``+`` and ``-``; a leading ``-`` binds tighter than all
of them, so ``-2 ^ 2`` is ``(-2) ^ 2``.  Identifiers match
``[A-Za-z][A-Za-z0-9_]*``; numbers are decimal literals with optional
scientific notation.  The only recognized functions are ``ceil``,
``floor``, ``log2``, and ``sqrt``.

Trees are immutable after parsing.  :func:`evaluate` compiles a tree on
its first evaluation into nested closures, one per node, and keeps them on
the tree's nodes; later evaluations only call them.  The tree itself stays
for :func:`to_source` and :func:`variables`, and the kept closures take no
part in ``==``, ``hash``, ``repr`` or pickling.  Trees can be shared across
threads: two threads that evaluate a tree for the first time at once may
both compile it, a benign race in which each gets an equivalent closure.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from math import isfinite, log2, sqrt
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .errors import (
    DivisionByZeroError,
    FormulaDomainError,
    FormulaSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
)

__all__ = [
    "FormulaExpr",
    "Number",
    "Variable",
    "Call",
    "Neg",
    "BinOp",
    "FUNCTIONS",
    "QEC_SCHEME_VARIABLES",
    "DISTILLATION_VARIABLES",
    "parse_formula",
    "evaluate",
    "to_source",
    "variables",
]

#: Recognized unary function names.
FUNCTIONS = frozenset({"ceil", "floor", "log2", "sqrt"})

#: Variable names bound when evaluating QEC-scheme formulas.
QEC_SCHEME_VARIABLES = frozenset(
    {
        "oneQubitGateTime",
        "twoQubitGateTime",
        "oneQubitMeasurementTime",
        "twoQubitMeasurementTime",
        "codeDistance",
    }
)

#: Variable names bound when evaluating distillation-unit formulas.
DISTILLATION_VARIABLES = QEC_SCHEME_VARIABLES | frozenset(
    {
        "inputErrorRate",
        "cliffordErrorRate",
        "physicalQubitsPerLogicalQubit",
        "logicalCycleTime",
    }
)


class _Node:
    """Base of the tree nodes.  ``str`` gives a node's source text.  A
    node evaluated once keeps its compiled closure (see :func:`evaluate`)
    as an attribute outside its fields; pickling leaves it out."""

    def __str__(self) -> str:
        return to_source(self)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_run"}


@dataclass(frozen=True)
class Number(_Node):
    value: float


@dataclass(frozen=True)
class Variable(_Node):
    name: str


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: "FormulaExpr"


@dataclass(frozen=True)
class Neg(_Node):
    operand: "FormulaExpr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of "+", "-", "*", "/", "^"
    left: "FormulaExpr"
    right: "FormulaExpr"


FormulaExpr = Union[Number, Variable, Call, Neg, BinOp]


# ---------------------------------------------------------------------------
# lexer

_EOF = "end"

# Whitespace, then at most one token: a number, an identifier or an
# operator.  A match that takes no token stops at the end of the source or
# at a character that starts none.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<identifier>[A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))?"
)


class _Token(NamedTuple):
    kind: str  # "number", "identifier" (as _TOKEN_RE names them), an operator, or _EOF
    text: str
    position: int


def _tokenize(source: str) -> Iterator[_Token]:
    pos = 0
    while True:
        m = _TOKEN_RE.match(source, pos)
        pos = m.end()
        group = m.lastindex
        if group is None:
            break
        text = m.group(group)
        yield _Token(m.lastgroup or text, text, m.start(group))
    if pos < len(source):
        raise FormulaSyntaxError(pos, "a number, variable, operator, or parenthesis")
    yield _Token(_EOF, "", pos)


# ---------------------------------------------------------------------------
# parser

# Most tokens a formula may have: over ten times the longest formula the
# package or its benchmark uses (22 tokens).  It bounds the depth of the
# parsed tree, so that parsing (at most three frames per two tokens, for
# nested parentheses: ``expr``, ``unary`` and ``primary``), evaluation and
# serialization stay well below Python's default recursion limit of 1000.
_MAX_TOKENS = 256

# Binding strength of each binary operator; a unary minus binds tighter
# than any of them, and a number, variable, call or group tighter still.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_NEG_PRECEDENCE = 4
_ATOM_PRECEDENCE = 5


def _operand_bounds(op: str) -> tuple[int, int]:
    """The least precedence ``op``'s left and right operands may have
    without parentheses: ``^`` groups to the right, the others to the left."""
    prec = _PRECEDENCE[op]
    return (prec + 1, prec) if op == "^" else (prec, prec + 1)


class _Parser:
    def __init__(self, source: str):
        self.tokens = list(itertools.islice(_tokenize(source), _MAX_TOKENS + 1))
        if self.tokens[-1].kind != _EOF:
            raise FormulaSyntaxError(
                self.tokens[-1].position, f"the end of the formula within {_MAX_TOKENS} tokens"
            )
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        if self.current.kind != kind:
            raise FormulaSyntaxError(self.current.position, expected)
        return self.advance()

    def parse(self) -> FormulaExpr:
        expr = self.expr()
        if self.current.kind != _EOF:
            raise FormulaSyntaxError(self.current.position, "an operator or end of input")
        return expr

    def expr(self, least: int = 1) -> FormulaExpr:
        """A unary operand followed by binary operators of precedence at
        least ``least``, grouped as :func:`_operand_bounds` says."""
        node = self.unary()
        while _PRECEDENCE.get(self.current.kind, 0) >= least:
            op = self.advance().kind
            node = BinOp(op, node, self.expr(_operand_bounds(op)[1]))
        return node

    def unary(self) -> FormulaExpr:
        if self.current.kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.primary()

    def primary(self) -> FormulaExpr:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(tok.position, "a representable numeric literal")
            return Number(value)
        if tok.kind == "identifier":
            self.advance()
            if self.current.kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(tok.text, tok.position)
                self.advance()
                arg = self.expr()
                self.expect(")", "')' to close the function call")
                return Call(tok.text, arg)
            return Variable(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")", "')' to close the group")
            return inner
        raise FormulaSyntaxError(tok.position, "a number, variable, function call, or '('")


def parse_formula(source: str) -> FormulaExpr:
    """Parse a formula string into an expression tree.

    Raises :class:`FormulaSyntaxError` (with the character position of the
    problem) for malformed input, including a formula of more than 256
    tokens, and :class:`UnknownFunctionError` for a call to an unrecognized
    function.
    """
    if not isinstance(source, str):
        raise FormulaSyntaxError(0, f"a formula string, got {source!r}")
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# serialization


def _precedence(expr: FormulaExpr) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Neg):
        return _NEG_PRECEDENCE
    return _ATOM_PRECEDENCE


def _operand_source(expr: FormulaExpr, least: int) -> str:
    """``expr``'s source text, in parentheses if it binds looser than ``least``."""
    text = to_source(expr)
    return f"({text})" if _precedence(expr) < least else text


def to_source(expr: FormulaExpr) -> str:
    """Render a tree back to formula text.

    For any parsed tree ``t``, ``parse_formula(to_source(t)) == t``; the
    renderer inserts parentheses wherever precedence or associativity
    would otherwise regroup the expression.
    """
    if isinstance(expr, Number):
        return repr(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({to_source(expr.arg)})"
    if isinstance(expr, Neg):
        return f"-{_operand_source(expr.operand, _NEG_PRECEDENCE)}"
    if isinstance(expr, BinOp):
        left, right = _operand_bounds(expr.op)
        return f"{_operand_source(expr.left, left)} {expr.op} {_operand_source(expr.right, right)}"
    raise TypeError(f"not a formula node: {expr!r}")


def variables(expr: FormulaExpr) -> frozenset[str]:
    """Collect the variable names referenced by a tree."""
    found: set[str] = set()
    stack: list[FormulaExpr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            found.add(node.name)
        elif isinstance(node, Call):
            stack.append(node.arg)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(found)


# ---------------------------------------------------------------------------
# evaluation: each node compiles to a closure over its children's closures

_Run = Callable[[Mapping[str, float]], float]


def _power(base: float, exponent: float) -> float:
    if base < 0.0 and exponent != math.floor(exponent):
        raise FormulaDomainError(
            f"negative base {base:g} with non-integer exponent {exponent:g}"
        )
    if base == 0.0 and exponent < 0.0:
        raise DivisionByZeroError("zero raised to a negative power")
    try:
        return base**exponent
    except OverflowError as exc:
        raise FormulaDomainError(f"{base:g} ^ {exponent:g} overflows") from exc


def _variable(name) -> _Run:
    def run(env):
        try:
            value = float(env[name])
        except KeyError:
            raise UnboundVariableError(name) from None
        if not isfinite(value):
            raise ValueError(f"variable {name!r} is bound to non-finite {value!r}")
        return value

    return run


def _call(func: str, arg) -> _Run:
    if func in ("ceil", "floor"):
        round_ = math.ceil if func == "ceil" else math.floor

        def run(env):
            x = arg(env)
            if not isfinite(x):
                raise FormulaDomainError(f"{func} of non-finite value {x!r}")
            return float(round_(x))

    elif func == "log2":

        def run(env):
            x = arg(env)
            if x <= 0.0:
                raise FormulaDomainError(f"log2 of non-positive value {x:g}")
            return log2(x)

    elif func == "sqrt":

        def run(env):
            x = arg(env)
            if x < 0.0:
                raise FormulaDomainError(f"sqrt of negative value {x:g}")
            return sqrt(x)

    else:

        def run(env):
            arg(env)
            raise UnknownFunctionError(func)

    return run


def _binop(expr: BinOp, left, right) -> _Run:
    op = expr.op
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    if op == "/":

        def run(env):
            x = left(env)
            y = right(env)
            if y == 0.0:
                raise DivisionByZeroError(f"{x:g} / 0")
            return x / y

        return run
    if op == "^":
        return lambda env: _power(left(env), right(env))

    def run(env):
        left(env)
        right(env)
        raise TypeError(f"not a formula node: {expr!r}")

    return run


def _compiled(expr: FormulaExpr) -> _Run:
    """The closure that evaluates ``expr``, built on first use and kept on
    the node (outside its fields, so out of ``==``, ``hash`` and ``repr``)."""
    run = getattr(expr, "_run", None)
    if run is not None:
        return run
    if isinstance(expr, Number):
        value = expr.value
        run = lambda env: value
    elif isinstance(expr, Variable):
        run = _variable(expr.name)
    elif isinstance(expr, Neg):
        operand = _compiled(expr.operand)
        run = lambda env: -operand(env)
    elif isinstance(expr, Call):
        run = _call(expr.func, _compiled(expr.arg))
    elif isinstance(expr, BinOp):
        run = _binop(expr, _compiled(expr.left), _compiled(expr.right))
    else:

        def run(env):
            raise TypeError(f"not a formula node: {expr!r}")

        return run
    object.__setattr__(expr, "_run", run)
    return run


def evaluate(expr: FormulaExpr, env: Mapping[str, float]) -> float:
    """Evaluate a tree against named-variable bindings.

    All bound values must be finite.  Evaluation is deterministic: the same
    tree and environment always produce the bit-identical result.  Each
    node runs the same float operations and domain checks in the same
    order as a walk over the tree, left operand before right, so results
    and errors do not depend on whether the tree was compiled before.
    """
    try:
        run = expr._run
    except AttributeError:
        run = _compiled(expr)
    return run(env)
