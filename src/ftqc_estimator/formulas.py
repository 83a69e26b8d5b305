"""Arithmetic formula strings: parsing, serialization, and evaluation.

QEC schemes and distillation units are configured with small arithmetic
formulas such as ``"2 * codeDistance ^ 2"``.  This module parses them into
immutable expression trees that evaluate against a mapping of named
variables.

Grammar (whitespace-insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := unary ("^" factor)?
    unary   := "-" unary | primary
    primary := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` is right-associative and binds tighter than ``*`` and ``/``, which
bind tighter than ``+`` and ``-``.  Identifiers match
``[A-Za-z][A-Za-z0-9_]*``; numbers are decimal literals with optional
scientific notation.  The only recognized functions are ``ceil``,
``floor``, ``log2``, and ``sqrt``.

Trees are immutable after parsing and can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

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


@dataclass(frozen=True)
class Number:
    value: float

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "FormulaExpr"

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Neg:
    operand: "FormulaExpr"

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*", "/", "^"
    left: "FormulaExpr"
    right: "FormulaExpr"

    def __str__(self) -> str:
        return to_source(self)


FormulaExpr = Union[Number, Variable, Call, Neg, BinOp]


# ---------------------------------------------------------------------------
# lexer

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_OPERATORS = "+-*/^()"

_EOF = "end"
_NUM = "number"
_IDENT = "identifier"


@dataclass(frozen=True)
class _Token:
    kind: str  # _NUM, _IDENT, a single operator character, or _EOF
    text: str
    position: int


def _tokenize(source: str) -> Iterator[_Token]:
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPERATORS:
            yield _Token(ch, ch, pos)
            pos += 1
            continue
        m = _NUMBER_RE.match(source, pos)
        if m:
            yield _Token(_NUM, m.group(), pos)
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            yield _Token(_IDENT, m.group(), pos)
            pos = m.end()
            continue
        raise FormulaSyntaxError(pos, "a number, variable, operator, or parenthesis")
    yield _Token(_EOF, "", n)


# ---------------------------------------------------------------------------
# parser

_OPERAND_MSG = "a number, variable, function call, or '('"

# Most tokens a formula may have: over ten times the longest formula the
# package or its benchmark uses (22 tokens).  It bounds the depth of the
# parsed tree, so that parsing (at most five frames per two tokens, for
# nested parentheses), evaluation and serialization stay well below
# Python's default recursion limit of 1000.
_MAX_TOKENS = 256


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

    def expr(self) -> FormulaExpr:
        node = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> FormulaExpr:
        node = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> FormulaExpr:
        node = self.unary()
        if self.current.kind == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self) -> FormulaExpr:
        if self.current.kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.primary()

    def primary(self) -> FormulaExpr:
        tok = self.current
        if tok.kind == _NUM:
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(tok.position, "a representable numeric literal")
            return Number(value)
        if tok.kind == _IDENT:
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
        raise FormulaSyntaxError(tok.position, _OPERAND_MSG)


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

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_NEG_PRECEDENCE = 4
_ATOM_PRECEDENCE = 5


def _precedence(expr: FormulaExpr) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Neg):
        return _NEG_PRECEDENCE
    return _ATOM_PRECEDENCE


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
        inner = to_source(expr.operand)
        # unary minus binds tighter than any binary operator
        if _precedence(expr.operand) < _NEG_PRECEDENCE:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        left = to_source(expr.left)
        right = to_source(expr.right)
        left_prec = _precedence(expr.left)
        right_prec = _precedence(expr.right)
        # "^" is right-associative; the other operators are left-associative
        if left_prec < prec or (expr.op == "^" and left_prec == prec):
            left = f"({left})"
        if right_prec < prec or (expr.op != "^" and right_prec == prec):
            right = f"({right})"
        return f"{left} {expr.op} {right}"
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
# evaluation


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


def evaluate(expr: FormulaExpr, env: Mapping[str, float]) -> float:
    """Evaluate a tree against named-variable bindings.

    All bound values must be finite.  Evaluation is deterministic: the same
    tree and environment always produce the bit-identical result.
    """
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
        return -evaluate(expr.operand, env)
    if isinstance(expr, Call):
        arg = evaluate(expr.arg, env)
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
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
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
            return _power(left, right)
    raise TypeError(f"not a formula node: {expr!r}")
