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

Trees are immutable after parsing.  :func:`parse_formula` keeps the trees
of the texts it parsed last, and :func:`evaluate` compiles a tree on its
first evaluation into one generated straight-line function, a statement
per node, kept on the tree's root; trees of the same shape share the
compiled code, because every constant is passed in as an argument.  Both
caches use ``functools.lru_cache``.  :func:`variables` likewise keeps a
tree's variable names on its root after the first walk.  Neither kept
value takes part in ``==``, ``hash``, ``repr`` or pickling.  Trees can be
shared across threads without a lock, because a kept value is only ever
replaced by an equal one: two threads that evaluate a new tree at once
may both compile it, each keeping an equivalent function.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from math import isfinite, log2, sqrt
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .errors import (
    DivisionByZeroError,
    FormulaDomainError,
    FormulaSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
)
from .records import Record

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


class _Node(Record):
    """Base of the tree nodes.  ``str`` gives a node's source text.  A
    tree evaluated once keeps its compiled function (see :func:`evaluate`),
    and one walked by :func:`variables` its variable names, on its root as
    attributes outside its fields; pickling leaves them out."""

    def __str__(self) -> str:
        return to_source(self)


class Number(_Node):
    """A numeric literal."""

    value: float


class Variable(_Node):
    """A variable, bound by the environment of an evaluation."""

    name: str


class Call(_Node):
    """A call of one of :data:`FUNCTIONS` on one argument."""

    func: str
    arg: "FormulaExpr"


class Neg(_Node):
    """A leading minus."""

    operand: "FormulaExpr"


class BinOp(_Node):
    """A binary operation."""

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


# A longer text is parsed on every call instead of kept, so that no input
# can keep a huge (say whitespace-padded) string alive.
_MAX_CACHED_CHARS = 1024


def parse_formula(source: str) -> FormulaExpr:
    """Parse a formula string into an expression tree.

    Raises :class:`FormulaSyntaxError` (with the character position of the
    problem) for malformed input, including a formula of more than 256
    tokens, and :class:`UnknownFunctionError` for a call to an unrecognized
    function.  A text parsed before returns the tree it gave then; one that
    failed fails again, the same way.
    """
    if not isinstance(source, str):
        raise FormulaSyntaxError(0, f"a formula string, got {source!r}")
    return _parsed(source) if len(source) <= _MAX_CACHED_CHARS else _Parser(source).parse()


@functools.lru_cache(maxsize=1024)
def _parsed(source: str) -> FormulaExpr:
    """``source``'s tree, kept for the 1024 texts parsed last; a failed parse is not kept."""
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
    """Collect the variable names referenced by a tree.

    The first call walks the tree and keeps the set on its root; later
    calls return the kept set.
    """
    # kept by hand: a functools.cached_property costs ~14 ns more a call (timeit, 3.11)
    try:
        return expr._variables
    except AttributeError:
        pass
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
    names = frozenset(found)
    if isinstance(expr, _Node):
        object.__setattr__(expr, "_variables", names)
    return names


# ---------------------------------------------------------------------------
# evaluation: each tree compiles to one straight-line function

_Run = Callable[[Mapping[str, float]], float]

# The statements that compute one node, %-formatted: %(v)s names the
# node's value, %(x)s and %(y)s its operands' values (left before right),
# and %(a)s an argument of the generated function.  Each makes the checks
# of a walk over the tree, with their messages, in the walk's order.
_NOT_A_NODE = "raise TypeError(f'not a formula node: {%(a)s!r}')"
_VARIABLE = (
    "try: %(v)s = float(env[%(a)s])\n"
    "except KeyError: raise UnboundVariableError(%(a)s) from None\n"
    "if not isfinite(%(v)s):"
    " raise ValueError(f'variable {%(a)s!r} is bound to non-finite {%(v)s!r}')"
)
_NEG = "%(v)s = -%(x)s"
_FUNCTION_STATEMENTS = {
    "ceil": "if not isfinite(%(x)s):"
    " raise FormulaDomainError(f'ceil of non-finite value {%(x)s!r}')\n"
    "%(v)s = float(ceil(%(x)s))",
    "floor": "if not isfinite(%(x)s):"
    " raise FormulaDomainError(f'floor of non-finite value {%(x)s!r}')\n"
    "%(v)s = float(floor(%(x)s))",
    "log2": "if %(x)s <= 0.0:"
    " raise FormulaDomainError(f'log2 of non-positive value {%(x)s:g}')\n"
    "%(v)s = log2(%(x)s)",
    "sqrt": "if %(x)s < 0.0: raise FormulaDomainError(f'sqrt of negative value {%(x)s:g}')\n"
    "%(v)s = sqrt(%(x)s)",
}
_UNKNOWN_FUNCTION = "raise UnknownFunctionError(%(a)s)"
_OPERATOR_STATEMENTS = {
    "+": "%(v)s = %(x)s + %(y)s",
    "-": "%(v)s = %(x)s - %(y)s",
    "*": "%(v)s = %(x)s * %(y)s",
    "/": "if %(y)s == 0.0: raise DivisionByZeroError(f'{%(x)s:g} / 0')\n"
    "%(v)s = %(x)s / %(y)s",
    "^": "if %(x)s < 0.0 and not (isfinite(%(y)s) and %(y)s == floor(%(y)s)):"
    " raise FormulaDomainError("
    "f'negative base {%(x)s:g} with non-integer exponent {%(y)s:g}')\n"
    "if %(x)s == 0.0 and %(y)s < 0.0:"
    " raise DivisionByZeroError('zero raised to a negative power')\n"
    "try: %(v)s = %(x)s ** %(y)s\n"
    "except OverflowError as exc:"
    " raise FormulaDomainError(f'{%(x)s:g} ^ {%(y)s:g} overflows') from exc",
}

# What the generated functions read besides their arguments.
_GLOBALS = {
    "isfinite": isfinite,
    "ceil": math.ceil,
    "floor": math.floor,
    "log2": log2,
    "sqrt": sqrt,
    "DivisionByZeroError": DivisionByZeroError,
    "FormulaDomainError": FormulaDomainError,
    "UnboundVariableError": UnboundVariableError,
    "UnknownFunctionError": UnknownFunctionError,
}


@functools.lru_cache(maxsize=256)
def _maker(source: str) -> Callable[..., _Run]:
    """The compiled maker of a generated ``source``, one per tree shape (every
    constant is an argument), kept for the 256 shapes compiled last."""
    namespace: dict = {}
    exec(compile(source, "<formula>", "exec"), _GLOBALS, namespace)
    return namespace["make"]


def _compile(expr: FormulaExpr) -> _Run:
    """The function that evaluates ``expr``: one statement per node, in the
    order a walk over the tree reaches them, with each number, variable
    name, unknown function name and malformed node passed in as an
    argument of the shape's compiled maker, so no text of the tree enters
    the generated source."""
    statements: list[str] = []
    args: list = []

    def arg(value) -> str:
        args.append(value)
        return f"a{len(args) - 1}"

    def emit(node) -> str:
        """Add ``node``'s statements; return the name of its value."""
        if isinstance(node, Number):
            return arg(node.value)
        if isinstance(node, Variable):
            statement, fields = _VARIABLE, {"a": arg(node.name)}
        elif isinstance(node, Neg):
            statement, fields = _NEG, {"x": emit(node.operand)}
        elif isinstance(node, Call):
            fields = {"x": emit(node.arg)}
            statement = isinstance(node.func, str) and _FUNCTION_STATEMENTS.get(node.func)
            if not statement:
                statement, fields = _UNKNOWN_FUNCTION, {"a": arg(node.func)}
        elif isinstance(node, BinOp):
            fields = {"x": emit(node.left), "y": emit(node.right)}
            statement = isinstance(node.op, str) and _OPERATOR_STATEMENTS.get(node.op)
            if not statement:
                statement, fields = _NOT_A_NODE, {"a": arg(node)}
        else:
            statement, fields = _NOT_A_NODE, {"a": arg(node)}
        fields["v"] = f"v{len(statements)}"
        statements.append(statement % fields)
        return fields["v"]

    result = emit(expr)
    body = "".join(f"{statement}\n" for statement in statements).replace("\n", "\n        ")
    source = (
        f"def make({', '.join(f'a{i}' for i in range(len(args)))}):\n"
        f"    def run(env):\n        {body}return {result}\n"
        "    return run\n"
    )
    return _maker(source)(*args)


def evaluate(expr: FormulaExpr, env: Mapping[str, float]) -> float:
    """Evaluate a tree against named-variable bindings.

    All bound values must be finite.  Evaluation is deterministic: the same
    tree and environment always produce the bit-identical result.  The
    compiled function runs the same float operations and domain checks in
    the same order as a walk over the tree, left operand before right, so
    results and errors do not depend on whether the tree was compiled
    before or shares its shape with another.
    """
    # kept by hand: a functools.cached_property costs ~12 ns more a call (timeit, 3.11)
    try:
        run = expr._run
    except AttributeError:
        run = _compile(expr)
        if isinstance(expr, _Node):
            object.__setattr__(expr, "_run", run)
    return run(env)
