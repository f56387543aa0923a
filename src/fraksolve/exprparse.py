"""Arithmetic expressions in the variables t and u.

Recursive-descent parser with reported error offsets, and a numpy-aware
evaluator that refuses to produce non-finite values silently.  It has one
tree walk and two tables of calls: the bare numpy calls, run under
floating-point traps, and the same calls with checks that name the
offending operation, used only when a trap fires or an input or the
result is not finite.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 't' | 'u' | NAME '(' expr (',' expr)? ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so
"2^3^2" is 512 and "-2^2" is -4.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ParseError",
    "EvalDomainError",
    "parse",
    "evaluate",
    "variables",
]

MAX_SOURCE_BYTES = 64 * 1024

_FUNCTIONS = {"sqrt": 1, "ln": 1, "exp": 1, "atan": 1, "abs": 1, "pow": 2}
_VARIABLES = ("t", "u")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalDomainError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expression", ...]


Expression = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}", at)
        if m.lastgroup is None:  # trailing whitespace only
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expression:
        node = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # exponent goes through factor: right-associative, and a unary
            # minus in the exponent ("2^-3") parses naturally
            return BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Expression:
        kind, val, pos = self.advance()
        if kind == "num":
            value = float(val)
            if math.isinf(value):  # a literal beyond the float range
                raise ParseError("number out of range", pos)
            return Num(value)
        if kind == "name":
            if val in _VARIABLES:
                return Var(val)
            if val in _FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_expr()]
                while True:
                    k, v, p = self.peek()
                    if k == "op" and v == ",":
                        self.advance()
                        args.append(self.parse_expr())
                    else:
                        break
                self.expect_op(")")
                arity = _FUNCTIONS[val]
                if len(args) != arity:
                    raise ParseError(
                        f"{val} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                        pos,
                    )
                return Call(val, tuple(args))
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)


def parse(text: str) -> Expression:
    """Parse expression text over variables t and u.

    Raises ParseError (with character offset) on malformed input, on
    numbers beyond the float range and on identifiers other than t, u and
    the supported functions.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    if len(text.encode()) > MAX_SOURCE_BYTES:
        raise ParseError(f"expression longer than {MAX_SOURCE_BYTES} bytes", MAX_SOURCE_BYTES)
    p = _Parser(_tokenize(text))
    try:
        node = p.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected {val!r}", pos)
    return node


def variables(expr: Expression) -> frozenset[str]:
    """The variables the tree reads, a subset of {"t", "u"}; a tree that
    does not read one gives the same value at every value of it.  Walks
    with a stack, not recursion, so any tree ``parse`` returns is within
    reach."""
    found = set()
    stack = [expr]
    while stack and len(found) < len(_VARIABLES):
        node = stack.pop()
        if isinstance(node, Var):
            found.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += (node.left, node.right)
        elif isinstance(node, Call):
            stack += node.args
    return frozenset(found)


def _fmt_args(*vals) -> str:
    return ", ".join(np.format_float_positional(v, trim="-") for v in vals)


def _first_bad(mask, *vals):
    """Representative offending argument values where mask is False; the
    mask may span fewer axes than the operands (a divisor's does)."""
    mask, *vals = np.broadcast_arrays(mask, *vals)
    at = np.unravel_index(np.argmin(mask), mask.shape)  # first False in flat order
    return tuple(float(v[at]) for v in vals)


def _require(mask, what: str, *vals) -> None:
    mask = np.asarray(mask)
    if not mask.all():
        bad = _first_bad(mask, *vals)
        raise EvalDomainError(f"{what}({_fmt_args(*bad)})")


def _finite(result, what: str, *vals):
    ok = np.isfinite(result)
    if not np.all(ok):
        bad = _first_bad(ok, *vals)
        raise EvalDomainError(f"non-finite result from {what}({_fmt_args(*bad)})")
    return result


def _power(a, b):
    return np.power(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def _pow(a, b):
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    is_int_exp = b_arr == np.floor(b_arr)
    _require(~((a_arr < 0.0) & ~is_int_exp), "fractional power of negative base: pow", a, b)
    _require(~((a_arr == 0.0) & (b_arr < 0.0)), "zero base with negative exponent: pow", a, b)
    return _finite(np.power(a_arr, b_arr), "pow", a, b)


def _checked(ufunc):
    return lambda a, b: _finite(ufunc(a, b), ufunc.__name__, a, b)


def _divide(a, b):
    _require(np.asarray(b) != 0.0, "division by zero: divide", a, b)
    return _finite(np.divide(a, b), "divide", a, b)


def _sqrt(a):
    _require(np.asarray(a) >= 0.0, "sqrt of negative argument: sqrt", a)
    return np.sqrt(a)


def _ln(a):
    _require(np.asarray(a) > 0.0, "ln of non-positive argument: ln", a)
    return np.log(a)


# The call of every operator and function: bare numpy calls, and the same
# calls with the checks that name an out-of-domain argument or a non-finite
# result (atan and abs need none).
_FAST = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": _power,
         "pow": _power, "sqrt": np.sqrt, "ln": np.log, "exp": np.exp, "atan": np.arctan,
         "abs": np.abs}
_CHECKED = {"+": _checked(np.add), "-": _checked(np.subtract), "*": _checked(np.multiply),
            "/": _divide, "^": _pow, "pow": _pow, "sqrt": _sqrt, "ln": _ln,
            "exp": lambda a: _finite(np.exp(a), "exp", a), "atan": np.arctan, "abs": np.abs}


def _walk(node: Expression, t, u, ops: dict):
    """Evaluate node, making each operator and function call through ops."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t if node.name == "t" else u
    if isinstance(node, Neg):
        return -_walk(node.operand, t, u, ops)
    if isinstance(node, BinOp):
        return ops[node.op](_walk(node.left, t, u, ops), _walk(node.right, t, u, ops))
    if isinstance(node, Call):
        return ops[node.fn](*[_walk(arg, t, u, ops) for arg in node.args])
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(expr: Expression, t, u):
    """Evaluate at (t, u); scalars or broadcastable numpy arrays.

    Two scalars give a float; otherwise the result is a float array of
    the broadcast shape of t and u, whatever the expression reads.
    Out-of-domain intermediates (ln of a non-positive value, division by
    zero, overflow to infinity) raise EvalDomainError naming the
    operation and the offending arguments.

    One tree walk runs with the bare numpy calls of ``_FAST``, trapping
    division by zero, overflow and invalid operations (underflow to 0 is
    no error).  If a trap fires, or t, u or the result is not all finite,
    the walk runs again with the checked calls of ``_CHECKED``, and its
    value or EvalDomainError is returned as is.  Non-finite inputs need
    it: IEEE flags nothing for inf/0, and x^0 = 1 hides it.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            out = _walk(expr, t, u, _FAST)
        clean = np.isfinite(out).all() and np.isfinite(t).all() and np.isfinite(u).all()
    except FloatingPointError:
        clean = False
    if not clean:
        with np.errstate(all="ignore"):
            out = _walk(expr, t, u, _CHECKED)
    shape = np.broadcast_shapes(np.shape(t), np.shape(u))
    if not shape:
        return float(out)
    out = np.asarray(out, dtype=float)
    # a constant, or a lone t or u, does not span the broadcast shape
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()
