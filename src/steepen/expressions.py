"""Tiny arithmetic-expression language for analytic profiles of x.

Grammar (whitespace insensitive)::

    expr   := term { ('+' | '-') term }
    term   := unary { ('*' | '/') unary }
    unary  := '-' unary | power
    power  := atom [ '^' unary ]          # right associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the coordinate ``x``, the functions exp/sin/cos/tanh/sqrt,
the built-in constant ``pi``, or user-supplied named constants.  Exponents
must fold to a numeric constant, which keeps the language closed under the
differentiation used for entropy-profile derivatives.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
}

CONSTANTS = {"pi": math.pi}


class ExpressionError(ValueError):
    """Malformed or unresolvable expression text.

    ``position`` is the 0-based offset of the offending character/token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


# --- AST ---------------------------------------------------------------


class Expr:
    """Base node; concrete nodes are frozen dataclasses below."""

    def eval(self, x):
        raise NotImplementedError

    def diff(self) -> "Expr":
        raise NotImplementedError

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = self.eval(x)
        if x.ndim == 0:
            return float(out)
        out = np.asarray(out, dtype=float)
        if out.shape != x.shape or np.may_share_memory(out, x):  # a constant, or x itself
            out = np.full(x.shape, out)
        return out


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, x):
        return self.value

    def diff(self):
        return Num(0.0)


@dataclass(frozen=True)
class Var(Expr):
    def eval(self, x):
        return x

    def diff(self):
        return Num(1.0)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, x):
        return -self.arg.eval(x)

    def diff(self):
        return _neg(self.arg.diff())


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def eval(self, x):
        a = self.lhs.eval(x)
        b = self.rhs.eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return a**b

    def diff(self):
        a, b = self.lhs, self.rhs
        da, db = a.diff(), b.diff()
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if self.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
        # '^' carries a numeric exponent by construction
        n = b.value  # type: ignore[union-attr]
        return _mul(_mul(Num(n), _pow(a, Num(n - 1.0))), da)


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def eval(self, x):
        return FUNCTIONS[self.fn](self.arg.eval(x))

    def diff(self):
        a = self.arg
        da = a.diff()
        if self.fn == "exp":
            outer = Call("exp", a)
        elif self.fn == "sin":
            outer = Call("cos", a)
        elif self.fn == "cos":
            outer = _neg(Call("sin", a))
        elif self.fn == "tanh":
            outer = _sub(Num(1.0), _pow(Call("tanh", a), Num(2.0)))
        else:  # sqrt
            return _div(da, _mul(Num(2.0), Call("sqrt", a)))
        return _mul(outer, da)


# --- light constant folding (keeps derivative ASTs small) ---------------


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Bin("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return _neg(b)
    return Bin("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    for u, v in ((a, b), (b, a)):
        if isinstance(u, Num):
            if u.value == 0.0:
                return Num(0.0)
            if u.value == 1.0:
                return v
            if u.value == -1.0:
                return _neg(v)
    return Bin("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and a.value == 0.0:
        return Num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Bin("/", a, b)


def _pow(a: Expr, b: Num) -> Expr:
    if b.value == 0.0:
        return Num(1.0)
    if b.value == 1.0:
        return a
    if isinstance(a, Num):
        # fold through array semantics: negative base with fractional
        # exponent stays an unfolded node rather than going complex
        with np.errstate(all="ignore"):
            folded = float(np.float64(a.value) ** np.float64(b.value))
        if np.isfinite(folded):
            return Num(folded)
    return Bin("^", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# --- tokenizer / parser --------------------------------------------------

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | one of '+-*/^()' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            match = _NUMBER.match(text, i)
            if match is None:
                raise ExpressionError("malformed number", i)
            tokens.append(_Token("num", match.group(), i))
            i = match.end()
        elif ch.isalpha() or ch == "_":
            match = _IDENT.match(text, i)
            tokens.append(_Token("ident", match.group(), i))
            i = match.end()
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], constants: Mapping[str, float]):
        self.tokens = tokens
        self.k = 0
        self.constants = constants

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExpressionError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return tok

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            node = _add(node, rhs) if op == "+" else _sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.unary()
            node = _mul(node, rhs) if op == "*" else _div(node, rhs)
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return _neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            tok = self.next()
            exponent = self.unary()
            if not isinstance(exponent, Num):
                raise ExpressionError("exponent must fold to a number", tok.pos + 1)
            return _pow(base, exponent)
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {name!r}", tok.pos)
                self.next()
                arg = self.expr()
                self.expect(")")
                if isinstance(arg, Num):
                    return Num(float(FUNCTIONS[name](arg.value)))
                return Call(name, arg)
            if name == "x":
                return Var()
            if name in self.constants:
                return Num(float(self.constants[name]))
            raise ExpressionError(f"unknown identifier {name!r}", tok.pos)
        raise ExpressionError(
            f"unexpected {tok.text or 'end of input'!r}", tok.pos
        )


def parse_expression(text: str, constants: Mapping[str, float] | None = None) -> Expr:
    """Parse ``text`` into an AST; deterministic, evaluation is pure.

    ``constants`` adds named numeric constants on top of the built-in ``pi``.
    """
    merged = dict(CONSTANTS)
    if constants:
        for name, value in constants.items():
            if name == "x" or name in FUNCTIONS:
                raise ExpressionError(f"reserved name {name!r}", 0)
            merged[name] = float(value)
    parser = _Parser(_tokenize(text), merged)
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionError(f"trailing input {tail.text!r}", tail.pos)
    return node
