"""Tiny arithmetic-expression language for analytic profiles of x.

Grammar (whitespace insensitive)::

    expr   := term { ('+' | '-') term }
    term   := unary { ('*' | '/') unary }
    unary  := '-' unary | power
    power  := atom [ '^' unary ]          # right associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the coordinate ``x``, the functions exp/sin/cos/tanh/sqrt,
the built-in constant ``pi``, or user-supplied named constants.  Every
node whose operands are all constants folds to a number at parse time, and
a constant that is not finite (``0^-1``, ``sqrt(-1)``, ``1e999``) is an
error at its offset.  Exponents must fold to a number, which keeps the
language closed under the differentiation used for entropy-profile
derivatives: ``derivative(nu)``, the name scipy's splines use, so a parsed
profile and a spline of samples are interchangeable.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Mapping, NamedTuple

import numpy as np

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
}

CONSTANTS = {"pi": math.pi}

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


class ExpressionError(ValueError):
    """Malformed or unresolvable expression text.

    ``position`` is the 0-based offset of the offending character/token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


# --- AST ---------------------------------------------------------------


class Expr:
    """Base node.  A concrete node below is immutable, and is equal, hashed
    and printed by its type and the fields its ``__slots__`` names."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def eval(self, x):
        raise NotImplementedError

    def _d(self) -> "Expr":
        raise NotImplementedError

    def derivative(self, nu: int = 1) -> "Expr":
        """The ``nu``-th derivative in x, as an expression."""
        out = self
        for _ in range(nu):
            out = out._d()
        return out

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


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)

    def eval(self, x):
        return self.value

    def _d(self):
        return Num(0.0)


class Var(Expr):
    __slots__ = ()

    def eval(self, x):
        return x

    def _d(self):
        return Num(1.0)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    def eval(self, x):
        return -self.arg.eval(x)

    def _d(self):
        return _neg(self.arg._d())


class Bin(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def eval(self, x):
        return _OPS[self.op](self.lhs.eval(x), self.rhs.eval(x))

    def _d(self):
        a, b = self.lhs, self.rhs
        da, db = a._d(), b._d()
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


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def eval(self, x):
        return FUNCTIONS[self.fn](self.arg.eval(x))

    def _d(self):
        a = self.arg
        da = a._d()
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


# --- constant folding (keeps derivative ASTs small) ---------------------


def _fold(op: str, a: Num, b: Num) -> Num:
    """``a op b`` in float64 arithmetic; the value may be non-finite (the
    parser rejects such a constant)."""
    with np.errstate(all="ignore"):
        return Num(float(_OPS[op](np.float64(a.value), np.float64(b.value))))


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold("+", a, b)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Bin("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold("-", a, b)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return _neg(b)
    return Bin("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold("*", a, b)
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
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold("/", a, b)
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
        return _fold("^", a, b)
    return Bin("^", a, b)


def _call(fn: str, a: Expr) -> Expr:
    if isinstance(a, Num):
        with np.errstate(all="ignore"):
            return Num(float(FUNCTIONS[fn](a.value)))
    return Call(fn, a)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# --- tokenizer / parser --------------------------------------------------

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Token(NamedTuple):
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
        match = _NUMBER.match(text, i) or _IDENT.match(text, i)
        if match:
            tokens.append(_Token("num" if match.re is _NUMBER else "ident", match.group(), i))
            i = match.end()
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div}


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

    def finite(self, node: Expr, tok: _Token) -> Expr:
        """``node``, unless it is a constant that is not finite."""
        if isinstance(node, Num) and not math.isfinite(node.value):
            raise ExpressionError(f"{tok.text!r} gives a constant that is not finite", tok.pos)
        return node

    def binary(self, operand, ops: str) -> Expr:
        node = operand()
        while self.peek().kind in ops:
            tok = self.next()
            node = self.finite(_BINARY[tok.kind](node, operand()), tok)
        return node

    def expr(self) -> Expr:
        return self.binary(self.term, "+-")

    def term(self) -> Expr:
        return self.binary(self.unary, "*/")

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
            return self.finite(_pow(base, exponent), tok)
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return self.finite(Num(float(tok.text)), tok)
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
                return self.finite(_call(name, arg), tok)
            if name == "x":
                return Var()
            if name in self.constants:
                return self.finite(Num(float(self.constants[name])), tok)
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
