"""Small expression language for coefficients: parse, evaluate, differentiate.

Grammar (tightest first): ^ is right-associative, then unary minus, then
* and /, then + and -.  So -x^2 means -(x^2).  Variables are exactly x and
t, the constants pi and e are built in, and the unary functions sin, cos,
tan, exp, log, sqrt, abs are known.  Number literals must be finite: one
that overflows a float is refused by the lexer.  A tree deeper than
MAX_DEPTH levels is refused by the parser: each parenthesis, function
call, unary minus, exponent and binary operator on the deepest path
counts one, so a long chain like x+x+...+x counts as deep as its
length.  The parser recurses on each nesting level, and the functions
that walk a tree on each of its levels.

Evaluation is numpy-aware: x and t may be scalars or broadcastable arrays,
and the result is a float when both are scalars, otherwise a float array of
their broadcast shape.  A coefficient must be finite wherever it is
evaluated, so a domain violation (division by zero, log of a nonpositive
value, overflow, ...) raises EvalError naming the subexpression at which
numpy raises its divide, overflow or invalid floating-point flag; underflow
to zero is allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# the parser takes about five frames a nesting level, the tree walkers
# (_eval, to_string, _diff, substitute) one a level, and a derivative is
# at most about three times as deep as its tree, so this many stay well
# inside Python's default recursion limit of 1000
MAX_DEPTH = 100


class LexError(ValueError):
    """Bad character or malformed number; offset points into the source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ParseError(ValueError):
    """Structurally invalid expression; offset points at the bad token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Domain violation during evaluation (division by zero, log of a
    nonpositive value, ...).  Carries the offending node."""

    def __init__(self, message, node):
        super().__init__(message)
        self.node = node


class DiffError(ValueError):
    """Raised for nodes with no symbolic derivative (abs)."""


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "op" | "paren" | "comma"
    lexeme: str
    pos: int


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "x" or "t"


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # "+", "-", "*", "/", "^"
    left: Expr
    right: Expr


def tokenize(source):
    """Split source into tokens.  Whitespace separates; lexemes concatenate
    back to the source otherwise."""
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                if i + 1 >= n or not source[i + 1].isdigit():
                    raise LexError("malformed number: expected digit after '.'", i)
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            if not math.isfinite(float(source[start:i])):
                raise LexError("number out of range", start)
            tokens.append(Token("number", source[start:i], start))
            continue
        if ch == ".":
            raise LexError("malformed number: expected digit before '.'", i)
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("ident", source[start:i], start))
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        if ch in "()":
            tokens.append(Token("paren", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token("comma", ch, i))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, source_len):
        self.tokens = tokens
        self.k = 0
        self.source_len = source_len
        self.nesting = 0  # the parse_unary calls open on the stack

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {expected}, found end of input", self.source_len)
        raise ParseError(f"expected {expected}, found {tok.lexeme!r}", tok.pos)

    def too_deep(self, tok):
        offset = self.source_len if tok is None else tok.pos
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels", offset)

    def deeper(self, tok, *depths):
        """The depth of a level at tok over children of these depths; past
        MAX_DEPTH it is refused there."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            self.too_deep(tok)
        return depth

    # each parse_* returns (node, depth): the levels (see the module
    # docstring) of the deepest path through the source it read

    def parse_sum(self):
        node, depth = self.parse_term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.lexeme in "+-":
                self.advance()
                right, right_depth = self.parse_term()
                node, depth = BinOp(tok.lexeme, node, right), self.deeper(tok, depth, right_depth)
            else:
                return node, depth

    def parse_term(self):
        node, depth = self.parse_unary()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.lexeme in "*/":
                self.advance()
                right, right_depth = self.parse_unary()
                node, depth = BinOp(tok.lexeme, node, right), self.deeper(tok, depth, right_depth)
            else:
                return node, depth

    def parse_unary(self):
        # every level of nesting passes through here; it is refused before
        # the parser recurses into it
        tok = self.peek()
        if self.nesting == MAX_DEPTH:
            self.too_deep(tok)
        self.nesting += 1
        if tok is not None and tok.kind == "op" and tok.lexeme == "-":
            self.advance()
            child, depth = self.parse_unary()
            node = Neg(child)
        else:
            node, depth = self.parse_power()
        self.nesting -= 1
        return node, self.deeper(tok, depth)

    def parse_power(self):
        base, depth = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.lexeme == "^":
            self.advance()
            # right-associative; the exponent may carry its own unary minus
            exponent, exponent_depth = self.parse_unary()
            return BinOp("^", base, exponent), max(depth, exponent_depth)
        return base, depth

    def parse_atom(self):
        tok = self.peek()
        if tok is None:
            self.fail("a value")
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.lexeme)), 0
        if tok.kind == "paren" and tok.lexeme == "(":
            self.advance()
            node = self.parse_sum()
            closing = self.peek()
            if closing is None or closing.lexeme != ")":
                self.fail("')'")
            self.advance()
            return node
        if tok.kind == "ident":
            name = tok.lexeme
            self.advance()
            if name in ("x", "t"):
                return Var(name), 0
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name]), 0
            if name in _FUNCTIONS:
                opening = self.peek()
                if opening is None or opening.lexeme != "(":
                    self.fail(f"'(' after function {name!r}")
                self.advance()
                arg, depth = self.parse_sum()
                closing = self.peek()
                if closing is None or closing.lexeme != ")":
                    self.fail("')'")
                self.advance()
                return Call(name, arg), depth
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        self.fail("a value")


def parse(source):
    """Parse source into an expression tree.  Raises LexError or ParseError."""
    tokens = tokenize(source)
    parser = _Parser(tokens, len(source))
    node, _ = parser.parse_sum()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(
            f"expected operator or end of input, found {trailing.lexeme!r}", trailing.pos
        )
    return node


def _eval(node, x, t):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else t
    if isinstance(node, Neg):
        return np.negative(_eval(node.child, x, t))
    if isinstance(node, Call):
        fn, args = _FUNCTIONS[node.fn], (_eval(node.arg, x, t),)
    else:
        fn, args = _BINARY[node.op], (_eval(node.left, x, t), _eval(node.right, x, t))
    try:
        return fn(*args)
    except FloatingPointError:
        raise EvalError(f"non-finite value from {to_string(node)!r}", node) from None


def evaluate(node, x, t):
    """Evaluate at (x, t); either argument may be a scalar or an ndarray.
    Returns a float when both are scalars, otherwise a float array of
    their broadcast shape, which may be x or t itself.  Domain violations
    raise EvalError instead of propagating NaN/inf (see the module
    docstring)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        out = _eval(node, x, t)
    shape = np.broadcast(x, t).shape
    if np.shape(out) != shape:
        out = np.full(shape, out)
    # backstop for a non-finite x or t, which passes through unflagged
    if not np.isfinite(out).all():
        raise EvalError(f"non-finite value from {to_string(node)!r}", node)
    return out if shape else float(out)


# --- construction helpers with literal constant folding ---------------------


def const(v):
    return Const(float(v))


ZERO = Const(0.0)
ONE = Const(1.0)


def is_zero(node):
    return isinstance(node, Const) and node.value == 0.0


def is_one(node):
    return isinstance(node, Const) and node.value == 1.0


def mentions(node, var):
    """True when variable var occurs anywhere in the tree."""
    if isinstance(node, Var):
        return node.name == var
    if isinstance(node, Neg):
        return mentions(node.child, var)
    if isinstance(node, Call):
        return mentions(node.arg, var)
    if isinstance(node, BinOp):
        return mentions(node.left, var) or mentions(node.right, var)
    return False


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return BinOp("+", a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    return BinOp("-", a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_one(a):
        return b
    if is_one(b):
        return a
    return BinOp("*", a, b)


def div(a, b):
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if is_zero(a):
        return ZERO
    if is_one(b):
        return a
    return BinOp("/", a, b)


def powe(a, b):
    if is_one(b):
        return a
    if is_zero(b):
        return ONE
    return BinOp("^", a, b)


def call(fn, arg):
    if fn not in _FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    return Call(fn, arg)


def differentiate(node, var):
    """Symbolic partial derivative with respect to var ("x" or "t").
    Only literal arithmetic is folded; no deeper simplification is promised.
    abs has no derivative here and raises DiffError."""
    if var not in ("x", "t"):
        raise ValueError(f"variable must be 'x' or 't', got {var!r}")
    return _diff(node, var)


def _diff(node, var):
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Var):
        return ONE if node.name == var else ZERO
    if isinstance(node, Neg):
        return neg(_diff(node.child, var))
    if isinstance(node, Call):
        u = node.arg
        du = _diff(u, var)
        if node.fn == "sin":
            return mul(call("cos", u), du)
        if node.fn == "cos":
            return neg(mul(call("sin", u), du))
        if node.fn == "tan":
            return div(du, powe(call("cos", u), const(2.0)))
        if node.fn == "exp":
            return mul(node, du)
        if node.fn == "log":
            return div(du, u)
        if node.fn == "sqrt":
            return div(du, mul(const(2.0), node))
        raise DiffError("abs(...) has no symbolic derivative")
    u, v = node.left, node.right
    du, dv = _diff(u, var), _diff(v, var)
    if node.op == "+":
        return add(du, dv)
    if node.op == "-":
        return sub(du, dv)
    if node.op == "*":
        return add(mul(du, v), mul(u, dv))
    if node.op == "/":
        return div(sub(mul(du, v), mul(u, dv)), powe(v, const(2.0)))
    # u^v: constant exponent gets the power rule, otherwise the general form
    if is_zero(dv):
        return mul(mul(v, powe(u, sub(v, ONE))), du)
    if is_zero(du):
        return mul(mul(node, call("log", u)), dv)
    return mul(node, add(mul(dv, call("log", u)), div(mul(v, du), u)))


def substitute(node, var, replacement):
    """Replace every occurrence of variable var with the given expression."""
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return replacement if node.name == var else node
    if isinstance(node, Neg):
        return neg(substitute(node.child, var, replacement))
    if isinstance(node, Call):
        return Call(node.fn, substitute(node.arg, var, replacement))
    return BinOp(
        node.op,
        substitute(node.left, var, replacement),
        substitute(node.right, var, replacement),
    )


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node):
    if isinstance(node, (Const, Var, Call)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def to_string(node):
    """Render the tree so that parse(to_string(e)) evaluates identically."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Neg):
        inner = to_string(node.child)
        if _prec(node.child) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    left = to_string(node.left)
    right = to_string(node.right)
    if node.op == "^":
        if _prec(node.left) <= _PREC["^"]:
            left = f"({left})"
        if _prec(node.right) < _PREC["^"]:
            right = f"({right})"
    else:
        p = _PREC[node.op]
        if _prec(node.left) < p:
            left = f"({left})"
        if _prec(node.right) <= p:
            right = f"({right})"
    return f"{left}{node.op}{right}"
