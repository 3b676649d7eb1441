"""Small expression language for coefficients: parse, evaluate, differentiate.

Grammar (tightest first): ^ is right-associative, then unary minus, then
* and /, then + and -.  So -x^2 means -(x^2).  Variables are exactly x and
t, the constants pi and e are built in, and the unary functions sin, cos,
tan, exp, log, sqrt, abs are known.  Digits and identifiers are ASCII: a
number is digits with an optional fraction and exponent, an identifier a
letter or _ followed by letters, digits or _, and any other character
that is not whitespace is refused by the lexer.  Number literals must be
finite: one that overflows a float is refused by the lexer.  A tree
deeper than MAX_DEPTH levels is refused by the parser: each parenthesis,
function call, unary minus, exponent and binary operator on the deepest
path counts one, so a long chain like x+x+...+x counts as deep as its
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
import re
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

# binding strength, loosest first: parse climbs it and to_string brackets by it
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}

# the parser takes at most four frames a nesting level (three through a
# parenthesis or call, four where it is the right operand of + or -, one
# through a unary minus or exponent), the tree walkers
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


# one lexeme after any whitespace; anything else that is not whitespace
# falls to "other", so consecutive matches tile the source.  A number's
# fraction is its own group, so that a '.' with no digit after it is
# refused there before the number's range is checked
_LEXEME = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?P<fraction>\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^])|(?P<paren>[()])|(?P<comma>,)"
    r"|(?P<other>\S))"
)


def tokenize(source):
    """Split source into tokens.  Whitespace (any Unicode space, tab and
    no-break space included) separates; lexemes concatenate back to the
    source otherwise."""
    tokens = []
    for match in _LEXEME.finditer(source):
        kind = match.lastgroup
        lexeme, pos = match[kind], match.start(kind)
        if kind == "number":
            if match["fraction"] == ".":
                offset = match.start("fraction")
                raise LexError("malformed number: expected digit after '.'", offset)
            if not math.isfinite(float(lexeme)):
                raise LexError("number out of range", pos)
        elif kind == "other":
            if lexeme == ".":
                raise LexError("malformed number: expected digit before '.'", pos)
            raise LexError(f"unexpected character {lexeme!r}", pos)
        tokens.append(Token(kind, lexeme, pos))
    return tokens


class _Parser:
    """Precedence climbing over _PREC.  Each method returns (node, depth):
    the levels (see the module docstring) of the deepest path through the
    source it read."""

    def __init__(self, source):
        # a closing "end" token at the source's length marks end of input
        self.tokens = [*tokenize(source), Token("end", "", len(source))]
        self.k = 0
        self.nesting = 0  # the unary calls open on the stack

    def prec(self, tok):
        return _PREC[tok.lexeme] if tok.kind == "op" else 0

    def fail(self, expected):
        tok = self.tokens[self.k]
        found = "end of input" if tok.kind == "end" else repr(tok.lexeme)
        raise ParseError(f"expected {expected}, found {found}", tok.pos)

    def expect(self, lexeme, expected):
        if self.tokens[self.k].lexeme != lexeme:
            self.fail(expected)
        self.k += 1

    def deeper(self, tok, *depths):
        """The depth of a level at tok over children of these depths; past
        MAX_DEPTH it is refused there."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", tok.pos)
        return depth

    def binary(self, prec):
        """Left-associative operators from prec up to unary minus; the right
        operand of each reads only tighter ones."""
        node, depth = self.unary()
        while prec <= self.prec(tok := self.tokens[self.k]) < _PREC["neg"]:
            self.k += 1
            tighter = _PREC[tok.lexeme] + 1
            right, right_depth = self.unary() if tighter == _PREC["neg"] else self.binary(tighter)
            node, depth = BinOp(tok.lexeme, node, right), self.deeper(tok, depth, right_depth)
        return node, depth

    def unary(self):
        # every level of nesting passes through here; it is refused before
        # the parser recurses into it
        tok = self.tokens[self.k]
        self.nesting = self.deeper(tok, self.nesting)
        if tok.lexeme == "-":
            self.k += 1
            child, depth = self.unary()
            node = Neg(child)
        else:
            node, depth = self.atom(tok)
            # an operator tighter than unary minus binds the atom before it,
            # right-associatively: its right operand is again unary
            power = self.tokens[self.k]
            if self.prec(power) > _PREC["neg"]:
                self.k += 1
                exponent, exponent_depth = self.unary()
                node, depth = BinOp(power.lexeme, node, exponent), max(depth, exponent_depth)
        self.nesting -= 1
        return node, self.deeper(tok, depth)

    def atom(self, tok):
        if tok.kind not in ("number", "ident") and tok.lexeme != "(":
            self.fail("a value")
        self.k += 1
        name = tok.lexeme
        if tok.kind == "number":
            return Const(float(name)), 0
        if name in ("x", "t"):
            return Var(name), 0
        if name in _CONSTANTS:
            return Const(_CONSTANTS[name]), 0
        if name in _FUNCTIONS:
            self.expect("(", f"'(' after function {name!r}")
        elif name != "(":
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        node, depth = self.binary(_PREC["+"])
        self.expect(")", "')'")
        return (node if name == "(" else Call(name, node)), depth


def parse(source):
    """Parse source into an expression tree.  Raises LexError or ParseError."""
    parser = _Parser(source)
    node, _ = parser.binary(_PREC["+"])
    if parser.tokens[parser.k].kind != "end":
        parser.fail("operator or end of input")
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
