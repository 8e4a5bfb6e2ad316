"""Parsing and evaluation of scalar function expressions.

Expressions are written over the variable ``t`` (arity 1) or ``x1 .. xn``
(arity n) with the operators ``+ - * / ^``, the functions ``abs``, ``min``,
``max``, ``exp``, ``log``, ``sqrt``, ``sin``, ``cos``, and guarded piecewise
definitions::

    piecewise(t < 0: 1, else: t)

Guards are comparisons between two subexpressions (``< <= > >=``); branches
are tried in order and the first matching guard wins, so overlapping guards
are legal.  A trailing ``else`` branch is required.  The full grammar lives
in ``docs/grammar.md``.

Evaluation is over the extended reals.  ``+inf`` and ``-inf`` are ordinary
values (overflow produces them); ``undefined`` arises only from domain
violations: log of a non-positive number, sqrt of a negative number,
division by zero, a fractional power of a negative base, or an
indeterminate form such as ``inf - inf``.  A guard that compares an
undefined value is simply false and evaluation falls through to the next
branch.

The evaluator is vectorized: :func:`eval_many` maps a float64 array of
points through the function in one pass, encoding undefined as NaN.  No
simplification is ever applied to the tree; what you parse is what runs.
A :class:`FunctionAst` is compiled on its first evaluation into a tree of
closures, one per node, each holding its ufunc and its compiled operands,
and every later call runs that tree under one ``np.errstate``.  A
piecewise is a chain of ``np.where`` from its last branch back.  Variables
read their input columns uncopied.  A constant is a float to ``+ - * /``,
comparisons, ``min`` and ``max``, and a full array elsewhere, ``^``
included: numpy's power rounds an array exponent unlike a scalar one.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Union

import numpy as np

__all__ = [
    "ExpressionError",
    "FunctionAst",
    "MAX_DEPTH",
    "parse",
    "eval_many",
]

# Levels an expression may nest (see docs/grammar.md).  A level costs the
# parser at most 4 Python frames, the compiler at most 3 and the compiled
# closures at most 2, so whatever parses also evaluates well inside Python's
# default recursion limit of 1000.
MAX_DEPTH = 100


class ExpressionError(ValueError):
    """Parse or validation failure, carrying the character offset of the fault."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based coordinate
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]


@dataclass(frozen=True)
class Guard:
    left: "Node"
    op: str  # one of < <= > >=
    right: "Node"


@dataclass(frozen=True)
class Piecewise:
    branches: tuple[tuple[Guard, "Node"], ...]
    otherwise: "Node"


Node = Union[Num, Var, Neg, BinOp, Call, Piecewise]


@dataclass(frozen=True)
class FunctionAst:
    """A parsed expression together with its arity and original source."""

    root: Node
    arity: int
    source: str

    @cached_property
    def compiled(self) -> _Compiled:
        """The closure tree :func:`eval_many` runs, built on first use."""
        return _compile(self.root)


# ---------------------------------------------------------------------------
# Tokenizer

# One group per token kind, tried in order at each offset; \d, \w and \s
# are str.isdecimal, str.isalnum or "_", and str.isspace.  Whitespace is a
# kind of its own, so that ``bad`` sees only a character no kind starts
# with.  A number is a run of digits and points, started by a digit or a
# point before one, with an optional exponent; float() then checks it.
_TOKEN_RE = re.compile(r"""
    (?P<space>\s+)
  | (?P<num>(?=\.?\d)[\d.]+(?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d]\w*)
  | (?P<cmp>[<>]=?)
  | (?P<op>[-+*/^])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<colon>:)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


# A token is (kind, text, offset); the list ends with ("end", "", len(source)).
_Token = tuple[str, str, int]


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExpressionError(f"unexpected character {text!r}", pos)
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", pos) from None
        if kind != "space":
            tokens.append((kind, text, pos))
    tokens.append(("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, with precedence climbing for the operators)
#
# Each rule returns its node with the node's depth: 1 for a number or a
# variable, and one more than the deepest operand for an operator, a call,
# a piecewise, a sign or a pair of parentheses.  ``level`` counts the
# levels open above the rule; the parser fails as soon as the level and the
# depth of what it builds there exceed MAX_DEPTH.

# (left, right) binding powers; a right power below the left one makes ^
# right-associative.  A sign's operand binds above * and /, below ^.
_BINDING_POWERS = {"+": (1, 2), "-": (1, 2), "*": (3, 4), "/": (3, 4), "^": (6, 5)}
_SIGN_POWER = 5


class _Parser:
    def __init__(self, tokens: list[_Token], arity: int) -> None:
        self.tokens = tokens
        self.arity = arity
        self.k = 0
        self.level = 0

    def _next(self) -> _Token:
        tok = self.tokens[self.k]
        if tok[0] == "end":
            raise ExpressionError("unexpected end of expression", tok[2])
        self.k += 1
        return tok

    def _accept(self, kind: str, texts: str | tuple[str, ...] | None = None) -> _Token | None:
        """The next token, consumed, if it is a ``kind`` with a text in ``texts``
        (any text when ``texts`` is None); None otherwise."""
        tok = self.tokens[self.k]
        if tok[0] == kind and (texts is None or tok[1] in texts):
            self.k += 1
            return tok
        return None

    def _expect(self, kind: str) -> None:
        found, text, pos = self._next()
        if found != kind:
            raise ExpressionError(f"expected {kind!r}, found {text!r}", pos)

    def _check(self, depth: int, tok: _Token) -> int:
        """``depth``, once ``tok`` is known to keep within MAX_DEPTH."""
        if self.level + depth > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels",
                                  tok[2])
        return depth

    def _nested(self, tok: _Token, rule, *args) -> tuple[Node, int]:
        """``rule(*args)`` one level below ``tok``, with the depth that level adds."""
        self.level += 1
        self._check(1, tok)
        node, depth = rule(*args)
        self.level -= 1
        return node, depth + 1

    def parse(self) -> Node:
        node, _ = self.expr()
        kind, text, pos = self.tokens[self.k]
        if kind != "end":
            raise ExpressionError(f"unexpected token {text!r}", pos)
        return node

    def expr(self, floor: int = 0) -> tuple[Node, int]:
        """An operand and every operator after it that binds at ``floor`` or above."""
        tok = self._accept("op", "+-")
        if tok is None:
            node, depth = self.atom()
        else:
            node, depth = self._nested(tok, self.expr, _SIGN_POWER)
            node = Neg(node) if tok[1] == "-" else node
        while (tok := self.tokens[self.k])[0] == "op" and _BINDING_POWERS[tok[1]][0] >= floor:
            self.k += 1
            right = _BINDING_POWERS[tok[1]][1]
            if tok[1] == "^":
                operand, d = self._nested(tok, self.expr, right)
                d -= 1  # the level _nested adds is the ^ node, counted below
            else:
                operand, d = self.expr(right)
            node, depth = BinOp(tok[1], node, operand), self._check(1 + max(depth, d), tok)
        return node, depth

    def atom(self) -> tuple[Node, int]:
        tok = kind, text, pos = self._next()
        if kind == "num":
            return Num(float(text)), 1
        if kind == "lparen":
            found = self._nested(tok, self.expr)
            self._expect("rparen")
            return found
        if kind == "name":
            called = self.tokens[self.k][0] == "lparen"
            if text == "piecewise":
                if not called:
                    raise ExpressionError("piecewise requires an argument list", pos)
                return self._nested(tok, self.piecewise, tok)
            if called:
                return self._nested(tok, self.call, tok)
            return self.variable(tok), 1
        raise ExpressionError(f"unexpected token {text!r}", pos)

    def variable(self, tok: _Token) -> Node:
        _, name, pos = tok
        if name == "t":
            if self.arity != 1:
                raise ExpressionError(
                    f"variable 't' requires arity 1, declared arity is {self.arity}", pos
                )
            return Var(0, "t")
        if name.startswith("x") and name[1:].isdecimal():
            idx = int(name[1:])
            if idx < 1 or idx > self.arity:
                raise ExpressionError(
                    f"variable {name!r} out of range for arity {self.arity}", pos
                )
            return Var(idx - 1, name)
        raise ExpressionError(f"unknown identifier {name!r}", pos)

    def call(self, tok: _Token) -> tuple[Node, int]:
        _, name, pos = tok
        if name not in _CALLS:
            raise ExpressionError(f"unknown function {name!r}", pos)
        self._expect("lparen")
        args = [self.expr()]
        while self._accept("comma"):
            args.append(self.expr())
        self._expect("rparen")
        want = _CALLS[name][0]
        if want >= 0 and len(args) != want:
            raise ExpressionError(
                f"{name} takes {want} argument(s), got {len(args)}", pos
            )
        if want < 0 and len(args) < -want:
            raise ExpressionError(
                f"{name} takes at least {-want} arguments, got {len(args)}", pos
            )
        return Call(name, tuple(a for a, _ in args)), max(d for _, d in args)

    def piecewise(self, tok: _Token) -> tuple[Node, int]:
        self._expect("lparen")
        branches: list[tuple[Guard, Node]] = []
        depth = 0
        while not self._accept("name", ("else",)):
            left, d1 = self.expr()
            kind, cmp, pos = self._next()
            if kind != "cmp":
                raise ExpressionError(
                    f"expected comparison in piecewise guard, found {cmp!r}", pos
                )
            right, d2 = self.expr()
            self._expect("colon")
            value, d3 = self.expr()
            depth = max(depth, d1, d2, d3)
            branches.append((Guard(left, cmp, right), value))
            kind, text, pos = self._next()
            if kind != "comma":
                raise ExpressionError(
                    f"expected ',' between piecewise branches, found {text!r}", pos
                )
        if not branches:
            raise ExpressionError("piecewise requires a guarded branch before else", tok[2])
        self._expect("colon")
        otherwise, d = self.expr()
        self._expect("rparen")
        return Piecewise(tuple(branches), otherwise), max(depth, d)


def parse(source: str, arity: int = 1) -> FunctionAst:
    """Parse ``source`` into a :class:`FunctionAst` of the given arity.

    Raises :class:`ExpressionError` with a character offset on syntax errors,
    unknown identifiers, arity mismatches, and at the first token that
    takes the expression more than :data:`MAX_DEPTH` levels deep.
    """
    if arity < 1:
        raise ExpressionError(f"arity must be >= 1, got {arity}", 0)
    tokens = _tokenize(source)
    if len(tokens) == 1:
        raise ExpressionError("empty expression", 0)
    root = _Parser(tokens, arity).parse()
    return FunctionAst(root=root, arity=arity, source=source)


# ---------------------------------------------------------------------------
# Evaluation

_NAN = float("nan")
# inf * 0 is indeterminate -> undefined, which numpy already encodes as NaN;
# 0 ^ negative is a division by zero in disguise.
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": lambda a, b: np.where(b == 0.0, _NAN, a / b),
          "^": lambda a, b: np.where((a == 0.0) & (b < 0.0), _NAN, np.power(a, b))}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# Each function's argument count and ufunc.  A count of -2 means at least
# two arguments, folded left with the ufunc: np.minimum and np.maximum
# propagate NaN, where fmin and fmax would ignore it.
_CALLS = {
    "abs": (1, np.abs), "exp": (1, np.exp), "sin": (1, np.sin), "cos": (1, np.cos),
    "log": (1, lambda a: np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), _NAN)),
    "sqrt": (1, lambda a: np.where(a >= 0.0, np.sqrt(np.abs(a)), _NAN)),
    "min": (-2, np.minimum), "max": (-2, np.maximum),
}

_Compiled = Callable[[list[np.ndarray]], np.ndarray]


def _operands(nodes) -> list[_Compiled]:
    """Compiled operands, a ``Num`` giving its float, which numpy broadcasts
    as it would its full array, unless every operand is one: the first then
    gives that array."""
    out = [(lambda cols, v=n.value: v) if isinstance(n, Num) else _compile(n)
           for n in nodes]
    if all(isinstance(n, Num) for n in nodes):
        out[0] = _compile(nodes[0])
    return out


def _compile(node: Node) -> _Compiled:
    """A closure computing ``node`` from the input columns, with the same
    ufuncs on the same operands as a walk of the tree would use.

    The closures run inside the caller's ``np.errstate``; undefined is NaN.
    The result may be an input column, which no operation writes to.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda cols: np.full_like(cols[0], value)
    if isinstance(node, Var):
        index = node.index
        return lambda cols: cols[index]
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda cols: -arg(cols)
    if isinstance(node, BinOp):
        op, sides = _ARITH[node.op], (node.left, node.right)
        # For ^ both sides stay full arrays: numpy's power with an array
        # exponent is not correctly rounded, so neither x*x nor a scalar
        # exponent gives the same bits.
        left, right = map(_compile, sides) if node.op == "^" else _operands(sides)
        return lambda cols: op(left(cols), right(cols))
    if isinstance(node, Call):
        want, op = _CALLS[node.name]
        if want < 0:
            args = _operands(node.args)
            return lambda cols: reduce(op, [arg(cols) for arg in args])
        arg = _compile(node.args[0])
        return lambda cols: op(arg(cols))
    if isinstance(node, Piecewise):
        # A chain of np.where from the last branch back, so the first true
        # guard wins; a NaN comparison is False and falls through.
        out = _compile(node.otherwise)
        for guard, value in reversed(node.branches):
            out = _branch(_COMPARE[guard.op], *_operands((guard.left, guard.right)),
                          _compile(value), out)
        return out
    raise AssertionError(type(node))


def _branch(cmp, left: _Compiled, right: _Compiled, then: _Compiled,
            otherwise: _Compiled) -> _Compiled:
    return lambda cols: np.where(cmp(left(cols), right(cols)), then(cols), otherwise(cols))


def eval_many(fn: FunctionAst, points: np.ndarray) -> np.ndarray:
    """Evaluate ``fn`` at many points.

    ``points`` is an array of numbers of any shape for arity 1, which the
    values keep ((1,) for one number), or (m, arity) otherwise, with (m,)
    values.  Returns a new float64 array with NaN marking undefined results;
    ``points`` is never written.
    """
    pts = np.asarray(points, dtype=float)
    if fn.arity == 1:
        shape = pts.shape or (1,)
        cols = [np.ascontiguousarray(pts.reshape(-1))]
    else:
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != fn.arity:
            raise ValueError(
                f"points have {pts.shape[1]} coordinates, function arity is {fn.arity}"
            )
        shape = pts.shape[:1]
        cols = [np.ascontiguousarray(pts[:, j]) for j in range(fn.arity)]
    with np.errstate(all="ignore"):
        out = fn.compiled(cols)
    return (out.copy() if any(out is c for c in cols) else out).reshape(shape)
