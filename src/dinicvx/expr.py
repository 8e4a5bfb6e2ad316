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
Variables read their input columns uncopied.  A constant is a float to
``+ - * /``, comparisons, ``min`` and ``max``, and a full array elsewhere,
``^`` included: numpy's power rounds an array exponent unlike a scalar one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ExpressionError",
    "FunctionAst",
    "MAX_DEPTH",
    "parse",
    "eval_many",
]

# Levels an expression may nest (see docs/grammar.md).  A level costs the
# parser at most 7 Python frames and the evaluator at most 3, so whatever
# parses also evaluates well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


class ExpressionError(ValueError):
    """Parse or validation failure, carrying the byte offset of the fault."""

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

_FUNCTIONS = {
    "abs": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "min": -2,  # at least two arguments
    "max": -2,
}


@dataclass(frozen=True)
class FunctionAst:
    """A parsed expression together with its arity and original source."""

    root: Node
    arity: int
    source: str


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_KINDS = ("num", "name", "op", "cmp", "lparen", "rparen", "comma", "colon")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        if c in "<>":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append(_Token("cmp", source[i : i + 2], i))
                i += 2
            else:
                tokens.append(_Token("cmp", c, i))
                i += 1
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
            continue
        if c == ",":
            tokens.append(_Token("comma", c, i))
            i += 1
            continue
        if c == ":":
            tokens.append(_Token("colon", c, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
#
# Each rule returns its node with the node's depth: 1 for a number or a
# variable, and one more than the deepest operand for an operator, a call,
# a piecewise, a sign or a pair of parentheses.  ``level`` counts the
# levels open above the rule; the parser fails as soon as the level and the
# depth of what it builds there exceed MAX_DEPTH.


class _Parser:
    def __init__(self, tokens: list[_Token], source: str, arity: int) -> None:
        self.tokens = tokens
        self.source = source
        self.arity = arity
        self.k = 0
        self.level = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression", len(self.source))
        self.k += 1
        return tok

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self._next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ExpressionError(f"expected {want!r}, found {tok.text!r}", tok.pos)
        return tok

    def _check(self, depth: int, tok: _Token) -> int:
        """``depth``, once ``tok`` is known to keep within MAX_DEPTH."""
        if self.level + depth > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels",
                                  tok.pos)
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
        tok = self._peek()
        if tok is not None:
            raise ExpressionError(f"unexpected token {tok.text!r}", tok.pos)
        return node

    def expr(self) -> tuple[Node, int]:
        node, depth = self.term()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self._next()
                right, d = self.term()
                node, depth = BinOp(tok.text, node, right), self._check(1 + max(depth, d), tok)
            else:
                return node, depth

    def term(self) -> tuple[Node, int]:
        node, depth = self.unary()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text in "*/":
                self._next()
                right, d = self.unary()
                node, depth = BinOp(tok.text, node, right), self._check(1 + max(depth, d), tok)
            else:
                return node, depth

    def unary(self) -> tuple[Node, int]:
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self._next()
            node, depth = self._nested(tok, self.unary)
            return (Neg(node) if tok.text == "-" else node), depth
        return self.power()

    def power(self) -> tuple[Node, int]:
        base, depth = self.atom()
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self._next()
            # right associative; exponent may carry a sign
            exponent, d = self._nested(tok, self.unary)
            return BinOp("^", base, exponent), self._check(max(depth + 1, d), tok)
        return base, depth

    def atom(self) -> tuple[Node, int]:
        tok = self._next()
        if tok.kind == "num":
            return Num(float(tok.text)), 1
        if tok.kind == "lparen":
            found = self._nested(tok, self.expr)
            self._expect("rparen")
            return found
        if tok.kind == "name":
            nxt = self._peek()
            if tok.text == "piecewise":
                if nxt is None or nxt.kind != "lparen":
                    raise ExpressionError("piecewise requires an argument list", tok.pos)
                return self._nested(tok, self.piecewise, tok)
            if nxt is not None and nxt.kind == "lparen":
                return self._nested(tok, self.call, tok)
            return self.variable(tok), 1
        raise ExpressionError(f"unexpected token {tok.text!r}", tok.pos)

    def variable(self, tok: _Token) -> Node:
        name = tok.text
        if name == "t":
            if self.arity != 1:
                raise ExpressionError(
                    f"variable 't' requires arity 1, declared arity is {self.arity}", tok.pos
                )
            return Var(0, "t")
        if name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:])
            if idx < 1 or idx > self.arity:
                raise ExpressionError(
                    f"variable {name!r} out of range for arity {self.arity}", tok.pos
                )
            return Var(idx - 1, name)
        raise ExpressionError(f"unknown identifier {name!r}", tok.pos)

    def call(self, tok: _Token) -> tuple[Node, int]:
        name = tok.text
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}", tok.pos)
        self._expect("lparen")
        args = [self.expr()]
        while True:
            nxt = self._peek()
            if nxt is not None and nxt.kind == "comma":
                self._next()
                args.append(self.expr())
            else:
                break
        self._expect("rparen")
        want = _FUNCTIONS[name]
        if want >= 0 and len(args) != want:
            raise ExpressionError(
                f"{name} takes {want} argument(s), got {len(args)}", tok.pos
            )
        if want < 0 and len(args) < -want:
            raise ExpressionError(
                f"{name} takes at least {-want} arguments, got {len(args)}", tok.pos
            )
        return Call(name, tuple(a for a, _ in args)), max(d for _, d in args)

    def piecewise(self, tok: _Token) -> tuple[Node, int]:
        self._expect("lparen")
        branches: list[tuple[Guard, Node]] = []
        otherwise: Node | None = None
        depth = 0
        while True:
            nxt = self._peek()
            if nxt is not None and nxt.kind == "name" and nxt.text == "else":
                if not branches:
                    raise ExpressionError(
                        "piecewise requires a guarded branch before else", tok.pos
                    )
                self._next()
                self._expect("colon")
                otherwise, d = self.expr()
                depth = max(depth, d)
                break
            left, d1 = self.expr()
            cmp_tok = self._next()
            if cmp_tok.kind != "cmp":
                raise ExpressionError(
                    f"expected comparison in piecewise guard, found {cmp_tok.text!r}",
                    cmp_tok.pos,
                )
            right, d2 = self.expr()
            self._expect("colon")
            value, d3 = self.expr()
            depth = max(depth, d1, d2, d3)
            branches.append((Guard(left, cmp_tok.text, right), value))
            sep = self._next()
            if sep.kind != "comma":
                raise ExpressionError(
                    f"expected ',' between piecewise branches, found {sep.text!r}", sep.pos
                )
        self._expect("rparen")
        if otherwise is None:
            raise ExpressionError("piecewise requires a final else branch", tok.pos)
        return Piecewise(tuple(branches), otherwise), depth


def parse(source: str, arity: int = 1) -> FunctionAst:
    """Parse ``source`` into a :class:`FunctionAst` of the given arity.

    Raises :class:`ExpressionError` with a byte offset on syntax errors,
    unknown identifiers, arity mismatches, and at the first token that
    takes the expression more than :data:`MAX_DEPTH` levels deep.
    """
    if arity < 1:
        raise ExpressionError(f"arity must be >= 1, got {arity}", 0)
    tokens = _tokenize(source)
    if not tokens:
        raise ExpressionError("empty expression", 0)
    root = _Parser(tokens, source, arity).parse()
    return FunctionAst(root=root, arity=arity, source=source)


# ---------------------------------------------------------------------------
# Evaluation

_NAN = float("nan")
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ELEMENTWISE = {"abs": np.abs, "exp": np.exp, "sin": np.sin, "cos": np.cos}


def _operands(nodes, cols: list[np.ndarray]) -> list:
    """A ``Num`` stays a float, which numpy broadcasts as it would its full
    array, unless every operand is one: the first then becomes that array."""
    out = [n.value if isinstance(n, Num) else _eval(n, cols) for n in nodes]
    if all(isinstance(n, Num) for n in nodes):
        out[0] = np.full_like(cols[0], out[0])
    return out


def _eval(node: Node, cols: list[np.ndarray]) -> np.ndarray:
    # All arithmetic runs with warnings suppressed; undefined is NaN.  The
    # result may be an input column, which no operation writes to.
    if isinstance(node, Num):
        return np.full_like(cols[0], node.value)
    if isinstance(node, Var):
        return cols[node.index]
    if isinstance(node, Neg):
        return -_eval(node.arg, cols)
    if isinstance(node, BinOp):
        with np.errstate(all="ignore"):
            if node.op == "^":
                # Both sides stay full arrays: numpy's power with an array
                # exponent is not correctly rounded, so neither x*x nor a
                # scalar exponent gives the same bits.
                a = _eval(node.left, cols)
                b = _eval(node.right, cols)
                # 0 ^ negative is a division by zero in disguise
                return np.where((a == 0.0) & (b < 0.0), _NAN, np.power(a, b))
            a, b = _operands((node.left, node.right), cols)
            if node.op == "/":
                return np.where(b == 0.0, _NAN, a / b)
            # inf * 0 is indeterminate -> undefined, which numpy already
            # encodes as NaN; nothing extra to do.
            return _ARITH[node.op](a, b)
    if isinstance(node, Call):
        with np.errstate(all="ignore"):
            if node.name in ("min", "max"):
                op = np.minimum if node.name == "min" else np.maximum
                args = _operands(node.args, cols)
                out = args[0]
                for other in args[1:]:
                    # propagate NaN: fmin would ignore it
                    out = op(out, other)
                return out
            a = _eval(node.args[0], cols)
            if node.name == "log":
                return np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), _NAN)
            if node.name == "sqrt":
                return np.where(a >= 0.0, np.sqrt(np.abs(a)), _NAN)
            return _ELEMENTWISE[node.name](a)
    if isinstance(node, Piecewise):
        conds = []
        vals = []
        with np.errstate(invalid="ignore"):
            for guard, value in node.branches:
                conds.append(_COMPARE[guard.op](*_operands((guard.left, guard.right), cols)))
                vals.append(_eval(value, cols))
        default = _eval(node.otherwise, cols)
        # np.select takes the first true condition, matching first-match
        # branch semantics; a NaN comparison is False and falls through.
        return np.select(conds, vals, default=default)
    raise AssertionError(type(node))


def eval_many(fn: FunctionAst, points: np.ndarray) -> np.ndarray:
    """Evaluate ``fn`` at many points.

    ``points`` has shape (m,) for arity 1 or (m, arity) otherwise.  Returns a
    new float64 array of shape (m,) with NaN marking undefined results;
    ``points`` is never written.
    """
    pts = np.asarray(points, dtype=float)
    if fn.arity == 1:
        if pts.ndim == 0:
            pts = pts.reshape(1)
        if pts.ndim != 1:
            pts = pts.reshape(-1)
        cols = [np.ascontiguousarray(pts)]
    else:
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != fn.arity:
            raise ValueError(
                f"points have {pts.shape[1]} coordinates, function arity is {fn.arity}"
            )
        cols = [np.ascontiguousarray(pts[:, j]) for j in range(fn.arity)]
    out = _eval(fn.root, cols)
    return out.copy() if any(out is c for c in cols) else out
