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
points through the function in one pass, encoding undefined as NaN.  The
scalar wrapper :func:`evaluate` returns an :class:`EvalResult`.  No
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
    "EvalResult",
    "FunctionAst",
    "parse",
    "evaluate",
    "eval_many",
    "to_source",
]


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


@dataclass(frozen=True)
class EvalResult:
    """Extended-real result of evaluating a function at one point.

    ``kind`` is one of ``finite``, ``pos_inf``, ``neg_inf``, ``undefined``.
    ``value`` carries the float encoding (NaN for undefined).
    """

    kind: str
    value: float

    @staticmethod
    def from_float(x: float) -> "EvalResult":
        if np.isnan(x):
            return EvalResult("undefined", float("nan"))
        if np.isposinf(x):
            return EvalResult("pos_inf", float("inf"))
        if np.isneginf(x):
            return EvalResult("neg_inf", float("-inf"))
        return EvalResult("finite", float(x))

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_defined(self) -> bool:
        return self.kind != "undefined"


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


class _Parser:
    def __init__(self, tokens: list[_Token], source: str, arity: int) -> None:
        self.tokens = tokens
        self.source = source
        self.arity = arity
        self.k = 0

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExpressionError(f"unexpected token {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self._next()
                node = BinOp(tok.text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text in "*/":
                self._next()
                node = BinOp(tok.text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self._next()
            return Neg(self.unary())
        if tok is not None and tok.kind == "op" and tok.text == "+":
            self._next()
            return self.unary()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self._next()
            # right associative; exponent may carry a sign
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self._next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "lparen":
            node = self.expr()
            self._expect("rparen")
            return node
        if tok.kind == "name":
            nxt = self._peek()
            if tok.text == "piecewise":
                if nxt is None or nxt.kind != "lparen":
                    raise ExpressionError("piecewise requires an argument list", tok.pos)
                return self.piecewise(tok)
            if nxt is not None and nxt.kind == "lparen":
                return self.call(tok)
            return self.variable(tok)
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

    def call(self, tok: _Token) -> Node:
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
        return Call(name, tuple(args))

    def piecewise(self, tok: _Token) -> Node:
        self._expect("lparen")
        branches: list[tuple[Guard, Node]] = []
        otherwise: Node | None = None
        while True:
            nxt = self._peek()
            if nxt is not None and nxt.kind == "name" and nxt.text == "else":
                if not branches:
                    raise ExpressionError(
                        "piecewise requires a guarded branch before else", tok.pos
                    )
                self._next()
                self._expect("colon")
                otherwise = self.expr()
                break
            left = self.expr()
            cmp_tok = self._next()
            if cmp_tok.kind != "cmp":
                raise ExpressionError(
                    f"expected comparison in piecewise guard, found {cmp_tok.text!r}",
                    cmp_tok.pos,
                )
            right = self.expr()
            self._expect("colon")
            value = self.expr()
            branches.append((Guard(left, cmp_tok.text, right), value))
            sep = self._next()
            if sep.kind != "comma":
                raise ExpressionError(
                    f"expected ',' between piecewise branches, found {sep.text!r}", sep.pos
                )
        self._expect("rparen")
        if otherwise is None:
            raise ExpressionError("piecewise requires a final else branch", tok.pos)
        return Piecewise(tuple(branches), otherwise)


def parse(source: str, arity: int = 1) -> FunctionAst:
    """Parse ``source`` into a :class:`FunctionAst` of the given arity.

    Raises :class:`ExpressionError` with a byte offset on syntax errors,
    unknown identifiers, and arity mismatches.
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


def evaluate(fn: FunctionAst, point: float | np.ndarray) -> EvalResult:
    """Evaluate ``fn`` at a single point, returning an :class:`EvalResult`."""
    if fn.arity == 1:
        vals = eval_many(fn, np.asarray([point], dtype=float))
    else:
        vals = eval_many(fn, np.asarray(point, dtype=float).reshape(1, -1))
    return EvalResult.from_float(float(vals[0]))


# ---------------------------------------------------------------------------
# Pretty printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _to_src(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        s = _fmt_num(node.value)
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _to_src(node.arg, _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        if node.op == "^":
            # right associative: give the left child a stricter context
            ls = _to_src(node.left, prec + 1)
            rs = _to_src(node.right, prec)
        else:
            ls = _to_src(node.left, prec)
            rs = _to_src(node.right, prec + 1)
        s = f"{ls} {node.op} {rs}" if node.op in "+-" else f"{ls}{node.op}{rs}"
        return f"({s})" if parent_prec > prec else s
    if isinstance(node, Call):
        args = ", ".join(_to_src(a, 0) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, Piecewise):
        parts = []
        for guard, value in node.branches:
            g = f"{_to_src(guard.left, 0)} {guard.op} {_to_src(guard.right, 0)}"
            parts.append(f"{g}: {_to_src(value, 0)}")
        parts.append(f"else: {_to_src(node.otherwise, 0)}")
        return f"piecewise({', '.join(parts)})"
    raise AssertionError(type(node))


def to_source(fn: FunctionAst) -> str:
    """Render the tree back to a parseable string.

    Re-parsing the output yields a tree that evaluates identically; the
    string may differ from the original source in spacing and parentheses.
    """
    return _to_src(fn.root, 0)
