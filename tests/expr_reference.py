"""The evaluator of ``dinicvx.expr`` as it was before constants stayed
scalars and variables stopped being copied.

``_eval`` is a verbatim copy: every constant a full array, every variable
a fresh copy of its column.  ``tests/test_expr.py`` checks ``eval_many``
against ``eval_many_reference`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from dinicvx.expr import BinOp, Call, FunctionAst, Neg, Node, Num, Piecewise, Var

_NAN = float("nan")


def _eval(node: Node, cols: list[np.ndarray]) -> np.ndarray:
    # All arithmetic runs with warnings suppressed; undefined is NaN.
    if isinstance(node, Num):
        return np.full_like(cols[0], node.value)
    if isinstance(node, Var):
        return cols[node.index].copy()
    if isinstance(node, Neg):
        return -_eval(node.arg, cols)
    if isinstance(node, BinOp):
        a = _eval(node.left, cols)
        b = _eval(node.right, cols)
        with np.errstate(all="ignore"):
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                out = a * b
                # inf * 0 is indeterminate -> undefined, which numpy already
                # encodes as NaN; nothing extra to do.
                return out
            if node.op == "/":
                out = np.where(b == 0.0, _NAN, a / b)
                return out
            if node.op == "^":
                out = np.power(a, b)
                # 0 ^ negative is a division by zero in disguise
                out = np.where((a == 0.0) & (b < 0.0), _NAN, out)
                return out
        raise AssertionError(node.op)
    if isinstance(node, Call):
        args = [_eval(arg, cols) for arg in node.args]
        a = args[0]
        with np.errstate(all="ignore"):
            if node.name == "abs":
                return np.abs(a)
            if node.name == "exp":
                return np.exp(a)
            if node.name == "log":
                return np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), _NAN)
            if node.name == "sqrt":
                return np.where(a >= 0.0, np.sqrt(np.abs(a)), _NAN)
            if node.name == "sin":
                return np.sin(a)
            if node.name == "cos":
                return np.cos(a)
            if node.name == "min":
                out = a
                for other in args[1:]:
                    # propagate NaN: fmin would ignore it
                    out = np.minimum(out, other)
                return out
            if node.name == "max":
                out = a
                for other in args[1:]:
                    out = np.maximum(out, other)
                return out
        raise AssertionError(node.name)
    if isinstance(node, Piecewise):
        conds = []
        vals = []
        with np.errstate(invalid="ignore"):
            for guard, value in node.branches:
                gl = _eval(guard.left, cols)
                gr = _eval(guard.right, cols)
                if guard.op == "<":
                    cond = gl < gr
                elif guard.op == "<=":
                    cond = gl <= gr
                elif guard.op == ">":
                    cond = gl > gr
                else:
                    cond = gl >= gr
                conds.append(cond)
                vals.append(_eval(value, cols))
        default = _eval(node.otherwise, cols)
        # np.select takes the first true condition, matching first-match
        # branch semantics; a NaN comparison is False and falls through.
        return np.select(conds, vals, default=default)
    raise AssertionError(type(node))


def eval_many_reference(fn: FunctionAst, points: np.ndarray) -> np.ndarray:
    """``eval_many`` as it was when ``_eval`` above was copied.

    ``points`` has shape (m,) for arity 1 or (m, arity) otherwise.  Returns a
    float64 array of shape (m,) with NaN marking undefined results.
    """
    pts = np.asarray(points, dtype=float)
    if fn.arity == 1:
        if pts.ndim == 0:
            pts = pts.reshape(1)
        if pts.ndim != 1:
            pts = pts.reshape(-1)
        cols = [pts]
    else:
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != fn.arity:
            raise ValueError(
                f"points have {pts.shape[1]} coordinates, function arity is {fn.arity}"
            )
        cols = [np.ascontiguousarray(pts[:, j]) for j in range(fn.arity)]
    return np.asarray(_eval(fn.root, cols), dtype=float)
