"""Seeded random continuous functions of one variable, and where the two
methods split on them.

``random_continuous(count, seed)`` draws ``count`` expression trees with
``random.Random(seed)``.  A tree has depth at most 4, and each level below
the root ends in a leaf with probability 1/4.  A leaf is ``t`` or a
constant in [-2, 2] with 3 significant digits.  A node is ``+``, ``-``,
``*``, ``^2``, ``^3``, ``abs``, ``exp``, ``sin``, ``cos``, ``max``, ``min``
or ``sqrt(1 + e^2)``, each continuous, so every function is lower
semicontinuous and, by the paper's theorems, the definition and the
characterization of each property must agree on it.  Each tree is placed
on ``[-1,1]``, ``[-2,3]`` or ``[0,1]``.

``splits(cases, grid)`` decides the four properties of each function by
both methods through ``Property.verdicts``, as ``classify`` does, and
returns the ``(expression, domain, grid, label)`` of each property where
one method says ``holds`` and the other ``fails``.

Run as a script to write the splits of the pinned runs, one a line, as
the JSON list ``tests/continuous_splits.json`` holds:
``PYTHONPATH=src python tests/continuous_corpus.py > tests/continuous_splits.json``.
"""

from __future__ import annotations

import json
import random
from functools import partial

from dinicvx import SampledProblem, eval_many, make_grid, parse, parse_interval, properties

DOMAINS = ("[-1,1]", "[-2,3]", "[0,1]")
_UNARY = ("({})^2", "({})^3", "abs({})", "exp({})", "sin({})", "cos({})", "sqrt(1 + ({})^2)")
_BINARY = ("({} + {})", "({} - {})", "({} * {})", "max({}, {})", "min({}, {})")
_DEPTH = 4

# (seed, grid) of each pinned run, of COUNT functions
RUNS = ((1, 257), (2, 257), (1, 4097))
COUNT = 1000


def _tree(rng: random.Random, depth: int) -> str:
    if depth == _DEPTH or (depth > 0 and rng.random() < 0.25):
        return "t" if rng.random() < 0.5 else f"({rng.uniform(-2.0, 2.0):.3g})"
    node = rng.choice(_UNARY + _BINARY)
    return node.format(*(_tree(rng, depth + 1) for _ in range(node.count("{}"))))


def random_continuous(count: int, seed: int) -> list[tuple[str, str]]:
    """``count`` seeded (expression, domain) pairs."""
    rng = random.Random(seed)
    return [(_tree(rng, 0), rng.choice(DOMAINS)) for _ in range(count)]


def splits(cases, grid: int) -> list[tuple[str, str, int, str]]:
    """The (expression, domain, grid, label) of every property on which the
    two methods give ``holds`` and ``fails``, in case order."""
    props = properties()
    out = []
    for expression, domain in cases:
        p = SampledProblem(partial(eval_many, parse(expression, 1)),
                           make_grid(parse_interval(domain), grid))
        for prop in props:
            outcomes = {v.outcome for vs in prop.verdicts(p).values() for v in vs}
            if {"holds", "fails"} <= outcomes:
                out.append((expression, domain, grid, prop.label))
    return out


def pinned_runs() -> list[tuple[str, str, int, str]]:
    """The splits of every run of :data:`RUNS`."""
    return [s for seed, grid in RUNS for s in splits(random_continuous(COUNT, seed), grid)]


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(split) for split in pinned_runs()) + "\n]")
