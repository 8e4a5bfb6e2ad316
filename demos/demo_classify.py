"""Classify a handful of one-variable functions by every method.

Each function runs through the definitional oracle and the structural
characterization; the two must agree wherever both are conclusive.
"""

import numpy as np

from dinicvx import (
    SampledProblem,
    eval_many,
    make_grid,
    parse,
    parse_interval,
    pseudoconvex_char,
    pseudoconvex_def,
    quasiconvex_def,
    quasiconvex_martos,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_def,
)

CASES = [
    ("t^2", "[-1,1]"),
    ("t^3", "[-1,1]"),
    ("abs(t)", "[-1,1]"),
    ("max(0, abs(t) - 1)", "[-2,2]"),
    ("piecewise(t < 0: 1, else: t)", "[-1,1]"),
    ("-t^2", "[-1,1]"),
    ("exp(t)", "[-2,2]"),
]


def classify(source, domain):
    fn = parse(source, 1)
    # one problem per function, of one line: every classifier below shares
    # its grid values, equality band and Dini profile, and returns the
    # verdict of each line
    p = SampledProblem(lambda ts: eval_many(fn, ts),
                       make_grid(parse_interval(domain), 257, 1e-6))
    return {
        "pseudoconvex (def)": pseudoconvex_def(p)[0],
        "pseudoconvex (char)": pseudoconvex_char(p)[0],
        "strictly pseudoconvex": strictly_pseudoconvex_def(p)[0],
        "quasiconvex (def)": quasiconvex_def(p)[0],
        "quasiconvex (martos)": quasiconvex_martos(p)[0],
        "semistrictly quasiconvex": semistrictly_quasiconvex_def(p)[0],
    }


if __name__ == "__main__":
    for source, domain in CASES:
        print(f"\n{source}  on {domain}")
        for name, verdict in classify(source, domain).items():
            line = f"  {name:<26} {verdict.outcome}"
            if verdict.outcome == "fails" and verdict.witnesses:
                w = verdict.witnesses[0]
                pts = ", ".join(f"{p:.4g}" for p in w.points)
                line += f"   [{w.kind} at ({pts})]"
            print(line)
