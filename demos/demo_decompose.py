"""Split sampled functions into falling / minimum / rising parts.

A quasiconvex function decomposes into a non-increasing stretch, the set
of minimizers, and a non-decreasing stretch.  A function that refuses to
decompose is not quasiconvex, and the failure witness says where.
"""

import numpy as np

from dinicvx import (
    SampledProblem,
    decompose,
    eval_many,
    make_grid,
    martos_segments,
    parse,
    parse_interval,
)

CASES = [
    ("t^2", "[-1,1]"),
    ("max(0, abs(t) - 1)", "[-2,2]"),
    ("min(t^2, (t - 2)^2)", "[-1,3]"),
    ("sin(t)", "[0,6.28]"),
]


def show(source, domain):
    fn = parse(source, 1)
    dom = make_grid(parse_interval(domain), 257, 1e-6)
    p = SampledProblem(lambda ts: eval_many(fn, ts), dom)
    # the one line's decomposition, and its grid
    dec, pts = decompose(p)[0], dom.points[0]
    print(f"\n{source}  on {domain}")
    if not dec.ok:
        w = dec.witnesses[0]
        pts = ", ".join(f"{p:.4g}" for p in w.points)
        print(f"  no monotone split: {w.kind} at ({pts})")
        return
    lo, hi = dec.i_hat
    print(f"  falling   : {pts[0]:.4g} .. {pts[max(lo - 1, 0)]:.4g}"
          f"  ({lo} points)")
    print(f"  minimum   : {pts[lo]:.4g} .. {pts[hi - 1]:.4g}"
          f"  ({hi - lo} points at level {dec.min_value:.6g})")
    print(f"  rising    : {pts[min(hi, pts.size - 1)]:.4g} .. {pts[-1]:.4g}"
          f"  ({pts.size - hi} points)")
    split = martos_segments(p)[0]
    print(f"  martos    : valid={split.valid}  decreasing={split.decreasing}"
          f"  constant={split.constant}  increasing={split.increasing}")


if __name__ == "__main__":
    for source, domain in CASES:
        show(source, domain)
