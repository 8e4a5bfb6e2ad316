from dataclasses import replace

import numpy as np
import pytest

from dinicvx import dini, eval_many, make_grid, parse, parse_interval


def phi_of(source: str, arity: int = 1):
    fn = parse(source, arity)
    return lambda pts: eval_many(fn, pts)


@pytest.fixture
def unit_grid():
    return make_grid(parse_interval("[-1,1]"), 257, 1e-6)


@pytest.fixture
def unit_interval():
    return parse_interval("[-1,1]")


def grid_for(domain: str, n: int = 257, margin: float = 1e-6):
    return make_grid(parse_interval(domain), n, margin)


def along(f, x, dirs, box, schedule=dini.DiniSchedule()):
    """The estimates of ``dini._along`` at ``x`` along each row of the (k, n)
    block ``dirs``, probes outside ``box`` skipped: ``f`` maps (m, n) points
    to (m,) values and is called once at ``x``, then for the probes of each
    kernel block.  ``value`` is scaled by the length of the direction.  A
    zero or non-finite direction raises ValueError."""
    x = np.asarray(x, dtype=float)
    norms, u = dini._unit(dirs)
    base = float(f(x[None, :])[0])
    return [replace(e, value=float(n * e.unit_value)) for n, e in zip(norms, dini._along(
        f, np.broadcast_to(x, u.shape), u, box, np.full(u.shape[0], base), schedule))]


def entry_rule(prof, stat_tol: float, rows=slice(None)):
    """(stationary, unsettled): ``dini.stationary`` over each entry of the
    profile ``prof`` at the grid points ``rows``, a point with its one
    direction, as the pair oracles read it; (..., 2, k) each.  An entry
    descends beyond ``stat_tol`` exactly where it is neither."""
    return dini.stationary(*(a[..., rows, None] for a in (prof.value, prof.converged,
                                                           prof.feasible)), stat_tol)


def descends(prof, stat_tol: float, rows=slice(None)):
    """The entries of ``prof`` at ``rows`` that descend beyond ``stat_tol``
    by :func:`entry_rule`."""
    return ~np.logical_or(*entry_rule(prof, stat_tol, rows))
