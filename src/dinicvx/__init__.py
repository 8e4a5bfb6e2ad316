"""Numerical classifiers for generalized convexity of scalar functions.

The package decides pseudoconvexity, strict pseudoconvexity, quasiconvexity
and semistrict quasiconvexity with respect to the lower Dini directional
derivative, always by two independent routes: a direct reading of each
definition over a sampled grid, and a structural route built from a
monotone three-part decomposition plus stationarity scans.  A theorem
runner exercises the implications connecting the four properties over a
battery of labeled functions.
"""

from . import battery, charact, dini, domain, expr, oracle, theorems

__version__ = "0.1.0"

# Each layer module states its public names once, in its __all__; the
# package exports all of them (the command line, ``cli``, stays out).
_LAYERS = (battery, charact, dini, domain, expr, oracle, theorems)
globals().update({name: getattr(m, name) for m in _LAYERS for name in m.__all__})
__all__ = [name for m in _LAYERS for name in m.__all__] + ["__version__"]
