"""Numerical classifiers for generalized convexity of scalar functions.

The package decides pseudoconvexity, strict pseudoconvexity, quasiconvexity
and semistrict quasiconvexity with respect to the lower Dini directional
derivative, always by two independent routes: a direct reading of each
definition over a sampled grid, and a structural route built from a
monotone three-part decomposition plus stationarity scans.  A theorem
runner exercises the implications connecting the four properties over a
battery of labeled functions.
"""

from .battery import (
    BatteryEntry,
    golden_battery,
    load_manifest,
    random_battery,
    write_manifest,
)
from .charact import (
    MonotoneDecomposition,
    SegmentSplit,
    decompose,
    martos_segments,
    pseudoconvex_char,
    quasiconvex_martos,
    strictly_pseudoconvex_char,
)
from .dini import (
    DiniDomainError,
    DiniEstimate,
    DiniSchedule,
    GridDiniProfile,
    StationarityCheck,
    grid_dini_profile,
    is_stationary,
    lower_dini,
    lower_dini_along,
)
from .domain import (
    Interval,
    LineRestriction,
    SampledDomain,
    anchored_grid,
    make_grid,
    parse_interval,
    restrict,
)
from .expr import (
    ExpressionError,
    FunctionAst,
    eval_many,
    parse,
)
from .oracle import (
    SampledProblem,
    Verdict,
    Witness,
    auto_tol,
    pseudoconvex_def,
    quasiconvex_def,
    semistrictly_quasiconvex_def,
    strictly_pseudoconvex_def,
)
from .theorems import (
    SUITE_SCHEDULE,
    BatteryRunResult,
    CaseLine,
    TheoremReport,
    check_abc,
    check_t3,
    check_t4,
    check_t6,
    check_t7,
    line_problems,
    run_battery,
    sample_directions,
    sample_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "SUITE_SCHEDULE",
    "BatteryEntry",
    "BatteryRunResult",
    "CaseLine",
    "DiniDomainError",
    "DiniEstimate",
    "DiniSchedule",
    "ExpressionError",
    "FunctionAst",
    "GridDiniProfile",
    "Interval",
    "LineRestriction",
    "MonotoneDecomposition",
    "SampledDomain",
    "SampledProblem",
    "SegmentSplit",
    "StationarityCheck",
    "TheoremReport",
    "Verdict",
    "Witness",
    "anchored_grid",
    "auto_tol",
    "check_abc",
    "check_t3",
    "check_t4",
    "check_t6",
    "check_t7",
    "decompose",
    "eval_many",
    "golden_battery",
    "grid_dini_profile",
    "is_stationary",
    "line_problems",
    "load_manifest",
    "lower_dini",
    "lower_dini_along",
    "make_grid",
    "martos_segments",
    "parse",
    "parse_interval",
    "pseudoconvex_char",
    "pseudoconvex_def",
    "quasiconvex_def",
    "quasiconvex_martos",
    "random_battery",
    "restrict",
    "run_battery",
    "sample_directions",
    "sample_pairs",
    "semistrictly_quasiconvex_def",
    "strictly_pseudoconvex_char",
    "strictly_pseudoconvex_def",
    "write_manifest",
    "__version__",
]
