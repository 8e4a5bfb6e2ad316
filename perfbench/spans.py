"""Per-layer spans and counts, recorded from outside the program.

Nothing in ``src/`` is instrumented.  :class:`Tracer` wraps every public
function of the layer modules and rebinds the wrapper under every name any
``dinicvx`` module holds it by.  Rebinding matters: a module-level
``from .dini import grid_dini_profile`` copies the binding into ``oracle``,
``charact`` and ``theorems``, so wrapping ``dini.grid_dini_profile`` alone
would miss every call made from those modules.

Spans are kept in memory as ``(id, parent, op, name, start, end)`` and
reduced to per-function self time only when a pass ends.  This module
imports neither numpy nor dinicvx, so importing it costs nothing that the
benchmark's set-up time would have to absorb.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# The layers, in dependency order, and the public functions reported for
# each.  The list is fixed so that the reported metric names do not change
# when a module gains or loses a function; a listed function that no longer
# exists reports zero.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "expr": ("parse", "evaluate", "eval_many", "to_source"),
    "domain": ("parse_interval", "make_grid", "anchored_grid", "restrict"),
    "dini": ("lower_dini", "lower_dini_along", "is_stationary",
             "grid_dini_profile"),
    "oracle": ("auto_tol", "grid_values", "pseudoconvex_def",
               "strictly_pseudoconvex_def", "quasiconvex_def",
               "semistrictly_quasiconvex_def"),
    "charact": ("decompose", "pseudoconvex_char", "strictly_pseudoconvex_char",
                "martos_segments", "quasiconvex_martos"),
    "theorems": ("check_t3", "check_t4", "check_t6", "check_t7", "check_abc",
                 "sample_directions", "sample_pairs", "run_battery"),
    "cli": ("main", "canonical_json"),
}

PACKAGE = "dinicvx"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a span no other span caused
    op: int
    name: str
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of the spans it
    caused.  Spans of one thread never overlap their siblings, so the sum
    of the children's durations is exactly the part of the parent's
    interval they cover.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - covered.get(s.id, 0.0)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


class Tracer:
    """Wraps the layer functions of an imported ``dinicvx`` package.

    ``install()`` rebinds the wrappers, ``uninstall()`` restores the
    originals.  ``reset()`` clears what one pass recorded; ``op`` tags the
    spans of the operation in progress.
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._tally: Counter = Counter()
        self._profile_inputs: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._tally = Counter()
        self._profile_inputs = set()

    def add(self, name: str, amount: float) -> None:
        self._tally[name] += amount

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = Span(sid, parent, tracer.op, name, start, end)
            tracer._tally[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result, state)
            return result

        return traced

    # -- hooks for the named counts ----------------------------------------

    def _eval_many_before(self, args, kwargs):
        points = args[1] if len(args) > 1 else kwargs.get("points")
        shape = getattr(points, "shape", ())
        self._tally["expr.eval_many.points"] += shape[0] if shape else 1
        return args, kwargs, None

    def _profile_hooks(self, fn, schedule_cls):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            phi = bound.arguments["phi"]
            seen: list = []

            def recording_phi(x):
                y = phi(x)
                if not seen:
                    seen.append(y)  # the first call evaluates the grid itself
                return y

            bound.arguments["phi"] = recording_phi
            return bound.args, bound.kwargs, (bound.arguments, seen)

        def after(args, kwargs, result, state):
            arguments, seen = state
            dom = arguments["dom"]
            schedule = arguments.get("schedule") or schedule_cls()
            key = hashlib.sha256()
            key.update(dom.points.tobytes())
            key.update(repr((dom.interval, schedule)).encode())
            if seen:
                key.update(seen[0].tobytes())
            self._profile_inputs.add(key.hexdigest())
            self._tally["dini.grid_dini_profile.rows"] += 2 * len(dom.points)
            for side in ("minus", "plus"):
                feas = getattr(result, side + "_feasible")
                conv = getattr(result, side + "_converged")
                self._tally["_feasible"] += int(feas.sum())
                self._tally["_unconverged"] += int((feas & ~conv).sum())

        return before, after

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and rebind it in every dinicvx module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        self.missing = []
        for layer, names in LAYER_FUNCTIONS.items():
            mod = mods.get(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None) if mod is not None else None
                if not inspect.isfunction(fn):
                    self.missing.append(f"{layer}.{fname}")
                    continue
                qual = f"{layer}.{fname}"
                before = after = None
                if qual == "expr.eval_many":
                    before = self._eval_many_before
                elif qual == "dini.grid_dini_profile":
                    before, after = self._profile_hooks(fn, mod.DiniSchedule)
                wrapper = self._wrap(qual, fn, before, after)
                for m in mods.values():
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore = []

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Exact, repeatable counts of the pass: calls and named counts."""
        out: dict[str, float] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                out[f"{layer}.{fname}.calls"] = self._tally[f"{layer}.{fname}.calls"]
        out["expr.eval_many.points"] = self._tally["expr.eval_many.points"]
        out["dini.grid_dini_profile.rows"] = self._tally["dini.grid_dini_profile.rows"]
        calls = self._tally["dini.grid_dini_profile.calls"]
        distinct = len(self._profile_inputs)
        out["dini.profile_redundancy"] = calls / distinct if distinct else 0.0
        feas = self._tally["_feasible"]
        out["dini.unconverged_frac"] = self._tally["_unconverged"] / feas if feas else 0.0
        out["cli.stdout_bytes"] = self._tally["cli.stdout_bytes"]
        return out

    def self_seconds(self) -> dict[str, float]:
        done = [s for s in self.spans if s is not None]
        times = self_times(done)
        return {f"{layer}.{fname}.self_s": times.get(f"{layer}.{fname}", 0.0)
                for layer, names in LAYER_FUNCTIONS.items() for fname in names}
