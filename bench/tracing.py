"""Outside-in tracing for the benchmark's traced run.

The engine has no spans of its own, so the traced run wraps its public entry
points from here.  Python binds ``from .x import f`` by name, so a wrapper
must replace the function in every broadmatch module namespace that holds
it, not only in the defining one.  ``Tracer.install`` does that by identity.

Spans are kept in memory for one job at a time, then folded into per-layer
totals: call counts, self time (a span's duration minus the part of it its
child spans cover) and the work counts the layers' return values show.  An
entry point that no longer exists is reported as absent and every metric
derived from it is left out; the run itself still completes.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Dict, List, Optional, Set

# (span name, defining module, function name).  Several functions may share a
# span name: the three loaders are one layer boundary.
ENTRY_POINTS = [
    ("cli.run", "broadmatch.cli", "run"),
    ("model.load", "broadmatch.model", "load_instance"),
    ("model.load", "broadmatch.model", "load_split"),
    ("model.load", "broadmatch.model", "load_schedule"),
    ("auction.price_query", "broadmatch.auction", "price_query"),
    ("partition.timeline", "broadmatch.partition", "run_keyword_timeline"),
    ("partition.tables_for", "broadmatch.partition", "tables_for"),
    ("simulate.simulate_day", "broadmatch.simulate", "simulate_day"),
    ("bestresp.dp", "broadmatch.bestresp", "exact_best_response_dp"),
    ("bestresp.as1", "broadmatch.bestresp", "rounded_dp_as1"),
    ("bestresp.fptas", "broadmatch.bestresp", "fptas_as2"),
    ("equilibrium.verify_bme", "broadmatch.equilibrium", "verify_bme"),
    ("equilibrium.verify_eps_ne", "broadmatch.equilibrium", "verify_eps_ne"),
    ("acbm.allocate_excess", "broadmatch.acbm", "allocate_excess"),
]

SOLVERS = ("bestresp.dp", "bestresp.as1", "bestresp.fptas")

# Bits marking which spans enclose a span, inherited from its parent.
_IN_SOLVER, _IN_TIMELINE, _IN_ACBM = 1, 2, 4
_FLAG = {"partition.timeline": _IN_TIMELINE, "acbm.allocate_excess": _IN_ACBM,
         **{s: _IN_SOLVER for s in SOLVERS}}


def _note(name: str, result) -> Optional[object]:
    """The part of a return value a layer's work count is read from."""
    if name in ("partition.timeline", "partition.tables_for"):
        return len(result)
    if name in SOLVERS:
        return result.meta
    if name == "acbm.allocate_excess":
        return len(result["moves"])
    return None


class Tracer:
    """Span recorder plus the per-layer totals folded from finished jobs."""

    def __init__(self):
        self.spans: List[list] = []   # [name, parent, start, end, note, error]
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self.absent: Set[str] = set()
        self.totals: Dict[str, float] = {}

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = _note(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of every entry point with a wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "broadmatch"
                                         or n.startswith("broadmatch."))]
        for name, modname, attr in ENTRY_POINTS:
            try:
                fn = getattr(importlib.import_module(modname), attr, None)
            except ImportError:
                fn = None
            if fn is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- folding --------------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def fold(self) -> None:
        """Fold the finished job's spans into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        flags = [0] * len(spans)
        for idx, (name, parent, start, end, note, error) in enumerate(spans):
            dur = end - start
            inherited = 0
            if parent >= 0:
                child[parent] += dur
                inherited = flags[parent]
            flags[idx] = inherited | _FLAG.get(name, 0)
            self._add(name + ".calls", 1)
            if name == "auction.price_query" and inherited & _IN_TIMELINE:
                self._add("partition.reprices", 1)
            elif name == "partition.timeline":
                self._add("partition.segments", note or 0)
                if inherited & _IN_ACBM:
                    self._add("acbm.probes", 1)
            elif name == "partition.tables_for":
                self._add("partition.tables", note or 0)
                if inherited & _IN_SOLVER:
                    self._add("bestresp.solver_tables", note or 0)
            elif name in SOLVERS:
                if not inherited & _IN_SOLVER:
                    self._add("bestresp.calls", 1)
                    if error == "ScaleError":
                        self._add("bestresp.scale_refusals", 1)
                if note is not None:
                    if name == "bestresp.dp":
                        self._add("bestresp.dp_cells",
                                  note.get("cells", note.get("work", 0)))
                    elif name == "bestresp.fptas":
                        self._add("bestresp.fptas_grid_points",
                                  sum(note.get("grid_sizes", {}).values()))
            elif name == "acbm.allocate_excess":
                self._add("acbm.moves", note or 0)
        for idx, span in enumerate(spans):
            self._add(span[0] + ".self_s", span[3] - span[2] - child[idx])
        spans.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Each per-layer metric: (name, unit, better, spans it needs).  Counts are
# per pass over the workload's job set; times are seconds per pass.
LAYER_METRICS = [
    ("cli.run.self_s", "s", "lower", ("cli.run",)),
    ("cli.out_bytes", "bytes", "lower", ()),
    ("model.load.calls", "count", "lower", ("model.load",)),
    ("model.load.self_s", "s", "lower", ("model.load",)),
    ("auction.price_query.calls", "count", "lower", ("auction.price_query",)),
    ("auction.price_query.self_s", "s", "lower", ("auction.price_query",)),
    ("partition.timeline.calls", "count", "lower", ("partition.timeline",)),
    ("partition.timeline.self_s", "s", "lower", ("partition.timeline",)),
    ("partition.segments", "count", "lower", ("partition.timeline",)),
    ("partition.segments_per_reprice", "ratio", "higher",
     ("partition.timeline", "auction.price_query")),
    ("partition.tables_for.calls", "count", "lower", ("partition.tables_for",)),
    ("partition.tables_for.self_s", "s", "lower", ("partition.tables_for",)),
    ("partition.tables", "count", "lower", ("partition.tables_for",)),
    ("simulate.simulate_day.calls", "count", "lower", ("simulate.simulate_day",)),
    ("simulate.simulate_day.self_s", "s", "lower", ("simulate.simulate_day",)),
    ("bestresp.calls", "count", "lower", ()),
    ("bestresp.dp.self_s", "s", "lower", ("bestresp.dp",)),
    ("bestresp.as1.self_s", "s", "lower", ("bestresp.as1",)),
    ("bestresp.fptas.self_s", "s", "lower", ("bestresp.fptas",)),
    ("bestresp.dp_cells", "count", "lower", ("bestresp.dp",)),
    ("bestresp.fptas_grid_points", "count", "lower", ("bestresp.fptas",)),
    ("bestresp.tables_per_solve", "ratio", "lower", ("partition.tables_for",)),
    ("bestresp.scale_refusals", "count", "lower", ()),
    ("equilibrium.verify_bme.self_s", "s", "lower", ("equilibrium.verify_bme",)),
    ("equilibrium.verify_eps_ne.self_s", "s", "lower",
     ("equilibrium.verify_eps_ne",)),
    ("acbm.allocate_excess.self_s", "s", "lower", ("acbm.allocate_excess",)),
    ("acbm.probes", "count", "lower",
     ("acbm.allocate_excess", "partition.timeline")),
    ("acbm.moves", "count", "higher", ("acbm.allocate_excess",)),
    ("acbm.useful_probe_ratio", "ratio", "higher",
     ("acbm.allocate_excess", "partition.timeline")),
    ("trace.overhead_s", "s", "lower", ()),
]

COUNT_METRICS = [name for name, unit, _, _ in LAYER_METRICS
                 if unit in ("count", "ratio", "bytes")]


def layer_values(totals: Dict[str, float], absent: Set[str]) -> Dict[str, float]:
    """Per-layer metric values from one traced pass's totals; metrics that
    need an absent entry point are left out."""
    t = lambda key: totals.get(key, 0)  # noqa: E731
    derived = {
        "partition.segments_per_reprice": _ratio(t("partition.segments"),
                                                 t("partition.reprices")),
        "bestresp.tables_per_solve": _ratio(t("bestresp.solver_tables"),
                                            t("bestresp.calls")),
        "acbm.useful_probe_ratio": _ratio(t("acbm.moves"), t("acbm.probes")),
    }
    out = {}
    for name, _, _, needs in LAYER_METRICS:
        if any(n in absent for n in needs):
            continue
        out[name] = derived[name] if name in derived else t(name)
    return out
