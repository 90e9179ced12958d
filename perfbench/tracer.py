"""Span tracer that wraps symconn's public entry points from outside.

`install(pkg)` replaces each traced function in every symconn module that
holds it under a name (so `engine.min_canonical`, imported by name from
`vandermonde`, is wrapped too), and each traced method on its class.
Nothing under `src/` is edited; `uninstall` puts every original back.

A span is (name, start, end, parent span index, query id).  Spans stay in
memory until `write` dumps them.  Self time of a span is its duration
minus the durations of its direct children; calls run on one thread and
nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from collections import Counter
from time import perf_counter

LAYERS = (
    "problemfile",
    "polynomials",
    "compositions",
    "vandermonde",
    "realroots",
    "oracle",
    "uniongraph",
    "engine",
    "verify",
)

# (module, attribute) of every traced function; "Class.method" for methods
TRACED = {
    "problemfile": ("parse_problem", "build_config"),
    "polynomials": ("restrict", "vandermonde_map"),
    "compositions": ("extremal_compositions", "merge_at_wall", "sorting_transpositions"),
    "vandermonde": (
        "min_canonical",
        "fiber_points",
        "solve_weighted_system",
        "_solve_generic",
    ),
    "realroots": ("thom_rooted", "real_roots", "AlgebraicPoint.root"),
    "oracle": (
        "resolve_region",
        "_resolve_cached",
        "_Grid",
        "sample_components",
        "brute_force_connected",
    ),
    "uniongraph": ("build_union_graph", "locate_vertex"),
    "engine": (
        "get_engine",
        "Engine.graph",
        "Engine.canonical",
        "Engine.wall",
        "Engine.symmetric",
    ),
    "verify": ("run_verify",),
}


class Tracer:
    """Keeps spans and the few facts that only the return values carry."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.qid = -1
        self.grids: list[tuple[int, int]] = []  # (cells, feasible) per grid built
        self.resolutions: list[tuple[int, bool]] = []  # (levels, stabilized) per build
        self.region_keys: set = set()
        self.graphs: list[tuple[int, int, int]] = []  # (vertices, edges, components)
        self.wall_verdicts: dict[int, object] = {}
        self.verdicts: list = []
        self._undo: list = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, before=None):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                err = type(e).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.qid, err)
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self, pkg) -> None:
        """Wrap every traced entry point of the freshly imported package."""
        mods = {name: getattr(pkg, name) for name in LAYERS}
        holders = [pkg, *mods.values()]
        hooks = self._hooks(mods)
        for layer, attrs in TRACED.items():
            mod = mods[layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                after, before = hooks.get(name, (None, None))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(name, orig, after, before), orig)
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, after, before)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            self._set(holder, key, wrapped, orig)

    def _set(self, obj, key, new, old):
        setattr(obj, key, new)
        self._undo.append((obj, key, old))

    def uninstall(self) -> None:
        for obj, key, old in reversed(self._undo):
            setattr(obj, key, old)
        self._undo.clear()

    def _hooks(self, mods) -> dict:
        lru = mods["oracle"]._resolve_cached
        misses = [0]

        def region_seen(args):
            self.region_keys.add(args)
            misses[0] = lru.cache_info().misses

        def region_resolved(args, res):
            if lru.cache_info().misses != misses[0]:
                self.resolutions.append((len(res.level_counts), res.summary().stabilized))

        def grid_built(args, grid):
            self.grids.append((math.prod(grid.m), len(grid.feasible)))

        def graph_built(args, g):
            self.graphs.append((len(g.vertices), len(g.edges), g.component_count))

        def wall_done(args, v):
            self.wall_verdicts[id(v)] = v

        def query_start(args):
            self.qid += 1

        def query_done(args, v):
            self.verdicts.append(v)

        return {
            "oracle._resolve_cached": (region_resolved, region_seen),
            "oracle._Grid": (grid_built, None),
            "uniongraph.build_union_graph": (graph_built, None),
            "engine.Engine.wall": (wall_done, None),
            "engine.Engine.symmetric": (query_done, query_start),
        }

    # -- reporting -----------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer self time and call counts plus the named counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _q, _e in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s = Counter()
        calls = Counter()
        incl = Counter()
        ncalls = Counter()
        errors = Counter()
        for k, (name, t0, t1, parent, _q, err) in enumerate(spans):
            layer = name.split(".", 1)[0]
            self_s[layer] += (t1 - t0) - child_time[k]
            calls[layer] += 1
            ncalls[name] += 1
            incl[name] += t1 - t0
            if err is not None:
                errors[name] += 1
        build_children = Counter()
        for name, _t0, _t1, parent, _q, _e in spans:
            if parent >= 0 and spans[parent][0] == "uniongraph.build_union_graph":
                if name == "oracle.sample_components":
                    build_children[name] += 1

        cells = sum(c for c, _ in self.grids)
        feasible = sum(f for _, f in self.grids)
        levels = [lv for lv, _ in self.resolutions]
        cert_bytes = [len(json.dumps(v.certificate)) for v in self.verdicts]
        walls = list(self.wall_verdicts.values())
        resolve_calls = ncalls["oracle.resolve_region"]
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_s[layer], "s")
            m[f"{layer}.calls"] = (calls[layer], "count")
        m.update(
            {
                "oracle.grid_s": (incl["oracle._Grid"], "s"),
                "oracle.grids": (ncalls["oracle._Grid"], "count"),
                "oracle.cells_classified": (cells, "count"),
                "oracle.feasible_ratio": (feasible / cells if cells else 0.0, "ratio"),
                "oracle.levels_per_region": (
                    statistics.fmean(levels) if levels else 0.0, "count"),
                "oracle.unstabilized_regions": (
                    sum(1 for _, ok in self.resolutions if not ok), "count"),
                "oracle.resolve_calls": (resolve_calls, "count"),
                "oracle.region_hit_ratio": (
                    1 - len(self.region_keys) / resolve_calls if resolve_calls else 0.0,
                    "ratio"),
                "oracle.brute_calls": (ncalls["oracle.brute_force_connected"], "count"),
                "oracle.brute_s": (incl["oracle.brute_force_connected"], "s"),
                "vandermonde.min_canonical_calls": (
                    ncalls["vandermonde.min_canonical"], "count"),
                "vandermonde.min_canonical_s": (incl["vandermonde.min_canonical"], "s"),
                "vandermonde.solve_calls": (
                    ncalls["vandermonde.solve_weighted_system"], "count"),
                "vandermonde.solve_generic_calls": (
                    ncalls["vandermonde._solve_generic"], "count"),
                "vandermonde.solve_s": (incl["vandermonde.solve_weighted_system"], "s"),
                "realroots.thom_rooted_calls": (ncalls["realroots.thom_rooted"], "count"),
                "realroots.thom_rooted_s": (incl["realroots.thom_rooted"], "s"),
                "realroots.root_calls": (ncalls["realroots.AlgebraicPoint.root"], "count"),
                "uniongraph.build_s": (incl["uniongraph.build_union_graph"], "s"),
                "uniongraph.regions": (build_children["oracle.sample_components"], "count"),
                "uniongraph.vertices": (sum(g[0] for g in self.graphs), "count"),
                "uniongraph.edges": (sum(g[1] for g in self.graphs), "count"),
                "uniongraph.locate_calls": (ncalls["uniongraph.locate_vertex"], "count"),
                "uniongraph.locate_s": (incl["uniongraph.locate_vertex"], "s"),
                "uniongraph.locate_failures": (errors["uniongraph.locate_vertex"], "count"),
                "engine.wall_calls": (ncalls["engine.Engine.wall"], "count"),
                "engine.wall_s": (incl["engine.Engine.wall"], "s"),
                "engine.wall_trials": (
                    sum(len(v.certificate["trials"]) for v in walls), "count"),
                "engine.cert_bytes_p50": (
                    statistics.median(cert_bytes) if cert_bytes else 0.0, "bytes"),
                "polynomials.restrict_s": (incl["polynomials.restrict"], "s"),
                "problemfile.parse_s": (incl["problemfile.parse_problem"], "s"),
                "trace.spans": (len(spans), "count"),
            }
        )
        return m

    def write(self, path) -> None:
        """Dump the spans as one JSON object: a name table and span rows."""
        names: dict[str, int] = {}
        rows = []
        for name, t0, t1, parent, qid, err in self.spans:
            nid = names.setdefault(name, len(names))
            rows.append([nid, round(t0, 7), round(t1, 7), parent, qid, err])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "fields": [
                "name", "start", "end", "parent", "query", "error"], "spans": rows}, fh)
