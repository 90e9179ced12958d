"""Connectivity deciders built on the face graph.

`Engine` bundles the per-system state: the union graph, which lists the
extremal faces it glues, and every fact a query needs that does not
depend on the query itself, each computed once.  Every region it grids
is a face set `face_region(sys, lam)`: the extremal faces and their joins
inside the graph, and the merged faces of the wall search.  An engine
memoizes

- per point: the membership and box check that passed, and the canonical
  point with its graph vertex and its certificate record;
- per merged wall face: its sampled points, each located on the graph;
- per (wall, component of the sorted slice): the wall trials and witness;

plus each (x, wall) verdict.  Certificates share the memoized records,
the config, the face list and the graph summary as sub-dicts, so they
must be treated as read-only.  A failure is never memoized: a query that
raised raises again when asked again.  The caller owns the engine: hold
one per (system, config) to reuse all of it across queries.

The paper's two algorithms are `Engine.canonical`, which answers whether
two weakly increasing feasible points lie in the same component of the
sorted slice of S (the part with x1 <= ... <= xn), the same as asking
whether their orbits are connected in S, and `Engine.symmetric`, which
decides connectivity in S itself for a possibly unsorted second point.
It combines the orbit test with `Engine.wall`, which answers whether the
component of x in the sorted slice touches the wall x_i = x_{i+1}.

Every verdict carries a JSON-ready certificate recording the reduction:
fiber data, canonical points with their graph vertices, oracle
resolutions, and for wall queries the sampled wall representatives, each
with the graph vertex and component it was located in directly.
Identical inputs under an identical config reproduce the certificate
verbatim.

Two caveats.  All searching happens inside the system box; a set that
leaves the box is truncated there, and certificates say so.  Systems
with equality constraints should pin `eq_delta` in the config, so that
component sampling and vertex location agree on how thick the zero set
is taken to be.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .compositions import (
    Composition,
    composition,
    embed,
    merge_at_wall,
    sorting_transpositions,
)
from .errors import LocateFailure, PreconditionError, SolverError
from .oracle import OracleConfig, _exact, face_region, sample_components
from .polynomials import SymmetricSystem, vandermonde_map
from .realroots import dyadic_floor
from .uniongraph import UnionGraph, build_union_graph, locate_vertex
from .vandermonde import min_canonical

__all__ = [
    "Verdict",
    "Engine",
    "get_engine",
]


@dataclass(frozen=True)
class Verdict:
    """Boolean answer plus the certificate that produced it."""

    connected: bool
    certificate: dict

    def __bool__(self) -> bool:
        return self.connected


def _point_json(x) -> list[str]:
    return [str(Fraction(v)) for v in x]


def _decimal_json(x) -> list[float]:
    return [round(float(Fraction(v)), 9) for v in x]


def _config_json(cfg: OracleConfig) -> dict:
    return {
        "h": str(cfg.h),
        "eq_delta": None if cfg.eq_delta is None else str(cfg.eq_delta),
        "max_depth": cfg.max_depth,
    }


def _summary_json(s) -> dict:
    return {
        "h_final": str(s.h_final),
        "cells": s.cells,
        "classes": s.classes,
        "levels": list(s.level_counts),
        "stabilized": s.stabilized,
    }


def _vertex_json(g: UnionGraph, idx: int) -> dict:
    v = g.vertices[idx]
    return {
        "set": v.face + 1,
        "representative": _point_json(v.representative),
        "representative_decimal": _decimal_json(v.representative),
        "component": g.labels[idx],
    }


def _rational_embedding(emb, box) -> tuple[tuple[Fraction, ...], tuple[int, ...], list]:
    """Dyadic stand-in for an algebraic point.

    One rational per run of equal coordinates, so block-constancy checks
    downstream see exact equality: the run's value x rounded down on the
    2^-m grid, c = floor(x 2^m) / 2^m, decided exactly.  m starts at 30 and
    grows by 8 until the runs' values strictly increase.  So the stand-in
    depends only on the point, not on the parametrization or the enclosure
    that gave it.  Each run value is clamped into the box [lo, hi]^n, so a
    point sitting exactly on the boundary cannot drift outside by rounding.
    As c <= x < c + 2^-m, a clamp that moves a run value by more than 2^-m
    means the point itself leaves the box; each such run is reported as
    (first coordinate, stand-in value, box bound).
    """
    runs = emb.multiplicity_runs()
    starts, pos = [], 0
    for r in runs:
        starts.append(pos)
        pos += r
    shared = {emb.codes[s]: emb.root(s) for s in starts}
    roots = [shared[emb.codes[s]] for s in starts]
    m = 30
    while True:
        ks = [dyadic_floor(emb.coords[s], emb.q0, r, m) for s, r in zip(starts, roots)]
        if all(k < k2 for k, k2 in zip(ks, ks[1:])):
            break
        m += 8
    eps = Fraction(1, 1 << m)
    lo, hi = box[0][0], box[1][0]
    out: list[Fraction] = []
    clamped = []
    pos = 0
    for r, k in zip(runs, ks):
        v = Fraction(k, 1 << m)
        c = min(max(v, lo), hi)
        if abs(c - v) > eps:
            clamped.append((pos + 1, v, c))
        out.extend([c] * r)
        pos += r
    return tuple(out), runs, clamped


class Engine:
    """Per-system state: the union graph and memoized queries."""

    def __init__(self, sys: SymmetricSystem, cfg: OracleConfig | None = None):
        self.sys = sys
        self.cfg = cfg if cfg is not None else OracleConfig()
        self._faces_json: list | None = None
        self._cfg_json = _config_json(self.cfg)
        self._graph: UnionGraph | None = None
        self._graph_summary: dict | None = None
        self._feasible: dict = {}  # point -> power sums, once its checks passed
        self._canon: dict = {}  # power sums -> canonical point data
        self._wall_faces: dict = {}  # merged face -> [(point, vertex)]
        self._wall_search: dict = {}  # (wall, component) -> (trials, witness)
        self._walls: dict = {}

    def graph(self) -> UnionGraph:
        if self._graph is None:
            self._graph = build_union_graph(self.sys, self.cfg)
            self._faces_json = [list(lam.parts) for lam in self._graph.faces]
        return self._graph

    # -- validation ----------------------------------------------------------

    def _check_point(self, x: Sequence, name: str, sorted_required=True):
        """(point as Fractions, its first d power sums) for a feasible point."""
        xs = tuple(_exact(v, name) for v in x)
        if len(xs) != self.sys.n:
            raise PreconditionError(
                f"{name} has {len(xs)} coordinates, need {self.sys.n}"
            )
        if sorted_required and any(xs[k] > xs[k + 1] for k in range(len(xs) - 1)):
            raise PreconditionError(
                f"{name} must be weakly increasing; sort it first "
                "(the answer is invariant under sorting the query orbit)"
            )
        hit = self._feasible.get(xs)
        if hit is not None:
            return xs, hit
        if not self.sys.box_contains(xs):
            raise PreconditionError(f"{name} lies outside the system box")
        p = vandermonde_map(xs, self.sys.d)
        for k, c in enumerate(self.sys.constraints):
            v = c.poly.eval(p)
            if not c.rel.holds(v):
                raise PreconditionError(
                    f"{name} is infeasible: constraint {k + 1} "
                    f"({c.rel.name}) evaluates to {v}"
                )
        self._feasible[xs] = p
        return xs, p

    # -- canonical fiber points ----------------------------------------------

    def _canonical(self, a: tuple) -> dict:
        """Canonical point data of the fiber over the power sums a.

        Keyed by a, so a point and every permutation of it share one entry.
        """
        hit = self._canon.get(a)
        if hit is not None:
            return hit
        cp = min_canonical(self.sys.n, self.sys.d, a)
        if cp is None:
            raise SolverError(
                "no extremal face meets the fiber of a feasible point; "
                "this indicates lost real roots in the solver"
            )
        rational, runs, clamped = _rational_embedding(cp.embedded_point(), self.sys.box)
        data = {
            "fiber": a,
            "canonical": cp,
            "rational": rational,
            "home": composition(runs),
            "clamped": clamped,
        }
        self._canon[a] = data
        return data

    def _locate(self, data: dict) -> int:
        """Graph vertex of a canonical point, located once.

        The point's certificate record is built with it and kept in the
        same `_canon` entry as `data["json"]`.  When the canonical point
        left the box and was clamped back into it, a failure to locate
        names the box as the cause instead of the grid.
        """
        if "vertex" not in data:
            try:
                idx = locate_vertex(self.graph(), data["rational"], data["home"])
            except LocateFailure as e:
                if not data["clamped"]:
                    raise
                k, v, bound = data["clamped"][0]
                raise LocateFailure(
                    "no graph vertex connects to the query point",
                    advice=f"the canonical point has x{k} ~ {float(v):.6g}, beyond "
                    f"the box bound {bound}, and was clamped onto the box: widen "
                    "the system box to contain it",
                ) from e
            data["json"] = self._canonical_json(data, idx)
            data["vertex"] = idx
        return data["vertex"]

    def _canonical_json(self, data: dict, idx: int) -> dict:
        g = self.graph()
        return {
            "fiber": _point_json(data["fiber"]),
            "face": list(data["canonical"].lam.parts),
            "type": list(data["home"].parts),
            "point": _point_json(data["rational"]),
            "point_decimal": _decimal_json(data["rational"]),
            "vertex": _vertex_json(g, idx),
        }

    def _graph_json(self) -> dict:
        """Graph summary, built once; every certificate shares it."""
        if self._graph_summary is None:
            g = self.graph()
            res = [
                {"face": list(lam.parts), **_summary_json(r.summary())}
                for lam, r in zip(g.faces, g.resolutions)
            ]
            self._graph_summary = {
                "vertices": len(g.vertices),
                "edges": len(g.edges),
                "components": g.component_count,
                "resolutions": res,
            }
        return self._graph_summary

    # -- deciders --------------------------------------------------------------

    def _orbit_verdict(self, xs: tuple, px: tuple, ys: tuple, py: tuple) -> Verdict:
        dx = self._canonical(px)
        dy = self._canonical(py)
        ix = self._locate(dx)
        iy = self._locate(dy)
        g = self.graph()
        same = g.labels[ix] == g.labels[iy]
        cert = {
            "kind": "orbit",
            "connected": same,
            "config": self._cfg_json,
            "faces": self._faces_json,
            "x": _point_json(xs),
            "y": _point_json(ys),
            "x_canonical": dx["json"],
            "y_canonical": dy["json"],
            "graph": self._graph_json(),
            "box_note": "search is clamped to the system box",
        }
        return Verdict(same, cert)

    def canonical(self, x: Sequence, y: Sequence) -> Verdict:
        """Orbit connectivity for weakly increasing feasible x and y."""
        xs, px = self._check_point(x, "x")
        ys, py = self._check_point(y, "y")
        return self._orbit_verdict(xs, px, ys, py)

    def wall(self, x: Sequence, i: int) -> Verdict:
        """Does the sorted-slice component of x touch the wall x_i = x_{i+1}?

        x is located once, through its canonical point.  Each extremal
        face lam of the graph is merged across the wall into mu, the face
        set `face_region(sys, mu)` is sampled, and every sampled point is
        located where it lies, with no fiber solve: mu only merges blocks
        of lam, so precedes(lam, mu) and the point lies in L_mu, inside
        L_lam, hence in the closed face set S_lam; the vertex
        `locate_vertex` finds for it on mu lies in its component of the
        union.  A trial whose vertex shares x's component is a witness.
        Exhausting all trials gives a no that is not certified: only the
        merged extremal faces are sampled, not the whole wall.

        Nothing here depends on x beyond its component, so the engine
        keeps the located samples of each merged face, built when the
        face loop first reaches it, and the trials and witness of each
        (wall, component) pair; the verdict for (x, i) is kept as well.
        """
        xs, px = self._check_point(x, "x")
        if isinstance(i, bool) or not isinstance(i, int):
            raise PreconditionError(f"wall index must be an int, got {i!r}")
        if not 1 <= i <= self.sys.n - 1:
            raise PreconditionError(f"wall index {i} outside 1..{self.sys.n - 1}")
        key = (xs, i)
        hit = self._walls.get(key)
        if hit is not None:
            return hit

        dx = self._canonical(px)
        comp = self.graph().labels[self._locate(dx)]
        search = self._wall_search.get((i, comp))
        if search is None:
            search = self._search_wall(i, comp)
            self._wall_search[(i, comp)] = search
        trials, witness = search

        connected = witness is not None
        cert = {
            "kind": "wall",
            "wall": i,
            "connected": connected,
            "config": self._cfg_json,
            "x": _point_json(xs),
            "x_canonical": dx["json"],
            "trials": trials,
            "witness": witness,
            "graph": self._graph_json(),
            "box_note": "search is clamped to the system box",
        }
        out = Verdict(connected, cert)
        self._walls[key] = out
        return out

    def _search_wall(self, i: int, comp: int) -> tuple[list, dict | None]:
        """Trials and witness of wall i for the graph component comp."""
        g = self.graph()
        trials = []
        witness = None
        seen = set()
        for extremal in g.faces:
            merged = merge_at_wall(extremal, i)
            if merged in seen:
                continue
            seen.add(merged)
            for xz, iz in self._wall_face(merged):
                same = g.labels[iz] == comp
                trials.append(
                    {
                        "face": list(merged.parts),
                        "representative": _point_json(xz),
                        "representative_decimal": _decimal_json(xz),
                        "connected": same,
                        "vertex": iz,
                        "component": g.labels[iz],
                    }
                )
                if same and witness is None:
                    witness = {
                        "face": list(merged.parts),
                        "representative": _point_json(xz),
                        "vertex": _vertex_json(g, iz),
                    }
            if witness is not None:
                break
        return trials, witness

    def _wall_face(self, merged: Composition) -> list:
        """The sampled points of merged's face set, each with its vertex."""
        hit = self._wall_faces.get(merged)
        if hit is None:
            g = self.graph()
            hit = []
            for z in sample_components(face_region(self.sys, merged), self.cfg):
                xz = embed(merged, z)
                hit.append((xz, locate_vertex(g, xz, merged)))
            self._wall_faces[merged] = hit
        return hit

    def symmetric(self, x: Sequence, y: Sequence) -> Verdict:
        """Connectivity of x and y in S itself; y may be unsorted.

        y is sorted by adjacent swaps; the sorted copy must be
        orbit-connected to x, and every wall used by a swap must be
        reachable from the component of x.
        """
        xs, px = self._check_point(x, "x")
        ys, py = self._check_point(y, "y", sorted_required=False)
        word, ysort = sorting_transpositions(ys)
        base = self._orbit_verdict(xs, px, ysort, py)

        walls_needed = []
        for i in word:
            if i not in walls_needed:
                walls_needed.append(i)
        wall_certs = {}
        connected = base.connected
        if connected:
            for i in walls_needed:
                wv = self.wall(xs, i)
                wall_certs[str(i)] = wv.certificate
                if not wv.connected:
                    connected = False
                    break
        cert = {
            "kind": "symmetric",
            "connected": connected,
            "config": self._cfg_json,
            "x": _point_json(xs),
            "y": _point_json(ys),
            "sorted_y": _point_json(ysort),
            "word": list(word),
            "orbit": base.certificate,
            "walls": wall_certs,
        }
        return Verdict(connected, cert)


def get_engine(sys: SymmetricSystem, cfg: OracleConfig | None = None) -> Engine:
    """A new `Engine(sys, cfg)`.

    Kept as a named entry point because the benchmark's tracer wraps
    `engine.get_engine` by name; callers own the engine it returns.
    """
    return Engine(sys, cfg)
