"""Connectivity deciders built on the face graph.

`Engine` bundles the per-system state: the extremal faces, the union
graph over them, and every fact a query needs that does not depend on
the query itself, each computed once.  An engine memoizes

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
    extremal_compositions,
    merge_at_wall,
    sorting_transpositions,
)
from .errors import LocateFailure, PreconditionError, SolverError
from .oracle import OracleConfig, face_region, sample_components
from .polynomials import FaceSystem, SymmetricSystem, restrict, vandermonde_map
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
    """Rational stand-in for an algebraic point.

    One rational per run of equal coordinates, so block-constancy checks
    downstream see exact equality; runs are separated finely enough to
    keep their strict order.  Each run value is clamped into the box, so
    a point sitting exactly on the boundary cannot drift outside by
    rounding.  A clamp that moves a run value by more than its
    approximation width means the point itself leaves the box; each such
    run is reported as (first coordinate, approximate value, box bound).
    """
    runs = emb.multiplicity_runs()
    starts, pos = [], 0
    for r in runs:
        starts.append(pos)
        pos += r
    eps = Fraction(1, 2**30)
    for _ in range(40):
        vals = emb.approx(eps)
        reps = [vals[s] for s in starts]
        if all(reps[k] < reps[k + 1] for k in range(len(reps) - 1)):
            break
        eps /= 2**8
    else:
        raise SolverError("could not separate distinct coordinate values numerically")
    lo, hi = box
    out: list[Fraction] = []
    clamped = []
    pos = 0
    for r, v in zip(runs, reps):
        a = max(lo[pos : pos + r])
        b = min(hi[pos : pos + r])
        c = min(max(v, a), b)
        if abs(c - v) > eps:
            clamped.append((pos + 1, v, c))
        out.extend([c] * r)
        pos += r
    return tuple(out), runs, clamped


class Engine:
    """Per-system state: extremal faces, union graph, memoized queries."""

    def __init__(self, sys: SymmetricSystem, cfg: OracleConfig | None = None):
        self.sys = sys
        self.cfg = cfg if cfg is not None else OracleConfig()
        self._faces: tuple[FaceSystem, ...] | None = None
        self._faces_json: list | None = None
        self._cfg_json = _config_json(self.cfg)
        self._graph: UnionGraph | None = None
        self._graph_summary: dict | None = None
        self._feasible: set = set()  # points whose box and membership check passed
        self._canon: dict = {}
        self._wall_faces: dict = {}  # merged face -> [(point, vertex)]
        self._wall_search: dict = {}  # (wall, component) -> (trials, witness)
        self._walls: dict = {}

    def faces(self) -> tuple[FaceSystem, ...]:
        if self._faces is None:
            lams = extremal_compositions(self.sys.n, self.sys.d)
            self._faces = tuple(restrict(self.sys, lam) for lam in lams)
            self._faces_json = [list(lam.parts) for lam in lams]
        return self._faces

    def graph(self) -> UnionGraph:
        if self._graph is None:
            self._graph = build_union_graph(self.faces(), self.cfg)
        return self._graph

    # -- validation ----------------------------------------------------------

    def _check_point(self, x: Sequence, name: str, sorted_required=True):
        xs = tuple(Fraction(v) for v in x)
        if len(xs) != self.sys.n:
            raise PreconditionError(
                f"{name} has {len(xs)} coordinates, need {self.sys.n}"
            )
        if sorted_required and any(xs[k] > xs[k + 1] for k in range(len(xs) - 1)):
            raise PreconditionError(
                f"{name} must be weakly increasing; sort it first "
                "(the answer is invariant under sorting the query orbit)"
            )
        if xs in self._feasible:
            return xs
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
        self._feasible.add(xs)
        return xs

    # -- canonical fiber points ----------------------------------------------

    def _canonical(self, xs: tuple) -> dict:
        hit = self._canon.get(xs)
        if hit is not None:
            return hit
        a = vandermonde_map(xs, self.sys.d)
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
        self._canon[xs] = data
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
                {"face": list(f.lam.parts), **_summary_json(r.summary())}
                for f, r in zip(g.faces, g.resolutions)
            ]
            self._graph_summary = {
                "vertices": len(g.vertices),
                "edges": len(g.edges),
                "components": g.component_count,
                "resolutions": res,
            }
        return self._graph_summary

    # -- deciders --------------------------------------------------------------

    def _orbit_verdict(self, xs: tuple, ys: tuple) -> Verdict:
        dx = self._canonical(xs)
        dy = self._canonical(ys)
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
        xs = self._check_point(x, "x")
        ys = self._check_point(y, "y")
        return self._orbit_verdict(xs, ys)

    def wall(self, x: Sequence, i: int) -> Verdict:
        """Does the sorted-slice component of x touch the wall x_i = x_{i+1}?

        x is located once, through its canonical point.  Each extremal
        face lam is merged across the wall into mu, mu's face set is
        sampled, and every sampled point is located where it lies, with
        no fiber solve: mu only merges blocks of lam, so precedes(lam, mu)
        and the point lies in L_mu, inside L_lam, hence in the closed face
        set S_lam; the vertex `locate_vertex` finds for it on mu lies in
        its component of the union.  A trial whose vertex shares x's
        component is a witness.  Exhausting all trials gives a no that is
        not certified: only the merged extremal faces are sampled, not
        the whole wall.

        Nothing here depends on x beyond its component, so the engine
        keeps the located samples of each merged face, built when the
        face loop first reaches it, and the trials and witness of each
        (wall, component) pair; the verdict for (x, i) is kept as well.
        """
        xs = self._check_point(x, "x")
        if not 1 <= i <= self.sys.n - 1:
            raise PreconditionError(f"wall index {i} outside 1..{self.sys.n - 1}")
        key = (xs, i)
        hit = self._walls.get(key)
        if hit is not None:
            return hit

        dx = self._canonical(xs)
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
        for extremal in self.faces():
            merged = merge_at_wall(extremal.lam, i)
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
            face = restrict(self.sys, merged)
            hit = []
            for z in sample_components(face_region(face), self.cfg):
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
        xs = self._check_point(x, "x")
        ys = self._check_point(y, "y", sorted_required=False)
        word, ysort = sorting_transpositions(ys)
        base = self._orbit_verdict(xs, ysort)

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
