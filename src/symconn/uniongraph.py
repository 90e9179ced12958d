"""Component graph over a family of face sets, glued where they meet.

Every face set S_i = S and L_lam and the sorted chamber is closed in S,
since L_lam is a closed linear subspace, so it is closed in the finite
union of the S_i.  For finitely many closed sets the components of the
union are the classes of the relation "these components meet": a path
in the union that leaves one component must enter another at a point
of both.  The graph therefore holds one vertex per sampled component of
each S_i, and an edge between a component of S_i and a component of S_j
whenever a sampled component of S_i and S_j lies in both.  Its
components mirror the components of the union.

Intersections are sampled on the join composition, where both operands
restrict to a common lower-dimensional coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .compositions import Composition, composition, embed, join, precedes
from .errors import DomainError, LocateFailure, PreconditionError
from .oracle import (
    OracleConfig,
    Region,
    RegionResolution,
    face_region,
    point_feasible,
    resolve_region,
)
from .polynomials import FaceSystem, block_substitute, make_box


@dataclass(frozen=True)
class ComponentVertex:
    """One sampled component of the face set `faces[face]`.

    The representative lives in ambient coordinates.
    """

    face: int
    representative: tuple[Fraction, ...]


@dataclass(frozen=True)
class UnionGraph:
    """Face components and the edges that glue them.

    Vertices are grouped by face: class c of `resolutions[i]`, the grid
    of face i's region, is vertex `face_starts[i] + c`.
    """

    faces: tuple[FaceSystem, ...]
    vertices: tuple[ComponentVertex, ...]
    edges: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]
    resolutions: tuple[RegionResolution, ...]
    face_starts: tuple[int, ...]
    cfg: OracleConfig

    @property
    def component_count(self) -> int:
        return max(self.labels) + 1 if self.labels else 0


def face_coordinates(lam: Composition, x: Sequence) -> tuple[Fraction, ...]:
    """Block values of an ambient point that is constant on lam's blocks."""
    xs = tuple(Fraction(v) for v in x)
    if len(xs) != lam.n:
        raise DomainError(f"point has {len(xs)} coordinates, need {lam.n}")
    return tuple(xs[s - 1] for s in lam.block_starts())


def _quotient(lam: Composition, mu: Composition) -> Composition:
    """How many consecutive lam blocks make up each mu block."""
    ends = []
    acc = 0
    for p in mu.parts:
        acc += p
        ends.append(acc)
    parts: list[int] = []
    count, tot, t = 0, 0, 0
    for p in lam.parts:
        tot += p
        count += 1
        if t < len(ends) and tot == ends[t]:
            parts.append(count)
            count = 0
            t += 1
        elif t < len(ends) and tot > ends[t]:
            raise DomainError("mu does not merge whole blocks of lam")
    return composition(parts)


def intersection_region(fi: FaceSystem, fj: FaceSystem) -> tuple[Region, Composition]:
    """S_i and S_j on their join face, in the box [lo, hi] the faces share.

    Faces of one system restrict the same constraints, which meet again
    on the join, so an atom of S_j joins only when S_i lacks it.
    """
    mu = join(fi.lam, fj.lam)
    ell = mu.length
    qi, qj = _quotient(fi.lam, mu), _quotient(fj.lam, mu)
    req = [(block_substitute(poly, qi), rel) for poly, rel in fi.constraints]
    own = set(req)
    for poly, rel in fj.constraints:
        atom = (block_substitute(poly, qj), rel)
        if atom not in own:
            req.append(atom)
    box = make_box(ell, fi.box[0][0], fi.box[1][0])
    return Region(dim=ell, requires=tuple(req), box=box, chamber=True), mu


def _face_classes(res: RegionResolution, lam: Composition, x: Sequence) -> frozenset[int]:
    """Classes of a face region holding the ambient point x.

    x must pass the face predicate with the query-side slack of the final
    pitch; the classes are those of its cell or, when that cell is
    infeasible, of its feasible face neighbors.
    """
    xp = face_coordinates(lam, x)
    good, _ = point_feasible(res.region, xp, res.cfg, res.h)
    return res.point_classes(xp) if good else frozenset()


def build_union_graph(
    faces: Sequence[FaceSystem], cfg: OracleConfig | None = None
) -> UnionGraph:
    """Sample every face set, then glue components through intersections."""
    cfg = cfg or OracleConfig()
    faces = tuple(faces)
    if not faces:
        raise DomainError("need at least one face system")
    n, lo, hi = faces[0].n, faces[0].box[0][0], faces[0].box[1][0]
    if any(f.n != n or f.box[0][0] != lo or f.box[1][0] != hi for f in faces):
        raise DomainError("face systems must share the ambient dimension and the box")
    vertices: list[ComponentVertex] = []
    first: list[int] = []
    resolutions: list[RegionResolution] = []
    for i, face in enumerate(faces):
        res = resolve_region(face_region(face), cfg)
        first.append(len(vertices))
        vertices.extend(ComponentVertex(i, embed(face.lam, z)) for z in res.representatives)
        resolutions.append(res)
    edges: set[tuple[int, int]] = set()
    for i, j in combinations(range(len(faces)), 2):
        region, mu = intersection_region(faces[i], faces[j])
        for z in resolve_region(region, cfg).representatives:
            x = embed(mu, z)
            us = _face_classes(resolutions[i], faces[i].lam, x)
            ws = _face_classes(resolutions[j], faces[j].lam, x)
            edges.update((first[i] + u, first[j] + w) for u in us for w in ws)
    adj: list[list[int]] = [[] for _ in vertices]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    labels = [-1] * len(vertices)
    comp = 0
    for v in range(len(vertices)):
        if labels[v] >= 0:
            continue
        labels[v] = comp
        stack = [v]
        while stack:
            for b in adj[stack.pop()]:
                if labels[b] < 0:
                    labels[b] = comp
                    stack.append(b)
        comp += 1
    return UnionGraph(
        faces=faces,
        vertices=tuple(vertices),
        edges=tuple(sorted(edges)),
        labels=tuple(labels),
        resolutions=tuple(resolutions),
        face_starts=tuple(first),
        cfg=cfg,
    )


def locate_vertex(g: UnionGraph, x: Sequence, lam_home: Composition) -> int:
    """Index of a vertex whose component holds x.

    x is an ambient point of the face set of lam_home: weakly increasing
    and constant on lam_home's blocks.  Only the faces whose sets contain
    lam_home's face are tried, in order, and within a face the lowest
    class holding x wins.  When no class holds x, sampling missed x's
    component and LocateFailure reports the refinement advice.
    """
    xs = tuple(Fraction(v) for v in x)
    if list(xs) != sorted(xs):
        raise PreconditionError("query point must be weakly increasing")
    for start, p in zip(lam_home.block_starts(), lam_home.parts):
        if any(xs[start - 1] != xs[start - 1 + t] for t in range(p)):
            raise PreconditionError("query point is not constant on its home face blocks")
    for face, res, first in zip(g.faces, g.resolutions, g.face_starts):
        if not precedes(face.lam, lam_home):
            continue
        classes = _face_classes(res, face.lam, xs)
        if classes:
            return first + min(classes)
    raise LocateFailure(
        "no graph vertex connects to the query point",
        advice="refine the oracle grid: smaller starting pitch or a higher depth cap",
    )
