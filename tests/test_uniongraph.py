"""Union graph construction, component labels, and vertex lookup."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from symconn import oracle
from symconn.compositions import composition, embed, extremal_compositions
from symconn.errors import DomainError, LocateFailure, PreconditionError
from symconn.oracle import OracleConfig, face_region, resolve_region, sample_components
from symconn.polynomials import (
    Constraint,
    ExpandedPoly,
    FaceSystem,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
    make_box,
    restrict,
)
from symconn.uniongraph import (
    _face_classes,
    build_union_graph,
    face_coordinates,
    intersection_region,
    locate_vertex,
)


def interval_face(a, b, lo=-1, hi=9):
    x = ExpandedPoly.variable(1, 1)
    cons = ((x - F(a), Relation.GE), (x.scale(-1) + F(b), Relation.GE))
    return FaceSystem(
        lam=composition((1,)), n=1, constraints=cons, box=((F(lo),), (F(hi),))
    )


def two_intervals():
    return [interval_face(0, 2), interval_face(1, 3)]


def check_invariants(g):
    """Properties every union graph must have, whatever its faces."""
    cfg = g.cfg
    res = [resolve_region(face_region(f), cfg) for f in g.faces]
    assert len(g.vertices) == sum(r.class_count for r in res)
    assert g.face_starts == tuple(itertools.accumulate([0] + [r.class_count for r in res[:-1]]))
    assert len(g.labels) == len(g.vertices)
    for u, w in g.edges:
        assert u < w
        assert g.vertices[u].face < g.vertices[w].face
        assert g.labels[u] == g.labels[w]
    for k, v in enumerate(g.vertices):
        # a vertex locates to itself, unless an earlier face contains the
        # same point, in which case it locates into the same component
        u = locate_vertex(g, v.representative, g.faces[v.face].lam)
        assert u == k or g.vertices[u].face < v.face
        assert g.labels[u] == g.labels[k]
    # every sampled intersection point lies in a component of both faces
    for i, j in itertools.combinations(range(len(g.faces)), 2):
        region, mu = intersection_region(g.faces[i], g.faces[j])
        for z in sample_components(region, cfg):
            x = embed(mu, z)
            for f in (i, j):
                assert _face_classes(g.resolutions[f], g.faces[f].lam, x)
            u = locate_vertex(g, x, mu)
            assert g.vertices[u].face <= i


def test_two_interval_example():
    g = build_union_graph(two_intervals())
    assert [v.face for v in g.vertices] == [0, 1]
    assert 0 <= g.vertices[0].representative[0] <= 2
    assert 1 <= g.vertices[1].representative[0] <= 3
    assert g.edges == ((0, 1),)
    assert g.component_count == 1
    check_invariants(g)


def test_disjoint_faces_have_no_edges():
    g = build_union_graph([interval_face(0, 1), interval_face(2, 3)])
    assert len(g.vertices) == 2
    assert g.edges == ()
    assert g.labels == (0, 1)
    assert g.component_count == 2
    check_invariants(g)


def test_equal_faces_glue():
    g = build_union_graph([interval_face(0, 2), interval_face(0, 2)])
    assert len(g.vertices) == 2
    assert g.edges == ((0, 1),)
    assert g.component_count == 1
    check_invariants(g)


def test_single_face_has_isolated_vertices():
    x = ExpandedPoly.variable(1, 1)
    face = FaceSystem(
        lam=composition((1,)),
        n=1,
        constraints=((x * x - 1, Relation.GE),),
        box=((F(-2),), (F(2),)),
    )
    g = build_union_graph([face])
    assert len(g.vertices) == 2
    assert all(v.face == 0 for v in g.vertices)
    assert g.edges == ()
    assert g.component_count == 2
    check_invariants(g)


def test_faces_must_share_the_box():
    # the region where two faces meet lies in the box they share
    with pytest.raises(DomainError, match="the box"):
        build_union_graph([interval_face(0, 2), interval_face(1, 3, hi=8)])


def test_edges_are_bipartite():
    # components of one face never meet, so every edge joins two faces
    g = build_union_graph([interval_face(0, 2), interval_face(1, 3), interval_face(5, 6)])
    assert [(g.vertices[u].face, g.vertices[w].face) for u, w in g.edges] == [(0, 1)]
    assert g.component_count == 2


def test_build_is_deterministic():
    g1 = build_union_graph(two_intervals())
    g2 = build_union_graph(two_intervals())
    assert g1.vertices == g2.vertices
    assert g1.edges == g2.edges
    assert g1.labels == g2.labels


def test_locate_difference_point():
    g = build_union_graph(two_intervals())
    assert locate_vertex(g, (F(1, 2),), composition((1,))) == 0
    assert locate_vertex(g, (F(5, 2),), composition((1,))) == 1


def test_locate_intersection_point_takes_first_face():
    g = build_union_graph(two_intervals())
    assert locate_vertex(g, (F(3, 2),), composition((1,))) == 0


def test_locate_stored_representative():
    g = build_union_graph(two_intervals())
    for k, v in enumerate(g.vertices):
        u = locate_vertex(g, v.representative, composition((1,)))
        assert g.labels[u] == g.labels[k]


def two_piece_face(lo=-1, hi=9):
    # -x (x - 1)(x - 4)(x - 5) >= 0: the intervals [0, 1] and [4, 5]
    x = ExpandedPoly.variable(1, 1)
    g = (x * (x - 1) * (x - 4) * (x - 5)).scale(-1)
    return FaceSystem(
        lam=composition((1,)), n=1, constraints=((g, Relation.GE),), box=((F(lo),), (F(hi),))
    )


def test_glue_picks_the_component_that_meets():
    # [9/2, 7] meets only the second component of the two-piece face
    g = build_union_graph([interval_face(F(9, 2), 7), two_piece_face()])
    assert [v.face for v in g.vertices] == [0, 1, 1]
    assert g.edges == ((0, 2),)
    assert g.labels == (0, 1, 0)
    check_invariants(g)


def test_locate_needs_the_point_inside_the_face():
    # 8 (3 - x) >= 0 misses x = 16/5 by more than the query slack, though
    # the cell next to x's cell is feasible
    x = ExpandedPoly.variable(1, 1)
    face = FaceSystem(
        lam=composition((1,)),
        n=1,
        constraints=((x.scale(-8) + 24, Relation.GE),),
        box=((F(-1),), (F(9),)),
    )
    g = build_union_graph([face])
    assert locate_vertex(g, (F(3),), composition((1,))) == 0
    with pytest.raises(LocateFailure):
        locate_vertex(g, (F(16, 5),), composition((1,)))


def test_locate_failure_carries_advice():
    g = build_union_graph(two_intervals())
    with pytest.raises(LocateFailure) as e:
        locate_vertex(g, (F(7, 2),), composition((1,)))
    assert "refine" in e.value.advice


def ball3():
    z2 = PowerSumPoly(2, {(0, 1): F(-1), (0, 0): F(1)})
    return SymmetricSystem(
        n=3, d=2, constraints=(Constraint(z2, Relation.GE),), box=make_box(3, -2, 2)
    )


def cross_faces():
    sys = ball3()
    return [restrict(sys, (2, 1)), restrict(sys, (1, 2))]


def test_cross_composition_graph_shape():
    g = build_union_graph(cross_faces())
    assert [v.face for v in g.vertices] == [0, 1]
    # the intersection lives on the join face (3), the diagonal, which
    # lies in both faces
    region, mu = intersection_region(*cross_faces())
    assert mu.parts == (3,)
    assert len(sample_components(region, g.cfg)) == 1
    assert g.edges == ((0, 1),)
    assert g.component_count == 1
    check_invariants(g)
    # neither face contains the other, so every vertex locates to itself
    for k, v in enumerate(g.vertices):
        assert locate_vertex(g, v.representative, g.faces[v.face].lam) == k


def test_build_resolves_each_region_once():
    # one lookup per face region and per region where two faces meet
    faces = [restrict(ball_d4(6), lam) for lam in extremal_compositions(6, 4)]
    assert len(faces) == 3
    oracle._resolve_cached.cache_clear()
    build_union_graph(faces, OracleConfig(h=F(1, 4), max_depth=1))
    info = oracle._resolve_cached.cache_info()
    assert info.hits + info.misses == len(faces) + math.comb(len(faces), 2)


def test_locate_in_cross_composition_graph():
    g = build_union_graph(cross_faces())
    assert locate_vertex(g, (F(-1, 2), F(-1, 2), F(0)), composition((2, 1))) == 0
    assert locate_vertex(g, (F(-1, 2), F(0), F(0)), composition((1, 2))) == 1
    # a diagonal point lies in both faces; the first one wins
    assert locate_vertex(g, (F(-1, 4), F(-1, 4), F(-1, 4)), composition((3,))) == 0


def test_locate_rejects_bad_points():
    g = build_union_graph(cross_faces())
    with pytest.raises(PreconditionError):
        locate_vertex(g, (F(1), F(0), F(0)), composition((2, 1)))
    with pytest.raises(PreconditionError):
        locate_vertex(g, (F(0), F(0), F(1)), composition((3,)))


def test_face_coordinates_checks_length():
    with pytest.raises(DomainError):
        face_coordinates(composition((2, 1)), (F(0), F(0)))


def merged_interval_count(ivals):
    out = 0
    cur_hi = None
    for lo, hi in sorted(ivals):
        if cur_hi is None or lo > cur_hi:
            out += 1
            cur_hi = hi
        elif hi > cur_hi:
            cur_hi = hi
    return out


def random_intervals(rng, k):
    # keep pairs either solidly overlapping or cleanly separated, so the
    # grid answer is not decided by a measure-zero touching point
    while True:
        ivals = []
        for _ in range(k):
            lo = F(rng.randrange(0, 25), 4)
            ivals.append((lo, lo + F(rng.randrange(2, 9), 4)))
        good = True
        for p, q in itertools.combinations(ivals, 2):
            overlap = min(p[1], q[1]) - max(p[0], q[0])
            if -F(1, 4) < overlap < F(1, 4):
                good = False
        if good:
            return ivals


def test_component_count_matches_interval_arithmetic():
    rng = random.Random(11)
    for _ in range(10):
        k = rng.randrange(2, 5)
        ivals = random_intervals(rng, k)
        faces = [interval_face(lo, hi) for lo, hi in ivals]
        g = build_union_graph(faces)
        assert g.component_count == merged_interval_count(ivals)
        check_invariants(g)


def ball_d4(n):
    poly = PowerSumPoly(4, {(0, 0, 0, 0): F(1), (0, 1, 0, 0): F(-1)})
    return SymmetricSystem(
        n=n, d=4, constraints=(Constraint(poly, Relation.GE),), box=make_box(n, -1, 1)
    )


@pytest.mark.parametrize("n", [5, 6, 7])
def test_d4_ball_graph_invariants(n):
    # 2, 3 and 4 extremal faces whose compositions differ
    sys = ball_d4(n)
    faces = [restrict(sys, lam) for lam in extremal_compositions(n, 4)]
    g = build_union_graph(faces, OracleConfig(h=F(1, 4), max_depth=1))
    assert len(g.faces) == n - 3
    assert g.component_count == 1
    check_invariants(g)
