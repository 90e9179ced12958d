"""Union graph construction, component labels, and vertex lookup."""

import bisect
import itertools
import math
from fractions import Fraction as F

import pytest

from symconn import oracle
from symconn import uniongraph as uniongraph_module
from symconn.compositions import composition, embed, extremal_compositions, join, precedes
from symconn.errors import DomainError, LocateFailure, PreconditionError
from symconn.oracle import (
    OracleConfig,
    Region,
    face_region,
    resolve_region,
    sample_components,
)
from symconn.polynomials import (
    Constraint,
    ExpandedPoly,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
    make_box,
)
from symconn.uniongraph import (
    _face_classes,
    build_union_graph,
    face_coordinates,
    locate_vertex,
)

D4CFG = OracleConfig(h=F(1, 4), max_depth=1)


def check_invariants(sys, g):
    """Properties every union graph must have, whatever its system."""
    cfg = g.cfg
    assert g.faces == tuple(extremal_compositions(sys.n, sys.d))
    res = [resolve_region(face_region(sys, lam), cfg) for lam in g.faces]
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
        u = locate_vertex(g, v.representative, g.faces[v.face])
        assert u == k or g.vertices[u].face < v.face
        assert g.labels[u] == g.labels[k]
    # every sampled point where two faces meet lies in a component of both
    for i, j in itertools.combinations(range(len(g.faces)), 2):
        mu = join(g.faces[i], g.faces[j])
        for z in sample_components(face_region(sys, mu), cfg):
            x = embed(mu, z)
            for f in (i, j):
                assert _face_classes(g.resolutions[f], g.faces[f], x)
            u = locate_vertex(g, x, mu)
            assert g.vertices[u].face <= i


def slab(roots, x):
    """Which of the cuts of p1 at the roots the point x lies between."""
    return bisect.bisect(sorted(roots), sum(x))


def slabs(g, roots):
    return [slab(roots, v.representative) for v in g.vertices]


def split3():
    # p1^2 >= 1 in R^3: two slabs, on the one extremal face (1, 2)
    poly = PowerSumPoly(2, {(2, 0): F(1), (0, 0): F(-1)})
    return SymmetricSystem(
        n=3, d=2, constraints=(Constraint(poly, Relation.GE),), box=make_box(3, -2, 2)
    )


def ball_d4(n):
    poly = PowerSumPoly(4, {(0, 0, 0, 0): F(1), (0, 1, 0, 0): F(-1)})
    return SymmetricSystem(
        n=n, d=4, constraints=(Constraint(poly, Relation.GE),), box=make_box(n, -1, 1)
    )


TWO_SLABS = (1, (-1, 1))  # p1 <= -1 or p1 >= 1
THREE_SLABS = (1, (-3, -1, 1, 3))  # p1 in [-n, -3], [-1, 1] or [3, n]


def test_two_interval_example(slab_system):
    # both faces meet both slabs, and each slab glues across the faces
    c, roots = TWO_SLABS
    sys = slab_system(5, c, roots)
    g = build_union_graph(sys, D4CFG)
    assert [v.face for v in g.vertices] == [0, 0, 1, 1]
    assert slabs(g, roots) == [0, 2, 0, 2]
    assert g.edges == ((0, 2), (1, 3))
    assert g.labels == (0, 1, 0, 1)
    assert g.component_count == 2
    check_invariants(sys, g)


def test_disjoint_faces_have_no_edges(slab_system):
    # components of two faces that lie in different slabs never meet
    c, roots = TWO_SLABS
    sys = slab_system(6, c, roots)
    g = build_union_graph(sys, D4CFG)
    assert len(g.faces) == 3
    where = slabs(g, roots)
    apart = [
        (u, w)
        for u, w in itertools.combinations(range(len(g.vertices)), 2)
        if g.vertices[u].face != g.vertices[w].face and where[u] != where[w]
    ]
    assert len(apart) == 6
    assert not set(apart) & set(g.edges)
    assert g.component_count == 2
    check_invariants(sys, g)


def test_equal_faces_glue(slab_system):
    # |p1| <= 2 is convex: every face has one component, and every two
    # faces meet on their join, which holds the diagonal
    sys = slab_system(6, -1, (-2, 2))
    g = build_union_graph(sys, D4CFG)
    assert [v.face for v in g.vertices] == [0, 1, 2]
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.component_count == 1
    check_invariants(sys, g)


def test_single_face_has_isolated_vertices():
    sys = split3()
    g = build_union_graph(sys)
    assert g.faces == (composition((1, 2)),)
    assert len(g.vertices) == 2
    assert all(v.face == 0 for v in g.vertices)
    assert g.edges == ()
    assert g.component_count == 2
    check_invariants(sys, g)


def test_edges_are_bipartite(slab_system):
    # components of one face never meet, so every edge joins two faces
    c, roots = THREE_SLABS
    sys = slab_system(6, c, roots)
    g = build_union_graph(sys, D4CFG)
    assert len(g.edges) == 9
    assert all(g.vertices[u].face != g.vertices[w].face for u, w in g.edges)
    assert g.component_count == 3
    check_invariants(sys, g)


def test_build_is_deterministic(slab_system):
    sys = slab_system(5, *TWO_SLABS)
    g1 = build_union_graph(sys, D4CFG)
    oracle._resolve_cached.cache_clear()
    g2 = build_union_graph(sys, D4CFG)
    assert g1.vertices == g2.vertices
    assert g1.edges == g2.edges
    assert g1.labels == g2.labels


def test_locate_difference_point():
    # a point on one face only is located on that face
    g = build_union_graph(ball_d4(5), D4CFG)
    assert g.faces == (composition((1, 1, 1, 2)), composition((1, 2, 1, 1)))
    x0 = (F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 4))
    x1 = (F(-1, 2), F(-1, 4), F(-1, 4), F(0), F(1, 4))
    assert locate_vertex(g, x0, g.faces[0]) == 0
    assert locate_vertex(g, x1, g.faces[1]) == 1


def test_locate_intersection_point_takes_first_face():
    # a point on the join (1, 2, 2) lies in both faces; the first one wins
    g = build_union_graph(ball_d4(5), D4CFG)
    x = (F(-1, 2), F(0), F(0), F(1, 4), F(1, 4))
    assert all(_face_classes(r, lam, x) for r, lam in zip(g.resolutions, g.faces))
    assert locate_vertex(g, x, composition((1, 2, 2))) == 0


def test_locate_stored_representative(slab_system):
    c, roots = THREE_SLABS
    g = build_union_graph(slab_system(5, c, roots), D4CFG)
    for k, v in enumerate(g.vertices):
        u = locate_vertex(g, v.representative, g.faces[v.face])
        assert g.labels[u] == g.labels[k]


def test_glue_picks_the_component_that_meets(slab_system):
    # each face has one component per slab; an edge joins the two that
    # lie in the same slab, never two from different slabs
    c, roots = THREE_SLABS
    sys = slab_system(5, c, roots)
    g = build_union_graph(sys, D4CFG)
    where = slabs(g, roots)
    assert [v.face for v in g.vertices] == [0, 0, 0, 1, 1, 1]
    assert sorted(where[:3]) == sorted(where[3:]) == [0, 2, 4]
    assert len(g.edges) == 3
    assert all(where[u] == where[w] for u, w in g.edges)
    assert all((g.labels[u] == g.labels[w]) == (where[u] == where[w])
               for u, w in itertools.combinations(range(len(g.vertices)), 2))
    check_invariants(sys, g)


def test_locate_needs_the_point_inside_the_face():
    # 8 (3 - z) >= 0 on [-1, 9], final pitch 1/4.  z = 3 passes it, and
    # its own cell [3, 13/4] fails at the center, so it is bridged to the
    # feasible cell next to it.  z = 16/5 misses it by more than the query
    # slack, though the cell next to its cell is feasible.
    z = ExpandedPoly.variable(1, 1)
    region = Region(dim=1, requires=((z.scale(-8) + 24, Relation.GE),), box=((F(-1),), (F(9),)))
    res = resolve_region(region, OracleConfig())
    assert res.h == F(1, 4)
    assert res.point_classes((F(25, 8),)) == frozenset({0})
    assert _face_classes(res, composition((1,)), (F(3),)) == frozenset({0})
    assert _face_classes(res, composition((1,)), (F(16, 5),)) == frozenset()


def test_locate_failure_carries_advice(slab_system):
    # the origin has p1 = 0, between the two slabs
    g = build_union_graph(slab_system(5, *TWO_SLABS), D4CFG)
    with pytest.raises(LocateFailure) as e:
        locate_vertex(g, (F(0),) * 5, composition((5,)))
    assert "refine" in e.value.advice


def test_cross_composition_graph_shape():
    sys = ball_d4(5)
    g = build_union_graph(sys, D4CFG)
    lam, mu = g.faces
    assert not precedes(lam, mu) and not precedes(mu, lam)
    assert [v.face for v in g.vertices] == [0, 1]
    # the faces meet on their join (1, 2, 2), which lies in both
    nu = join(lam, mu)
    assert nu.parts == (1, 2, 2)
    assert len(sample_components(face_region(sys, nu), g.cfg)) == 1
    assert g.edges == ((0, 1),)
    assert g.component_count == 1
    check_invariants(sys, g)
    # neither face contains the other, so every vertex locates to itself
    for k, v in enumerate(g.vertices):
        assert locate_vertex(g, v.representative, g.faces[v.face]) == k


def test_build_resolves_each_region_once(calls):
    # one lookup per face region and per region where two faces meet,
    # which is the face region of their join
    sys = ball_d4(6)
    faces = extremal_compositions(6, 4)
    assert len(faces) == 3
    resolved = calls(uniongraph_module, "resolve_region")
    oracle._resolve_cached.cache_clear()
    build_union_graph(sys, D4CFG)
    info = oracle._resolve_cached.cache_info()
    assert info.hits + info.misses == len(faces) + math.comb(len(faces), 2)
    assert [region for region, _cfg in resolved] == [
        face_region(sys, lam) for lam in faces
    ] + [face_region(sys, join(lam, mu)) for lam, mu in itertools.combinations(faces, 2)]


def test_locate_in_cross_composition_graph(slab_system):
    # a point is located on a face that contains its home face, in the
    # component of its own slab
    c, roots = TWO_SLABS
    g = build_union_graph(slab_system(6, c, roots), D4CFG)
    quarter = [F(k, 4) for k in (-4, -4, -4, -4, -2, 0)]
    points = [
        (quarter, (4, 1, 1)),
        ([F(-1, 2)] * 6, (6,)),
        ([-q for q in reversed(quarter)], (1, 1, 4)),
        ([F(1, 2)] * 6, (6,)),
    ]
    for x, home in points:
        home = composition(home)
        u = locate_vertex(g, x, home)
        assert precedes(g.faces[g.vertices[u].face], home)
        same = [k for k, s in enumerate(slabs(g, roots)) if s == slab(roots, x)]
        assert g.labels[u] == g.labels[same[0]]


def test_locate_rejects_bad_points():
    g = build_union_graph(ball_d4(5), D4CFG)
    with pytest.raises(PreconditionError):
        locate_vertex(g, (F(1), F(0), F(0), F(0), F(0)), composition((1, 1, 1, 2)))
    with pytest.raises(PreconditionError):
        locate_vertex(g, (F(0), F(0), F(0), F(0), F(1, 2)), composition((5,)))


def test_face_coordinates_checks_length():
    with pytest.raises(DomainError):
        face_coordinates(composition((2, 1)), (F(0), F(0)))


def test_component_count_matches_interval_arithmetic(random_slab_systems):
    for sys, _roots, components in random_slab_systems(11, 6):
        g = build_union_graph(sys, D4CFG)
        assert g.component_count == components
        check_invariants(sys, g)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_d4_ball_graph_invariants(n):
    # 2, 3 and 4 extremal faces whose compositions differ
    sys = ball_d4(n)
    g = build_union_graph(sys, D4CFG)
    assert len(g.faces) == n - 3
    assert g.component_count == 1
    check_invariants(sys, g)
