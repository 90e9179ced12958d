"""End-to-end checks for the engine's connectivity deciders."""

import json
import pathlib
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

import symconn.engine as engine_module
from symconn.compositions import composition, merge_at_wall
from symconn.engine import Engine, get_engine
from symconn.errors import DomainError, LocateFailure, PreconditionError
from symconn.oracle import OracleConfig, face_region, sample_components
from symconn.polynomials import (
    Constraint,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
    make_box,
    restrict,
    vandermonde_map,
)
from symconn.problemfile import build_config, parse_problem
from symconn.realroots import AlgebraicPoint, UniPoly, real_roots
from symconn.uniongraph import intersection_region, locate_vertex
from symconn.vandermonde import min_canonical

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def ball3():
    # p2 <= 1 in R^3
    poly = PowerSumPoly(2, {(0, 0): F(1), (0, 1): F(-1)})
    return SymmetricSystem(
        n=3, d=2, constraints=(Constraint(poly, Relation.GE),), box=make_box(3, -2, 2)
    )


def split3():
    # p1^2 >= 1 in R^3, two slabs of opposite sign
    poly = PowerSumPoly(2, {(2, 0): F(1), (0, 0): F(-1)})
    return SymmetricSystem(
        n=3, d=2, constraints=(Constraint(poly, Relation.GE),), box=make_box(3, -2, 2)
    )


def circle(cap):
    # p2 = 1 in R^2 with p1^2 <= cap
    onsphere = PowerSumPoly(2, {(0, 1): F(1), (0, 0): F(-1)})
    band = PowerSumPoly(2, {(0, 0): F(cap), (2, 0): F(-1)})
    return SymmetricSystem(
        n=2,
        d=2,
        constraints=(
            Constraint(onsphere, Relation.EQ),
            Constraint(band, Relation.GE),
        ),
        box=make_box(2, -2, 2),
    )


EQCFG = OracleConfig(eq_delta=F(1, 8))

ARC_X = (F(-4, 5), F(3, 5))
ARC_Y = (F(3, 5), F(-4, 5))


def test_ball_orbit_connected():
    v = Engine(ball3()).canonical((0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    assert v.connected
    assert bool(v)


def test_split_opposite_signs_disconnected():
    v = Engine(split3()).canonical((1, 1, 1), (-1, -1, -1))
    assert not v.connected
    assert not bool(v)


def test_split_same_slab_connected():
    v = Engine(split3()).canonical((1, 1, 1), (F(9, 10), 1, F(11, 10)))
    assert v.connected


def test_same_point_trivially_connected():
    y = (F(-1, 2), 0, F(1, 2))
    assert Engine(ball3()).canonical(y, y).connected


def test_unsorted_x_rejected():
    with pytest.raises(PreconditionError, match="weakly increasing"):
        Engine(ball3()).canonical((1, 0, 0), (0, 0, 0))


def test_infeasible_point_names_constraint():
    with pytest.raises(PreconditionError, match="constraint 1"):
        Engine(ball3()).canonical((0, 0, 0), (1, 1, 1))


def test_point_outside_box_rejected():
    with pytest.raises(PreconditionError, match="box"):
        Engine(ball3()).canonical((0, 0, 0), (-3, 0, 0))


def test_wrong_length_rejected():
    with pytest.raises(PreconditionError, match="coordinates"):
        Engine(ball3()).canonical((0, 0), (0, 0, 0))


def test_wall_narrow_arcs_unreachable():
    v = Engine(circle(F(1, 2)), EQCFG).wall(ARC_X, 1)
    assert not v.connected
    assert v.certificate["trials"] == []
    assert v.certificate["witness"] is None


def test_wall_wide_arcs_reachable():
    v = Engine(circle(3), EQCFG).wall(ARC_X, 1)
    assert v.connected
    assert v.certificate["witness"] is not None
    rep = [F(s) for s in v.certificate["witness"]["representative"]]
    assert rep[0] == rep[1]


def test_wall_solves_only_the_fiber_of_x(calls):
    # trials are located where they lie on the graph, so a wall query on a
    # fresh engine solves one fiber, x's, however many trials it runs
    solves = calls(engine_module, "min_canonical")
    x = (F(1), F(1), F(1))
    v = Engine(split3()).wall(x, 1)
    assert len(v.certificate["trials"]) >= 2
    assert [a for _n, _d, a in solves] == [vandermonde_map(x, 2)]


@pytest.mark.parametrize(
    "make,x,cfg",
    [
        (ball3, (0, 0, 0), None),
        (split3, (1, 1, 1), None),
        (lambda: circle(3), ARC_X, EQCFG),
    ],
    ids=["ball3", "split3", "circle3"],
)
def test_wall_trial_vertex_holds_its_representative(make, x, cfg):
    eng = Engine(make(), cfg)
    g = eng.graph()
    trials = 0
    for i in range(1, eng.sys.n):
        c = eng.wall(x, i).certificate
        for t in c["trials"]:
            rep = [F(s) for s in t["representative"]]
            assert locate_vertex(g, rep, composition(t["face"])) == t["vertex"]
            assert g.labels[t["vertex"]] == t["component"]
            assert t["connected"] == (t["component"] == c["x_canonical"]["vertex"]["component"])
            trials += 1
        if c["witness"] is not None:
            assert c["witness"]["vertex"]["component"] == c["x_canonical"]["vertex"]["component"]
    assert trials >= 2


def test_wall_index_out_of_range():
    with pytest.raises(PreconditionError, match="wall index"):
        Engine(ball3()).wall((0, 0, 0), 3)


@pytest.mark.parametrize("i", [1.5, 1.0, True, "1"])
def test_wall_index_must_be_an_int(i):
    eng = Engine(ball3())
    x = (F(-1, 4), 0, F(1, 4))
    with pytest.raises(PreconditionError, match="must be an int"):
        eng.wall(x, i)
    # a rejected index leaves nothing behind for the int query
    assert eng.wall(x, 1).certificate["wall"] == 1


def test_float_coordinates_rejected():
    eng = Engine(ball3())
    with pytest.raises(DomainError, match="must be exact"):
        eng.symmetric((0.1, 0.2, 0.3), (0.3, 0.1, 0.2))
    with pytest.raises(DomainError, match="must be exact"):
        eng.wall((F(-1, 4), 0, 0.25), 1)
    # integral floats are exact, as in problem files and OracleConfig
    assert eng.canonical((-1.0, 0.0, 0.0), (-1, 0, 0)).certificate["x"] == ["-1", "0", "0"]


def test_wall_verdict_memoized():
    eng = Engine(circle(3), EQCFG)
    a = eng.wall(ARC_X, 1)
    b = eng.wall(ARC_X, 1)
    assert a is b


def test_arcs_orbit_connected_but_set_disconnected():
    # sorted copies coincide, yet the swap needs a wall the set never reaches
    narrow = circle(F(1, 2))
    sorted_y = tuple(sorted(ARC_Y))
    eng = Engine(narrow, EQCFG)
    assert eng.canonical(ARC_X, sorted_y).connected
    v = eng.symmetric(ARC_X, ARC_Y)
    assert not v.connected
    assert v.certificate["word"] == [1]
    assert v.certificate["orbit"]["connected"]
    assert not v.certificate["walls"]["1"]["connected"]


def test_arcs_wide_symmetric_connected():
    v = Engine(circle(3), EQCFG).symmetric(ARC_X, ARC_Y)
    assert v.connected


def test_sorted_y_needs_no_walls():
    v = Engine(ball3()).symmetric((0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    assert v.connected
    assert v.certificate["word"] == []
    assert v.certificate["walls"] == {}


def test_symmetric_unsorted_same_slab():
    v = Engine(split3()).symmetric((1, 1, 1), (F(11, 10), 1, F(9, 10)))
    assert v.connected
    assert set(v.certificate["word"]) == {1, 2}


def test_symmetric_orbit_failure_short_circuits():
    v = Engine(split3()).symmetric((1, 1, 1), (-1, -1, -1))
    assert not v.connected
    assert v.certificate["walls"] == {}


def test_certificate_replay_is_identical():
    a = Engine(circle(3), EQCFG).symmetric(ARC_X, ARC_Y)
    b = Engine(circle(3), EQCFG).symmetric(ARC_X, ARC_Y)
    assert a.connected == b.connected
    assert a.certificate == b.certificate


def test_graph_summary_built_once():
    eng = Engine(ball3())
    a = eng.canonical((0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    b = eng.wall((0, 0, 0), 1)
    assert a.certificate["graph"] is b.certificate["graph"] is eng._graph_json()
    assert Engine(ball3())._graph_json() == a.certificate["graph"]
    # the config, the face list and x's canonical record are shared alike
    c = eng.symmetric((0, 0, 0), (F(1, 2), 0, F(-1, 2))).certificate
    assert a.certificate["config"] is b.certificate["config"] is c["config"]
    assert a.certificate["faces"] is c["orbit"]["faces"]
    assert a.certificate["x_canonical"] is b.certificate["x_canonical"]


def test_certificate_is_json_ready():
    v = Engine(circle(3), EQCFG).symmetric(ARC_X, ARC_Y)
    text = json.dumps(v.certificate)
    back = json.loads(text)
    assert back["connected"] is True
    assert back["kind"] == "symmetric"


def test_orbit_certificate_structure():
    v = Engine(ball3()).canonical((0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    c = v.certificate
    assert c["kind"] == "orbit"
    assert c["faces"] == [[1, 2]]
    assert c["x_canonical"]["type"] == [3]
    assert c["y_canonical"]["face"] == [1, 2]
    assert c["x_canonical"]["vertex"]["set"] == 1
    for entry in c["graph"]["resolutions"]:
        assert entry["stabilized"] is True


def test_get_engine_builds_a_new_engine():
    # the caller owns each engine; nothing is kept between calls
    a, b = get_engine(ball3(), EQCFG), get_engine(ball3(), EQCFG)
    assert a is not b
    assert (a.sys, a.cfg) == (b.sys, b.cfg) == (ball3(), EQCFG)


@pytest.mark.parametrize("h", [1, F(1), 1.0], ids=["int", "fraction", "float"])
def test_int_or_float_pitch_builds_exact_grids(h):
    # the pitch is stored as a Fraction, so its halves stay exact, and an
    # int pitch never leaves float grids in the region cache for F(1)
    arcs = parse_problem((FIXTURES / "circle-arcs.json").read_bytes()).system
    for sys_ in (arcs, ball3()):
        g = Engine(sys_, OracleConfig(h=h)).graph()
        assert all(type(r.h) is F for r in g.resolutions)


def split3_fixture_engine():
    pf = parse_problem((FIXTURES / "split3.json").read_bytes())
    return Engine(pf.system, build_config(pf.config))


def test_locate_failure_from_box_clamp_names_the_box():
    # y lies inside the box, but its canonical point on face (1, 2) has
    # x1 ~ -3.017; clamped to x1 = -2 it fails p1^2 >= 1
    y = (-2, F(-3, 2), 2)
    eng = split3_fixture_engine()
    with pytest.raises(LocateFailure) as err:
        eng.symmetric(y, y)
    assert "x1 ~ -3.01661" in str(err.value)
    assert "box bound -2" in str(err.value)
    assert "refine the oracle grid" not in str(err.value)


def test_box_clamp_alone_is_not_an_error():
    # this canonical point leaves the box too (x1 ~ -2.167), but its
    # clamped stand-in still locates, so the query is answered
    y = (-2, -2, F(-3, 2))
    eng = split3_fixture_engine()
    assert eng._canonical(vandermonde_map(y, eng.sys.d))["clamped"]
    assert eng.symmetric(y, y).connected


def d4_system(n, *polys):
    # every poly >= 0 on [-1, 1]^n, with polys given as {(e1, e2, e3, e4): c}
    cons = tuple(Constraint(PowerSumPoly(4, p), Relation.GE) for p in polys)
    return SymmetricSystem(n=n, d=4, constraints=cons, box=make_box(n, -1, 1))


BALL4 = {(0, 0, 0, 0): F(1), (0, 1, 0, 0): F(-1)}
D4CFG = OracleConfig(h=F(1, 4), max_depth=1)


@pytest.mark.parametrize(
    "n,shape", [(5, (2, 2, 1, 1)), (6, (3, 3, 3, 1)), (7, (4, 4, 6, 1))]
)
def test_ball_d4_union_graph_glues_faces(n, shape):
    # 1 - p2 >= 0 with d = 4 has several extremal faces; the ball is
    # convex, so the glued union graph has a single component
    g = Engine(d4_system(n, BALL4), D4CFG).graph()
    assert (len(g.faces), len(g.vertices), len(g.edges), g.component_count) == shape


@pytest.mark.parametrize("n", [5, 6, 7])
def test_ball_d4_intersection_is_the_join_face_region(n):
    # two faces of one system restrict the same constraint, so their
    # intersection region is the join face's own region, each atom once
    sys = d4_system(n, BALL4)
    faces = Engine(sys, D4CFG).faces()
    for k, fi in enumerate(faces):
        for fj in faces[k + 1 :]:
            region, mu = intersection_region(fi, fj)
            assert region == face_region(restrict(sys, mu))


def test_ball_d4_union_graph_at_default_depth():
    # every face region of the ball stabilizes at the first refinement
    eng = Engine(d4_system(5, BALL4))
    g = eng.graph()
    assert (len(g.faces), len(g.vertices), len(g.edges), g.component_count) == (2, 2, 1, 1)
    assert all(r["stabilized"] for r in eng._graph_json()["resolutions"])


D4_SYSTEMS = {
    "ball": (BALL4,),
    "shell": (BALL4, {(0, 1, 0, 0): F(1), (0, 0, 0, 0): F(-1, 4)}),
    "split": (BALL4, {(2, 0, 0, 0): F(1), (0, 0, 0, 0): F(-1, 4)}),
    "p4-below-p2sq": ({(0, 0, 0, 1): F(-2), (0, 2, 0, 0): F(1), (0, 0, 0, 0): F(-1, 8)},),
    "p4-above-p2sq": ({(0, 0, 0, 1): F(1), (0, 2, 0, 0): F(-1, 4), (0, 0, 0, 0): F(-1, 16)},),
}


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("name", sorted(D4_SYSTEMS))
def test_d4_graph_components_match_sorted_slice(name, n):
    # the glued face graph must count the components of the whole sorted
    # slice, which the grid on the (1, ..., 1) face samples directly
    sys = d4_system(n, *D4_SYSTEMS[name])
    g = Engine(sys, D4CFG).graph()
    assert len(g.faces) >= 2
    slice_reps = sample_components(face_region(restrict(sys, (1,) * n)), D4CFG)
    assert g.component_count == len(slice_reps)
    if name == "split":
        assert g.component_count == 2


def test_ball_d4_orbit_query():
    # the first d = 4 orbit query: y's fiber is solved on the (1, 2, 1, 1)
    # face, and the convex ball joins it to the origin
    n = 5
    poly = PowerSumPoly(4, {(0, 0, 0, 0): F(1), (0, 1, 0, 0): F(-1)})
    sys = SymmetricSystem(
        n=n, d=4, constraints=(Constraint(poly, Relation.GE),), box=make_box(n, -1, 1)
    )
    eng = Engine(sys, OracleConfig(h=F(1, 4), max_depth=1))
    v = eng.canonical((0,) * 5, (F(-1, 2), 0, 0, 0, F(1, 2)))
    assert v.connected
    assert v.certificate["y_canonical"]["face"] == [1, 2, 1, 1]


def test_ball_d4_wall_query(calls):
    # sorting y crosses walls 1 to 4; each is decided by one trial located
    # on the graph, and the convex ball reaches all of them.  Only x and
    # the sorted y have their fibers solved
    solves = calls(engine_module, "min_canonical")
    eng = Engine(d4_system(5, BALL4), D4CFG)
    v = eng.symmetric((0,) * 5, (F(1, 2), 0, 0, 0, F(-1, 2)))
    assert v.connected
    assert sum(len(w["trials"]) for w in v.certificate["walls"].values()) == 4
    assert len(solves) == 2


# -- what an engine computes once ----------------------------------------------


def fixture_system(name):
    pf = parse_problem((FIXTURES / f"{name}.json").read_bytes())
    return pf.system, build_config(pf.config)


def query_stream(name, sys_, points=6, queries=20):
    """Seeded (sorted x, shuffled y) pairs over a few feasible lattice points.

    Few points and many queries, so a warm engine meets the same x again,
    other x in the same component, and x in other components.
    """
    rng = random.Random(name)
    lo, hi = sys_.box
    pool = []
    while len(pool) < points:
        p = tuple(sorted(lo[k] + (hi[k] - lo[k]) * F(rng.randint(0, 16), 16) for k in range(sys_.n)))
        if p not in pool and sys_.eval_membership(p)[0]:
            pool.append(p)
    stream = []
    for _ in range(queries):
        x, y = rng.choice(pool), list(rng.choice(pool))
        rng.shuffle(y)
        stream.append((x, tuple(y)))
    return stream


@pytest.mark.parametrize("name", ["ball3", "split3", "cubic3-d3", "blob4-d3"])
def test_warm_engine_certificates_match_fresh_engines(name):
    # every memo of one engine must be keyed finely enough that a stream
    # of queries answers exactly as fresh engines do, certificate included
    sys_, cfg = fixture_system(name)
    warm = Engine(sys_, cfg)
    walls = 0
    for x, y in query_stream(name, sys_):
        got = warm.symmetric(x, y).certificate
        want = Engine(sys_, cfg).symmetric(x, y).certificate
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        walls += len(got["walls"])
    assert walls > 0


def test_wall_faces_are_restricted_sampled_and_located_once(calls):
    # four x from both slabs of split3 ask for wall 1; its merged face is
    # restricted, sampled and located once, and each x is located once
    eng = Engine(split3())
    eng.graph()
    restricts = calls(engine_module, "restrict")
    samples = calls(engine_module, "sample_components")
    locates = calls(engine_module, "locate_vertex")
    xs = [(1, 1, 1), (F(9, 10), 1, F(11, 10)), (-1, -1, -1), (F(-11, 10), -1, F(-9, 10))]
    certs = [eng.wall(x, 1).certificate for x in xs]
    assert {c["x_canonical"]["vertex"]["component"] for c in certs} == {0, 1}
    merged = sorted({tuple(t["face"]) for c in certs for t in c["trials"]})
    assert sorted(lam.parts for _sys, lam in restricts) == merged
    assert len(samples) == len(merged)
    reps = {(tuple(t["face"]), tuple(t["representative"])) for c in certs for t in c["trials"]}
    assert len(locates) == len(xs) + len(reps)


def test_repeated_query_checks_each_point_once(calls):
    # x is checked by symmetric and again by each wall it asks; the box
    # and membership check runs once per distinct point all the same
    eng = Engine(split3())
    checks = calls(SymmetricSystem, "box_contains")
    x, y = (1, 1, 1), (F(11, 10), 1, F(9, 10))
    for _ in range(3):
        assert eng.symmetric(x, y).connected
    counts = Counter(point for _sys, point in checks)
    assert set(counts) == {tuple(map(F, x)), tuple(map(F, y))}
    assert max(counts.values()) == 1


@pytest.mark.parametrize(
    "method,y",
    [("canonical", (F(9, 10), 1, F(11, 10))), ("symmetric", (F(11, 10), 1, F(9, 10)))],
)
def test_power_sums_computed_once_per_point(calls, method, y):
    # the check's power sums key the canonical memo, so the unsorted y of
    # symmetric and its sorted copy share one entry and one computation
    maps = calls(engine_module, "vandermonde_map")
    assert getattr(Engine(split3()), method)((1, 1, 1), y).connected
    assert len(maps) == 2


def test_wall_failure_is_not_memoized_and_faces_are_located_in_order(monkeypatch):
    # the d = 4 ball merges two extremal faces at every wall, and the
    # first merged face already holds a witness for the origin
    x = (0,) * 5
    want = Engine(d4_system(5, BALL4), D4CFG).wall(x, 1).certificate
    eng = Engine(d4_system(5, BALL4), D4CFG)

    def merged_faces(i):
        return list(dict.fromkeys(merge_at_wall(f.lam, i) for f in eng.faces()))

    real = engine_module.locate_vertex

    def failing_on(bad):
        def locate(g, point, lam):
            if lam == bad:
                raise LocateFailure("injected")
            return real(g, point, lam)

        return locate

    # a face the loop never reaches is never located, so it cannot fail
    first, late = merged_faces(1)
    monkeypatch.setattr(engine_module, "locate_vertex", failing_on(late))
    got = eng.wall(x, 1).certificate
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert {tuple(t["face"]) for t in got["trials"]} == {first.parts}
    # a face the loop reaches fails on every call, and heals once it can
    monkeypatch.setattr(engine_module, "locate_vertex", failing_on(merged_faces(2)[0]))
    for _ in range(2):
        with pytest.raises(LocateFailure):
            eng.wall(x, 2)
    monkeypatch.setattr(engine_module, "locate_vertex", real)
    assert eng.wall(x, 2).connected


# -- canonical stand-ins -------------------------------------------------------


def test_stand_in_depends_only_on_the_point():
    # the midpoint of an enclosure 2^-15000 wide has a denominator too long
    # for str(); the floor on the 2^-30 grid is the same from that
    # enclosure and from a fresh one
    t = UniPoly.variable()
    q, one = t**2 - 2, UniPoly.constant(1)
    root = real_roots(q)[1]
    root.refine_to(F(1, 2**15000))
    fine = AlgebraicPoint(q, one, (t,), ((1, 1),), enclosures=((root.poly, root.lo, root.hi),))
    fresh = AlgebraicPoint(q, one, (t,), ((1, 1),))
    for pt in (fine, fresh):
        rational, runs, clamped = engine_module._rational_embedding(pt, make_box(1, -2, 2))
        assert engine_module._point_json(rational) == ["1518500249/1073741824"]
        assert runs == (1,) and clamped == []


def stand_in_points():
    """Embedded canonical points of seeded fibers, and two runs 2^-50 apart."""
    rng = random.Random(53)
    pts = []
    for n, d, count in ((3, 2, 4), (4, 3, 4), (5, 3, 4), (5, 4, 1)):
        for _ in range(count):
            x = sorted(F(rng.randint(-8, 8), 8) for _ in range(n))
            pts.append(min_canonical(n, d, vandermonde_map(x, d)).embedded_point())
    t = UniPoly.variable()
    close = (t, t, t + F(1, 2**50))
    pts.append(AlgebraicPoint(t**2 - 2, UniPoly.constant(1), close, ((1, 1),) * 3))
    return pts


def test_stand_in_is_the_floor_on_a_separating_grid(coordinate_sign):
    finest = 0
    for pt in stand_in_points():
        rational, runs, clamped = engine_module._rational_embedding(pt, make_box(pt.dim, -9, 9))
        assert clamped == []
        # the grid 2^-m is the coarsest of 2^-30, 2^-38, ... holding every run value
        m = 30
        while any((c * 2**m).denominator != 1 for c in rational):
            m += 8
        finest = max(finest, m)
        starts = [sum(runs[:k]) for k in range(len(runs))]
        for s, r in zip(starts, runs):
            c = rational[s]
            assert set(rational[s:s + r]) == {c}
            assert coordinate_sign(pt, s, offset=c) >= 0
            assert coordinate_sign(pt, s, offset=c + F(1, 2**m)) < 0
        assert all(rational[a] < rational[b] for a, b in zip(starts, starts[1:]))
    assert finest > 30


def test_lattice_stand_ins_are_the_points_themselves():
    # every feasible sorted point of cubic3-d3's pitch-1/4 lattice is its
    # own canonical point, and a dyadic point is its own floor
    eng = Engine(*fixture_system("cubic3-d3"))
    axis = [F(k, 4) for k in range(-8, 9)]
    seen = 0
    for x in combinations_with_replacement(axis, 3):
        try:
            xs, a = eng._check_point(x, "x")
        except PreconditionError:
            continue
        assert eng._canonical(a)["rational"] == xs
        seen += 1
    assert seen > 300
