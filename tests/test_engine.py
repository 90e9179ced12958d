"""End-to-end checks for the three connectivity deciders."""

import json
from fractions import Fraction as F

import pytest

import symconn.engine as engine_module
from symconn.compositions import composition
from symconn.engine import (
    Engine,
    connected_wall,
    connectivity_symmetric,
    connectivity_symmetric_canonical,
    get_engine,
)
from symconn.errors import PreconditionError
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
from symconn.uniongraph import locate_vertex


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
    v = connectivity_symmetric_canonical(ball3(), (0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    assert v.connected
    assert bool(v)


def test_split_opposite_signs_disconnected():
    v = connectivity_symmetric_canonical(split3(), (1, 1, 1), (-1, -1, -1))
    assert not v.connected
    assert not bool(v)


def test_split_same_slab_connected():
    v = connectivity_symmetric_canonical(split3(), (1, 1, 1), (F(9, 10), 1, F(11, 10)))
    assert v.connected


def test_same_point_trivially_connected():
    y = (F(-1, 2), 0, F(1, 2))
    assert connectivity_symmetric_canonical(ball3(), y, y).connected


def test_unsorted_x_rejected():
    with pytest.raises(PreconditionError, match="weakly increasing"):
        connectivity_symmetric_canonical(ball3(), (1, 0, 0), (0, 0, 0))


def test_infeasible_point_names_constraint():
    with pytest.raises(PreconditionError, match="constraint 1"):
        connectivity_symmetric_canonical(ball3(), (0, 0, 0), (1, 1, 1))


def test_point_outside_box_rejected():
    with pytest.raises(PreconditionError, match="box"):
        connectivity_symmetric_canonical(ball3(), (0, 0, 0), (-3, 0, 0))


def test_wrong_length_rejected():
    with pytest.raises(PreconditionError, match="coordinates"):
        connectivity_symmetric_canonical(ball3(), (0, 0), (0, 0, 0))


def test_wall_narrow_arcs_unreachable():
    v = connected_wall(circle(F(1, 2)), ARC_X, 1, cfg=EQCFG)
    assert not v.connected
    assert v.certificate["trials"] == []
    assert v.certificate["witness"] is None


def test_wall_wide_arcs_reachable():
    v = connected_wall(circle(3), ARC_X, 1, cfg=EQCFG)
    assert v.connected
    assert v.certificate["witness"] is not None
    rep = [F(s) for s in v.certificate["witness"]["representative"]]
    assert rep[0] == rep[1]


@pytest.fixture
def fiber_solves(monkeypatch):
    """The fibers the engine hands to min_canonical, in call order."""
    solved = []
    real = engine_module.min_canonical

    def counted(n, d, a, **kwargs):
        solved.append(a)
        return real(n, d, a, **kwargs)

    monkeypatch.setattr(engine_module, "min_canonical", counted)
    return solved


def test_wall_solves_only_the_fiber_of_x(fiber_solves):
    # trials are located where they lie on the graph, so a wall query on a
    # fresh engine solves one fiber, x's, however many trials it runs
    x = (F(1), F(1), F(1))
    v = Engine(split3()).wall(x, 1)
    assert len(v.certificate["trials"]) >= 2
    assert fiber_solves == [vandermonde_map(x, 2)]


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
        connected_wall(ball3(), (0, 0, 0), 3)


def test_wall_verdict_memoized():
    eng = get_engine(circle(3), cfg=EQCFG)
    a = eng.wall(ARC_X, 1)
    b = eng.wall(ARC_X, 1)
    assert a is b


def test_arcs_orbit_connected_but_set_disconnected():
    # sorted copies coincide, yet the swap needs a wall the set never reaches
    narrow = circle(F(1, 2))
    sorted_y = tuple(sorted(ARC_Y))
    assert connectivity_symmetric_canonical(narrow, ARC_X, sorted_y, cfg=EQCFG).connected
    v = connectivity_symmetric(narrow, ARC_X, ARC_Y, cfg=EQCFG)
    assert not v.connected
    assert v.certificate["word"] == [1]
    assert v.certificate["orbit"]["connected"]
    assert not v.certificate["walls"]["1"]["connected"]


def test_arcs_wide_symmetric_connected():
    v = connectivity_symmetric(circle(3), ARC_X, ARC_Y, cfg=EQCFG)
    assert v.connected


def test_sorted_y_needs_no_walls():
    v = connectivity_symmetric(ball3(), (0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    assert v.connected
    assert v.certificate["word"] == []
    assert v.certificate["walls"] == {}


def test_symmetric_unsorted_same_slab():
    v = connectivity_symmetric(split3(), (1, 1, 1), (F(11, 10), 1, F(9, 10)))
    assert v.connected
    assert set(v.certificate["word"]) == {1, 2}


def test_symmetric_orbit_failure_short_circuits():
    v = connectivity_symmetric(split3(), (1, 1, 1), (-1, -1, -1))
    assert not v.connected
    assert v.certificate["walls"] == {}


def test_certificate_replay_is_identical():
    a = connectivity_symmetric(circle(3), ARC_X, ARC_Y, cfg=EQCFG)
    b = connectivity_symmetric(circle(3), ARC_X, ARC_Y, cfg=EQCFG)
    assert a.connected == b.connected
    assert a.certificate == b.certificate


def test_graph_summary_built_once():
    eng = Engine(ball3())
    a = eng.canonical((0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    b = eng.wall((0, 0, 0), 1)
    assert a.certificate["graph"] is b.certificate["graph"] is eng._graph_json()
    assert Engine(ball3())._graph_json() == a.certificate["graph"]


def test_certificate_is_json_ready():
    v = connectivity_symmetric(circle(3), ARC_X, ARC_Y, cfg=EQCFG)
    text = json.dumps(v.certificate)
    back = json.loads(text)
    assert back["connected"] is True
    assert back["kind"] == "symmetric"


def test_orbit_certificate_structure():
    v = connectivity_symmetric_canonical(ball3(), (0, 0, 0), (F(-1, 2), 0, F(1, 2)))
    c = v.certificate
    assert c["kind"] == "orbit"
    assert c["faces"] == [[1, 2]]
    assert c["x_canonical"]["type"] == [3]
    assert c["y_canonical"]["face"] == [1, 2]
    assert c["x_canonical"]["vertex"]["set"] == 1
    for entry in c["graph"]["resolutions"]:
        assert entry["stabilized"] is True


def test_mirrored_pattern_same_verdicts():
    assert connectivity_symmetric_canonical(
        ball3(), (0, 0, 0), (F(-1, 2), 0, F(1, 2)), pattern="mirrored"
    ).connected
    assert not connectivity_symmetric_canonical(
        split3(), (1, 1, 1), (-1, -1, -1), pattern="mirrored"
    ).connected


def test_engine_instances_cached():
    assert get_engine(ball3()) is get_engine(ball3())
    assert get_engine(ball3()) is not get_engine(split3())


def d4_system(n, *polys):
    # every poly >= 0 on [-1, 1]^n, with polys given as {(e1, e2, e3, e4): c}
    cons = tuple(Constraint(PowerSumPoly(4, p), Relation.GE) for p in polys)
    return SymmetricSystem(n=n, d=4, constraints=cons, box=make_box(n, -1, 1))


BALL4 = {(0, 0, 0, 0): F(1), (0, 1, 0, 0): F(-1)}
D4CFG = OracleConfig(h=F(1, 4), max_depth=1)


@pytest.mark.parametrize("n,shape", [(5, (2, 2, 1, 1)), (6, (3, 3, 3, 1))])
def test_ball_d4_union_graph_glues_faces(n, shape):
    # 1 - p2 >= 0 with d = 4 has several extremal faces; the ball is
    # convex, so the glued union graph has a single component
    g = Engine(d4_system(n, BALL4), D4CFG).graph()
    assert (len(g.faces), len(g.vertices), len(g.edges), g.component_count) == shape


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


def test_ball_d4_wall_query(fiber_solves):
    # sorting y crosses walls 1 to 4; each is decided by one trial located
    # on the graph, and the convex ball reaches all of them.  Only x and
    # the sorted y have their fibers solved
    eng = Engine(d4_system(5, BALL4), D4CFG)
    v = eng.symmetric((0,) * 5, (F(1, 2), 0, 0, 0, F(-1, 2)))
    assert v.connected
    assert sum(len(w["trials"]) for w in v.certificate["walls"].values()) == 4
    assert len(fiber_solves) == 2
