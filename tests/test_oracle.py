"""Grid oracle: frozen examples and contract properties."""

import hashlib
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symconn.engine import Engine
from symconn.errors import DomainError, PreconditionError
from symconn.oracle import (
    OracleConfig,
    Region,
    _Grid,
    brute_force_connected,
    connected,
    face_region,
    full_space_region,
    point_feasible,
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
    restrict,
)
from symconn.problemfile import build_config, parse_problem
from symconn.uniongraph import intersection_region

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def var(n, k):
    return ExpandedPoly.variable(n, k)


def interval_box(lo, hi):
    return ((F(lo),), (F(hi),))


def two_rays():
    # x^2 >= 1 inside [-2, 2]
    p = var(1, 1) * var(1, 1) - 1
    return Region(dim=1, requires=((p, Relation.GE),), box=interval_box(-2, 2))


def unit_disk():
    p = ExpandedPoly.constant(2, 1) - var(2, 1) ** 2 - var(2, 2) ** 2
    return Region(
        dim=2,
        requires=((p, Relation.GE),),
        box=((F(-2), F(-2)), (F(2), F(2))),
    )


def test_two_rays_two_components():
    reps = sample_components(two_rays())
    assert len(reps) == 2
    lefts = [r for r in reps if r[0] <= -1]
    rights = [r for r in reps if r[0] >= 1]
    assert len(lefts) == 1 and len(rights) == 1


def test_two_rays_not_connected():
    assert connected(two_rays(), (F(3, 2),), (F(-3, 2),)) is False


def test_unit_disk_one_component():
    r = unit_disk()
    assert len(sample_components(r)) == 1
    assert connected(r, (F(1, 2), F(0)), (F(-1, 2), F(0))) is True


def test_empty_region_samples_nothing():
    p = ExpandedPoly.constant(1, -1) - var(1, 1) ** 2
    r = Region(dim=1, requires=((p, Relation.GE),), box=interval_box(-2, 2))
    assert sample_components(r) == []


def test_connected_reflexive():
    r = unit_disk()
    assert connected(r, (F(1, 2), F(0)), (F(1, 2), F(0))) is True


def test_infeasible_query_names_constraint():
    with pytest.raises(PreconditionError) as e:
        connected(unit_disk(), (F(2), F(2)), (F(0), F(0)))
    msg = str(e.value)
    assert "z1^2" in msg
    assert "value -7" in msg


def test_query_outside_box_names_axis():
    with pytest.raises(PreconditionError) as e:
        connected(unit_disk(), (F(3), F(0)), (F(0), F(0)))
    assert "outside box" in str(e.value)


def test_eq_circle_is_one_thin_component():
    p = var(2, 1) ** 2 + var(2, 2) ** 2 - 1
    r = Region(
        dim=2,
        requires=((p, Relation.EQ),),
        box=((F(-2), F(-2)), (F(2), F(2))),
    )
    assert len(sample_components(r)) == 1
    assert connected(r, (F(1), F(0)), (F(-1), F(0))) is True


def test_gt_margin_keeps_pinch_open():
    # x^2 > 0 must not leak through the origin; x^2 >= 0 fills the line
    sq = var(1, 1) * var(1, 1)
    strict = Region(dim=1, requires=((sq, Relation.GT),), box=interval_box(-1, 1))
    weak = Region(dim=1, requires=((sq, Relation.GE),), box=interval_box(-1, 1))
    assert len(sample_components(strict)) == 2
    assert connected(strict, (F(1, 2),), (F(-1, 2),)) is False
    assert connected(weak, (F(1, 2),), (F(-1, 2),)) is True


def test_boundary_query_bridges_to_neighbor_cell():
    # x <= 0: the cell holding the query 0 has center > 0, bridge applies
    r = Region(
        dim=1,
        requires=((var(1, 1).scale(-1), Relation.GE),),
        box=interval_box(-1, 1),
    )
    assert connected(r, (F(0),), (F(-1, 2),)) is True


def test_degenerate_axis_pins_coordinate():
    p = var(2, 2) - var(2, 1)
    r = Region(
        dim=2,
        requires=((p, Relation.GE),),
        box=((F(0), F(-1)), (F(0), F(1))),
    )
    reps = sample_components(r)
    assert len(reps) == 1
    assert reps[0][0] == 0


def ball3():
    z2 = PowerSumPoly(2, {(0, 1): F(-1), (0, 0): F(1)})  # 1 - p2
    return SymmetricSystem(
        n=3, d=2, constraints=(Constraint(z2, Relation.GE),), box=make_box(3, -2, 2)
    )


def split3():
    g = PowerSumPoly(2, {(2, 0): F(1), (0, 0): F(-1)})  # p1^2 - 1
    return SymmetricSystem(
        n=3, d=2, constraints=(Constraint(g, Relation.GE),), box=make_box(3, -2, 2)
    )


def test_brute_force_ball_connected():
    x = (F(0), F(0), F(0))
    y = (F(-1, 2), F(0), F(1, 2))
    assert brute_force_connected(ball3(), x, y) is True


def test_brute_force_split_halves():
    sys = split3()
    ones = (F(1), F(1), F(1))
    assert brute_force_connected(sys, ones, (F(-1), F(-1), F(-1))) is False
    assert brute_force_connected(sys, ones, (F(1), F(1), F(-1))) is True


def test_brute_force_permutation_equivariant():
    sys = split3()
    pairs = [
        ((F(1), F(1), F(1)), (F(-1), F(-1), F(-1))),
        ((F(1), F(1), F(1)), (F(1), F(1), F(-1))),
    ]
    for x, y in pairs:
        base = brute_force_connected(sys, x, y)
        for sigma in itertools.permutations(range(3)):
            px = tuple(x[i] for i in sigma)
            py = tuple(y[i] for i in sigma)
            assert brute_force_connected(sys, px, py) == base


def test_representatives_pairwise_disconnected():
    r = two_rays()
    reps = sample_components(r)
    assert connected(r, reps[0], reps[1]) is False
    # each feasible point reaches exactly one representative
    for pt in ((F(-3, 2),), (F(3, 2),), (F(-1),), (F(2),)):
        hits = [rep for rep in reps if connected(r, pt, rep)]
        assert len(hits) == 1


def test_connected_symmetric_in_arguments():
    r = two_rays()
    pts = [(F(-3, 2),), (F(3, 2),), (F(5, 4),), (F(-2),)]
    for x, y in itertools.combinations(pts, 2):
        assert connected(r, x, y) == connected(r, y, x)


def test_connected_transitive_on_fixture():
    r = two_rays()
    a, b, c = (F(5, 4),), (F(3, 2),), (F(7, 4),)
    assert connected(r, a, b) and connected(r, b, c) and connected(r, a, c)


def test_resolution_summary_fields():
    cfg = OracleConfig()
    res = resolve_region(two_rays(), cfg)
    s = res.summary()
    assert s.stabilized
    assert s.classes == 2
    assert s.cells > 0
    assert s.level_counts[-1] == s.level_counts[-2]
    assert s.h_final == cfg.h / 2 ** (len(s.level_counts) - 1)


def test_depth_cap_zero_runs_single_level():
    cfg = OracleConfig(max_depth=0)
    res = resolve_region(two_rays(), cfg)
    assert len(res.level_counts) == 1
    assert not res.summary().stabilized
    assert res.class_count == 2


def test_region_validation():
    p = var(1, 1)
    with pytest.raises(DomainError):
        Region(dim=0, requires=(), box=((), ()))
    with pytest.raises(DomainError):
        Region(dim=2, requires=(), box=interval_box(0, 1))
    with pytest.raises(DomainError):
        Region(dim=1, requires=(), box=interval_box(1, 0))
    with pytest.raises(DomainError):
        Region(dim=2, requires=((p, Relation.GE),), box=((F(0), F(0)), (F(1), F(1))))


def test_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(h=F(0))
    with pytest.raises(DomainError):
        OracleConfig(max_depth=-1)


@pytest.mark.parametrize("depth", [1.5, 2.0, "2", True, None])
def test_config_requires_an_int_depth(depth):
    # a non-int depth used to pass and fail later in range(max_depth)
    with pytest.raises(DomainError, match="max_depth must be an int"):
        OracleConfig(max_depth=depth)


def test_config_stores_exact_rationals():
    # an int, an integral float or a rational string converts exactly;
    # any other float, or anything that is no rational, is refused
    for h in (1, 1.0, "1"):
        cfg = OracleConfig(h=h, eq_delta=h)
        assert cfg == OracleConfig(h=F(1), eq_delta=F(1))
        assert type(cfg.h) is F and type(cfg.eq_delta) is F
    for bad in ({"h": 0.1}, {"eq_delta": 0.25}, {"h": float("inf")}, {"h": "abc"}):
        with pytest.raises(DomainError, match="exact"):
            OracleConfig(**bad)


def test_face_region_includes_chamber_ordering():
    face = restrict(ball3(), (1, 2))
    r = face_region(face)
    assert r.chamber and r.requires == face.constraints
    for rep in sample_components(r):
        assert rep[0] <= rep[1]


def test_chamber_region_needs_a_uniform_box():
    box = ((F(-1), F(-2)), (F(1), F(2)))
    Region(dim=2, requires=(), box=box)
    with pytest.raises(DomainError, match="same range on every axis"):
        Region(dim=2, requires=(), box=box, chamber=True)


def test_point_feasible_tests_the_chamber_order():
    # the order gets the query-side slack of the GE atoms: delta = h = 1/2
    region = Region(dim=3, requires=(), box=((F(-1),) * 3, (F(1),) * 3), chamber=True)
    cfg = OracleConfig()
    assert point_feasible(region, (F(-1), F(1, 2), F(0)), cfg) == (True, "")
    ok, why = point_feasible(region, (F(-1), F(1), F(0)), cfg)
    assert not ok and why == "chamber order z2 <= z3 fails, z3 - z2 = -1"
    unordered = Region(dim=3, requires=(), box=region.box)
    assert point_feasible(unordered, (F(-1), F(1), F(0)), cfg) == (True, "")


def test_chamber_flag_is_part_of_the_cache_key():
    # z1 - z2 >= 1/2 has cells off the chamber only
    atom = (var(2, 1) - var(2, 2) - F(1, 2), Relation.GE)
    box = ((F(-1),) * 2, (F(1),) * 2)
    plain = Region(dim=2, requires=(atom,), box=box)
    ordered = Region(dim=2, requires=(atom,), box=box, chamber=True)
    assert len(sample_components(plain)) == 1
    assert sample_components(ordered) == []
    assert len(sample_components(plain)) == 1


def test_full_space_region_matches_membership():
    sys = ball3()
    region = full_space_region(sys)
    cfg = OracleConfig(eq_delta=F(0))
    rng = random.Random(7)
    for _ in range(40):
        x = tuple(F(rng.randrange(-8, 9), 4) for _ in range(3))
        ok, _ = point_feasible(region, x, cfg)
        assert ok == sys.eval_membership(x)[0]


def test_conjunction_builds_intersection():
    # S1 = [0,2], S2 = [1,3]; S1 and S2 = [1,2]
    x = var(1, 1)
    s1 = ((x, Relation.GE), (x.scale(-1) + 2, Relation.GE))
    s2 = ((x - 1, Relation.GE), (x.scale(-1) + 3, Relation.GE))
    inter = Region(dim=1, requires=s1 + s2, box=interval_box(-1, 4))
    ireps = sample_components(inter)
    assert len(ireps) == 1 and 1 <= ireps[0][0] <= 2


# -- differential check of the grid kernel ------------------------------------


def reference_centers(box, h):
    """Cell centers lo + (2i + 1) w / 2 of every axis, as `Fraction`s."""
    centers = []
    for a, b in zip(*box):
        if a == b:
            centers.append([a])
            continue
        count = -((a - b) // h)
        w = (b - a) / count
        centers.append([a + w * F(2 * i + 1, 2) for i in range(count)])
    return centers


def reference_classes(region, cfg, h):
    """Per-cell classification with `ExpandedPoly.eval` on `Fraction`s.

    Follows the module's cell conventions (GE as written, EQ as
    |g| <= delta, GT as g >= h) over the full product of cells, and
    requires the weak order of a chamber region's centers.
    Returns the class id of every cell (None when infeasible), numbered
    by first appearance in the lexicographic walk, and the center of the
    first cell of each class.
    """
    delta = h if cfg.eq_delta is None else cfg.eq_delta

    def atom_holds(poly, rel, c):
        v = poly.eval(c)
        if rel is Relation.EQ:
            return abs(v) <= delta
        if rel is Relation.GT:
            return v >= h
        return v >= 0

    centers = reference_centers(region.box, h)
    feasible = set()
    for idx in itertools.product(*(range(len(c)) for c in centers)):
        c = tuple(axis[i] for axis, i in zip(centers, idx))
        if region.chamber and any(a > b for a, b in zip(c, c[1:])):
            continue
        if all(atom_holds(p, r, c) for p, r in region.requires):
            feasible.add(idx)
    label, reps = {}, []
    for idx in itertools.product(*(range(len(c)) for c in centers)):
        if idx not in feasible or idx in label:
            continue
        label[idx] = len(reps)
        reps.append(tuple(axis[i] for axis, i in zip(centers, idx)))
        stack = [idx]
        while stack:
            cur = stack.pop()
            for k in range(len(cur)):
                for step in (-1, 1):
                    nb = cur[:k] + (cur[k] + step,) + cur[k + 1 :]
                    if nb in feasible and nb not in label:
                        label[nb] = label[idx]
                        stack.append(nb)
    cells = {idx: label.get(idx) for idx in itertools.product(*(range(len(c)) for c in centers))}
    return cells, reps


def random_poly(rng, dim, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * dim
        for _ in range(rng.randint(1, degree)):
            exp[rng.randrange(dim)] += 1
        terms[tuple(exp)] = F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
    return ExpandedPoly(dim, terms)


def random_atom(rng, dim):
    rel = rng.choice((Relation.GE, Relation.GE, Relation.GE, Relation.EQ, Relation.GT))
    if dim > 1 and rng.random() < (0.5 if rel is Relation.EQ else 0.2):
        # zero on the diagonal cells of a uniform box: exact ties
        j, k = rng.sample(range(1, dim + 1), 2)
        return var(dim, j) - var(dim, k), rel
    if rel is Relation.EQ:
        # a slab around a hyperplane, wide enough to hold cells
        return random_poly(rng, dim, 1).scale(F(1, 7)), rel
    # balls, slabs, saddles, ray pairs and some cubic terms
    return random_poly(rng, dim, 3) + F(rng.randint(-2, 5), rng.choice((1, 3))), rel


def random_region(rng, dim, chamber, uniform, zero_span):
    ends = [F(-2), F(-4, 3), F(-2, 5), F(1, 3), F(6, 7), F(5, 3)]
    lo, hi = [], []
    for k in range(dim):
        if uniform and k:
            lo.append(lo[0])
            hi.append(hi[0])
            continue
        a, b = sorted(rng.sample(ends, 2))
        lo.append(a)
        hi.append(a if zero_span and (uniform or k == dim - 1) else b)
    requires = [random_atom(rng, dim) for _ in range(rng.randint(1, 2))]
    if chamber and not uniform:
        requires += [(var(dim, k + 1) - var(dim, k), Relation.GE) for k in range(1, dim)]
    box = (tuple(lo), tuple(hi))
    return Region(dim=dim, requires=tuple(requires), box=box, chamber=chamber and uniform)


KERNEL_CASES = [
    # (chamber order, uniform box, zero-span axis)
    (True, True, False),  # chamber region: sorted walk
    (True, False, False),  # the order as GE atoms on a non-uniform box: product walk
    (False, True, False),  # uniform box without the chamber order: product walk
    (False, False, False),
    (True, False, True),
    (False, False, True),
    (True, True, True),  # a single point box
]


@pytest.mark.parametrize("chamber,uniform,zero_span", KERNEL_CASES)
def test_grid_kernel_matches_fraction_reference(chamber, uniform, zero_span):
    rng = random.Random(KERNEL_CASES.index((chamber, uniform, zero_span)))
    feasible_total = split = 0
    for _ in range(40):
        dim = rng.randint(2, 3) if chamber or uniform else rng.randint(1, 3)
        region = random_region(rng, dim, chamber, uniform, zero_span)
        cfg = OracleConfig(eq_delta=rng.choice((None, F(1, 5), F(1, 3), F(2, 5))))
        h = rng.choice((F(1, 2), F(1, 3), F(2, 7)))
        grid = _Grid(region, cfg, h)
        cells, reps = reference_classes(region, cfg, h)
        assert {idx: grid.class_of_cell(idx) for idx in cells} == cells
        assert len(grid.feasible) == sum(c is not None for c in cells.values())
        assert grid.representatives == reps
        feasible_total += len(grid.feasible)
        split += len(reps) >= 2
    # the random regions must exercise something
    assert feasible_total > 0
    if uniform and not zero_span:
        assert split > 0


@pytest.mark.parametrize("rel", [Relation.GE, Relation.EQ, Relation.GT])
@pytest.mark.parametrize("from_config", [False, True])
@pytest.mark.parametrize("chamber", [False, True])
def test_grid_kernel_matches_reference_on_exact_ties(rel, from_config, chamber):
    # centers are k/3 - 1/6 on both axes, so z2 - z1 takes the values j/3.
    # The GT margin is the pitch, 1/3.  With the slab width taken from the
    # config, 1/6, (z2 - z1) / 2 ties with the EQ slab at j = 1 and with
    # the GT margin at j = 2; with the slab width following the pitch, both
    # are 1/3 and z2 - z1 ties with them at j = 1.
    scale = F(1, 2) if from_config else F(1)
    tie = ((var(2, 2) - var(2, 1)).scale(scale), rel)
    ball = (ExpandedPoly.constant(2, F(9, 5)) - var(2, 1) ** 2 - var(2, 2) ** 2, Relation.GE)
    box = ((F(-1, 3),) * 2, (F(5, 3),) * 2)
    region = Region(dim=2, requires=(ball, tie), box=box, chamber=chamber)
    cfg = OracleConfig(eq_delta=F(1, 6) if from_config else None)
    grid = _Grid(region, cfg, F(1, 3))
    cells, reps = reference_classes(region, cfg, F(1, 3))
    assert {idx: grid.class_of_cell(idx) for idx in cells} == cells
    assert grid.representatives == reps
    assert grid.feasible


# -- the pruned walk against the per-cell reference ------------------------------


@st.composite
def pruned_walk_cases(draw, sorted_walk):
    """A region, config and pitch on which the prefix bounds decide something.

    The first atom is a ball around a cell center (a sorted one for a
    sorted walk) with a radius of 2 cells, or up to a third of the axis on
    longer axes, so some prefix lies outside it and is skipped.  Up to two
    more atoms add up to three one-variable terms to a mixed monomial,
    mostly with an even power, on boxes whose centers straddle 0.  Their
    constant puts a cell center, the ball's or a drawn one, exactly on the
    threshold: 0 for GE, the pitch for GT, plus or minus the slab width
    for EQ.
    """
    h = draw(st.sampled_from((F(1, 4), F(1, 3), F(2, 7))))
    if sorted_walk:
        dim = draw(st.integers(4, 5))
        counts = [draw(st.integers(6, 7)) if dim == 4 else 5] * dim
        starts = [draw(st.sampled_from((F(-1, 2), F(-2, 3), F(-1, 3))))] * dim
    else:
        dim = draw(st.integers(2, 3))
        counts = [draw(st.integers(12, 20 if dim == 2 else 14)) for _ in range(dim)]
        starts = [draw(st.sampled_from((F(-2), F(-3, 2), F(-4, 3), F(-1)))) for _ in range(dim)]
    box = (tuple(starts), tuple(a + c * h for a, c in zip(starts, counts)))
    cfg = OracleConfig(eq_delta=draw(st.sampled_from((None, F(1, 5), F(1, 3)))))
    delta = h if cfg.eq_delta is None else cfg.eq_delta

    def center():
        idx = [draw(st.integers(0, c - 1)) for c in counts]
        return tuple(a + h * F(2 * i + 1, 2) for a, i in zip(starts, sorted(idx) if sorted_walk else idx))

    mid = center()
    radius = h * draw(st.integers(2, max(2, min(counts) // 3)))
    ball = ExpandedPoly.constant(dim, radius**2)
    for k in range(dim):
        ball = ball - (var(dim, k + 1) - mid[k]) ** 2
    requires = [(ball, draw(st.sampled_from((Relation.GE, Relation.GT))))]
    coeffs = st.sampled_from((F(1), F(-1), F(-3, 2), F(2), F(-4, 3), F(5, 2)))
    for _ in range(draw(st.integers(0, 2))):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exp = [0] * dim
            exp[draw(st.integers(0, dim - 1))] = draw(st.integers(1, 3))
            terms[tuple(exp)] = draw(coeffs)
        j, k = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)))
        exp = [0] * dim
        exp[j], exp[k] = draw(st.sampled_from(((2, 2), (1, 1), (2, 1), (1, 2), (2, 3))))
        terms[tuple(exp)] = draw(coeffs)
        poly = ExpandedPoly(dim, terms)
        rel = draw(st.sampled_from((Relation.EQ, Relation.GT, Relation.GE)))
        target = {
            Relation.GE: F(0),
            Relation.GT: h,
            Relation.EQ: draw(st.sampled_from((delta, -delta))),
        }[rel]
        tie = center() if draw(st.booleans()) else mid
        requires.append((poly + (target - poly.eval(tie)), rel))
    return Region(dim=dim, requires=tuple(requires), box=box, chamber=sorted_walk), cfg, h


def check_pruned_walk(region, cfg, h, walked):
    grid = _Grid(region, cfg, h)
    cells, reps = reference_classes(region, cfg, h)
    assert {idx: grid.class_of_cell(idx) for idx in cells} == cells
    assert len(grid.feasible) == sum(c is not None for c in cells.values())
    assert grid.representatives == reps
    # the ball skips at least one prefix, so some walked cell is never tested
    assert grid.tested < walked


@given(pruned_walk_cases(sorted_walk=False))
def test_pruned_product_walk_matches_reference(case):
    region, cfg, h = case
    check_pruned_walk(region, cfg, h, math.prod(_Grid(region, cfg, h).m))


@given(pruned_walk_cases(sorted_walk=True))
def test_pruned_sorted_walk_matches_reference(case):
    region, cfg, h = case
    m = _Grid(region, cfg, h).m
    check_pruned_walk(region, cfg, h, math.comb(m[0] + region.dim - 1, region.dim))


@pytest.mark.parametrize(
    "poly,rel,cfg",
    [
        (var(2, 2) - 1, Relation.GE, OracleConfig()),
        (var(2, 2), Relation.GT, OracleConfig()),
        (var(2, 2) - 1, Relation.EQ, OracleConfig(eq_delta=F(1, 3))),
        (var(2, 2), Relation.EQ, OracleConfig(eq_delta=F(1))),
    ],
)
def test_prefix_bounds_decide_to_the_last_unit(poly, rel, cfg):
    # centers are half-integers, so the compiled value is 2 * poly and
    # steps by 1 between cells.  Over z2 in {1/2, 3/2} each atom misses its
    # threshold by one unit at one center: GE -1 against 0, GT 1 against
    # the margin 2, EQ 1 against floor(2/3) = 0 (so no cell passes), and
    # EQ 3 against 2.  The whole-grid bound must leave such an atom
    # undecided, and the near miss must fail its cell test.
    region = Region(dim=2, requires=((poly, rel),), box=((F(0), F(0)), (F(4), F(2))))
    grid = _Grid(region, cfg, F(1))
    cells, reps = reference_classes(region, cfg, F(1))
    assert {idx: grid.class_of_cell(idx) for idx in cells} == cells
    assert grid.representatives == reps
    assert len(grid.feasible) < len(cells)


def test_pruning_skips_most_of_the_brute_force_ball():
    # ball3's full-space grid at its final pitch (h = 1/4) walks 16^3
    # cells; the rows whose (z1, z2) prefix misses the unit disk are
    # skipped whole, so about a fifth of the cells get tested.  A walk
    # that tests every center fails the bound.
    pf = parse_problem((FIXTURES / "ball3.json").read_bytes())
    res = resolve_region(full_space_region(pf.system), build_config(pf.config))
    grid = res._grid
    walked = math.prod(grid.m)
    assert walked == 16**3
    assert grid.feasible
    assert grid.tested <= walked // 4


# -- grid set-up ------------------------------------------------------------------


@pytest.mark.parametrize(
    "box,h",
    [
        (((F(-2), F(1, 3), F(5, 7)), (F(3, 2), F(1, 3), F(9, 4))), F(1, 3)),  # zero span
        (((F(-4, 3), F(-2, 5)), (F(6, 7), F(5, 3))), F(2, 7)),  # non-uniform
        (((F(-7, 2),) * 3, (F(-1, 6),) * 3), F(1, 2)),  # negative lo, uniform
        (((F(1, 2),), (F(7, 2),)), F(1)),  # integer centers
    ],
)
def test_integer_centers_are_the_cell_centers(box, h):
    region = Region(dim=len(box[0]), requires=(), box=box)
    grid = _Grid(region, OracleConfig(), h)
    centers = reference_centers(box, h)
    assert [[F(c, grid.D) for c in axis] for axis in grid.nums] == centers
    assert grid.m == [len(axis) for axis in centers]
    last = tuple(c - 1 for c in grid.m)
    assert grid.center_of(last) == tuple(F(axis[-1], grid.D) for axis in grid.nums)


# -- grid golden digest ---------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_grids():
    """(file name, final grid) of every region the top-level fixtures classify.

    Those are the face regions of each union graph, the regions where its
    faces meet, and the full-space region of the brute-force reference, at
    the fixture's config.
    """
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        pf = parse_problem(path.read_bytes())
        cfg = build_config(pf.config)
        faces = Engine(pf.system, cfg).graph().faces
        regions = [face_region(f) for f in faces]
        for fi, fj in itertools.combinations(faces, 2):
            regions.append(intersection_region(fi, fj)[0])
        regions.append(full_space_region(pf.system))
        out += [(path.name, resolve_region(region, cfg)._grid) for region in regions]
    return out


# SHA-256 over the final grids of `fixture_grids`.  Each grid contributes
# its final pitch, its sorted feasible cells, its class count and its
# representatives.  It guards the grids, not the speed of building them;
# the value was computed with the walk that tested every cell center,
# before the pruned walk replaced it.
GRID_DIGEST = "073f4206e2d31d99d276157102feec30340e5b848f8855cad6e4e888a6944dbf"


def test_grid_golden_digest(fixture_grids):
    digest = hashlib.sha256()
    for name, grid in fixture_grids:
        record = {
            "h": str(grid.h),
            "cells": sorted(grid.unflatten(f) for f in grid.feasible),
            "classes": grid.class_count,
            "reps": [[str(c) for c in r] for r in grid.representatives],
        }
        digest.update(f"{name} ".encode())
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GRID_DIGEST


def test_fixture_grids_test_as_many_centers(fixture_grids):
    # The digest cannot tell a sorted walk from a product walk that finds
    # the same cells; the number of centers tested can.  A face region
    # that fell back to the product walk would test more of them.
    assert len(fixture_grids) == 28
    assert sum(grid.tested for _, grid in fixture_grids) == 105_782
