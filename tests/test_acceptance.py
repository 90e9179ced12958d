"""Acceptance gate: one test per primary criterion, stated budgets enforced."""

import itertools
import math
import pathlib
import random
import time
from fractions import Fraction as F

import numpy as np
import sympy

from symconn.compositions import (
    composition,
    enumerate_compositions,
    extremal_compositions,
    join,
    precedes,
    sorting_transpositions,
)
from symconn.engine import Engine
from symconn.polynomials import (
    Constraint,
    ExpandedPoly,
    FaceSystem,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
    make_box,
    vandermonde_map,
)
from symconn.problemfile import build_config, parse_problem
from symconn.realroots import (
    UniPoly,
    count_real_roots,
    sign_at_root,
    thom_encoding,
    thom_rooted,
)
from symconn.uniongraph import build_union_graph
from symconn.vandermonde import min_canonical
from symconn.verify import run_verify

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def C(*parts):
    return composition(parts)


def load_system(name):
    pf = parse_problem((FIXTURES / name).read_bytes())
    return pf


def test_01_combinatorics_exact():
    t0 = time.perf_counter()
    for n in range(1, 11):
        for length in range(1, n + 1):
            assert len(enumerate_compositions(n, length)) == math.comb(n - 1, length - 1)
    for n in range(2, 11):
        for d in range(2, min(n, 5) + 1):
            expected = math.comb(n - (d + 1) // 2 - 1, d // 2 - 1)
            assert len(extremal_compositions(n, d)) == expected
    assert {c.parts for k in range(1, 5) for c in enumerate_compositions(4, k)} == {
        (4,), (1, 3), (3, 1), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2),
        (1, 1, 1, 1),
    }
    assert join(C(2, 1, 1), C(1, 1, 1, 1)).parts == (2, 1, 1)
    assert join(C(2, 1, 1), C(1, 1, 2)).parts == (2, 2)
    assert join(C(2, 2), C(4)).parts == (4,)
    assert precedes(C(1, 2, 1), C(3, 1))
    assert precedes(C(1, 2, 1), C(1, 3))
    assert precedes(C(1, 2, 1), C(4))
    assert not precedes(C(3, 1), C(1, 2, 1))
    assert precedes(C(1, 1, 2), C(2, 2))
    assert not precedes(C(2, 2), C(1, 1, 2))
    assert {c.parts for c in extremal_compositions(6, 4)} == {
        (1, 1, 1, 3), (1, 2, 1, 2), (1, 3, 1, 1)
    }
    assert [c.parts for c in extremal_compositions(7, 3)] == [(1, 5, 1)]
    assert time.perf_counter() - t0 < 1.0


def test_02_bubble_sort_words_minimal():
    t0 = time.perf_counter()
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            word, ordered = sorting_transpositions(perm)
            # a minimal word has one swap per inverted pair
            assert len(word) == sum(a > b for a, b in itertools.combinations(perm, 2))
            assert ordered == tuple(sorted(perm))
            replay = list(perm)
            for i in word:
                replay[i - 1], replay[i] = replay[i], replay[i - 1]
            assert tuple(replay) == ordered
    assert time.perf_counter() - t0 < 5.0


def test_03_thom_machinery_vs_sturm():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    t = UniPoly.variable()
    ts = sympy.symbols("t")

    # worked example: the two square roots of 2 and their derivative signs
    codes = thom_encoding(t**2 - 2)
    assert codes == [(-1, 1), (1, 1)]
    assert sign_at_root(t**2 - 2, (1, 1), t) == 1

    checked_signs = 0
    for _ in range(200):
        deg = rng.randint(1, 8)
        coeffs = [F(rng.randint(-6, 6)) for _ in range(deg)]
        coeffs.append(F(rng.choice([-3, -2, -1, 1, 2, 3])))
        q = UniPoly(coeffs)
        expr = sum(
            sympy.Rational(c.numerator, c.denominator) * ts**k
            for k, c in enumerate(q.coeffs)
        )
        assert count_real_roots(q) == len(set(sympy.real_roots(expr, ts)))

        p = UniPoly([F(rng.randint(-5, 5)) for _ in range(4)] + [F(1)])
        for code, root in thom_rooted(q):
            root.refine_to(F(1, 10**12))
            mid = float((root.lo + root.hi) / 2)
            val = 0.0
            for c in reversed(p.coeffs):
                val = val * mid + float(c)
            if abs(val) > 1e-8:
                assert sign_at_root(q, code, p) == (1 if val > 0 else -1)
                checked_signs += 1
    assert checked_signs > 100
    assert time.perf_counter() - t0 < 30.0


def numeric_face_minimum(n, d, a):
    # independent floating-point solve of the single pattern face for d <= 3
    af = [float(v) for v in a]
    if d == 1:
        z = af[0] / n
        return n * z * z
    if d == 2:
        m = n - 1
        roots = np.roots([m * m + m, -2 * af[0] * m, af[0] ** 2 - af[1]])
        best = None
        for z2 in roots:
            if abs(z2.imag) > 1e-9:
                continue
            z2 = z2.real
            z1 = af[0] - m * z2
            if z1 > z2 + 1e-7:
                continue
            p3 = z1**3 + m * z2**3
            best = p3 if best is None else min(best, p3)
        return best
    m = n - 2
    u = sympy.symbols("u")
    s = af[0] - m * u
    q = (s**2 + m * u**2 - af[1]) / 2
    f = sympy.expand(s**3 - 3 * q * s + m * u**3 - af[2])
    cs = [float(c) for c in sympy.Poly(f, u).all_coeffs()]
    best = None
    for z2 in np.roots(cs):
        if abs(z2.imag) > 1e-7:
            continue
        z2 = z2.real
        sv = af[0] - m * z2
        qv = (sv * sv + m * z2 * z2 - af[1]) / 2
        disc = sv * sv - 4 * qv
        if disc < -1e-7:
            continue
        r = math.sqrt(max(disc, 0.0))
        z1, z3 = (sv - r) / 2, (sv + r) / 2
        if z1 > z2 + 1e-6 or z2 > z3 + 1e-6:
            continue
        p4 = z1**4 + m * z2**4 + z3**4
        best = p4 if best is None else min(best, p4)
    return best


def test_04_vandermonde_solver_minimality(power_sum_within, solves_system):
    t0 = time.perf_counter()

    # worked fixture: fiber over (0, 2) for three coordinates
    res = min_canonical(3, 2, (F(0), F(2)))
    assert res.lam == composition((1, 2))
    assert power_sum_within(res.point, (1, 2), (0, 2), 3, -2 / math.sqrt(3), F(1, 10**9))

    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(2, 7)
        d = rng.randint(1, min(3, n))
        x = sorted(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        a = vandermonde_map(x, d)
        res = min_canonical(n, d, a)
        assert res is not None
        assert solves_system(res.point, res.lam.parts, a)
        assert res.lam in extremal_compositions(n, d)
        coords = [float((lo + hi) / 2)
                  for lo, hi in res.point.refine(F(1, 10**12))]
        assert all(coords[i] <= coords[i + 1] + 1e-9
                   for i in range(len(coords) - 1))
        oracle = numeric_face_minimum(n, d, a)
        assert oracle is not None
        assert power_sum_within(res.point, res.lam.parts, a, d + 1, oracle, F(1, 10**6))
    assert time.perf_counter() - t0 < 120.0


def interval_face(a, b):
    x = ExpandedPoly.variable(1, 1)
    cons = ((x - F(a), Relation.GE), (x.scale(-1) + F(b), Relation.GE))
    return FaceSystem(lam=composition((1,)), n=1, constraints=cons,
                      box=((F(-1),), (F(9),)))


def box_face(a, b, c, d):
    x = ExpandedPoly.variable(2, 1)
    y = ExpandedPoly.variable(2, 2)
    cons = ((x - F(a), Relation.GE), (x.scale(-1) + F(b), Relation.GE),
            (y - F(c), Relation.GE), (y.scale(-1) + F(d), Relation.GE))
    return FaceSystem(lam=composition((1, 1)), n=2, constraints=cons,
                      box=((F(-1), F(-1)), (F(9), F(9))))


def fat_pair(iv, jv):
    # overlap at least 1 or gap at least 1, per axis, so that any grid at
    # pitch <= 1/2 sees the same merge structure
    out = []
    for (a, b), (c, d) in zip(iv, jv):
        out.append(min(b, d) - max(a, c))
    return all(o >= 1 or o <= -1 for o in out)


def draw_family(rng, k, dims):
    while True:
        fam = []
        for _ in range(k):
            fam.append([(lambda lo: (lo, lo + rng.randint(1, 3)))(rng.randint(0, 6))
                        for _ in range(dims)])
        if all(fat_pair(fam[i], fam[j])
               for i in range(k) for j in range(i + 1, k)):
            return fam


def union_find_count(fam, dims, steps):
    # direct union-find over the union's grid cells at a fixed pitch; face
    # regions live in chamber coordinates, so keep z_1 <= ... <= z_k only
    pitch = F(10, steps)
    cells = set()
    for idx in itertools.product(range(steps), repeat=dims):
        center = [F(-1) + pitch * (2 * i + 1) / 2 for i in idx]
        if any(center[i] > center[i + 1] for i in range(dims - 1)):
            continue
        for box in fam:
            if all(a <= c <= b for c, (a, b) in zip(center, box)):
                cells.add(idx)
                break
    parent = {c: c for c in cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for cell in cells:
        for axis in range(dims):
            nb = list(cell)
            nb[axis] += 1
            nb = tuple(nb)
            if nb in cells:
                parent[find(cell)] = find(nb)
    return len({find(c) for c in cells})


def test_05_union_graph_matches_union_find():
    t0 = time.perf_counter()
    rng = random.Random(404)
    families = 0
    for _ in range(8):
        k = rng.randint(2, 4)
        fam = draw_family(rng, k, 1)
        faces = [interval_face(a, b) for ((a, b),) in fam]
        g = build_union_graph(faces)
        assert g.component_count == union_find_count(fam, 1, 80)
        families += 1
    for _ in range(6):
        k = rng.randint(2, 3)
        fam = draw_family(rng, k, 2)
        faces = [box_face(a, b, c, d) for (a, b), (c, d) in fam]
        g = build_union_graph(faces)
        assert g.component_count == union_find_count(fam, 2, 40)
        families += 1
    assert families >= 10
    assert time.perf_counter() - t0 < 60.0


def test_06_end_to_end_ground_truth():
    t0 = time.perf_counter()
    rep = run_verify(FIXTURES)
    assert rep["total_queries"] >= 100
    assert rep["all_agree"] is True
    assert rep["agreements"] == rep["total_queries"]
    assert rep["expectation_failures"] == []

    ns, ds = set(), set()
    for path in sorted(FIXTURES.glob("*.json")):
        pf = parse_problem(path.read_bytes())
        ns.add(pf.system.n)
        ds.add(pf.system.d)
    assert ns == {2, 3, 4}
    assert ds == {1, 2, 3}

    # the central distinction: mirror arcs whose orbits meet while the set
    # keeps them apart
    pf = load_system("circle-arcs.json")
    eng = Engine(pf.system, build_config(pf.config))
    x, y = pf.points["x"], pf.points["y"]
    assert eng.canonical(x, tuple(sorted(y))).connected is True
    assert eng.symmetric(x, y).connected is False
    arcs = next(f for f in rep["fixtures"] if f["fixture"] == "circle-arcs.json")
    assert any(row["agree"] and not row["engine"] for row in arcs["queries"])
    assert time.perf_counter() - t0 < 300.0


def test_07_orbit_invariance_exhaustive():
    t0 = time.perf_counter()
    cases = [
        ("split2.json", (F(0), F(1)), (F(1), F(0)), True),
        ("split2.json", (F(0), F(1)), (F(-1), F(0)), False),
        ("ball3.json", (F(-1, 2), F(0), F(1, 2)), (F(0), F(0), F(1, 2)), True),
        ("split3.json", (F(9, 10), F(1), F(11, 10)), (F(1), F(1), F(1)), True),
        ("split3.json", (F(9, 10), F(1), F(11, 10)),
         (F(-11, 10), F(-1), F(-9, 10)), False),
        ("ball4.json", (F(0), F(0), F(0), F(0)),
         (F(-1, 2), F(0), F(0), F(1, 2)), True),
    ]
    for name, x, y, want in cases:
        sysm = load_system(name).system
        eng = Engine(sysm)
        xs = tuple(sorted(x))
        base = eng.canonical(xs, tuple(sorted(y)))
        for perm in itertools.permutations(y):
            # power sums, hence the canonical representative, ignore order
            assert vandermonde_map(perm, sysm.d) == vandermonde_map(y, sysm.d)
            got = eng.symmetric(xs, perm)
            assert got.connected is want
        for perm in itertools.permutations(x):
            assert vandermonde_map(perm, sysm.d) == vandermonde_map(x, sysm.d)
            same = eng.canonical(tuple(sorted(perm)), tuple(sorted(y)))
            assert same.connected == base.connected
    assert time.perf_counter() - t0 < 60.0


def test_08_scaling_smoke_subexponential():
    t0 = time.perf_counter()
    sizes = [4, 6, 8, 10, 12]
    times = []
    for n in sizes:
        poly = PowerSumPoly(2, {(0, 0): F(1), (0, 1): F(-1)})
        sysm = SymmetricSystem(
            n=n, d=2, constraints=(Constraint(poly, Relation.GE),),
            box=make_box(n, -2, 2))
        eng = Engine(sysm)
        x = (F(0),) * n
        y = (F(1, 2),) + (F(0),) * (n - 1)
        t1 = time.perf_counter()
        verdict = eng.symmetric(x, y)
        times.append(max(time.perf_counter() - t1, 1e-4))
        assert verdict.connected is True
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope < 4.0
    assert time.perf_counter() - t0 < 600.0
