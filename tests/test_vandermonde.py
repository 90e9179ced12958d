import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

import symconn.vandermonde as vandermonde_module
from symconn.compositions import composition, embed, extremal_compositions
from symconn.errors import DomainError, SolverError
from symconn.polynomials import vandermonde_map
from symconn.realroots import (
    AlgebraicPoint,
    UniPoly,
    divmod_poly,
    find_root,
    thom_rooted,
)
from symconn.vandermonde import (
    CanonicalPoint,
    Parametrization,
    _krylov_min_poly,
    _quotient_data,
    fiber_points,
    min_canonical,
    ordered_real_solutions,
    solve_weighted_system,
    verify_fiber_point,
)


def F(a, b=1):
    return Fraction(a, b)


def approx(pt, eps=F(1, 10**12)):
    return [float((lo + hi) / 2) for lo, hi in pt.refine(eps)]


def test_validation():
    with pytest.raises(DomainError):
        solve_weighted_system((1, 2), (1,))
    with pytest.raises(DomainError):
        solve_weighted_system((0, 2), (1, 1))
    with pytest.raises(DomainError):
        solve_weighted_system((), ())


def test_degree_one_exact():
    pts = fiber_points((3,), (F(2),))
    assert len(pts) == 1
    assert pts[0].exact_rational() == (F(2, 3),)


def test_pair_worked_example(power_sum_within):
    # weights (1,2), a=(0,2): the ordered solution is (-2/sqrt3, 1/sqrt3)
    par = solve_weighted_system((1, 2), (0, 2))
    assert len(thom_rooted(par.q)) == 2  # both roots real
    pts = ordered_real_solutions(par)
    assert len(pts) == 1  # but only one respects the ordering
    x = approx(pts[0])
    assert abs(x[0] + 2 / math.sqrt(3)) < 1e-9
    assert abs(x[1] - 1 / math.sqrt(3)) < 1e-9
    assert verify_fiber_point(pts[0], (1, 2), (0, 2))
    # p_3 = -8/(3 sqrt3) + 2/(3 sqrt3) = -2/sqrt3
    assert power_sum_within(pts[0], (1, 2), 3, -2 / math.sqrt(3), F(1, 10**12))


def test_pair_empty_fiber():
    assert fiber_points((1, 1), (0, -1)) == []


def test_pair_tangent_double_root():
    # z1+z2=2, z1^2+z2^2=2 touches the ordering wall: single point (1,1)
    pts = fiber_points((1, 1), (2, 2))
    assert len(pts) == 1
    assert pts[0].exact_rational() == (F(1), F(1))


def test_generic_roundtrip_fixed():
    zstar = (F(-1), F(1, 2), F(2))
    w = (1, 2, 1)
    a = vandermonde_map(embed(composition(w), zstar), 3)
    pts = fiber_points(w, a)
    assert any(
        all(p.coordinate_sign(i, offset=zstar[i]) == 0 for i in range(3))
        for p in pts
    )
    for p in pts:
        assert verify_fiber_point(p, w, a)
        for i in range(2):
            assert p.coordinate_compare(i, i + 1) <= 0


def test_generic_tangent_multiplicity():
    # z*=(1,1,2) makes the Jacobian singular; the squarefree pass must still
    # produce the solution exactly once
    w = (1, 1, 2)
    a = vandermonde_map(embed(composition(w), (1, 1, 2)), 3)
    pts = fiber_points(w, a)
    matches = [
        p
        for p in pts
        if all(
            p.coordinate_sign(i, offset=v) == 0
            for i, v in enumerate((F(1), F(1), F(2)))
        )
    ]
    assert len(matches) == 1


def test_unit_weights_recover_sorted_multiset():
    # with unit weights and d = n the power sums pin down the multiset, so
    # exactly one ordered solution exists: the sorted input
    rng = random.Random(23)
    for _ in range(6):
        n = 3
        x = [F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
        if rng.random() < 0.4:
            x[rng.randrange(n)] = x[rng.randrange(n)]  # force duplicates sometimes
        a = vandermonde_map(x, n)
        pts = fiber_points((1,) * n, a)
        assert len(pts) == 1
        want = sorted(x)
        assert all(
            pts[0].coordinate_sign(i, offset=want[i]) == 0 for i in range(n)
        )


def test_roundtrip_random_small_degrees():
    rng = random.Random(41)
    for _ in range(12):
        d = rng.randint(1, 2)
        w = tuple(rng.randint(1, 4) for _ in range(d))
        vals = sorted(
            rng.sample([F(k, 2) for k in range(-8, 9)], d)
        )
        a = vandermonde_map(embed(composition(w), vals), d)
        pts = fiber_points(w, a)
        assert any(
            all(p.coordinate_sign(i, offset=vals[i]) == 0 for i in range(d))
            for p in pts
        )
        for p in pts:
            assert verify_fiber_point(p, w, a)


def test_min_canonical_worked_example(power_sum_within):
    res = min_canonical(3, 2, (0, 2))
    assert res is not None
    assert res.lam == composition((1, 2))
    x = approx(res.point)
    assert abs(x[0] + 2 / math.sqrt(3)) < 1e-9
    assert abs(x[1] - 1 / math.sqrt(3)) < 1e-9
    assert power_sum_within(res.point, res.lam.parts, 3, -2 / math.sqrt(3), F(1, 10**9))


def test_min_canonical_empty():
    assert min_canonical(3, 2, (0, -1)) is None


def test_min_canonical_dominates_fiber_members(power_sum_sign):
    # for d <= 2 the extremal faces carry the true fiber minimizers, so the
    # result dominates every fiber member
    rng = random.Random(59)
    for _ in range(10):
        n = rng.randint(2, 5)
        d = rng.randint(1, 2)
        x = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
        a = vandermonde_map(x, d)
        res = min_canonical(n, d, a)
        assert res is not None
        assert verify_fiber_point(res.point, res.lam.parts, a)
        higher = vandermonde_map(x, d + 1)[d]
        assert power_sum_sign(res.point, res.lam.parts, d + 1, higher) <= 0


def test_min_canonical_dominates_points_on_pattern_faces(power_sum_sign):
    # a query point lying on an extremal face is itself a candidate, so the
    # returned value can never exceed its p_{d+1}
    rng = random.Random(61)
    for _ in range(4):
        z = sorted(rng.sample([F(k, 2) for k in range(-6, 7)], 3))
        x = [z[0], z[1], z[1], z[2]]  # on the (1,2,1) face, n=4, d=3
        a = vandermonde_map(x, 3)
        res = min_canonical(4, 3, a)
        assert res is not None
        assert verify_fiber_point(res.point, res.lam.parts, a)
        higher = vandermonde_map(x, 4)[3]
        assert power_sum_sign(res.point, res.lam.parts, 4, higher) <= 0


def test_min_canonical_degenerate_fiber_stays_on_pattern_faces(power_sum_sign):
    # the fiber of (0,0,1,1) is an arc whose p_4-minimum sits at (0,0,1,1)
    # itself, off every extremal face; the canonical point is the arc's other
    # end ((1-s)/2, 1/2, 1/2, (1+s)/2) with s = sqrt(2), where p_4 = 9/4
    x = [F(0), F(0), F(1), F(1)]
    a = vandermonde_map(x, 3)
    res = min_canonical(4, 3, a)
    assert res is not None
    assert res.lam == composition((1, 2, 1))
    assert verify_fiber_point(res.point, res.lam.parts, a)
    assert power_sum_sign(res.point, res.lam.parts, 4, F(9, 4)) == 0
    emb = res.point
    assert emb.coordinate_sign(1, offset=F(1, 2)) == 0


def test_min_canonical_odd_degree_returns_family_extremum(power_sum_sign):
    # odd d: the extremal faces hold the far end of the p_{d+1} range, so a
    # fiber member off those faces may have a smaller value than the result
    x = [F(0), F(1, 2), F(1), F(2)]
    a = vandermonde_map(x, 3)
    res = min_canonical(4, 3, a)
    assert res is not None
    assert res.lam == composition((1, 2, 1))
    assert verify_fiber_point(res.point, res.lam.parts, a)
    higher = vandermonde_map(x, 4)[3]
    assert power_sum_sign(res.point, res.lam.parts, 4, higher) > 0


def test_embedded_point_duplicates_blocks():
    res = min_canonical(3, 2, (0, 2))
    emb = res.embedded_point()
    assert emb.dim == 3
    x = approx(emb)
    assert abs(x[0] + 2 / math.sqrt(3)) < 1e-9
    assert abs(x[1] - 1 / math.sqrt(3)) < 1e-9
    assert abs(x[2] - 1 / math.sqrt(3)) < 1e-9
    assert emb.multiplicity_runs() == (1, 2)


# -- the fiber meets the extremal family once ----------------------------------


def face_hits(n, d, a):
    """(face, ordered real solutions) for each extremal face the fiber meets."""
    out = []
    for lam in extremal_compositions(n, d):
        pts = fiber_points(lam.parts, a)
        if pts:
            out.append((lam, pts))
    return out


def constant_on_blocks(pt, lam):
    """Exactly: the point's coordinates agree within each block of lam."""
    start = 0
    for part in lam.parts:
        if any(pt.coordinate_compare(k, k + 1) for k in range(start, start + part - 1)):
            return False
        start += part
    return True


# n = 5, d = 4 fibers that meet both (1, 1, 1, 2) and (1, 2, 1, 1)
TWO_FACE_D4 = [
    (F(-1, 4), F(-1, 4), F(-1, 4), F(1), F(1)),
    (F(-3, 4), F(3, 4), F(3, 4), F(3, 4), F(3, 4)),
    (F(-2), F(-5, 4), F(-5, 4), F(1, 2), F(1, 2)),
]


def test_fiber_meets_the_extremal_family_at_one_point():
    # each face the fiber meets holds one ordered solution, and every hit
    # lies on every other hit face.  A point on face lam solves lam's
    # system, so with one solution per face all hits are one ambient point
    rng = random.Random(101)
    cases = []
    for _ in range(30):
        n = rng.randint(2, 6)
        d = rng.randint(1, min(3, n))
        x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        if rng.random() < 0.4:
            x[rng.randrange(n)] = x[rng.randrange(n)]
        cases.append((n, d, x))
    cases += [(5, 4, x) for x in TWO_FACE_D4]
    two_faces = 0
    for n, d, x in cases:
        a = vandermonde_map(x, d)
        hits = face_hits(n, d, a)
        assert hits and all(len(pts) == 1 for _, pts in hits)
        embedded = [CanonicalPoint(lam, pts[0]).embedded_point() for lam, pts in hits]
        assert all(constant_on_blocks(e, lam) for e in embedded for lam, _ in hits)
        res = min_canonical(n, d, a)
        assert (res.lam, res.point) == (hits[0][0], hits[0][1][0])
        two_faces += len(hits) == 2
    assert two_faces == len(TWO_FACE_D4)
    assert [lam.parts for lam, _ in face_hits(5, 4, vandermonde_map(TWO_FACE_D4[0], 4))] == [
        (1, 1, 1, 2),
        (1, 2, 1, 1),
    ]


@pytest.mark.parametrize(
    "x,solved",
    [(TWO_FACE_D4[0], 1), ((-1, F(-1, 2), 0, F(1, 2), 1), 2)],
    ids=["first-face", "second-face"],
)
def test_min_canonical_stops_at_the_first_face_met(calls, x, solved):
    solves = calls(vandermonde_module, "fiber_points")
    assert min_canonical(5, 4, vandermonde_map(x, 4)) is not None
    assert len(solves) == solved


# -- reference: resultants by remainder sequences ------------------------------
#
# Exact resultants over Q through `divmod_poly`, checked against sympy's
# Sylvester determinant.


def resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Resultant of f and g over the rationals."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    a, b = f, g
    sign_acc = 1
    factor = Fraction(1)
    while True:
        if b.degree == 0:
            return sign_acc * factor * b.leading() ** a.degree
        if a.degree < b.degree:
            if (a.degree * b.degree) % 2 == 1:
                sign_acc = -sign_acc
            a, b = b, a
            continue
        r = divmod_poly(a, b)[1]
        if r.is_zero():
            return Fraction(0)
        factor *= b.leading() ** (a.degree - r.degree)
        if (a.degree * b.degree) % 2 == 1:
            sign_acc = -sign_acc
        a, b = b, r


def random_poly(rng, max_deg=8) -> UniPoly:
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
    return UniPoly(coeffs)


def sylvester_det(f: UniPoly, g: UniPoly):
    m, n = f.degree, g.degree
    rows = []
    fc = [sympy.Rational(c) for c in reversed(f.coeffs)]
    gc = [sympy.Rational(c) for c in reversed(g.coeffs)]
    for i in range(n):
        rows.append([0] * i + fc + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (m - 1 - i))
    return sympy.Matrix(rows).det()


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(12)
    for _ in range(40):
        f, g = random_poly(rng, 5), random_poly(rng, 4)
        assert resultant(f, g) == Fraction(str(sylvester_det(f, g)))


def test_resultant_detects_common_factor():
    t = UniPoly.variable()
    f = (t - 2) * (t + 1)
    g = (t - 2) * (t**2 + 1)
    assert resultant(f, g) == 0
    assert resultant(t - 2, t - 3) != 0


# -- the generic solver's algebra ---------------------------------------------


def random_weighted_systems(seed, count=6):
    """(weights, a) for d = 3 systems with a real ordered solution."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = tuple(rng.randint(1, 3) for _ in range(3))
        z = sorted(rng.sample([F(k, 2) for k in range(-6, 7)], 3))
        out.append((w, vandermonde_map(embed(composition(w), z), 3)))
    return out


# the d = 4 ball fiber: y = (-1/2, 0, 0, 0, 1/2) meets face (1, 2, 1, 1)
BALL_D4 = ((1, 2, 1, 1), vandermonde_map((F(-1, 2), 0, 0, 0, F(1, 2)), 4))


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


QUOTIENT_CASES = random_weighted_systems(71) + [BALL_D4]


def weighted_equations(w, a):
    """The ring and the equations sum_k w_k z_k^j = a_j, j = 1..d."""
    d = len(w)
    R, *zs = ring(",".join(f"z{k}" for k in range(1, d + 1)), QQ, grevlex)
    return R, [sum(m * z**j for m, z in zip(w, zs)) - a[j - 1] for j in range(1, d + 1)]


@pytest.mark.parametrize(
    "w,a", QUOTIENT_CASES, ids=[f"d3-{k}" for k in range(6)] + ["ball-d4"]
)
def test_quotient_matrices_commute_and_satisfy_the_system(w, a):
    d = len(w)
    R, eqs = weighted_equations(w, a)
    basis, mats = _quotient_data(eqs, R)
    D = len(basis)
    assert basis[0] == (0,) * d
    for i in range(d):
        for k in range(i + 1, d):
            assert mat_mul(mats[i], mats[k]) == mat_mul(mats[k], mats[i])
    powers = list(mats)
    for j in range(1, d + 1):
        total = [
            [sum(wk * P[r][c] for wk, P in zip(w, powers)) for c in range(D)]
            for r in range(D)
        ]
        assert total == [[a[j - 1] if r == c else 0 for c in range(D)] for r in range(D)]
        powers = [mat_mul(P, M) for P, M in zip(powers, mats)]


def rem_matrices(eqs, R, basis):
    """Multiplication matrices with every column reduced by sympy's rem."""
    G = groebner(eqs, R)
    index = {mon: k for k, mon in enumerate(basis)}
    D = len(basis)
    mats = []
    for i in range(R.ngens):
        M = [[F(0)] * D for _ in range(D)]
        for k, mon in enumerate(basis):
            nxt = tuple(m + (j == i) for j, m in enumerate(mon))
            for mon2, c in R({nxt: 1}).rem(G).terms():
                M[index[mon2]][k] = F(int(c.numerator), int(c.denominator))
        mats.append(M)
    return G, mats


@pytest.mark.parametrize(
    "w,a", QUOTIENT_CASES, ids=[f"d3-{k}" for k in range(6)] + ["ball-d4"]
)
def test_closed_form_border_columns_match_rem(w, a):
    R, eqs = weighted_equations(w, a)
    basis, mats = _quotient_data(eqs, R)
    G, want = rem_matrices(eqs, R, basis)
    assert mats == want
    # some border monomial leads a basis element, so the closed form ran
    border = {
        tuple(m + (j == i) for j, m in enumerate(mon)) for mon in basis for i in range(len(w))
    }
    assert any(g.LM in border for g in G)


def test_quotient_data_rejects_degenerate_systems():
    R, z1, z2, z3 = ring("z1,z2,z3", QQ, grevlex)
    assert _quotient_data([z1 - 1, z1 - 2, z2, z3], R) is None
    with pytest.raises(SolverError, match="infinitely many"):
        _quotient_data([z1 - z2, z3], R)


# -- reference: Krylov elimination over Fraction --------------------------------


def ref_krylov_min_poly(M) -> UniPoly:
    """The minimal polynomial search in Fraction arithmetic."""
    D = len(M)
    v = [F(int(i == 0)) for i in range(D)]
    reduced = []  # (pivot, vector, combination over original iterates)
    for k in range(D + 1):
        vec = list(v)
        combo = [F(0)] * k + [F(1)]
        for pivot, bvec, bcombo in reduced:
            c = vec[pivot]
            if c:
                f = c / bvec[pivot]
                vec = [x - f * y for x, y in zip(vec, bvec)]
                combo = [x - f * (bcombo[i] if i < len(bcombo) else 0) for i, x in enumerate(combo)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            return UniPoly(combo)
        reduced.append((pivot, vec, combo))
        v = [sum(row[i] * v[i] for i in range(D)) for row in M]
    raise AssertionError("no relation among D + 1 iterates")


def rational_matrix(rng, D):
    return [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(D)] for _ in range(D)]


def test_krylov_min_poly_matches_fraction_reference():
    rng = random.Random(89)
    low = 0
    for D in (1, 2, 3, 4, 5, 6):
        for _ in range(4):
            # S diag(e) S^-1 with repeated eigenvalues: degree below D
            S = sympy.Matrix([[0]])
            while S.det() == 0:
                S = sympy.Matrix(rational_matrix(rng, D))
            e = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(D)]
            B = S * sympy.diag(*[sympy.Rational(x) for x in e]) * S.inv()
            M = [[Fraction(str(B[r, c])) for c in range(D)] for r in range(D)]
            f = _krylov_min_poly(M)
            assert f == ref_krylov_min_poly(M)
            assert f.degree <= len(set(e))
            low += f.degree < D
            M = rational_matrix(rng, D)
            assert _krylov_min_poly(M) == ref_krylov_min_poly(M)
    assert low >= 12
    # e_0 in an invariant subspace: the relation comes early
    M = [[F(1, 2), F(0), F(3)], [F(0), F(-1), F(1)], [F(0), F(0), F(2)]]
    assert _krylov_min_poly(M) == UniPoly([F(-1, 2), 1])
    for w, a in QUOTIENT_CASES:
        R, eqs = weighted_equations(w, a)
        _, mats = _quotient_data(eqs, R)
        for M in mats:
            assert _krylov_min_poly(M) == ref_krylov_min_poly(M)


# -- roots are resolved once ---------------------------------------------------


@pytest.fixture(scope="module")
def solver_points():
    pts = []
    for w, a in random_weighted_systems(79, 4) + [BALL_D4]:
        pts.extend(fiber_points(w, a))
    assert len(pts) >= 5
    return pts


def test_enclosure_is_taken_before_the_ordering_tests():
    # deciding z1 <= z2 at T = sqrt(2) needs a finer enclosure than Thom
    # encoding leaves; the point must still carry the unrefined one
    t = UniPoly.variable()
    q = t**2 - 2
    par = Parametrization(q, UniPoly.constant(1), (t, UniPoly.constant(F(141422, 100000))))
    _, pt = ordered_real_solutions(par)
    assert pt.code == (1, 1)
    ref = find_root(q, pt.code)
    assert pt.enclosure[1:] == (ref.lo, ref.hi)
    assert ref.width() > F(1, 10**5)
    assert pt.coordinate_compare(0, 1) < 0
    r = pt.root()
    assert (r.lo, r.hi) == (ref.lo, ref.hi)


def test_points_carry_the_solver_enclosure(solver_points):
    for pt in solver_points:
        assert pt.enclosure is not None
        r1, r2 = pt.root(), pt.root()
        assert r1 is not r2
        ref = find_root(pt.q, pt.code)
        assert (r1.lo, r1.hi) == (ref.lo, ref.hi)
        assert r1.poly == ref.poly
        if not r1.is_exact():
            r1.refine_to(r1.width() / 1024)
            assert r1.width() < ref.width()
        r3 = pt.root()
        assert (r3.lo, r3.hi) == (ref.lo, ref.hi)


def test_payload_roundtrip_ignores_the_enclosure(solver_points):
    # the public constructor takes no enclosure, so the point rebuilt from
    # its payload fields isolates its root again on first use
    for pt in solver_points:
        back = AlgebraicPoint(q=pt.q, q0=pt.q0, coords=pt.coords, code=pt.code)
        assert back.enclosure is None
        assert back == pt and hash(back) == hash(pt)
        assert back.payload() == pt.payload()
        r = back.root()
        assert back.enclosure == pt.enclosure
        assert (r.lo, r.hi) == pt.enclosure[1:]


def test_embedded_point_carries_the_enclosure():
    res = min_canonical(5, 4, BALL_D4[1])
    assert res.lam == composition((1, 2, 1, 1))
    emb = res.embedded_point()
    assert emb.enclosure is not None
    assert emb.enclosure == res.point.enclosure
