import random
from fractions import Fraction

import pytest
import sympy

from symconn.compositions import composition, embed, enumerate_compositions
from symconn.errors import DomainError, PreconditionError
from symconn.polynomials import (
    Constraint,
    ExpandedPoly,
    FaceSystem,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
    block_substitute,
    make_box,
    restrict,
    vandermonde_map,
    weighted_power_sum,
)


def F(a, b=1):
    return Fraction(a, b)


def test_expanded_poly_arithmetic():
    # (X1 + 2)(X1 - 2) = X1^2 - 4 in two variables
    x1 = ExpandedPoly.variable(2, 1)
    p = (x1 + 2) * (x1 - 2)
    assert p.terms == {(2, 0): F(1), (0, 0): F(-4)}
    assert p.total_degree() == 2
    assert p.eval([3, 100]) == 5


def test_expanded_poly_pow_and_scale():
    x2 = ExpandedPoly.variable(2, 2)
    p = (x2 + 1) ** 3
    assert p.terms == {(0, 3): F(1), (0, 2): F(3), (0, 1): F(3), (0, 0): F(1)}
    assert p.scale(F(1, 2)).eval([0, 1]) == 4


def test_expanded_poly_cancellation():
    x1 = ExpandedPoly.variable(1, 1)
    assert (x1 - x1).is_zero()
    assert (x1 * 0).is_zero()


def test_expanded_poly_rejects_bad_exponent():
    with pytest.raises(DomainError):
        ExpandedPoly(2, {(1,): 1})
    with pytest.raises(DomainError):
        ExpandedPoly(2, {(-1, 0): 1})


def test_weighted_power_sum_example():
    p = weighted_power_sum(2, (2, 1))
    assert p.terms == {(2, 0): F(2), (0, 2): F(1)}


def test_block_substitute_example():
    # x3^3 + x1*x2 - x4 with blocks (1,2,1) identifies x2=x3 and renames:
    # x1*x2 + x2^3 - x3 in three variables.
    f = ExpandedPoly(
        4,
        {
            (0, 0, 3, 0): 1,
            (1, 1, 0, 0): 1,
            (0, 0, 0, 1): -1,
        },
    )
    g = block_substitute(f, (1, 2, 1))
    assert g.terms == {
        (1, 1, 0): F(1),
        (0, 3, 0): F(1),
        (0, 0, 1): F(-1),
    }


def test_block_substitute_exponents_add():
    # x1 * x2 with both positions in one block becomes X1^2
    f = ExpandedPoly(2, {(1, 1): 1})
    assert block_substitute(f, (2,)).terms == {(2,): F(1)}


def test_block_substitute_matches_eval():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        nterms = rng.randint(1, 5)
        terms = {}
        for _ in range(nterms):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            terms[exp] = terms.get(exp, 0) + rng.randint(-4, 4)
        f = ExpandedPoly(n, terms)
        comps = list(enumerate_compositions(n, rng.randint(1, n)))
        lam = composition(rng.choice(comps))
        g = block_substitute(f, lam)
        z = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(lam.length)]
        assert g.eval(z) == f.eval(embed(lam, z))


def test_power_sum_poly_weighted_degree_guard():
    # Z_1^2 has weighted degree 2, fine for d=2; Z_2^2 would be 4.
    PowerSumPoly(2, {(2, 0): 1})
    with pytest.raises(DomainError):
        PowerSumPoly(2, {(0, 2): 1})
    with pytest.raises(DomainError):
        PowerSumPoly(3, {(2, 0, 1): 1})  # weight 2+3=5 > 3


def test_power_sum_poly_eval():
    # Z_1^2 - Z_2 at z = (3, 5) is 4
    q = PowerSumPoly(2, {(2, 0): 1, (0, 1): -1})
    assert q.eval([3, 5]) == 4


def test_power_sums_exact():
    assert vandermonde_map([1, 1, 2], 3) == (F(4), F(6), F(10))
    assert vandermonde_map([F(1, 2), F(-1, 2)], 2) == (F(0), F(1, 2))


def test_vandermonde_map_example():
    assert vandermonde_map((1, 1, 2), 2) == (F(4), F(6))


def test_vandermonde_map_weighted():
    # block values (1,2) on the face (2,1) embed as (1,1,2): 2*1+1*2=4, 2*1+1*4=6
    assert vandermonde_map(embed(composition((2, 1)), (1, 2)), 2) == (F(4), F(6))
    # consistency: the face's weighted power sums on block values == plain
    # map on the embedded point
    lam = composition((2, 1))
    z = [F(-1, 3), F(5, 7)]
    weighted = tuple(weighted_power_sum(j, lam.parts).eval(z) for j in (1, 2))
    assert weighted == vandermonde_map(embed(lam, z), 2)


def test_relation_holds():
    assert Relation.GE.holds(F(0))
    assert not Relation.GT.holds(F(0))
    assert Relation.EQ.holds(F(0))
    assert not Relation.EQ.holds(F(1, 100))
    assert Relation.EQ.holds(F(1, 100), eq_tol=F(1, 10))
    assert Relation.GE.holds(F(-1, 100), eq_tol=F(1, 10))


def test_membership_example():
    # Z_1^2 - 1 >= 0 at (1/3, 1/3, 1/3): p_1 = 1, value 0, satisfied with sign 0
    g = PowerSumPoly(2, {(2, 0): 1, (0, 0): -1})
    sys = SymmetricSystem(
        n=3,
        d=2,
        constraints=(Constraint(g, Relation.GE),),
        box=make_box(3, -2, 2),
    )
    ok, signs = sys.eval_membership([F(1, 3), F(1, 3), F(1, 3)])
    assert ok
    assert signs == (0,)
    ok, signs = sys.eval_membership([0, 0, 0])
    assert not ok
    assert signs == (-1,)


def test_membership_gt_strict():
    g = PowerSumPoly(1, {(1,): 1})  # Z_1 > 0
    sys = SymmetricSystem(
        n=2,
        d=1,
        constraints=(Constraint(g, Relation.GT),),
        box=make_box(2, -2, 2),
    )
    assert sys.eval_membership([1, -1]) == (False, (0,))
    assert sys.eval_membership([1, 0]) == (True, (1,))


def test_membership_wrong_length():
    g = PowerSumPoly(1, {(1,): 1})
    sys = SymmetricSystem(2, 1, (Constraint(g, Relation.GE),), make_box(2, -2, 2))
    with pytest.raises(PreconditionError):
        sys.eval_membership([1, 2, 3])


def test_system_validation():
    g = PowerSumPoly(3, {(0, 0, 1): 1})
    with pytest.raises(DomainError):
        SymmetricSystem(2, 3, (Constraint(g, Relation.GE),), make_box(2, -1, 1))
    g2 = PowerSumPoly(2, {(0, 1): 1})
    with pytest.raises(DomainError):
        # constraint with more generators than the system degree
        SymmetricSystem(3, 1, (Constraint(g2, Relation.GE),), make_box(3, -1, 1))


def test_box_contains():
    g = PowerSumPoly(1, {(1,): 1})
    sys = SymmetricSystem(2, 1, (Constraint(g, Relation.GE),), make_box(2, -1, 1))
    assert sys.box_contains([F(1), F(-1)])
    assert not sys.box_contains([F(3, 2), F(0)])


def test_restrict_example():
    # 1 - Z_2 >= 0 on the (2,1) face: 1 - (2 X1^2 + X2^2)
    g = PowerSumPoly(2, {(0, 0): 1, (0, 1): -1})
    sys = SymmetricSystem(
        n=3,
        d=2,
        constraints=(Constraint(g, Relation.GE),),
        box=make_box(3, -2, 2),
    )
    face = restrict(sys, (2, 1))
    assert face.dim == 2
    (poly, rel), = face.constraints
    assert rel is Relation.GE
    assert poly.terms == {(0, 0): F(1), (2, 0): F(-2), (0, 2): F(-1)}
    assert face.box == ((F(-2), F(-2)), (F(2), F(2)))


def test_non_uniform_box_is_rejected():
    # a box other than [lo, hi]^n is not kept by permuting coordinates
    g = PowerSumPoly(1, {(1,): 1})
    for box in [
        ((F(-3), F(-2), F(-1)), (F(1), F(2), F(3))),
        ((F(-1),) * 3, (F(1), F(1), F(2))),
    ]:
        with pytest.raises(DomainError, match=r"\[lo, hi\]\^n"):
            SymmetricSystem(3, 1, (Constraint(g, Relation.GE),), box)
    with pytest.raises(DomainError, match="lo > hi"):
        SymmetricSystem(3, 1, (Constraint(g, Relation.GE),), make_box(3, 1, -1))


def test_restrict_commutes_with_embedding():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        d = rng.randint(1, min(3, n))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            while True:
                exp = tuple(rng.randint(0, d) for _ in range(d))
                if sum((j + 1) * e for j, e in enumerate(exp)) <= d:
                    break
            terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
        q = PowerSumPoly(d, terms)
        sys = SymmetricSystem(
            n, d, (Constraint(q, Relation.GE),), make_box(n, -5, 5)
        )
        ell = rng.randint(1, n)
        lam = composition(rng.choice(list(enumerate_compositions(n, ell))))
        face = restrict(sys, lam)
        z = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ell)]
        x = embed(lam, z)
        face_val = face.constraints[0][0].eval(z)
        parent_val = q.eval(vandermonde_map(x, d))
        assert face_val == parent_val


def test_restrict_against_sympy_expansion():
    # independent check of compose(): expand Z_1^2 - 2 Z_2 + Z_1 on (2,1)
    q = PowerSumPoly(2, {(2, 0): 1, (0, 1): -2, (1, 0): 1})
    sys = SymmetricSystem(3, 2, (Constraint(q, Relation.GE),), make_box(3, -9, 9))
    face = restrict(sys, (2, 1))
    X1, X2 = sympy.symbols("X1 X2")
    z1 = 2 * X1 + X2
    z2 = 2 * X1**2 + X2**2
    expected = sympy.expand(z1**2 - 2 * z2 + z1)
    got = sum(
        sympy.Rational(c.numerator, c.denominator) * X1 ** e[0] * X2 ** e[1]
        for e, c in face.constraints[0][0].terms.items()
    )
    assert sympy.expand(got - expected) == 0
