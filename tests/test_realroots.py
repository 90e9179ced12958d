import math
import random
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
import sympy

from symconn import realroots
from symconn.errors import DomainError, InvalidCodeError, SolverError
from symconn.realroots import (
    AlgebraicPoint,
    RealRoot,
    UniPoly,
    count_real_roots,
    divmod_poly,
    dyadic_floor,
    isolate_real_roots,
    poly_gcd,
    rational_function_interval,
    real_roots,
    root_bound,
    sign_at,
    sign_at_root,
    squarefree_part,
    thom_encoding,
    thom_rooted,
)

T = sympy.Symbol("T")


def to_sympy(p: UniPoly):
    return sum(sympy.Rational(c) * T**i for i, c in enumerate(p.coeffs))


def random_poly(rng, max_deg=8, zero_ok=False) -> UniPoly:
    deg = rng.randint(0 if zero_ok else 1, max_deg)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
    return UniPoly(coeffs)


def test_unipoly_basics():
    p = UniPoly([1, 0, -2, 3])  # 3T^3 - 2T^2 + 1
    assert p.degree == 3
    assert p.eval(2) == 24 - 8 + 1
    assert p.sign_at(Fraction(1, 2)) == (p.eval(Fraction(1, 2)) > 0) - (
        p.eval(Fraction(1, 2)) < 0
    )
    assert (p - p).is_zero()
    assert p.derivative().coeffs == (Fraction(0), Fraction(-4), Fraction(9))
    assert UniPoly([0, 0]).is_zero()
    assert (UniPoly.variable() ** 3).coeffs == (0, 0, 0, 1)


def test_unipoly_arithmetic_matches_sympy():
    rng = random.Random(41)
    for _ in range(50):
        f, g = random_poly(rng, 5), random_poly(rng, 5)
        assert to_sympy(f * g).expand() == (to_sympy(f) * to_sympy(g)).expand()
        assert to_sympy(f + g) == (to_sympy(f) + to_sympy(g)).expand()


# -- Fraction references for the integer kernels -----------------------------
#
# Products, division, gcds and interval Horner used to run in Fraction
# arithmetic.  Those versions are kept here as the references the integer
# kernels must match exactly: quotient, remainder, monic gcd and the interval
# Horner enclosure are each unique.


def ref_mul(f: UniPoly, g: UniPoly) -> UniPoly:
    if f.is_zero() or g.is_zero():
        return UniPoly([])
    out = [Fraction(0)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return UniPoly(out)


def ref_divmod(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    q = [Fraction(0)] * max(0, f.degree - g.degree + 1)
    rem = list(f.coeffs)
    glead, gdeg = g.leading(), g.degree
    for k in range(len(rem) - 1, gdeg - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        factor = c / glead
        q[k - gdeg] = factor
        for j, gc in enumerate(g.coeffs):
            rem[k - gdeg + j] -= factor * gc
    return UniPoly(q), UniPoly(rem[:gdeg] if gdeg > 0 else [])


def ref_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    a, b = f, g
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return a.monic() if not a.is_zero() else a


def ref_eval_interval(p: UniPoly, lo, hi) -> tuple[Fraction, Fraction]:
    alo = ahi = Fraction(0)
    for c in reversed(p.coeffs):
        vals = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(vals) + c, max(vals) + c
    return alo, ahi


PRIME = 2**61 - 1


def test_mul_matches_fraction_reference():
    rng = random.Random(43)
    for _ in range(80):
        f, g = random_poly(rng, 7, zero_ok=True), random_poly(rng, 7, zero_ok=True)
        assert f * g == ref_mul(f, g)
        assert f * 0 == UniPoly([]) and UniPoly([]) * g == UniPoly([])
        assert f * Fraction(-2, 3) == ref_mul(f, UniPoly.constant(Fraction(-2, 3)))


def test_divmod_identity():
    rng = random.Random(42)
    t = UniPoly.variable()
    cases = [(random_poly(rng, 7), random_poly(rng, 4)) for _ in range(60)]
    cases += [(random_poly(rng, 3), random_poly(rng, 6)) for _ in range(10)]
    cases += [(random_poly(rng, 5), UniPoly.constant(Fraction(-3, 7))), (UniPoly([]), t - 1)]
    cases += [(random_poly(rng, 6), t * Fraction(PRIME, 5) + 1)]
    for f, g in cases:
        q, r = divmod_poly(f, g)
        assert (q * g + r - f).is_zero()
        assert r.degree < g.degree
        assert (q, r) == ref_divmod(f, g)


def test_poly_gcd():
    t = UniPoly.variable()
    f = (t - 1) * (t - 2) * (t + 3)
    g = (t - 2) * (t + 5)
    assert poly_gcd(f, g).coeffs == (t - 2).coeffs
    assert poly_gcd(f, UniPoly([])).coeffs == f.monic().coeffs


def test_poly_gcd_matches_fraction_reference():
    rng = random.Random(44)
    t = UniPoly.variable()
    pairs = [(random_poly(rng, 7), random_poly(rng, 6)) for _ in range(40)]
    coprime = [(f, g) for f, g in pairs if ref_gcd(f, g).degree == 0]
    assert len(coprime) >= 30
    # every coprime random pair is settled modulo the prime
    assert all(realroots._coprime_mod_prime(f, g) for f, g in coprime)
    for _ in range(20):
        h = random_poly(rng, 3)
        pairs.append((random_poly(rng, 4) * h, random_poly(rng, 4) * h))
    pairs += [(random_poly(rng, 5), UniPoly([])), (UniPoly([]), random_poly(rng, 5))]
    pairs += [(UniPoly([]), UniPoly([])), (UniPoly.constant(3), random_poly(rng, 4))]
    # leading coefficients divisible by the prime, and a pair that is
    # coprime over Q but shares the factor T modulo the prime: the test
    # modulo the prime must decline each, and Euclid over Q decides
    fallback = [
        (t * t * PRIME + 1, t - 1),
        ((t - 2) * (t * PRIME + 3), (t - 2) * (t + 1)),
        (t, t - PRIME),
        (t + 1, t * Fraction(PRIME, 2) - 1),
    ]
    for f, g in fallback:
        assert not realroots._coprime_mod_prime(f, g)
    for f, g in pairs + fallback:
        assert poly_gcd(f, g) == ref_gcd(f, g)
    assert poly_gcd(t, t - PRIME) == UniPoly.constant(1)


def int_eval_interval(p: UniPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The integer interval Horner kernel's enclosure of p over [lo, hi]."""
    ints, den = p._integer_form()
    s = lcm(lo.denominator, hi.denominator)
    x0, x1 = lo.numerator * (s // lo.denominator), hi.numerator * (s // hi.denominator)
    alo, ahi = realroots._horner_interval(ints, x0, x1, s)
    scale = den * s ** max(len(ints) - 1, 0)
    return Fraction(alo, scale), Fraction(ahi, scale)


def test_eval_interval_matches_fraction_reference():
    rng = random.Random(45)
    polys = [random_poly(rng, 8, zero_ok=True) for _ in range(40)]
    polys += [UniPoly([]), UniPoly.constant(Fraction(-5, 3)), UniPoly.constant(7)]
    for p in polys:
        for _ in range(6):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            b = a + Fraction(rng.randint(0, 30), rng.randint(1, 9))
            for lo, hi in ((a, b), (a, a), (-b, -a), (-abs(a) - abs(b) - 1, -abs(a) - 1)):
                got = int_eval_interval(p, lo, hi)
                assert got == ref_eval_interval(p, lo, hi)
                assert got[0] <= got[1]
    assert int_eval_interval(UniPoly([]), Fraction(1, 3), Fraction(1, 2)) == (0, 0)
    assert int_eval_interval(UniPoly.constant(7), Fraction(-1, 3), Fraction(1, 2)) == (7, 7)


def test_squarefree_part():
    t = UniPoly.variable()
    p = (t - 1) ** 3 * (t + 2) ** 2
    sf = squarefree_part(p)
    assert sf.coeffs == ((t - 1) * (t + 2)).monic().coeffs


def test_count_real_roots_examples():
    t = UniPoly.variable()
    assert count_real_roots(t**2 - 2) == 2
    assert count_real_roots(t**2 + 1) == 0
    assert count_real_roots(t**3 - 3 * t) == 3
    assert count_real_roots((t - 1) ** 4) == 1


def test_count_matches_sympy_oracle():
    rng = random.Random(7)
    for _ in range(80):
        p = random_poly(rng)
        expected = sympy.Poly(to_sympy(p), T).count_roots()
        assert count_real_roots(p) == expected


def test_root_bound_contains_roots():
    rng = random.Random(8)
    for _ in range(40):
        p = random_poly(rng, 6)
        bound = root_bound(p)
        for r in sympy.Poly(to_sympy(p), T).real_roots():
            assert abs(float(r)) < float(bound)


def test_isolation_intervals():
    rng = random.Random(9)
    for _ in range(40):
        p = random_poly(rng)
        ivs = isolate_real_roots(p)
        roots = sorted(float(r) for r in set(sympy.Poly(to_sympy(p), T).real_roots()))
        assert len(ivs) == len(roots)
        for (lo, hi), r in zip(ivs, roots):
            assert float(lo) - 1e-12 <= r <= float(hi) + 1e-12
        for (_, h1), (l2, _) in zip(ivs, ivs[1:]):
            assert h1 <= l2


def test_isolation_exact_rational_root():
    t = UniPoly.variable()
    p = t * (t**2 - 2)
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    assert ivs[1] == (0, 0)  # bisection lands on the rational root


def test_thom_encoding_sqrt2():
    t = UniPoly.variable()
    codes = thom_encoding(t**2 - 2)
    assert codes == [(-1, 1), (1, 1)]  # -sqrt2 then +sqrt2


def test_thom_encoding_cubic():
    t = UniPoly.variable()
    codes = thom_encoding(t**3 - 3 * t)
    assert codes == [(1, -1, 1), (-1, 0, 1), (1, 1, 1)]


def test_thom_encoding_no_real_roots():
    t = UniPoly.variable()
    assert thom_encoding(t**2 + 1) == []


def test_thom_codes_distinct_random():
    rng = random.Random(10)
    for _ in range(60):
        p = random_poly(rng)
        codes = thom_encoding(p)
        assert len(set(codes)) == len(codes)
        assert len(codes) == count_real_roots(p)


def test_thom_code_collision_raises(monkeypatch):
    # a sign oracle that cannot tell the roots of T^2 - 2 apart must be
    # caught by a check that survives python -O
    t = UniPoly.variable()
    monkeypatch.setattr(realroots, "_sign_at_nonexact", lambda p, root, g: 1)
    with pytest.raises(SolverError, match="Thom codes"):
        thom_rooted(t**2 - 2)


def test_sign_at_root_sqrt2():
    t = UniPoly.variable()
    q = t**2 - 2
    plus = (1, 1)
    assert sign_at_root(q, plus, t - 1) == 1
    assert sign_at_root(q, plus, t - Fraction(3, 2)) == -1
    assert sign_at_root(q, plus, q) == 0
    assert sign_at_root(q, plus, (t + 5) * q) == 0
    assert sign_at_root(q, (-1, 1), t) == -1
    with pytest.raises(InvalidCodeError):
        sign_at_root(q, (0, 0), t)


def test_sign_at_root_matches_mpmath():
    import mpmath

    mpmath.mp.dps = 50
    rng = random.Random(11)
    checked = 0
    for _ in range(30):
        q = random_poly(rng, 6)
        p = random_poly(rng, 5)
        pairs = thom_rooted(q)
        sf = squarefree_part(q)
        for code, root in pairs:
            root.refine_to(Fraction(1, 10**12))
            got = sign_at(p, root)
            x = mpmath.findroot(
                lambda v: mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(sf.coeffs)], v),
                mpmath.mpf(str((root.lo + root.hi) / 2)),
            )
            val = mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(p.coeffs)], x)
            if abs(val) > mpmath.mpf("1e-30"):
                assert got == (1 if val > 0 else -1)
                checked += 1
    assert checked > 30


def test_refine_worked_example():
    t = UniPoly.variable()
    pt = AlgebraicPoint(
        q=t**2 - 2, q0=2 * t, coords=(t, 3 * t - 1), codes=((1, 1),) * 2
    )
    boxes = pt.refine(Fraction(1, 1000))
    x = (0.5, 1.5 - 2**0.5 / 4)
    for (lo, hi), xi in zip(boxes, x):
        assert hi - lo <= Fraction(1, 1000)
        assert float(lo) <= xi <= float(hi)
    approx = pt.approx(Fraction(1, 10**6))
    assert abs(float(approx[0]) - 0.5) < 1e-6
    assert abs(float(approx[1]) - 1.1464466094) < 1e-6


def rational_point(x):
    """An exact rational vector as a degenerate algebraic point."""
    return AlgebraicPoint(
        q=UniPoly.variable(),
        q0=UniPoly.constant(1),
        coords=tuple(UniPoly.constant(Fraction(c)) for c in x),
        codes=((1,),) * len(x),
    )


def test_refine_rejects_bad_eps():
    pt = rational_point([Fraction(1, 3)])
    with pytest.raises(DomainError):
        pt.refine(0)


def test_algebraic_point_rejects_shared_root():
    t = UniPoly.variable()
    with pytest.raises(DomainError):
        AlgebraicPoint(q=t**2 - 2, q0=t**2 - 2, coords=(t,), codes=((1, 1),))


def test_lift_rational_roundtrip(coordinate_sign):
    x = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    pt = rational_point(x)
    assert all(coordinate_sign(pt, i, offset=xi) == 0 for i, xi in enumerate(x))
    for (lo, hi), xi in zip(pt.refine(Fraction(1, 100)), x):
        assert lo <= xi <= hi


def test_coordinate_signs_and_runs(coordinate_sign):
    t = UniPoly.variable()
    # coordinates (sqrt2, sqrt2, 2) at the positive root
    pt = AlgebraicPoint(q=t**2 - 2, q0=UniPoly.constant(1),
                        coords=(t, t, UniPoly.constant(2)), codes=((1, 1),) * 3)
    assert pt.multiplicity_runs() == (2, 1)
    assert coordinate_sign(pt, 0) == 1
    assert coordinate_sign(pt, 2, offset=2) == 0
    assert pt.coordinate_compare(0, 2) == -1
    assert coordinate_sign(pt, 0, offset=Fraction(3, 2)) == -1


def test_rational_function_interval_tightens():
    t = UniPoly.variable()
    root = real_roots(t**2 - 3)[1]
    lo, hi = rational_function_interval(t + 1, UniPoly.constant(2), root, Fraction(1, 10**9))
    assert hi - lo <= Fraction(1, 10**9)
    true = (3**0.5 + 1) / 2
    assert float(lo) - 1e-12 <= true <= float(hi) + 1e-12


def test_real_roots_ordering_and_refinement():
    t = UniPoly.variable()
    roots = real_roots((t**2 - 2) * (t**2 - 3) * (t + 4))
    mids = []
    for r in roots:
        r.refine_to(Fraction(1, 10**6))
        mids.append(float((r.lo + r.hi) / 2))
    expected = sorted([-(4.0), -(3**0.5), -(2**0.5), 2**0.5, 3**0.5])
    assert mids == pytest.approx(expected, abs=1e-5)
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo or a.lo + a.hi < b.lo + b.hi


def test_sign_at_exact_root():
    t = UniPoly.variable()
    r = RealRoot(t - Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert sign_at(t, r) == 1
    assert sign_at(t - Fraction(1, 2), r) == 0
    assert sign_at(UniPoly([]), r) == 0


# -- Fraction references for the root kernel ---------------------------------
#
# Isolation, bisection, non-exact signs and quotient enclosures used to run
# on `Fraction` endpoints.  Those versions are kept here as the references
# the integer kernel must match exactly: it bisects at the same points, so
# every enclosure is the same interval.


def ref_variations(chain, x) -> int:
    signs = [s for s in (q.sign_at(x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Euclid's Sturm sequence over Q: p, p', then each negated remainder."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-divmod_poly(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def ref_isolate(sf: UniPoly) -> list[tuple[Fraction, Fraction]]:
    chain = ref_sturm_chain(sf)
    bound = root_bound(sf)
    out = []

    def rec(a, b, va, vb):
        if va - vb == 0:
            return
        if va - vb == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if sf.sign_at(mid) == 0:
            h = (b - a) / 4
            while True:
                lo, hi = mid - h, mid + h
                if (
                    sf.sign_at(lo) != 0
                    and sf.sign_at(hi) != 0
                    and ref_variations(chain, lo) - ref_variations(chain, hi) == 1
                ):
                    break
                h /= 2
            rec(a, lo, va, ref_variations(chain, lo))
            out.append((mid, mid))
            rec(hi, b, ref_variations(chain, hi), vb)
        else:
            vm = ref_variations(chain, mid)
            rec(a, mid, va, vm)
            rec(mid, b, vm, vb)

    rec(-bound, bound, ref_variations(chain, -bound), ref_variations(chain, bound))
    return sorted(out)


class RefRoot:
    """A root enclosure with `Fraction` ends, bisected as `RealRoot` is."""

    def __init__(self, poly: UniPoly, lo: Fraction, hi: Fraction):
        if poly.degree == 1:
            lo = hi = -poly.coeffs[0] / poly.coeffs[1]
        self.poly, self.lo, self.hi = poly, lo, hi

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine_to(self, width):
        if self.is_exact():
            return
        s_lo = self.poly.sign_at(self.lo)
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            s_mid = self.poly.sign_at(mid)
            if s_mid == 0:
                self.lo = self.hi = mid
                return
            if s_mid == s_lo:
                self.lo = mid
            else:
                self.hi = mid


def ref_sign_at_nonexact(p: UniPoly, root: RefRoot, g: UniPoly) -> int:
    if g.degree >= 1 and g.sign_at(root.lo) * g.sign_at(root.hi) < 0:
        return 0
    while True:
        vlo, vhi = ref_eval_interval(p, root.lo, root.hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        root.refine_to(root.width() / 4)
        if root.is_exact():
            return p.sign_at(root.lo)


def ref_rational_function_interval(num, den, root: RefRoot, width):
    while not root.is_exact():
        dlo, dhi = ref_eval_interval(den, root.lo, root.hi)
        if not (dlo <= 0 <= dhi):
            nlo, nhi = ref_eval_interval(num, root.lo, root.hi)
            vals = (nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi)
            if max(vals) - min(vals) <= width:
                return min(vals), max(vals)
        root.refine_to(root.width() / 4)
    v = num.eval(root.lo) / den.eval(root.lo)
    return v, v


def ref_thom_codes(sf: UniPoly) -> list[tuple]:
    derivs = [sf]
    for _ in range(sf.degree):
        derivs.append(derivs[-1].derivative())
    derivs = derivs[1:]
    gcds = [ref_gcd(sf, dk) for dk in derivs]
    codes = []
    for lo, hi in ref_isolate(sf):
        r = RefRoot(sf, lo, hi)
        codes.append(tuple(
            dk.sign_at(r.lo) if r.is_exact() else ref_sign_at_nonexact(dk, r, g)
            for dk, g in zip(derivs, gcds)
        ))
    return codes


def kernel_cases():
    """(squarefree sf, factor f of sf) pairs, seeded.

    Every fourth sf has the root 0, the first bisection midpoint; the fixed
    cases add rational roots that isolation or refinement lands on.
    """
    rng = random.Random(47)
    t = UniPoly.variable()
    out = []
    for k in range(48):
        f, g = random_poly(rng, 4), random_poly(rng, 4)
        if k % 4 == 0:
            g = g * t
        sf = squarefree_part(f * g)
        if sf.degree >= 1:
            out.append((sf, f))
    half = Fraction(1, 2)
    out += [
        ((t - half) * (t**2 - 3), t**2 - 3),  # refining [0, 1] lands on 1/2
        (t * (t**2 - 2), t),
        (t**3 - 3 * t, t),
        (squarefree_part((t - 1) * (t - 3) * (t**2 - 5) * (t + half)), t - 3),
    ]
    return out


def test_root_kernel_matches_fraction_reference():
    rng = random.Random(48)
    widths = (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 2**40))
    isolated_hits = refined_hits = zeros = 0
    for sf, f in kernel_cases():
        ivs = isolate_real_roots(sf)
        assert ivs == ref_isolate(sf)
        isolated_hits += sum(lo == hi for lo, hi in ivs)
        assert thom_encoding(sf) == ref_thom_codes(sf)
        num, den = random_poly(rng, 5), random_poly(rng, 4)
        probes = (random_poly(rng, 5), f * random_poly(rng, 2))
        for lo, hi in ivs:
            for width in widths:
                r, ref = RealRoot(sf, lo, hi), RefRoot(sf, lo, hi)
                r.refine_to(width)
                ref.refine_to(width)
                assert (r.lo, r.hi) == (ref.lo, ref.hi)
                refined_hits += r.is_exact() and lo != hi
            for p in probes:
                r, ref = RealRoot(sf, lo, hi), RefRoot(sf, lo, hi)
                if r.is_exact():
                    continue
                got = realroots._sign_at_nonexact(p, r, partial(poly_gcd, sf, p))
                assert got == ref_sign_at_nonexact(p, ref, ref_gcd(sf, p))
                assert (r.lo, r.hi) == (ref.lo, ref.hi)
                zeros += got == 0
            if sign_at(den, RealRoot(sf, lo, hi)) == 0:
                continue
            r, ref = RealRoot(sf, lo, hi), RefRoot(sf, lo, hi)
            for width in widths:
                got = rational_function_interval(num, den, r, width)
                assert got == ref_rational_function_interval(num, den, ref, width)
                assert (r.lo, r.hi) == (ref.lo, ref.hi)
    assert isolated_hits and refined_hits and zeros


def test_sturm_chain_is_a_positive_multiple_of_the_rational_one():
    rng = random.Random(49)
    polys = [sf for sf, _ in kernel_cases()]
    for _ in range(20):
        f, g = random_poly(rng, 4), random_poly(rng, 3)
        polys.append(f * f * g)  # not squarefree: the chain ends at gcd(p, p')
    for p in polys:
        chain, ref = realroots.sturm_chain(p), ref_sturm_chain(p)
        assert len(chain) == len(ref)
        for q, r in zip(chain, ref):
            ratio = q[-1] / r.leading()
            assert ratio > 0
            assert [Fraction(c) for c in q] == [ratio * c for c in r.coeffs]
            assert math.gcd(*q) == 1


def test_isolation_matches_the_rational_sturm_chain():
    rng = random.Random(50)
    isolated = 0
    for _ in range(40):
        sf = squarefree_part(random_poly(rng, 6) * random_poly(rng, 6))
        ivs = realroots._isolate(sf)
        assert ivs == ref_isolate(sf)
        isolated += len(ivs)
    assert isolated


def test_sturm_chain_coefficients_stay_small():
    # 15 rational roots times a degree-15 factor: the rational chain's
    # coefficients reach about 29,000 bits.  Every primitive remainder is
    # the primitive part of a subresultant of p and p', an integer
    # determinant of order at most 2n - 1 whose rows have norm at most
    # n * ||p||, hence at most (2n - 1) * log2(n * ||p||) bits (Hadamard).
    t = UniPoly.variable()
    rng = random.Random(30)
    roots = set()
    while len(roots) < 15:
        roots.add(Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
    p = t**15 - 3 * t**7 + 2 * t - 5
    for r in sorted(roots):
        p = p * (t - r)
    n = p.degree
    assert n == 30
    top = max(abs(c) for c in realroots._primitive(p._integer_form()[0])).bit_length()
    bound = (2 * n - 1) * (2 * n.bit_length() + top)
    chain = realroots.sturm_chain(p)
    assert len(chain) == n + 1
    assert max(abs(c).bit_length() for q in chain for c in q) <= bound


def test_width_must_be_positive():
    # a width of 0 would bisect an irrational root forever
    root = real_roots(UniPoly([-2, 0, 1]))[1]
    t = UniPoly.variable()
    for width in (0, -1, Fraction(-1, 3)):
        with pytest.raises(DomainError, match="positive"):
            root.refine_to(width)
        with pytest.raises(DomainError, match="positive"):
            rational_function_interval(t, UniPoly.constant(1), root, width)
    assert not root.is_exact()


def test_dyadic_floor_is_exact():
    rng = random.Random(49)
    checked = on_grid = 0
    for sf, f in kernel_cases()[:24]:
        den = random_poly(rng, 3)
        c0 = Fraction(rng.randint(-40, 40), 8)
        # num/den is c0, a grid point, at the roots of f
        for num in (random_poly(rng, 5), den.scale(c0) + f * random_poly(rng, 2)):
            for root in real_roots(sf):
                s0 = sign_at(den, root)
                if s0 == 0:
                    continue
                for m in (0, 3, 30, 64):
                    k = dyadic_floor(num, den, root, m)
                    c = Fraction(k, 2**m)
                    assert sign_at(num - den.scale(c), root) * s0 >= 0
                    assert sign_at(num - den.scale(c + Fraction(1, 2**m)), root) * s0 < 0
                    checked += 1
                    on_grid += sign_at(num - den.scale(c), root) == 0
    assert checked > 100 and on_grid > 10
