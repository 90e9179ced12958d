"""Exact real-root machinery for univariate rational polynomials.

Real roots are isolated with Sturm sequences and identified by sign codes:
the vector of signs of the derivatives at the root.  Codes are the canonical
identity of a root; isolating intervals are kept alongside and shrink on
demand.  Points in R^m appear as coordinate polynomials q_i over one
polynomial q, with x_i = q_i(r_i) / q_0(r_i) at a real root r_i of q that
each coordinate names by its code.

All arithmetic is exact.  Coefficients are stored as `fractions.Fraction`,
but the hot kernels (products, division with remainder, sign and interval
evaluation) clear denominators once and run over Python ints, building one
`Fraction` per output value.  A root's enclosure is [a/s, c/s] over ints
too: isolation's Sturm evaluations, bisection, endpoint signs and interval
Horner never build a `Fraction`.  A sign at a root is decided by interval
Horner over the enclosure first; the gcd that detects a zero is computed
only when that cannot decide.  `dyadic_floor` rounds a value at a root
down onto the 2^-m grid, exactly.  Greatest common divisors first test
coprimality modulo the prime 2^61 - 1 and fall back to a primitive
remainder sequence on integers.  The Sturm chain is such a sequence,
scaled only by positive factors, so it keeps the rational chain's signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from typing import Sequence

from .errors import DomainError, InvalidCodeError, SolverError

Sign = int  # -1, 0, +1
ThomCode = tuple  # tuple[Sign, ...], signs of (q', q'', ..., q^(deg))


def _sign(x) -> Sign:
    return (x > 0) - (x < 0)


class UniPoly:
    """Univariate polynomial, coefficients low-to-high, exact rationals.

    The coefficients are `Fraction`s; `_integer_form()` caches the integer
    vector and the positive denominator that the integer kernels work on.
    """

    __slots__ = ("coeffs", "_int_form")

    def __init__(self, coeffs: Sequence):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._int_form = None

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly([Fraction(c)])

    @staticmethod
    def variable() -> "UniPoly":
        return UniPoly([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def __add__(self, other) -> "UniPoly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other) -> "UniPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other) -> "UniPoly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        a, da = self._integer_form()
        b, db = other._integer_form()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        den = da * db
        return UniPoly([Fraction(c, den) for c in out])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise DomainError("negative power")
        result = UniPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c) -> "UniPoly":
        c = Fraction(c)
        return UniPoly([a * c for a in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """Integer coefficient vector after clearing denominators."""
        if self._int_form is None:
            den = lcm(*(c.denominator for c in self.coeffs))
            self._int_form = (
                tuple(c.numerator * (den // c.denominator) for c in self.coeffs),
                den,
            )
        return self._int_form

    def sign_at(self, x) -> Sign:
        """Sign of the value at a rational point, integer arithmetic only."""
        x = Fraction(x)
        return _horner_sign(self._integer_form()[0], x.numerator, x.denominator)


def _horner_sign(ints, x: int, s: int) -> Sign:
    """Sign of the integer polynomial `ints` at x/s, s > 0.

    Horner over integers: the value is kept multiplied by s^deg > 0.
    """
    acc = 0
    sp = 1
    for c in reversed(ints):
        acc = acc * x + c * sp
        sp *= s
    return _sign(acc)


def _horner_interval(ints, x0: int, x1: int, s: int) -> tuple[int, int]:
    """Interval Horner enclosure of `ints` over [x0/s, x1/s], times s^deg.

    After t steps the accumulator is kept multiplied by s^t.  That positive
    scale keeps every min/max choice of rational interval Horner, so the
    enclosure is the same one, scaled.
    """
    alo = ahi = 0
    sp = 1
    for c in reversed(ints):
        p00, p01, p10, p11 = alo * x0, alo * x1, ahi * x0, ahi * x1
        cs = c * sp
        alo = min(p00, p01, p10, p11) + cs
        ahi = max(p00, p01, p10, p11) + cs
        sp *= s
    return alo, ahi


def _as_poly(v) -> UniPoly:
    if isinstance(v, UniPoly):
        return v
    return UniPoly.constant(v)


def divmod_poly(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder over Q, by division over the integer forms."""
    if g.is_zero():
        raise DomainError("polynomial division by zero")
    F, df = f._integer_form()
    G, dg = g._integer_form()
    if len(F) < len(G):
        return UniPoly([]), f
    quo, R, s = _int_divmod(F, G)
    q = [Fraction(b * dg, t * df) for b, t in reversed(quo)]
    return UniPoly(q), UniPoly([Fraction(x, s * df) for x in R])


def _int_divmod(F, G) -> tuple[list, list, int]:
    """Division of the integer vector F by G, len(F) >= len(G).

    The running remainder is kept as R / s, R an integer vector and s > 0.
    Each step scales R by the part of lead(G) that the top coefficient does
    not share, so every step stays in integers.  Returns the quotient
    coefficients as (numerator, scale) pairs, top first, and the final R
    (len(G) - 1 entries) and s.
    """
    m = len(G) - 1
    lead = G[-1]
    R = list(F)
    s = 1
    quo = []
    for k in range(len(R) - 1, m - 1, -1):
        c = R[k]
        if not c:
            quo.append((0, 1))
            continue
        h = gcd(c, lead)
        a, b = lead // h, c // h
        if a < 0:
            a, b = -a, -b
        s *= a
        if a != 1:
            R = [a * x for x in R[:k]]
        base = k - m
        for j in range(m):
            R[base + j] -= b * G[j]
        quo.append((b, s))
    return quo, R[:m], s


_GCD_PRIME = 2**61 - 1


def _coprime_mod_prime(f: UniPoly, g: UniPoly) -> bool:
    """True when the integer forms of f and g are coprime modulo _GCD_PRIME
    and neither leading coefficient vanishes there.

    A common factor over Q is, by Gauss's lemma, a primitive integer factor
    of both integer forms; its leading coefficient divides theirs, so it
    keeps its degree modulo the prime and the gcd there is not constant.
    """
    p = _GCD_PRIME
    a = [c % p for c in f._integer_form()[0]]
    b = [c % p for c in g._integer_form()[0]]
    if not a or not b or not a[-1] or not b[-1]:
        return False
    while b:
        inv = pow(b[-1], -1, p)
        m = len(b) - 1
        while len(a) > m:
            c = a[-1] * inv % p
            base = len(a) - 1 - m
            for j in range(m):
                a[base + j] = (a[base + j] - c * b[j]) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor.

    Most calls meet coprime pairs, which the test modulo a prime settles
    without rational arithmetic.  Every other pair runs Euclid on the
    integer forms, each remainder divided by the gcd of its coefficients
    (the primitive remainder sequence), so coefficients stay small.
    """
    if _coprime_mod_prime(f, g):
        return UniPoly.constant(1)
    a, b = _primitive(f._integer_form()[0]), _primitive(g._integer_form()[0])
    while b:
        r = _int_divmod(a, b)[1] if len(a) >= len(b) else a
        while r and not r[-1]:
            r.pop()
        a, b = b, _primitive(r)
    return UniPoly(a).monic()


def _primitive(v) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic polynomial with the same roots, all simple."""
    if p.is_zero():
        raise DomainError("zero polynomial")
    if p.degree == 0:
        return UniPoly.constant(1)
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    return divmod_poly(p, g)[0].monic()


def sturm_chain(p: UniPoly) -> list[list[int]]:
    """Sturm sequence of p as integer vectors, low to high.

    Element i is a positive multiple of the rational chain's p_i, where
    p_0 = p, p_1 = p' and p_{i+1} = -rem(p_{i-1}, p_i): each remainder is
    taken on integers, scaled only by positive factors, and divided by its
    positive content, as in `poly_gcd`.  Every sign, and so every sign
    variation, is the rational chain's, but the coefficients stay small.
    """
    a = _primitive(p._integer_form()[0])
    chain = [a, _primitive([i * c for i, c in enumerate(a)][1:])]
    while chain[-1]:
        r = _int_divmod(chain[-2], chain[-1])[1]
        while r and not r[-1]:
            r.pop()
        chain.append(_primitive([-x for x in r]))
    chain.pop()
    return chain


def _variations(signs) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _variations_at_inf(chain, direction: int) -> int:
    """Sign variations of an integer Sturm chain at +inf or -inf."""
    return _variations(
        [_sign(q[-1]) if direction > 0 or len(q) % 2 else -_sign(q[-1]) for q in chain]
    )


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots."""
    sf = squarefree_part(p)
    if sf.degree < 1:
        return 0
    chain = sturm_chain(sf)
    return _variations_at_inf(chain, -1) - _variations_at_inf(chain, +1)


def root_bound(p: UniPoly) -> Fraction:
    """B with every real root strictly inside (-B, B)."""
    if p.degree < 1:
        raise DomainError("need degree >= 1")
    lead = abs(p.leading())
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree else Fraction(0)
    return 1 + m / lead


def isolate_real_roots(p: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the distinct real roots, in order.

    Rational roots hit by a bisection point come back as degenerate
    intervals [r, r]; every other interval (a, b) has p(a) != 0, p(b) != 0
    and contains exactly one root.  Intervals are [a/s, b/s] over integers
    while the Sturm sequence is evaluated; each endpoint becomes a
    `Fraction` once, on output.
    """
    return _isolate(squarefree_part(p))


def _isolate(sf: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """`isolate_real_roots` of a squarefree polynomial."""
    if sf.degree < 1:
        return []
    ints = sf._integer_form()[0]
    chain = sturm_chain(sf)
    out: list[tuple[Fraction, Fraction]] = []

    def var(x, s):
        return _variations([_horner_sign(q, x, s) for q in chain])

    def rec(a, b, s, va, vb):
        count = va - vb
        if count == 0:
            return
        if count == 1:
            out.append((Fraction(a, s), Fraction(b, s)))
            return
        mid = a + b  # over 2s
        if _horner_sign(ints, mid, 2 * s) == 0:
            # over S = 4s the root is m and the first try is m -+ h with
            # h = (b - a) / 4; doubling S with h fixed halves h
            m, h, a, b, s = 2 * mid, b - a, 4 * a, 4 * b, 4 * s
            while True:
                lo, hi = m - h, m + h
                if _horner_sign(ints, lo, s) and _horner_sign(ints, hi, s):
                    vlo, vhi = var(lo, s), var(hi, s)
                    if vlo - vhi == 1:
                        break
                m, a, b, s = 2 * m, 2 * a, 2 * b, 2 * s
            rec(a, lo, s, va, vlo)
            out.append((Fraction(m, s), Fraction(m, s)))
            rec(hi, b, s, vhi, vb)
        else:
            vm = var(mid, 2 * s)
            rec(2 * a, mid, 2 * s, va, vm)
            rec(mid, 2 * b, 2 * s, vm, vb)

    bound = root_bound(sf)
    B, s = bound.numerator, bound.denominator
    rec(-B, B, s, var(-B, s), var(B, s))
    return out


class RealRoot:
    """One real root of a squarefree polynomial, with a shrinking enclosure.

    The enclosure is [a/s, c/s] over integers, s > 0.  Bisection doubles s,
    so it runs on integers; `lo`, `hi` and `width()` build `Fraction`s only
    when they are read.
    """

    __slots__ = ("poly", "a", "c", "s", "_sign_lo")

    def __init__(self, poly: UniPoly, lo: Fraction, hi: Fraction):
        self.poly = poly
        if poly.degree == 1:
            lo = hi = -poly.coeffs[0] / poly.coeffs[1]
        lo, hi = Fraction(lo), Fraction(hi)
        self.s = lcm(lo.denominator, hi.denominator)
        self.a = lo.numerator * (self.s // lo.denominator)
        self.c = hi.numerator * (self.s // hi.denominator)
        self._sign_lo = None  # sign of poly at the lower end, never 0

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.s)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.c, self.s)

    def is_exact(self) -> bool:
        return self.a == self.c

    def width(self) -> Fraction:
        return Fraction(self.c - self.a, self.s)

    def refine_to(self, width: Fraction):
        """Bisect until the enclosure is at most `width` wide."""
        width = Fraction(width)
        if width <= 0:
            raise DomainError("width must be positive")
        while (self.c - self.a) * width.denominator > width.numerator * self.s:
            self._bisect(1)

    def _bisect(self, times: int):
        """Halve the enclosure `times` times, or until a midpoint is the root.

        The lower end moves only to points where poly has its sign, so that
        sign is taken once.
        """
        ints = self.poly._integer_form()[0]
        for _ in range(times):
            if self.a == self.c:
                return
            if self._sign_lo is None:
                self._sign_lo = _horner_sign(ints, self.a, self.s)
            mid = self.a + self.c
            self.s *= 2
            s_mid = _horner_sign(ints, mid, self.s)
            if s_mid == 0:
                self.a = self.c = mid
            elif s_mid == self._sign_lo:
                self.a, self.c = mid, 2 * self.c
            else:
                self.a, self.c = 2 * self.a, mid

    def __repr__(self):
        return f"RealRoot({self.poly!r}, [{self.lo}, {self.hi}])"


def _enclosure_sign(ints, root: RealRoot) -> Sign:
    """Sign of `ints` over the root's enclosure, 0 when that cannot decide."""
    lo, hi = _horner_interval(ints, root.a, root.c, root.s)
    return 1 if lo > 0 else -1 if hi < 0 else 0


def sign_at(p: UniPoly, root: RealRoot) -> Sign:
    """Exact sign of p at the root."""
    if root.is_exact():
        return _horner_sign(p._integer_form()[0], root.a, root.s)
    if p.is_zero():
        return 0
    return _sign_at_nonexact(p, root, partial(poly_gcd, root.poly, p))


def _sign_at_nonexact(p: UniPoly, root: RealRoot, g) -> Sign:
    """Sign of p at a root whose enclosure is not a point.

    Interval Horner over the enclosure decides first.  Only when it cannot
    is g() called for gcd(root.poly, p): the only root of root.poly in the
    enclosure is the root itself, so a sign change of that gcd across the
    enclosure means p vanishes there.  Otherwise the root is bisected
    until the enclosure decides.
    """
    ints = p._integer_form()[0]
    s = _enclosure_sign(ints, root)
    if s:
        return s
    gi = g()._integer_form()[0]
    if len(gi) > 1 and _horner_sign(gi, root.a, root.s) * _horner_sign(gi, root.c, root.s) < 0:
        return 0
    while True:
        root._bisect(2)
        if root.is_exact():
            return _horner_sign(ints, root.a, root.s)
        s = _enclosure_sign(ints, root)
        if s:
            return s


def real_roots(q: UniPoly) -> list[RealRoot]:
    """Roots of the squarefree part, in increasing order."""
    if q.is_zero():
        raise DomainError("zero polynomial has every point as a root")
    sf = squarefree_part(q)
    return [RealRoot(sf, lo, hi) for lo, hi in _isolate(sf)]


def thom_encoding(q: UniPoly) -> list[ThomCode]:
    """Sign codes (q', q'', ..., q^(deg)) at each real root, roots ascending.

    The polynomial is reduced to its squarefree part first, so the code
    length is the degree of that part and codes are pairwise distinct.
    """
    return [code for code, _ in thom_rooted(q)]


def thom_rooted(q: UniPoly) -> list[tuple[ThomCode, RealRoot]]:
    """Thom codes paired with their isolating roots.

    The gcd of the squarefree part with a derivative is computed once, for
    the first root whose enclosure cannot decide that derivative's sign.
    """
    roots = real_roots(q)
    if not roots:
        return []
    sf = roots[0].poly
    derivs = []
    d = sf
    for _ in range(sf.degree):
        d = d.derivative()
        derivs.append(d)
    gcds = [cache(partial(poly_gcd, sf, dk)) for dk in derivs]
    out = []
    for r in roots:
        if r.is_exact():
            code = tuple(_horner_sign(dk._integer_form()[0], r.a, r.s) for dk in derivs)
        else:
            code = tuple(_sign_at_nonexact(dk, r, g) for dk, g in zip(derivs, gcds))
        out.append((code, r))
    codes = [c for c, _ in out]
    if len(set(codes)) != len(codes):
        raise SolverError(f"Thom codes of {sf!r} do not distinguish its roots")
    return out


def sign_at_root(q: UniPoly, code: ThomCode, p: UniPoly) -> Sign:
    """Sign of p at the real root of q identified by the sign code."""
    for c, root in thom_rooted(q):
        if c == tuple(code):
            return sign_at(p, root)
    raise InvalidCodeError(f"no real root of {q!r} has code {tuple(code)}")


def _quotient_enclosure(num: UniPoly, den: UniPoly, root: RealRoot):
    """(A, B, C, E) with num/den over the root's enclosure in [A/B, C/E].

    B, E > 0, and the ends are the same as those of interval division of
    the two interval Horner enclosures.  None when den's enclosure meets
    zero.
    """
    nints, nd = num._integer_form()
    dints, dd = den._integer_form()
    a, c, s = root.a, root.c, root.s
    dlo, dhi = _horner_interval(dints, a, c, s)
    if dlo <= 0 <= dhi:
        return None
    nlo, nhi = _horner_interval(nints, a, c, s)
    if dhi < 0:
        nlo, nhi, dlo, dhi = -nhi, -nlo, -dhi, -dlo
    # num = n / (nd s^deg num) and den = d / (dd s^deg den) over the enclosure
    k = len(dints) - len(nints)
    f, g = (dd * s**k, nd) if k >= 0 else (dd, nd * s**-k)
    return (
        nlo * f,
        (dhi if nlo >= 0 else dlo) * g,
        nhi * f,
        (dlo if nhi >= 0 else dhi) * g,
    )


def rational_function_interval(
    num: UniPoly, den: UniPoly, root: RealRoot, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of num(root)/den(root) at most `width` wide.

    Requires den(root) != 0; the root enclosure is refined as needed.
    """
    width = Fraction(width)
    if width <= 0:
        raise DomainError("width must be positive")
    while not root.is_exact():
        q = _quotient_enclosure(num, den, root)
        if q is not None:
            A, B, C, E = q
            if (C * B - A * E) * width.denominator <= width.numerator * B * E:
                return Fraction(A, B), Fraction(C, E)
        root._bisect(2)
    v = num.eval(root.lo) / den.eval(root.lo)
    return v, v


def dyadic_floor(num: UniPoly, den: UniPoly, root: RealRoot, m: int) -> int:
    """floor(2^m num(root)/den(root)), decided exactly; den(root) != 0.

    The root is bisected until the quotient's enclosure lies in one cell of
    the 2^-m grid or is at most 2^-m wide.  In the second case it straddles
    one grid point g, and the sign of num - g den at the root decides.  An
    enclosure 2^b cells wide takes b bisections at once: the enclosure
    shrinks about as fast as the root's, and a bisection costs one sign
    evaluation where an enclosure costs two interval evaluations.
    """
    while not root.is_exact():
        q = _quotient_enclosure(num, den, root)
        steps = 2
        if q is not None:
            A, B, C, E = q
            k = (A << m) // B
            if (C << m) // E == k:
                return k
            if (C * B - A * E) << m <= B * E:
                g = Fraction(k + 1, 1 << m)
                above = sign_at(num - den.scale(g), root) * sign_at(den, root) >= 0
                return k + 1 if above else k
            steps = max(steps, ((C * B - A * E) << m).bit_length() - (B * E).bit_length())
        root._bisect(steps)
    v = num.eval(root.lo) / den.eval(root.lo)
    return (v.numerator << m) // v.denominator


def root_index(num: UniPoly, den: UniPoly, root: RealRoot, roots: list[RealRoot]) -> int:
    """Index k with num(root)/den(root) equal to the root roots[k].

    `roots` are the isolating enclosures of distinct real roots of one
    polynomial, as `real_roots` gives them, and the value must be one of
    those roots.  It lies inside its own enclosure and outside the closure
    of every other, so bisecting `root` until the value's enclosure meets
    exactly one of them decides the index exactly.
    """
    if len(roots) == 1:
        return 0
    while True:
        q = _quotient_enclosure(num, den, root)
        if q is not None:
            A, B, C, E = q
            hits = [
                k for k, b in enumerate(roots) if A * b.s <= b.c * B and b.a * E <= C * b.s
            ]
            if len(hits) == 1:
                return hits[0]
        if root.is_exact():
            raise SolverError("value is not a root of the given polynomial")
        root._bisect(2)


def compare_values(
    num1: UniPoly, den1: UniPoly, root1: RealRoot, num2: UniPoly, den2: UniPoly, root2: RealRoot
) -> Sign:
    """Sign of num1/den1 at root1 minus num2/den2 at root2.

    Both roots are bisected until the two values' enclosures are disjoint,
    so the values must differ unless both roots are exact.
    """
    width = Fraction(1)
    while True:
        lo1, hi1 = rational_function_interval(num1, den1, root1, width)
        lo2, hi2 = rational_function_interval(num2, den2, root2, width)
        if hi1 < lo2 or hi2 < lo1 or lo1 == hi1 == lo2 == hi2:
            return _sign(lo1 - lo2)
        width /= 256


@dataclass(frozen=True)
class AlgebraicPoint:
    """Point of R^m whose coordinate i is q_i(r_i)/q0(r_i) at a real root r_i of q.

    `q` and its sign codes pin down the roots: `codes[i]` is r_i's code,
    `q0` is the common denominator, `coords` hold one numerator polynomial
    per coordinate.  gcd(q, q0) = 1, so the denominator cannot vanish at a
    root.  Coordinates on one root are compared by exact signs there.
    Equal coordinates must share a root, as they do in the solver's points,
    so two coordinates on different roots differ, and refining both
    enclosures decides their order.  A point whose coordinates all share
    one root is a rational parametrization at that root.

    `enclosures` holds the isolating data (squarefree part, lo, hi) of each
    coordinate's root as Thom encoding left it.  The solver passes it in;
    a point built without it isolates once, on first use.  It is not part
    of the point's identity: equality, hashing and `payload()` ignore it.
    `root(i)` hands out a fresh `RealRoot` on every call, because callers
    refine the root they are given and must not move each other's
    enclosures.
    """

    q: UniPoly
    q0: UniPoly
    coords: tuple[UniPoly, ...]
    codes: tuple[ThomCode, ...]
    enclosures: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.codes) != len(self.coords):
            raise DomainError("need one root code per coordinate")
        if poly_gcd(self.q, self.q0).degree > 0:
            raise DomainError("denominator shares a root with the defining polynomial")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def root(self, i: int = 0) -> RealRoot:
        """Coordinate i's root."""
        if self.enclosures is None:
            found = {c: (r.poly, r.lo, r.hi) for c, r in thom_rooted(self.q)}
            missing = [c for c in self.codes if tuple(c) not in found]
            if missing:
                raise InvalidCodeError(f"no real root of {self.q!r} has code {tuple(missing[0])}")
            object.__setattr__(self, "enclosures", tuple(found[tuple(c)] for c in self.codes))
        return RealRoot(*self.enclosures[i])

    def refine(self, eps) -> list[tuple[Fraction, Fraction]]:
        """Per-coordinate enclosures, each at most eps wide."""
        roots = {c: self.root(i) for i, c in enumerate(self.codes)}
        return [
            rational_function_interval(qi, self.q0, roots[c], eps)
            for qi, c in zip(self.coords, self.codes)
        ]

    def approx(self, eps) -> tuple[Fraction, ...]:
        return tuple((lo + hi) / 2 for lo, hi in self.refine(eps))

    def coordinate_compare(self, i: int, j: int) -> Sign:
        """Sign of x_i - x_j, exactly."""
        if self.codes[i] != self.codes[j]:
            return compare_values(
                self.coords[i], self.q0, self.root(i), self.coords[j], self.q0, self.root(j)
            )
        root = self.root(i)
        return sign_at(self.coords[i] - self.coords[j], root) * sign_at(self.q0, root)

    def multiplicity_runs(self) -> tuple[int, ...]:
        """Run lengths of equal adjacent coordinates."""
        runs, run = [], 1
        for i in range(1, self.dim):
            same = self.codes[i] == self.codes[i - 1] and (
                self.coords[i] == self.coords[i - 1]
                or self.coordinate_compare(i, i - 1) == 0
            )
            if same:
                run += 1
            else:
                runs.append(run)
                run = 1
        runs.append(run)
        return tuple(runs)

    def payload(self) -> dict:
        """JSON-ready serialization; coefficients as exact strings."""
        def ser(p: UniPoly):
            return [str(c) for c in p.coeffs]

        return {
            "q": ser(self.q),
            "q0": ser(self.q0),
            "coords": [ser(c) for c in self.coords],
            "codes": [list(c) for c in self.codes],
        }
