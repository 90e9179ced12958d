"""Exact real-root machinery for univariate rational polynomials.

Real roots are isolated with Sturm sequences and identified by sign codes:
the vector of signs of the derivatives at the root.  Codes are the canonical
identity of a root; isolating intervals are kept alongside and shrink on
demand.  Points in R^m appear as one root plus a tuple of coordinate
polynomials q_i with x_i = q_i(root) / q_0(root).

All arithmetic is exact.  Coefficients are stored as `fractions.Fraction`,
but the hot kernels (products, division with remainder, sign and interval
evaluation) clear denominators once and run over Python ints, building one
`Fraction` per output value.  Greatest common divisors first test
coprimality modulo the prime 2^61 - 1 and fall back to Euclid over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
        ints, _ = self._integer_form()
        if not ints:
            return 0
        a, b = x.numerator, x.denominator
        acc = 0
        bp = 1
        for c in reversed(ints):
            acc = acc * a + c * bp
            bp *= b
        return _sign(acc)

    def eval_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Enclosure of the value over [lo, hi] by interval Horner.

        Runs over integers: with b the common denominator of lo and hi, the
        accumulator after t steps is kept multiplied by den * b^t.  That
        positive scale keeps every min/max choice of rational interval
        Horner, so the enclosure is the same; it is divided out once.
        """
        ints, den = self._integer_form()
        if not ints:
            return Fraction(0), Fraction(0)
        b = lcm(lo.denominator, hi.denominator)
        x0 = lo.numerator * (b // lo.denominator)
        x1 = hi.numerator * (b // hi.denominator)
        alo = ahi = 0
        bp = 1
        for c in reversed(ints):
            p00, p01, p10, p11 = alo * x0, alo * x1, ahi * x0, ahi * x1
            cb = c * bp
            alo = min(p00, p01, p10, p11) + cb
            ahi = max(p00, p01, p10, p11) + cb
            bp *= b
        scale = den * (bp // b)
        return Fraction(alo, scale), Fraction(ahi, scale)


def _as_poly(v) -> UniPoly:
    if isinstance(v, UniPoly):
        return v
    return UniPoly.constant(v)


def interval_div(alo, ahi, blo, bhi):
    """[alo,ahi] / [blo,bhi]; the divisor interval must exclude zero."""
    if blo <= 0 <= bhi:
        raise DomainError("division by an interval containing zero")
    vals = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    return min(vals), max(vals)


def divmod_poly(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder over Q, by division over the integer forms.

    With f = F / df and g = G / dg, F is divided by G keeping the running
    remainder as R / s, R an integer vector and s > 0.  Each step scales R
    by the part of lead(G) that the top coefficient does not share, so
    every step stays in integers.
    """
    if g.is_zero():
        raise DomainError("polynomial division by zero")
    F, df = f._integer_form()
    G, dg = g._integer_form()
    m = len(G) - 1
    if len(F) <= m:
        return UniPoly([]), f
    lead = G[-1]
    R = list(F)
    s = 1
    quo = []  # (numerator, scale) of each quotient coefficient, top first
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
    q = [Fraction(b * dg, t * df) for b, t in reversed(quo)]
    return UniPoly(q), UniPoly([Fraction(x, s * df) for x in R[:m]])


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
    without rational arithmetic; every other pair runs Euclid over Q.
    """
    if _coprime_mod_prime(f, g):
        return UniPoly.constant(1)
    a, b = f, g
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1]
    return a.monic() if not a.is_zero() else a


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


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        rem = divmod_poly(chain[-2], chain[-1])[1]
        chain.append(-rem)
    chain.pop()
    return chain


def _variations(signs) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _variations_at(chain, x) -> int:
    return _variations([q.sign_at(x) for q in chain])


def _variations_at_inf(chain, direction: int) -> int:
    signs = []
    for q in chain:
        if q.is_zero():
            signs.append(0)
        else:
            s = _sign(q.leading())
            signs.append(s if direction > 0 or q.degree % 2 == 0 else -s)
    return _variations(signs)


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
    and contains exactly one root.
    """
    sf = squarefree_part(p)
    if sf.degree < 1:
        return []
    chain = sturm_chain(sf)
    bound = root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []

    def rec(a: Fraction, b: Fraction, va: int, vb: int):
        count = va - vb
        if count == 0:
            return
        if count == 1:
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
                    and _variations_at(chain, lo) - _variations_at(chain, hi) == 1
                ):
                    break
                h /= 2
            vlo, vhi = _variations_at(chain, lo), _variations_at(chain, hi)
            rec(a, lo, va, vlo)
            out.append((mid, mid))
            rec(hi, b, vhi, vb)
        else:
            vm = _variations_at(chain, mid)
            rec(a, mid, va, vm)
            rec(mid, b, vm, vb)

    rec(-bound, bound, _variations_at(chain, -bound), _variations_at(chain, bound))
    out.sort(key=lambda iv: iv[0])
    return out


class RealRoot:
    """One real root of a squarefree polynomial, with a shrinking enclosure."""

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: UniPoly, lo: Fraction, hi: Fraction):
        self.poly = poly
        if poly.degree == 1:
            r = -poly.coeffs[0] / poly.coeffs[1]
            lo = hi = r
        self.lo = lo
        self.hi = hi

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine_to(self, width: Fraction):
        """Bisect until the enclosure is at most `width` wide."""
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

    def __repr__(self):
        return f"RealRoot({self.poly!r}, [{self.lo}, {self.hi}])"


def sign_at(p: UniPoly, root: RealRoot) -> Sign:
    """Exact sign of p at the root."""
    if root.is_exact():
        return p.sign_at(root.lo)
    if p.is_zero():
        return 0
    g = poly_gcd(root.poly, p)
    return _sign_at_nonexact(p, root, g)


def _sign_at_nonexact(p: UniPoly, root: RealRoot, g: UniPoly) -> Sign:
    # the only root of root.poly in the enclosure is the root itself, so a
    # sign change of g across it decides whether p vanishes there
    if g.degree >= 1 and g.sign_at(root.lo) * g.sign_at(root.hi) < 0:
        return 0
    while True:
        vlo, vhi = p.eval_interval(root.lo, root.hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        root.refine_to(root.width() / 4)
        if root.is_exact():
            return p.sign_at(root.lo)


def real_roots(q: UniPoly) -> list[RealRoot]:
    """Roots of the squarefree part, in increasing order."""
    if q.is_zero():
        raise DomainError("zero polynomial has every point as a root")
    sf = squarefree_part(q)
    return [RealRoot(sf, lo, hi) for lo, hi in isolate_real_roots(sf)]


def thom_encoding(q: UniPoly) -> list[ThomCode]:
    """Sign codes (q', q'', ..., q^(deg)) at each real root, roots ascending.

    The polynomial is reduced to its squarefree part first, so the code
    length is the degree of that part and codes are pairwise distinct.
    """
    return [code for code, _ in thom_rooted(q)]


def thom_rooted(q: UniPoly) -> list[tuple[ThomCode, RealRoot]]:
    """Thom codes paired with their isolating roots."""
    roots = real_roots(q)
    if not roots:
        return []
    sf = roots[0].poly
    derivs = []
    d = sf
    for _ in range(sf.degree):
        d = d.derivative()
        derivs.append(d)
    gcds = [poly_gcd(sf, dk) for dk in derivs]
    out = []
    for r in roots:
        code = []
        for dk, g in zip(derivs, gcds):
            if r.is_exact():
                code.append(dk.sign_at(r.lo))
            else:
                code.append(_sign_at_nonexact(dk, r, g))
        out.append((tuple(code), r))
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


def find_root(q: UniPoly, code: ThomCode) -> RealRoot:
    for c, root in thom_rooted(q):
        if c == tuple(code):
            return root
    raise InvalidCodeError(f"no real root of {q!r} has code {tuple(code)}")


def rational_function_interval(
    num: UniPoly, den: UniPoly, root: RealRoot, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of num(root)/den(root) at most `width` wide.

    Requires den(root) != 0; the root enclosure is refined as needed.
    """
    if root.is_exact():
        v = num.eval(root.lo) / den.eval(root.lo)
        return v, v
    while True:
        dlo, dhi = den.eval_interval(root.lo, root.hi)
        if not (dlo <= 0 <= dhi):
            nlo, nhi = num.eval_interval(root.lo, root.hi)
            vlo, vhi = interval_div(nlo, nhi, dlo, dhi)
            if vhi - vlo <= width:
                return vlo, vhi
        root.refine_to(root.width() / 4)
        if root.is_exact():
            v = num.eval(root.lo) / den.eval(root.lo)
            return v, v


@dataclass(frozen=True)
class AlgebraicPoint:
    """Point of R^m with coordinates q_i(root)/q0(root).

    `q` pins down the root (via the sign code), `q0` is the common
    denominator, `coords` hold one numerator polynomial per coordinate.
    gcd(q, q0) = 1, so the denominator cannot vanish at the root.

    `enclosure` is the isolating data (squarefree part, lo, hi) of the root
    as Thom encoding left it.  The solver passes it in; a point built
    without it isolates once, on first use.  It is not part of the point's
    identity: equality, hashing and `payload()` ignore it.  `root()` hands
    out a fresh `RealRoot` on every call, because callers refine the root
    they are given and must not move each other's enclosures.
    """

    q: UniPoly
    q0: UniPoly
    coords: tuple[UniPoly, ...]
    code: ThomCode
    enclosure: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if poly_gcd(self.q, self.q0).degree > 0:
            raise DomainError("denominator shares a root with the defining polynomial")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def root(self) -> RealRoot:
        if self.enclosure is None:
            r = find_root(self.q, self.code)
            object.__setattr__(self, "enclosure", (r.poly, r.lo, r.hi))
        return RealRoot(*self.enclosure)

    def refine(self, eps) -> list[tuple[Fraction, Fraction]]:
        """Per-coordinate enclosures, each at most eps wide."""
        eps = Fraction(eps)
        if eps <= 0:
            raise DomainError("eps must be positive")
        root = self.root()
        return [
            rational_function_interval(qi, self.q0, root, eps)
            for qi in self.coords
        ]

    def approx(self, eps) -> tuple[Fraction, ...]:
        return tuple((lo + hi) / 2 for lo, hi in self.refine(eps))

    def coordinate_compare(self, i: int, j: int) -> Sign:
        """Sign of x_i - x_j, exactly."""
        root = self.root()
        return sign_at(self.coords[i] - self.coords[j], root) * sign_at(self.q0, root)

    def multiplicity_runs(self) -> tuple[int, ...]:
        """Run lengths of equal adjacent coordinates."""
        runs, run = [], 1
        for i in range(1, self.dim):
            same = (
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
            "code": list(self.code),
        }

