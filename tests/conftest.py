"""Test-wide settings.

Property tests run under a fixed hypothesis profile: examples come from a
derandomized search, nothing is saved to an example database, and no
deadline applies, so every run draws and checks the same examples.
Hypothesis also caches the constants it reads from the source files; that
cache goes to the system temporary directory, not into the checkout.
"""

import random
import tempfile
from fractions import Fraction
from math import perm, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from symconn.polynomials import Constraint, PowerSumPoly, Relation, SymmetricSystem, make_box
from symconn.realroots import UniPoly, divmod_poly, poly_gcd, real_roots, root_index, sign_at
from symconn.vandermonde import _Krylov

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symconn-hypothesis")


@pytest.fixture
def calls(monkeypatch):
    """calls(owner, name) wraps owner.name and returns its calls' arguments.

    The list grows by one positional-argument tuple per call, in call
    order; for a method the tuple starts with the instance.
    """

    def count(owner, name):
        seen = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return seen

    return count


def _value_min_poly(num, pt):
    """Minimal polynomial over Q of num/q0 at the roots of pt.q."""
    X = sympy.Symbol("X")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(str(c)) for c in reversed(p.coeffs)], X, domain="QQ")

    q = to_sympy(pt.q)
    h = (to_sympy(num) * sympy.invert(to_sympy(pt.q0), q)).rem(q)
    h = UniPoly([Fraction(str(c)) for c in reversed(h.all_coeffs())])
    cols = [divmod_poly(h * UniPoly.variable() ** i, pt.q)[1].coeffs for i in range(pt.q.degree)]
    M = [[c[r] if r < len(c) else Fraction(0) for c in cols] for r in range(pt.q.degree)]
    return _Krylov(M).min_poly


def _same_value(pt, num1, i, num2, j):
    """Exactly: num1/q0 at coordinate i's root equals num2/q0 at j's root.

    Both values are roots of their minimal polynomials, so they are equal
    iff both are roots of the gcd g and the same one of its real roots.
    """
    r1, r2 = pt.root(i), pt.root(j)
    if pt.codes[i] == pt.codes[j]:
        return sign_at(num1 - num2, r1) == 0
    g = poly_gcd(_value_min_poly(num1, pt), _value_min_poly(num2, pt))
    if g.degree < 1:
        return False
    for num, r in ((num1, r1), (num2, r2)):
        at = sum(
            (num**k * pt.q0 ** (g.degree - k)).scale(c) for k, c in enumerate(g.coeffs)
        )
        if sign_at(at, r):
            return False
    roots = real_roots(g)
    return root_index(num1, pt.q0, r1, roots) == root_index(num2, pt.q0, r2, roots)


def _power_sum(pt, weights, a, j):
    """(num, den, root) with sum_k w_k z_k^j = num(root) / den(root), exactly.

    A point on one root needs nothing else.  A point whose coordinates sit
    on several roots is first checked against the fiber a, by exact tests
    only, to be a solution whose largest equal-weight group (c, m) takes
    its values there: every other coordinate has one value at all of the
    point's roots, and each distinct group value t of multiplicity mu is a
    root of F^(0..mu-1) for F = T^m - E_1 T^(m-1) + ..., built from a and
    the other coordinates at t's root by Newton's identities; as the mu add
    up to m, the group's values are F's roots.  The group's power sums then
    come from F's coefficients by Newton's identities, at one root.  Every
    quantity X at a root is kept as X q0^k for the k that makes it a
    polynomial, reduced modulo q.
    """
    q, q0 = pt.q, pt.q0
    root0 = pt.root(0)
    if len(set(pt.codes)) == 1:
        terms = [(ck**j).scale(Fraction(wk)) for wk, ck in zip(weights, pt.coords)]
        return sum(terms, UniPoly([])), q0**j, root0

    def red(p):
        return divmod_poly(p, q)[1]

    classes = {}
    for k, wk in enumerate(weights):
        classes.setdefault(wk, []).append(k)
    group = max(classes.values(), key=len)
    c, m = Fraction(weights[group[0]]), len(group)
    others = [k for k in range(len(weights)) if k not in group]
    hosts = {code: i for i, code in enumerate(pt.codes)}
    for k in others:
        assert all(_same_value(pt, pt.coords[k], k, pt.coords[k], i) for i in hosts.values())
    clusters = []  # [group coordinate, multiplicity]
    for k in group:
        hit = next(
            (cl for cl in clusters if _same_value(pt, pt.coords[k], k, pt.coords[cl[0]], cl[0])),
            None,
        )
        if hit:
            hit[1] += 1
        else:
            clusters.append([k, 1])

    def total(terms):
        return red(sum(terms, UniPoly([])))

    # N_j = c P_j q0^j, the group's power sums, and E_n q0^n by Newton
    N = [None] + [
        total([(q0**j).scale(Fraction(aj))]
              + [(pt.coords[k] ** j).scale(-Fraction(weights[k])) for k in others])
        for j, aj in enumerate(a, start=1)
    ]
    E = [UniPoly.constant(1)]
    for n in range(1, m + 1):
        terms = [(E[n - l] * N[l]).scale((-1) ** (l - 1)) for l in range(1, n + 1)]
        E.append(total(terms).scale(1 / (n * c)))
    for k, mu in clusters:
        r, t = pt.root(k), pt.coords[k]
        for n in range(mu):
            deriv = [
                (E[i] * t ** (m - i - n)).scale((-1) ** i * perm(m - i, n))
                for i in range(m - n + 1)
            ]
            assert sign_at(total(deriv), r) == 0
        for jj in range(m + 1, len(a) + 1):
            rel = [N[jj]] + [(E[i] * N[jj - i]).scale((-1) ** i) for i in range(1, m + 1)]
            assert sign_at(total(rel), r) == 0
    # power sums of F's roots times q0^i, by Newton's identities
    P = [None]
    for i in range(1, j + 1):
        terms = [(E[l] * P[i - l]).scale((-1) ** (l - 1)) for l in range(1, min(i - 1, m) + 1)]
        if i <= m:
            terms.append(E[i].scale((-1) ** (i - 1) * i))
        P.append(total(terms))
    terms = [(pt.coords[k] ** j).scale(Fraction(weights[k])) for k in others]
    return total(terms) + P[j].scale(c), q0**j, root0


def _power_sum_sign(pt, weights, a, j, value) -> int:
    num, den, root = _power_sum(pt, weights, a, j)
    return sign_at(num - den.scale(Fraction(value)), root) * sign_at(den, root)


@pytest.fixture
def power_sum_sign():
    """power_sum_sign(pt, weights, a, j, c): sign of sum_k w_k z_k^j - c,
    exactly, for a point on the fiber over a (see `_power_sum`)."""
    return _power_sum_sign


@pytest.fixture
def power_sum_within():
    """power_sum_within(pt, weights, a, j, value, tol): decides exactly that
    |sum_k w_k z_k^j - value| < tol at the point."""

    def within(pt, weights, a, j, value, tol):
        value = Fraction(value)
        return (
            _power_sum_sign(pt, weights, a, j, value - tol) > 0
            and _power_sum_sign(pt, weights, a, j, value + tol) < 0
        )

    return within


@pytest.fixture
def coordinate_sign():
    """coordinate_sign(pt, i, offset=0): sign of x_i - offset, exactly.

    x_i - offset is (q_i - offset q0) / q0 at coordinate i's root.
    """

    def sign(pt, i, offset=0):
        root = pt.root(i)
        num = pt.coords[i] - pt.q0.scale(Fraction(offset))
        return sign_at(num, root) * sign_at(pt.q0, root)

    return sign


@pytest.fixture
def solves_system():
    """solves_system(pt, weights, a): the point solves
    sum_k w_k z_k^j = a_j for j = 1..len(a), exactly."""

    def solves(pt, weights, a):
        return all(
            _power_sum_sign(pt, weights, a, j, aj) == 0 for j, aj in enumerate(a, start=1)
        )

    return solves


def _slab_system(n, c, roots):
    # coefficients of c * prod_k (t - r_k), lowest power first, as a
    # polynomial in Z_1 alone
    coeffs = [Fraction(c)]
    for r in roots:
        coeffs = [a - Fraction(r) * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    poly = PowerSumPoly(4, {(k, 0, 0, 0): a for k, a in enumerate(coeffs)})
    return SymmetricSystem(
        n=n, d=4, constraints=(Constraint(poly, Relation.GE),), box=make_box(n, -1, 1)
    )


@pytest.fixture
def slab_system():
    """slab_system(n, c, roots): c * prod_k (p1 - r_k) >= 0 on [-1, 1]^n, d = 4.

    Every slab {a <= p1 <= b} of the box is convex, so the set has one
    component per interval of {c * prod_k (t - r_k) >= 0} inside [-n, n],
    the range of p1 on the box.
    """
    return _slab_system


@pytest.fixture
def random_slab_systems():
    """random_slab_systems(seed, size): size seeded (system, roots, components).

    n is 5, 6 or 7, c is 1 or -1, and there are 1 to 4 roots on the
    quarter lattice in [-(n - 1), n - 1], at least 1 apart, so every
    interval of the set's p1 range is at least 1 long.  The count is the
    number of intervals, computed exactly.
    """

    def draw(seed, size):
        rng = random.Random(seed)
        out = []
        while len(out) < size:
            n, c = rng.choice((5, 6, 7)), rng.choice((1, -1))
            roots = sorted(
                Fraction(rng.randint(-4 * (n - 1), 4 * (n - 1)), 4)
                for _ in range(rng.randint(1, 4))
            )
            if any(b - a < 1 for a, b in zip(roots, roots[1:])):
                continue
            cuts = [-n, *roots, n]
            up = [
                c * prod((a + b) / 2 - r for r in roots) >= 0
                for a, b in zip(cuts, cuts[1:])
            ]
            # neighbors that are both nonnegative meet at their shared cut
            components = sum(1 for k, u in enumerate(up) if u and (k == 0 or not up[k - 1]))
            out.append((_slab_system(n, c, roots), roots, components))
        return out

    return draw
