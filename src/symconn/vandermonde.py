"""Exact solving of weighted power-sum systems.

A face of the sorted chamber with blocks of sizes (w_1, ..., w_d) meets the
fiber over a = (a_1, ..., a_d) where sum_k w_k z_k^j = a_j for j = 1..d.
These square systems have finitely many complex solutions; they are returned
as a rational parametrization (q, q0, q_1..q_d): each solution is
(q_1/q0, ..., q_d/q0) evaluated at a root of q, with gcd(q, q0) = 1.

Degrees one and two admit closed forms by linear elimination.  Higher degrees
build the multiplication matrices of the quotient algebra from the system's
symmetry under permuting blocks of equal weight (Faugere & Svartz 2013).  The
largest such group is solved through its elementary symmetric functions,
which Newton's identities express in the other unknowns, leaving a system J
in those alone; the Cauchy modules then split the group's values, and they
are a Groebner basis as they stand.  J in one unknown is one polynomial with
a companion matrix, which covers every d = 3 face.  Only J in two or more
unknowns takes a Groebner basis, computed with normal forms in sympy's
sparse polynomial ring; a border monomial that leads a basis element takes
its normal form from that element, and the others are reduced by sympy.
That is the only use of sympy.  The algebra is then divided by its
nilradical, the ideal of the coordinates' squarefree minimal polynomials
(Seidenberg).  A separating linear form mu then has a minimal polynomial q
of degree D = dim A, its Krylov basis 1, mu, ..., mu^(D-1) spans the algebra,
and each coordinate's expansion in that basis gives the parametrization.

The matrices hold `Fraction`s, but the linear algebra on them clears
denominators once and runs over Python ints: one fraction-free (Bareiss)
elimination of a matrix's integer Krylov iterates gives its minimal
polynomial, polynomials in it applied to 1, and vectors' expansions in the
iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm
from typing import Sequence

from .compositions import Composition, extremal_compositions
from .errors import DomainError, SolverError
from .realroots import (
    AlgebraicPoint,
    UniPoly,
    _primitive,
    divmod_poly,
    poly_gcd,
    sign_at,
    squarefree_part,
    thom_rooted,
)


@dataclass(frozen=True)
class Parametrization:
    """Shared root data for all solutions of one weighted system."""

    q: UniPoly
    q0: UniPoly
    coords: tuple[UniPoly, ...]


def solve_weighted_system(
    weights: Sequence[int], a: Sequence
) -> Parametrization | None:
    """Parametrize the solutions of sum_k w_k z_k^j = a_j, j = 1..len(a).

    Returns None when the system has no complex solutions at all.
    """
    if len(weights) != len(a):
        raise DomainError("need as many weights as right-hand sides")
    if not weights or any(int(w) != w or w < 1 for w in weights):
        raise DomainError("weights must be positive integers")
    w = [int(v) for v in weights]
    rhs = [Fraction(v) for v in a]
    d = len(w)
    if d == 1:
        return Parametrization(
            q=UniPoly([-rhs[0], Fraction(w[0])]),
            q0=UniPoly.constant(1),
            coords=(UniPoly.variable(),),
        )
    if d == 2:
        return _solve_pair(w, rhs)
    return _solve_generic(w, rhs)


def _solve_pair(w, rhs) -> Parametrization:
    # eliminate z1 = (a1 - w2 T)/w1 from the quadratic constraint; T = z2
    w1, w2 = Fraction(w[0]), Fraction(w[1])
    a1, a2 = rhs
    q = UniPoly([a1 * a1 - w1 * a2, -2 * a1 * w2, w2 * w2 + w1 * w2])
    q = squarefree_part(q)
    return Parametrization(
        q=q,
        q0=UniPoly.constant(w1),
        coords=(UniPoly([a1, -w2]), UniPoly([0, w1])),
    )


# -- generic path (d >= 3) --------------------------------------------------


def _solve_generic(w, rhs) -> Parametrization | None:
    mats = _fiber_algebra(w, rhs)
    if mats is None:
        return None

    # quotient by the ideal of the squarefree parts of the coordinates'
    # minimal polynomials where those have repeated roots; it holds a
    # squarefree univariate polynomial in every variable, so it is radical
    # (Seidenberg) and the quotient is reduced
    krylovs = [_Krylov(M) for M in mats]
    nilpotent = []
    for kry in krylovs:
        sf = squarefree_part(kry.min_poly)
        if sf.degree < kry.min_poly.degree:
            nilpotent.append(kry.at_one(sf))
    if nilpotent:
        return _parametrize(_quotient_by_ideal(mats, nilpotent))
    return _parametrize(mats, krylovs)


def _parametrize(mats, krylovs=None) -> Parametrization:
    """Rational parametrization of a reduced algebra's points.

    mats are the coordinates' multiplication matrices, basis element 0 is
    1; `krylovs`, when given, are their `_Krylov`s, so the single-coordinate
    candidates reuse them.  The result depends on the algebra alone, not
    on its basis.  A separating mu makes A = Q[mu]/(q), so z_i = g_i(mu)
    for the g_i with z_i * 1 = g_i(mu) * 1, and z_i = q_i / q' at the
    roots of q with q_i = g_i q' mod q.
    """
    d = len(mats)
    D = len(mats[0])
    for cand in _separating_candidates(d, D):
        if krylovs and sum(cand) == 1:  # the single coordinate cand.index(1)
            kry = krylovs[cand.index(1)]
        else:
            kry = _Krylov(_mat_combine(mats, cand, D))
        if kry.min_poly.degree == D:
            break
    else:
        raise SolverError("no separating linear form found")
    q = kry.min_poly
    q0 = q.derivative()
    if poly_gcd(q, q0).degree > 0:
        raise SolverError("separating form produced a non-squarefree eliminant")
    coords = tuple(
        divmod_poly(kry.express([row[0] for row in M]) * q0, q)[1] for M in mats
    )
    return Parametrization(q=q, q0=q0, coords=coords)


def _fiber_algebra(w, rhs):
    """Multiplication matrices of z_1..z_d on Q[z]/I, I the weighted system.

    The largest group of m blocks with a common weight is solved through
    its elementary symmetric functions (`_newton_reduction`): with y the
    other r = d - m unknowns, I = (e_i(x) - E_i(y)) + J for polynomials
    E_i and r equations J in y alone.  So Q[z]/I is B[x]/(e_i(x) - E_i)
    over B = Q[y]/J: the splitting algebra of t^m - E_1 t^(m-1) + ...,
    free over B with the basis x_0^a_0 ... x_(m-1)^a_(m-1), a_k < m - k
    (`_cauchy_reduce`).  Basis element (a, b) is x^a times B's element b.

    B is Q for r = 0 and a companion matrix for r = 1, so neither needs a
    Groebner basis; r >= 2 takes one of J from `_quotient_data`.  Basis
    element 0 is 1.  None when the system has no complex solutions.
    """
    group, others, E, J = _newton_reduction(w, rhs)
    base = _base_algebra(J, len(others))
    if base is None:
        return None
    basis, bmats = base
    DB = len(basis)
    ME = [None] + [_base_matrix(ek, basis, bmats) for ek in E[1:]]

    m = len(group)
    alphas = list(product(*(range(m - k) for k in range(m))))
    pos = {a: i for i, a in enumerate(alphas)}
    D = len(alphas) * DB
    steps = _cauchy_steps(m)
    mats = [None] * len(w)
    for slot, k in enumerate(others):
        M = [[Fraction(0)] * D for _ in range(D)]
        for off in range(0, D, DB):
            for row in range(DB):
                M[off + row][off:off + DB] = bmats[slot][row]
        mats[k] = M
    for slot, k in enumerate(group):
        M = [[Fraction(0)] * D for _ in range(D)]
        for a in alphas:
            nxt = tuple(e + (s == slot) for s, e in enumerate(a))
            for b in range(DB):
                unit = [Fraction(int(i == b)) for i in range(DB)]
                col = pos[a] * DB + b
                for a2, v in _cauchy_reduce({nxt: unit}, m, ME, steps).items():
                    off = pos[a2] * DB
                    for row, x in enumerate(v):
                        M[off + row][col] = x
        mats[k] = M
    return mats


def _newton_reduction(w, rhs):
    """(group, others, E, J) for the largest equal-weight group of blocks.

    The group's m blocks have weight c; y are the other r unknowns.
    Equation j gives the group's power sum P_j = (a_j - sum_k w_k y_k^j) / c.
    Newton's identities turn P_1..P_m into e_1..e_m, the polynomials
    E_1..E_m in y, and give P_j = sum_i (-1)^(i-1) e_i P_(j-i) for j > m,
    so equation j > m becomes the polynomial
    sum_i (-1)^(i-1) E_i P_(j-i) - P_j in J.  Polynomials are dicts from
    exponent tuples over y to `Fraction`s; E[0] is 1.
    """
    groups: dict = {}
    for k, wk in enumerate(w):
        groups.setdefault(wk, []).append(k)
    group = max(groups.values(), key=len)
    c, m = w[group[0]], len(group)
    others = [k for k in range(len(w)) if k not in group]
    r = len(others)

    zero = (0,) * r
    P = [None]
    for j in range(1, len(w) + 1):
        pj = {zero: rhs[j - 1] / c}
        for slot, k in enumerate(others):
            pj[tuple(j if s == slot else 0 for s in range(r))] = Fraction(-w[k], c)
        P.append(pj)
    E = [{zero: Fraction(1)}]
    for k in range(1, m + 1):
        ek: dict = {}
        for i in range(1, k + 1):
            _add_into(ek, _poly_mul(E[k - i], P[i]), Fraction((-1) ** (i - 1), k))
        E.append(ek)
    J = []
    for j in range(m + 1, len(w) + 1):
        jj: dict = {}
        for i in range(1, m + 1):
            _add_into(jj, _poly_mul(E[i], P[j - i]), (-1) ** (i - 1))
        _add_into(jj, P[j], -1)
        J.append(jj)
    return group, others, E, J


def _base_algebra(J, r):
    """(monomial basis, multiplication matrices) of B = Q[y_1..y_r]/J."""
    if r == 0:
        return [()], []
    if r == 1:
        (g,) = J
        g = UniPoly([g.get((k,), 0) for k in range(max(g, default=(-1,))[0] + 1)])
        if g.is_zero():
            raise SolverError("system has infinitely many complex solutions")
        if g.degree == 0:
            return None
        # companion matrix of the monic generator: column k holds y * y^k
        g = g.monic()
        n = g.degree
        M = [[Fraction(int(row == col + 1)) for col in range(n)] for row in range(n)]
        for row in range(n):
            M[row][n - 1] = -g.coeffs[row]
        return [(k,) for k in range(n)], [M]
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    R, *_ = ring(",".join(f"y{k}" for k in range(1, r + 1)), QQ, grevlex)
    eqs = [
        R.from_dict({mon: QQ(x.numerator, x.denominator) for mon, x in p.items()})
        for p in J
    ]
    return _quotient_data(eqs, R)


def _base_matrix(f: dict, basis, mats):
    """Multiplication matrix of the polynomial f on B; column b is f * b."""
    one = [Fraction(0)] * len(basis)
    for mon, coef in f.items():
        v = [Fraction(int(i == 0)) for i in range(len(basis))]
        for M, e in zip(mats, mon):
            for _ in range(e):
                v = _mat_vec(M, v)
        one = [x + coef * y for x, y in zip(one, v)]
    cols = _monomial_images(basis, mats, one)
    return [[col[row] for col in cols] for row in range(len(basis))]


def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _add_into(acc: dict, f: dict, scale) -> None:
    for e, x in f.items():
        v = acc.get(e, 0) + scale * x
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def _mat_vec(M, v):
    nz = [(c, x) for c, x in enumerate(v) if x]
    return [sum(row[c] * x for c, x in nz) for row in M]


def _monomial_images(basis, mats, v):
    """[b * v for each basis monomial b], along the order ideal's edges."""
    out = {basis[0]: v}
    for mon in sorted(basis[1:], key=sum):
        i = next(i for i, e in enumerate(mon) if e)
        prev = tuple(e - (k == i) for k, e in enumerate(mon))
        out[mon] = _mat_vec(mats[i], out[prev])
    return [out[mon] for mon in basis]


def _cauchy_steps(m):
    """Rewrite rules of the Cauchy modules, one list per group variable.

    Module k is monic of degree m - k in x_k and involves x_0..x_k only:
    x_k^(m-k) = sum_j (-1)^(j+1) e_j(x_k..x_(m-1)) x_k^(m-k-j), where
    e_j(x_k..x_(m-1)) = sum_i (-1)^i h_i(x_0..x_(k-1)) E_(j-i).  Each entry
    is (exponent shift, index t of E_t, sign) of one term.  The leading
    terms are powers of distinct variables, so the modules are a Groebner
    basis (Buchberger's first criterion).
    """
    steps = []
    for k in range(m):
        rules = []
        for j in range(1, m - k + 1):
            for i in range(j + 1):
                for combo in combinations_with_replacement(range(k), i):
                    shift = [combo.count(s) for s in range(k)] + [m - k - j]
                    shift += [0] * (m - k - 1)
                    rules.append((tuple(shift), j - i, (-1) ** (j + 1 + i)))
        steps.append(rules)
    return steps


def _cauchy_reduce(poly: dict, m, ME, steps) -> dict:
    """Normal form of sum_a x^a v_a (v_a in B) modulo the Cauchy modules.

    Rewriting x_k^(m-k) lowers x_k and raises only x_0..x_(k-1), so the
    largest monomial in the lex order that ranks x_(m-1) first is final
    or rewritten into smaller ones; it is never met again.
    """
    out = {}
    while poly:
        a = max(poly, key=lambda e: e[::-1])
        v = poly.pop(a)
        k = next((k for k in reversed(range(m)) if a[k] >= m - k), None)
        if k is None:
            out[a] = v
            continue
        base = a[:k] + (a[k] - (m - k),) + a[k + 1:]
        for shift, t, sign in steps[k]:
            term = v if t == 0 else _mat_vec(ME[t], v)
            b = tuple(x + y for x, y in zip(base, shift))
            acc = poly.get(b)
            if acc is None:
                poly[b] = [sign * x for x in term]
            else:
                poly[b] = [x + sign * y for x, y in zip(acc, term)]
    return out


def _quotient_by_ideal(mats, gens):
    """Multiplication matrices on A / (gens), gens given as vectors of A.

    The ideal is the span of gens closed under every M_i.  A vector's
    multiples span the same line, so the closure runs over integer vectors
    and the integer matrices L_i M_i.  Its basis is kept in reduced echelon
    form: a row's pivot is its last nonzero entry, and every other row is
    zero there.  Element 0 (the unit) is a pivot only if 1 lies in the
    ideal, so the quotient basis is the non-pivot elements, 0 first, and
    pivot element p maps to -row_p / row_p[p] on them.
    """
    D = len(mats[0])
    sparse = [
        [[(c, x) for c, x in enumerate(row) if x] for row in _integer_matrix(M)[0]]
        for M in mats
    ]
    rows: dict = {}
    queue = [_integer_matrix([g])[0][0] for g in gens]
    while queue:
        v = queue.pop()
        for q, row in rows.items():
            if v[q]:
                v = [row[q] * x - v[q] * y for x, y in zip(v, row)]
        p = next((i for i in reversed(range(D)) if v[i]), None)
        if p is None:
            continue
        if p == 0:
            raise SolverError("radical pass emptied a nonempty system")
        v = _primitive(v)
        for q, row in rows.items():
            if row[p]:
                rows[q] = _primitive([v[p] * x - row[p] * y for x, y in zip(row, v)])
        rows[p] = v
        queue.extend([sum(x * v[c] for c, x in srow) for srow in S] for S in sparse)

    keep = [i for i in range(D) if i not in rows]
    image = {k: {t: Fraction(1)} for t, k in enumerate(keep)}
    for p, row in rows.items():
        image[p] = {t: Fraction(-row[k], row[p]) for t, k in enumerate(keep) if row[k]}
    out = []
    for M in mats:
        Q = [[Fraction(0)] * len(keep) for _ in keep]
        for s, k in enumerate(keep):
            for j in range(D):
                x = M[j][k]
                if x:
                    for t, y in image[j].items():
                        Q[t][s] += x * y
        out.append(Q)
    return out


def _quotient_data(eqs, R):
    """Monomial basis and multiplication matrices of the quotient algebra.

    Works in the sparse polynomial ring R (grevlex).  None when the system
    is infeasible over the complex numbers.
    """
    from sympy.polys.groebnertools import groebner

    G = groebner(eqs, R)
    if any(g.is_ground for g in G):
        return None
    leads = [g.LM for g in G]
    nvars = R.ngens
    # finitely many standard monomials iff every variable has a pure-power lead
    for i in range(nvars):
        if not any(l[i] and sum(l) == l[i] for l in leads):
            raise SolverError("system has infinitely many complex solutions")

    def standard(mon):
        return not any(all(m >= l for m, l in zip(mon, lead)) for lead in leads)

    start = (0,) * nvars
    basis = [start]
    index = {start: 0}
    queue = [start]
    while queue:
        mon = queue.pop()
        for i in range(nvars):
            nxt = tuple(m + (1 if j == i else 0) for j, m in enumerate(mon))
            if nxt not in index and standard(nxt):
                index[nxt] = len(basis)
                basis.append(nxt)
                queue.append(nxt)
    D = len(basis)

    # the leading monomial of g has the normal form -(g - LT(g)) / LC(g)
    # when every tail monomial is standard, as in a reduced basis
    closed = {}
    for g in G:
        lm, lc = g.LM, g.LC
        tail = [(mon, -c / lc) for mon, c in g.terms() if mon != lm]
        if all(mon in index for mon, _ in tail):
            closed[lm] = tail

    mats = []
    for i in range(nvars):
        cols = []
        for mon in basis:
            nxt = tuple(m + (1 if j == i else 0) for j, m in enumerate(mon))
            col = [Fraction(0)] * D
            if nxt in index:
                col[index[nxt]] = Fraction(1)
            else:
                terms = closed.get(nxt)
                if terms is None:
                    terms = R({nxt: 1}).rem(G).terms()
                for mon2, c in terms:
                    col[index[mon2]] = Fraction(int(c.numerator), int(c.denominator))
            cols.append(col)
        # column k holds the image of basis element k
        mats.append([[cols[k][r] for k in range(D)] for r in range(D)])
    return basis, mats


def _separating_candidates(nvars, D):
    for i in reversed(range(nvars)):
        yield tuple(1 if j == i else 0 for j in range(nvars))
    limit = nvars * D * D + 2
    for t in range(1, limit):
        yield tuple(t**j for j in range(nvars))


def _mat_combine(mats, coeffs, D):
    terms = [(c, M) for c, M in zip(coeffs, mats) if c]
    return [[sum(c * M[r][k] for c, M in terms) for k in range(D)] for r in range(D)]


def _integer_matrix(M) -> tuple[list[list[int]], int]:
    """(N, L) with M = N / L, N an integer matrix and L > 0."""
    L = lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (L // x.denominator) for x in row] for row in M], L


class _Krylov:
    """The Krylov basis of the algebra's element 1 under M.

    Runs over the integer iterates u_k = N^k e_0 of N = L M.  Each iterate,
    with the unit vector e_k appended to record its combination, is reduced
    against the earlier ones by fraction-free (Bareiss) steps, so every
    division is exact.  The first that reduces to zero gives
    sum_i c_i u_i = 0, and M's monic minimal polynomial has coefficients
    c_i / (c_k L^(k-i)).  The iterates and the reduced rows are kept for
    `at_one` and `express`.
    """

    def __init__(self, M):
        D = len(M)
        N, L = _integer_matrix(M)
        self.L, self.iterates = L, []
        self.rows = []  # (pivot column, reduced row: vector, then combination)
        u = [1] + [0] * (D - 1)
        for k in range(D + 1):
            self.iterates.append(u)
            row = self._reduce(u, k)
            col = next((i for i in range(D) if row[i]), None)
            if col is None:
                c = row[D:D + k + 1]
                self.min_poly = UniPoly(
                    [Fraction(ci, c[k] * L ** (k - i)) for i, ci in enumerate(c)]
                )
                return
            self.rows.append((col, row))
            u = [sum(a * b for a, b in zip(nrow, u)) for nrow in N]
        raise SolverError("minimal polynomial search did not terminate")

    def _reduce(self, v, k):
        """The integer vector v, marked as combination slot k, reduced."""
        D = len(v)
        row = v + [0] * (D + 1)
        row[D + k] = 1
        prev = 1
        for col, prow in self.rows:
            p, f = prow[col], row[col]
            row = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            prev = p
        return row

    def at_one(self, f: UniPoly):
        """f(M) applied to element 1: sum_k f_k u_k / L^k."""
        L, us = self.L, self.iterates
        terms = [(c / L**k, us[k]) for k, c in enumerate(f.coeffs) if c]
        return [sum(c * u[r] for c, u in terms) for r in range(len(us[0]))]

    def express(self, v) -> UniPoly:
        """g with g(M) applied to element 1 equal to the vector v = n / Lv.

        n reduced in the free slot D gives s n + sum_k c_k u_k = 0, so
        g_k = -c_k L^k / (s Lv); a remainder means v is outside the span.
        """
        D = len(v)
        (n,), Lv = _integer_matrix([v])
        row = self._reduce(n, D)
        if any(row[:D]):
            raise SolverError("vector lies outside the Krylov basis's span")
        s = row[2 * D] * Lv
        return UniPoly(
            [Fraction(-c * self.L**k, s) for k, c in enumerate(row[D:2 * D])]
        )


# -- solution handling -------------------------------------------------------


def ordered_real_solutions(par: Parametrization | None) -> list[AlgebraicPoint]:
    """Real solutions with weakly increasing coordinates.

    The ordering test multiplies through by the denominator: with s0 the sign
    of q0 at the root, z_i <= z_{i+1} holds iff s0 * sign(q_i - q_{i+1}) <= 0.
    """
    if par is None:
        return []
    out = []
    for code, root in thom_rooted(par.q):
        # snapshot before the sign tests below refine the root
        enclosure = (root.poly, root.lo, root.hi)
        s0 = sign_at(par.q0, root)
        if s0 == 0:
            raise SolverError("denominator vanished at a solution root")
        ok = True
        for i in range(len(par.coords) - 1):
            si = sign_at(par.coords[i] - par.coords[i + 1], root)
            if si * s0 > 0:
                ok = False
                break
        if ok:
            out.append(
                AlgebraicPoint(par.q, par.q0, par.coords, code, enclosure=enclosure)
            )
    return out


def fiber_points(weights: Sequence[int], a: Sequence) -> list[AlgebraicPoint]:
    """Ordered real solutions of the weighted system over a."""
    return ordered_real_solutions(solve_weighted_system(weights, a))


# -- canonical fiber point ---------------------------------------------------


@dataclass(frozen=True)
class CanonicalPoint:
    """Distinguished fiber point: where the fiber meets the extremal faces.

    That is one point, the family's p_{d+1} extremum (see `min_canonical`);
    `lam` is the first extremal face through it.
    """

    lam: Composition
    point: AlgebraicPoint

    def embedded_point(self) -> AlgebraicPoint:
        """The point in full coordinates, each numerator repeated per block."""
        dup = []
        for part, poly in zip(self.lam.parts, self.point.coords):
            dup.extend([poly] * part)
        return AlgebraicPoint(
            q=self.point.q,
            q0=self.point.q0,
            coords=tuple(dup),
            code=self.point.code,
            enclosure=self.point.enclosure,
        )


def min_canonical(n: int, d: int, a: Sequence) -> CanonicalPoint | None:
    """Canonical representative of the fiber over a in the sorted chamber.

    Walks `extremal_compositions(n, d)` in order and returns the first
    ordered real solution on the first face that meets the fiber; None when
    no face does (equivalently, the fiber is empty).

    The fiber is connected (Arnold 1986), so any of its points is a valid
    representative.  By the degree principle (Riener 2012) the extremal
    faces carry an end of the p_{d+1} range on the fiber, and every fiber
    measured meets the family in one point (the tests pin this), so the
    result is that extremum: the minimum for even d away from degenerate
    fibers, the other end for odd d.  A fiber that meets several faces
    meets them at that one point.
    """
    if len(a) != d:
        raise DomainError(f"need {d} power-sum values, got {len(a)}")
    for lam in extremal_compositions(n, d):
        pts = fiber_points(lam.parts, a)
        if pts:
            return CanonicalPoint(lam=lam, point=pts[0])
    return None
