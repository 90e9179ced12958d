"""Exact solving of weighted power-sum systems.

A face of the sorted chamber with blocks of sizes (w_1, ..., w_d) meets the
fiber over a = (a_1, ..., a_d) where sum_k w_k z_k^j = a_j for j = 1..d.
These square systems have finitely many complex solutions; they are returned
as a rational parametrization (q, q0, q_1..q_d): each coordinate is q_i/q0
at a root of q, with gcd(q, q0) = 1.

Degrees one and two admit closed forms by linear elimination, one root per
solution.  Higher degrees use the system's symmetry under permuting blocks
of equal weight (Faugere & Svartz 2013).  The largest such group, m blocks,
is solved through its elementary symmetric functions, which Newton's
identities express in the other unknowns y, leaving a system J in y alone.
Over a point of B = Q[y]/J the group's values are the roots of one
polynomial f of degree m, so the algebra solved is A = B[T]/(f), of
dimension m dim B: a root of q is one group value over one point of B, and
a solution puts each group coordinate on its own root.  J in one unknown is
one polynomial with a companion matrix, which covers every d = 3 face.
Only J in two or more unknowns takes a Groebner basis, computed with normal
forms in sympy's sparse polynomial ring; a border monomial that leads a
basis element takes its normal form from that element, and the others are
reduced by sympy.  That is the only use of sympy.  A is then divided by its
nilradical, the ideal of the coordinates' squarefree minimal polynomials
(Seidenberg).  A separating linear form mu then has a minimal polynomial q
of degree D = dim A, its Krylov basis 1, mu, ..., mu^(D-1) spans the
algebra, and each element's expansion in that basis gives its numerator.

The matrices hold `Fraction`s, but the linear algebra on them clears
denominators once and runs over Python ints: one fraction-free (Bareiss)
elimination of a matrix's integer Krylov iterates gives its minimal
polynomial, polynomials in it applied to 1, and vectors' expansions in the
iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import lcm, perm
from typing import Sequence

from .compositions import Composition, extremal_compositions
from .errors import DomainError, SolverError
from .realroots import (
    AlgebraicPoint,
    UniPoly,
    _primitive,
    compare_values,
    divmod_poly,
    poly_gcd,
    real_roots,
    root_index,
    sign_at,
    squarefree_part,
    thom_rooted,
)


@dataclass(frozen=True)
class Parametrization:
    """Root data for the solutions of one weighted system.

    For d <= 2 each solution is (q_1/q0, ..., q_d/q0) at one root of q.
    For d >= 3 a root of q is a point (theta, t) of the algebra A of
    `_fiber_algebra`: there y_k's value is q_k/q0, a root of its squarefree
    minimal polynomial in `bases`, and every coordinate in `group` holds
    T's value t.  A solution takes the group's coordinates at m roots of q
    over one theta.  derivs[k-1]/q0 is d^k f / dT^k at the point.
    """

    q: UniPoly
    q0: UniPoly
    coords: tuple[UniPoly, ...]
    group: tuple[int, ...] = ()
    bases: tuple[UniPoly, ...] = ()
    derivs: tuple[UniPoly, ...] = ()


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
    alg = _fiber_algebra(w, rhs)
    if alg is None:
        return None
    group, others, bases, gens, mats, derivs = alg
    # the nilradical: with the squarefree part of T's minimal polynomial
    # the ideal holds one in every variable, so it is radical (Seidenberg)
    kry = _Krylov(mats[-1])
    sf = squarefree_part(kry.min_poly)
    if sf.degree < kry.min_poly.degree:
        gens.append(kry.at_one(sf))
    krylovs = [None] * len(others) + [kry]
    if gens:
        mats, proj = _quotient_by_ideal(mats, gens)
        derivs = [proj(v) for v in derivs]
        krylovs = None
    q, q0, nums = _parametrize(mats, [[row[0] for row in M] for M in mats] + derivs, krylovs)
    r = len(others)
    coords = [nums[r]] * len(w)
    for slot, k in enumerate(others):
        coords[k] = nums[slot]
    return Parametrization(q, q0, tuple(coords), tuple(group), bases, tuple(nums[r + 1:]))


def _parametrize(mats, vecs, krylovs=None):
    """(q, q0, numerators): the values of the vectors vecs at A's points.

    A is a reduced algebra, mats are its coordinates' multiplication
    matrices and basis element 0 is 1; `krylovs[i]`, when given and not
    None, is coordinate i's `_Krylov`, which the single-coordinate
    candidates reuse.  A separating mu makes A = Q[mu]/(q), so each v in
    vecs is g(mu) * 1 for one g, and at the roots of q it takes the value
    num / q0 with q0 = q' and num = g q0 mod q.  The result depends on the
    algebra alone, not on its basis.
    """
    D = len(mats[0])
    for cand in _separating_candidates(len(mats), D):
        kry = krylovs[cand.index(1)] if krylovs and sum(cand) == 1 else None
        if kry is None:
            kry = _Krylov(_mat_combine(mats, cand, D))
        if kry.min_poly.degree == D:
            break
    else:
        raise SolverError("no separating linear form found")
    q = kry.min_poly
    q0 = q.derivative()
    if poly_gcd(q, q0).degree > 0:
        raise SolverError("separating form produced a non-squarefree eliminant")
    return q, q0, [divmod_poly(kry.express(v) * q0, q)[1] for v in vecs]


def _fiber_algebra(w, rhs):
    """A = B[T]/(f), whose points are the group's values over B's points.

    The largest group of m blocks with a common weight is solved through
    its elementary symmetric functions (`_newton_reduction`): with y the
    other r = d - m unknowns, the system is e_i(x) = E_i(y) for polynomials
    E_i, plus r equations J in y alone.  Over a point theta of B = Q[y]/J
    the group's m values are the roots of f = T^m - E_1 T^(m-1) + ... +
    (-1)^m E_m, so a point of A is one pair (theta, t).  A is free over B
    with the basis T^j b, j < m, element j dim B + b: y_k's matrix repeats
    B's down the diagonal, and T's is the block companion matrix of f, with
    B's matrices of the E_i as blocks.  So y_k has the same minimal
    polynomial on A as on B, where `_Krylov` finds it at dim B.

    B is Q for r = 0 and a companion matrix for r = 1, so neither needs a
    Groebner basis; r >= 2 takes one of J from `_quotient_data`.  Returns
    (group, others, the squarefree parts of the y's minimal polynomials,
    those parts applied to 1 in A where they are proper, A's matrices of
    y_1..y_r and T, and the vectors of d^k f / dT^k, k = 1..m-1, in A).
    Basis element 0 is 1.  None when the system has no complex solutions.
    """
    group, others, E, J = _newton_reduction(w, rhs)
    base = _base_algebra(J, len(others))
    if base is None:
        return None
    basis, bmats = base
    m, DB = len(group), len(basis)
    D = m * DB
    ME = [[[Fraction(int(r == c)) for c in range(DB)] for r in range(DB)]]
    ME += [_base_matrix(ek, basis, bmats) for ek in E[1:]]
    bases, gens = [], []
    for M in bmats:
        kry = _Krylov(M)
        sf = squarefree_part(kry.min_poly)
        bases.append(sf)
        if sf.degree < kry.min_poly.degree:
            gens.append(kry.at_one(sf) + [Fraction(0)] * (D - DB))

    def blocks(parts):
        """The D x D matrix with the DB x DB block parts[(i, j)] at (i, j)."""
        M = [[Fraction(0)] * D for _ in range(D)]
        for (i, j), blk in parts.items():
            for row in range(DB):
                M[i * DB + row][j * DB:(j + 1) * DB] = blk[row]
        return M

    # T^m = sum_i (-1)^(i+1) E_i T^(m-i)
    companion = {(j + 1, j): ME[0] for j in range(m - 1)}
    for i in range(1, m + 1):
        companion[(m - i, m - 1)] = ME[i] if i % 2 else [[-x for x in row] for row in ME[i]]
    mats = [blocks({(j, j): M for j in range(m)}) for M in bmats]
    mats.append(blocks(companion))

    # d^k f / dT^k = sum_i (-1)^i (m-i)!/(m-i-k)! E_i T^(m-i-k)
    ones = [[row[0] for row in M] for M in ME]
    derivs = []
    for k in range(1, m):
        v = [Fraction(0)] * D
        for i in range(m - k + 1):
            c = (-1) ** i * perm(m - i, k)
            off = (m - i - k) * DB
            for b, x in enumerate(ones[i]):
                v[off + b] += c * x
        derivs.append(v)
    return group, others, tuple(bases), gens, mats, derivs


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


def _quotient_by_ideal(mats, gens):
    """(matrices, proj) on A / (gens), gens given as vectors of A.

    The ideal is the span of gens closed under every M_i.  A vector's
    multiples span the same line, so the closure runs over integer vectors
    and the integer matrices L_i M_i.  Its basis is kept in reduced echelon
    form: a row's pivot is its last nonzero entry, and every other row is
    zero there.  Element 0 (the unit) is a pivot only if 1 lies in the
    ideal, so the quotient basis is the non-pivot elements `keep`, 0 first,
    and pivot element p maps to -row_p / row_p[p] on them.  `proj` maps a
    vector of A to its class; column s of a quotient matrix is the class of
    M e_keep[s].
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

    def proj(v):
        out = [Fraction(0)] * len(keep)
        for j, x in enumerate(v):
            if x:
                for t, y in image[j].items():
                    out[t] += x * y
        return out

    quotients = []
    for M in mats:
        cols = [proj([row[k] for row in M]) for k in keep]
        quotients.append([list(row) for row in zip(*cols)])
    return quotients, proj


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

    Without a group each real root of q is one solution.  For d >= 3 each
    real root r is a point (theta, t) of A: y_k(r) is the root of bases[k]
    that `root_index` finds, so the roots are grouped by theta exactly.
    t's multiplicity as a root of f(theta, T) is one more than the number
    of leading T-derivatives of f that vanish at r, and a theta whose real
    values' multiplicities add up to m has all m values real.  Only one
    order of them can be sorted, so the group's coordinates take them in
    increasing order, each on its own root.  A coordinate outside the group
    has the same value at every root over theta; it goes on the root of a
    group neighbour with the same value, or else on the smallest value's,
    so equal coordinates share a root.

    Adjacent coordinates are compared at a root they share: with s0 the
    sign of q0 there, z_i <= z_{i+1} iff s0 * sign(q_i - q_{i+1}) <= 0.
    """
    if par is None:
        return []
    pairs = thom_rooted(par.q)
    # snapshot before the tests below refine the roots
    enclosures = {code: (r.poly, r.lo, r.hi) for code, r in pairs}
    q0, coords, group = par.q0, par.coords, par.group
    d = len(coords)
    others = [(k, real_roots(b)) for k, b in zip(sorted(set(range(d)) - set(group)), par.bases)]
    fibers: dict = {}
    for code, r in pairs:
        theta = tuple(root_index(coords[k], q0, r, roots) for k, roots in others)
        fibers.setdefault(theta if group else code, []).append((code, r))

    def order(u, v):
        t = coords[group[0]]
        return u[0] != v[0] and compare_values(t, q0, u[1], t, q0, v[1])

    signs: dict = {}

    def below(p, k, code, root):
        """Sign of z_p - z_k at a root they share, each pair decided once."""
        key = (min(p, k), max(p, k), code)
        if key not in signs:
            signs[key] = sign_at(coords[key[0]] - coords[key[1]], root) * sign_at(q0, root)
        return signs[key] if p < k else -signs[key]

    out = []
    for members in fibers.values():
        values = []
        for code, r in members:
            mu = 1 + next((k for k, g in enumerate(par.derivs) if sign_at(g, r)), len(par.derivs))
            values += [(code, r)] * mu
        if len(values) != max(len(group), 1):
            continue
        values.sort(key=cmp_to_key(order))
        at = dict(zip(group, values))
        if any(
            below(p, p + 1, *(at.get(p) or at.get(p + 1) or values[0])) > 0
            for p in range(d - 1)
            if p not in at or p + 1 not in at
        ):
            continue
        for p in set(range(d)) - set(group):
            near = [max((g for g in group if g < p), default=None),
                    min((g for g in group if g > p), default=None)]
            hit = [at[g] for g in near if g is not None and not below(p, g, *at[g])]
            at[p] = (hit + values)[0]
        codes = tuple(at[p][0] for p in range(d))
        out.append(AlgebraicPoint(par.q, q0, coords, codes, tuple(enclosures[c] for c in codes)))
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
        """The point in full coordinates, each block's coordinate repeated."""
        pt = self.point
        idx = [i for i, part in enumerate(self.lam.parts) for _ in range(part)]
        return AlgebraicPoint(
            q=pt.q,
            q0=pt.q0,
            coords=tuple(pt.coords[i] for i in idx),
            codes=tuple(pt.codes[i] for i in idx),
            enclosures=pt.enclosures and tuple(pt.enclosures[i] for i in idx),
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
