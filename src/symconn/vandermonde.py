"""Exact solving of weighted power-sum systems.

A face of the sorted chamber with blocks of sizes (w_1, ..., w_d) meets the
fiber over a = (a_1, ..., a_d) where sum_k w_k z_k^j = a_j for j = 1..d.
These square systems have finitely many complex solutions; they are returned
as a rational parametrization (q, q0, q_1..q_d): each solution is
(q_1/q0, ..., q_d/q0) evaluated at a root of q, with gcd(q, q0) = 1.

Degrees one and two admit closed forms by linear elimination.  Higher degrees
go through a Groebner basis of the system, computed with normal forms in
sympy's sparse polynomial ring, multiplication matrices on the quotient, a
radical-ization pass (adjoining squarefree univariate vanishing polynomials),
a separating linear form, and trace formulas.  A border monomial that leads
a basis element takes its normal form from that element; the others are
reduced by sympy.

The matrices hold `Fraction`s, but the linear algebra on them clears
denominators once and runs over Python ints: minimal polynomials come from
fraction-free (Bareiss) elimination of the integer Krylov iterates, and the
traces of the separating matrix's powers from integer matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .compositions import Composition, extremal_compositions
from .errors import DomainError, SolverError
from .realroots import (
    AlgebraicPoint,
    UniPoly,
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
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    d = len(w)
    R, *zs = ring(",".join(f"z{k}" for k in range(1, d + 1)), QQ, grevlex)
    eqs = [sum(m * z**j for m, z in zip(w, zs)) - rhs[j - 1] for j in range(1, d + 1)]
    data = _quotient_data(eqs, R)
    if data is None:
        return None
    basis, mats = data

    # adjoin squarefree univariate vanishing polynomials where the existing
    # ones have repeated roots; afterwards the ideal is radical
    extra = []
    for i, z in enumerate(zs):
        f = _krylov_min_poly(mats[i])
        sf = squarefree_part(f)
        if sf.degree < f.degree:
            extra.append(sum(c * z**k for k, c in enumerate(sf.coeffs)))
    if extra:
        data = _quotient_data(eqs + extra, R)
        if data is None:
            raise SolverError("radical pass emptied a nonempty system")
        basis, mats = data

    D = len(basis)
    q = None
    for cand in _separating_candidates(d, D):
        mu = _mat_combine(mats, cand, D)
        f = _krylov_min_poly(mu)
        if f.degree == D:
            q = f
            break
    if q is None:
        raise SolverError("no separating linear form found")
    if poly_gcd(q, q.derivative()).degree > 0:
        raise SolverError("separating form produced a non-squarefree eliminant")

    # traces against powers of the separating matrix, over the integers:
    # mu = N / L and M_i = N_i / L_i, so Tr(mu^k) = Tr(N^k) / L^k and
    # Tr(M_i mu^k) = Tr(N_i N^k) / (L_i L^k)
    N, L = _integer_matrix(mu)
    ints = [_integer_matrix(M) for M in mats]
    t_one, t_var = [], [[] for _ in range(d)]
    P = [[int(r == c) for c in range(D)] for r in range(D)]
    Nt = list(zip(*N))
    for k in range(D):
        scale = L**k
        t_one.append(Fraction(sum(P[r][r] for r in range(D)), scale))
        Pt = list(zip(*P))
        for (Ni, Li), out in zip(ints, t_var):
            tr = sum(sum(a * b for a, b in zip(row, col)) for row, col in zip(Ni, Pt))
            out.append(Fraction(tr, Li * scale))
        if k + 1 < D:
            P = [[sum(a * b for a, b in zip(row, col)) for col in Nt] for row in P]

    q0 = _trace_poly(q, t_one)
    if q0 != q.derivative():
        raise SolverError("trace identity failed; solver state is inconsistent")
    coords = tuple(_trace_poly(q, t_var[i]) for i in range(d))
    return Parametrization(q=q, q0=q0, coords=coords)


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
    out = [[Fraction(0)] * D for _ in range(D)]
    for M, c in zip(mats, coeffs):
        if c == 0:
            continue
        c = Fraction(c)
        for r in range(D):
            row = M[r]
            orow = out[r]
            for k in range(D):
                orow[k] += c * row[k]
    return out


def _integer_matrix(M) -> tuple[list[list[int]], int]:
    """(N, L) with M = N / L, N an integer matrix and L > 0."""
    L = lcm(*(x.denominator for row in M for x in row))
    return [[x.numerator * (L // x.denominator) for x in row] for row in M], L


def _krylov_min_poly(M) -> UniPoly:
    """Monic minimal polynomial of M acting on the quotient, via the
    iterates of the basis element 1 (index 0).

    Runs over the integer iterates u_k = N^k e_0 of N = L M.  Each iterate,
    with the unit vector e_k appended to record its combination, is reduced
    against the earlier ones by fraction-free (Bareiss) steps, so every
    division is exact.  The first that reduces to zero gives
    sum_i c_i u_i = 0, and M's monic relation has coefficients
    c_i / (c_k L^(k-i)).
    """
    D = len(M)
    N, L = _integer_matrix(M)
    u = [1] + [0] * (D - 1)
    rows = []  # (pivot column, reduced row: iterate part, then combination)
    for k in range(D + 1):
        row = u + [0] * (D + 1)
        row[D + k] = 1
        prev = 1
        for col, prow in rows:
            p, f = prow[col], row[col]
            row = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            prev = p
        col = next((i for i in range(D) if row[i]), None)
        if col is None:
            c = row[D:D + k + 1]
            return UniPoly([Fraction(ci, c[k] * L ** (k - i)) for i, ci in enumerate(c)])
        rows.append((col, row))
        u = [sum(a * b for a, b in zip(nrow, u)) for nrow in N]
    raise SolverError("minimal polynomial search did not terminate")


def _trace_poly(q: UniPoly, traces) -> UniPoly:
    # coefficient of T^j is sum_{k>j} c_k * traces[k-j-1]
    c = q.coeffs
    D = q.degree
    out = []
    for j in range(D):
        out.append(
            sum((c[k] * traces[k - j - 1] for k in range(j + 1, D + 1)), Fraction(0))
        )
    return UniPoly(out)


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


def verify_fiber_point(
    pt: AlgebraicPoint, weights: Sequence[int], a: Sequence
) -> bool:
    """Exact check that the point solves the weighted system over a."""
    root = pt.root()
    for j, aj in enumerate(a, start=1):
        num = UniPoly([])
        for wk, ck in zip(weights, pt.coords):
            num = num + (ck**j).scale(Fraction(wk))
        num = num - (pt.q0**j).scale(Fraction(aj))
        if sign_at(num, root) != 0:
            return False
    return True


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
