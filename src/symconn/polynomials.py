"""Symmetric systems in the power-sum basis and their face restrictions.

A system lives in R^n and is cut out by polynomials g(Z_1, ..., Z_d) where
Z_j stands for the j-th power sum of the coordinates.  Restricting to a face
of the sorted chamber replaces Z_j by the weighted power sum of the block
values, producing an ordinary polynomial in as many variables as the face
has blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .compositions import Composition, composition
from .errors import DomainError, PreconditionError


class Relation(Enum):
    GE = ">="
    EQ = "=="
    GT = ">"

    def holds(self, value: Fraction, eq_tol: Fraction = Fraction(0)) -> bool:
        if self is Relation.GE:
            return value >= -eq_tol
        if self is Relation.EQ:
            return abs(value) <= eq_tol
        return value > 0


class ExpandedPoly:
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise DomainError(f"bad exponent tuple {exp} for {nvars} variables")
            clean[exp] = clean.get(exp, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @staticmethod
    def constant(nvars: int, c) -> "ExpandedPoly":
        return ExpandedPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, k: int) -> "ExpandedPoly":
        """The variable X_k, 1-based."""
        if not 1 <= k <= nvars:
            raise DomainError(f"variable index {k} outside 1..{nvars}")
        exp = [0] * nvars
        exp[k - 1] = 1
        return ExpandedPoly(nvars, {tuple(exp): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, ExpandedPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"ExpandedPoly({self.nvars}, {self.terms})"

    def _check(self, other: "ExpandedPoly"):
        if self.nvars != other.nvars:
            raise DomainError("variable counts differ")

    def __add__(self, other) -> "ExpandedPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ExpandedPoly(self.nvars, out)

    def __sub__(self, other) -> "ExpandedPoly":
        return self + self._coerce(other).scale(-1)

    def __mul__(self, other) -> "ExpandedPoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ExpandedPoly(self.nvars, out)

    def __pow__(self, k: int) -> "ExpandedPoly":
        if k < 0:
            raise DomainError("negative power")
        result = ExpandedPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _coerce(self, other) -> "ExpandedPoly":
        if isinstance(other, ExpandedPoly):
            self._check(other)
            return other
        return ExpandedPoly.constant(self.nvars, other)

    def scale(self, c) -> "ExpandedPoly":
        c = Fraction(c)
        return ExpandedPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise DomainError(f"need {self.nvars} coordinates, got {len(point)}")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            val = c
            for x, e in zip(pt, exp):
                if e:
                    val *= x**e
            total += val
        return total


def weighted_power_sum(j: int, weights: Sequence[int]) -> ExpandedPoly:
    """sum_k weights_k * X_k^j as a polynomial in len(weights) variables."""
    if j < 1:
        raise DomainError("power sum index must be >= 1")
    ell = len(weights)
    terms = {}
    for k, m in enumerate(weights):
        exp = [0] * ell
        exp[k] = j
        terms[tuple(exp)] = Fraction(m)
    return ExpandedPoly(ell, terms)


def vandermonde_map(x: Sequence, d: int) -> tuple[Fraction, ...]:
    """(p_1(x), ..., p_d(x)) exactly: the first d power sums of x."""
    xs = [Fraction(v) for v in x]
    out = []
    powers = list(xs)
    for _ in range(d):
        out.append(sum(powers, Fraction(0)))
        powers = [p * v for p, v in zip(powers, xs)]
    return tuple(out)


class PowerSumPoly:
    """Polynomial in the power-sum generators Z_1, ..., Z_d.

    Z_j has weight j; the weighted degree of every term may not exceed d,
    which is exactly "degree at most d" after substituting the power sums.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping[tuple, object]):
        if d < 1:
            raise DomainError("need at least one generator")
        self.d = d
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != d or any(e < 0 for e in exp):
                raise DomainError(f"bad exponent tuple {exp} for {d} generators")
            wdeg = sum((j + 1) * e for j, e in enumerate(exp))
            if wdeg > d:
                raise DomainError(
                    f"term {exp} has weighted degree {wdeg} > {d}"
                )
            clean[exp] = clean.get(exp, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    def eval(self, z: Sequence) -> Fraction:
        """Value at a vector of the first d power sums."""
        if len(z) < self.d:
            raise DomainError(f"need {self.d} power-sum values, got {len(z)}")
        zs = [Fraction(v) for v in z[: self.d]]
        total = Fraction(0)
        for exp, c in self.terms.items():
            val = c
            for v, e in zip(zs, exp):
                if e:
                    val *= v**e
            total += val
        return total

    def compose(self, generators: Sequence[ExpandedPoly]) -> ExpandedPoly:
        """Substitute polynomials for the generators Z_1, ..., Z_d."""
        if len(generators) < self.d:
            raise DomainError("not enough generator polynomials")
        nvars = generators[0].nvars
        total = ExpandedPoly(nvars, {})
        for exp, c in self.terms.items():
            term = ExpandedPoly.constant(nvars, c)
            for g, e in zip(generators, exp):
                if e:
                    term = term * g**e
            total = total + term
        return total

    def __eq__(self, other):
        return (
            isinstance(other, PowerSumPoly)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"PowerSumPoly({self.d}, {self.terms})"


@dataclass(frozen=True)
class Constraint:
    poly: PowerSumPoly
    rel: Relation


@dataclass(frozen=True)
class SymmetricSystem:
    """Conjunction of power-sum constraints inside a bounding box [lo, hi]^n.

    The box is one interval on every coordinate, so that permuting the
    coordinates maps the set to itself, as sorting, orbits and walls need.
    """

    n: int
    d: int
    constraints: tuple[Constraint, ...]
    box: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]

    def __post_init__(self):
        if not 1 <= self.d <= self.n:
            raise DomainError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        for c in self.constraints:
            if c.poly.d > self.d:
                raise DomainError(
                    f"constraint uses {c.poly.d} generators, system allows {self.d}"
                )
        lo, hi = self.box
        if len(lo) != self.n or len(hi) != self.n:
            raise DomainError("box vectors must have length n")
        if len(set(lo)) > 1 or len(set(hi)) > 1:
            raise DomainError("box must be [lo, hi]^n, the same interval on every coordinate")
        if lo[0] > hi[0]:
            raise DomainError("box has lo > hi")

    def box_contains(self, x: Sequence) -> bool:
        lo, hi = self.box[0][0], self.box[1][0]
        return all(lo <= Fraction(v) <= hi for v in x)

    def eval_membership(self, x: Sequence) -> tuple[bool, tuple[int, ...]]:
        """Constraint check at an exact point: (all hold, per-constraint signs)."""
        if len(x) != self.n:
            raise PreconditionError(f"point has {len(x)} coordinates, need {self.n}")
        p = vandermonde_map(x, self.d)
        ok = True
        signs = []
        for c in self.constraints:
            v = c.poly.eval(p)
            signs.append((v > 0) - (v < 0))
            if not c.rel.holds(v):
                ok = False
        return ok, tuple(signs)


def make_box(n: int, lo, hi) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Uniform box [lo, hi]^n."""
    return (tuple([Fraction(lo)] * n), tuple([Fraction(hi)] * n))


def restrict(
    sys: SymmetricSystem, lam: Composition | Sequence[int]
) -> tuple[tuple[ExpandedPoly, Relation], ...]:
    """The system's constraints on the face of lam, in block coordinates."""
    lam = composition(lam)
    if lam.n != sys.n:
        raise DomainError(f"composition sums to {lam.n}, system has n={sys.n}")
    gens = [weighted_power_sum(j, lam.parts) for j in range(1, sys.d + 1)]
    return tuple((c.poly.compose(gens), c.rel) for c in sys.constraints)
