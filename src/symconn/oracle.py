"""Grid connectivity queries on box-bounded semi-algebraic regions.

Two operations are needed by the rest of the package: one sample point per
connected component of a region, and a yes/no connectivity answer for a
pair of points in a region.  Both are served here by an explicitly
approximate backend: classify the cells of a regular grid through the
membership predicate, join face-adjacent feasible cells into classes, and
halve the pitch until the class count repeats.  Every answer exposes
the resolution it was computed at, so callers can report it instead of
pretending the result is exact.

Cell centers are tested with these conventions, in exact integer
arithmetic after clearing the denominators of the centers and of each
constraint (each axis's center numerators are an integer progression over
one common denominator):

  * GE constraints are taken as written, g >= 0.
  * EQ constraints are thickened to |g| <= delta, so a codimension-one set
    shows up as a thin slab of feasible cells.  By default delta tracks
    the current pitch.
  * GT constraints are shrunk to g >= pitch, a margin of one pitch, so
    open sets lose a one-cell margin and cannot leak through a pinch point.

A chamber region (`Region.chamber`) also requires the ordering
z1 <= ... <= zl on a box with the same range on every axis, so it walks
only its sorted cells, the weakly increasing index tuples; every other
cell fails the ordering.
The walk fixes one axis at a time and bounds every constraint over all
the cells below the fixed prefix, in the same integer arithmetic: a
prefix on which a constraint certainly fails is skipped whole, one on
which it certainly holds stops testing it, and only the last axis is
tested cell by cell.  A bound decides a constraint only where the cell
test gives the same answer at every center below the prefix, so the
feasible cells are those of testing every center.
Feasible cells along the last axis form runs, and classes are unions of
runs that overlap between neighboring rows.

Query points (arguments of `connected`) get the laxer `Relation.holds`
test instead, with the EQ delta as slack, because they are usually
rational approximations of exact algebraic points sitting on a constraint
boundary; the chamber ordering gets the same slack, z_{k+1} - z_k >= -delta.
A query point whose own cell center is infeasible is bridged to the
face-adjacent feasible cells, if any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .compositions import Composition, composition
from .errors import DomainError, PreconditionError
from .polynomials import (
    ExpandedPoly,
    Relation,
    SymmetricSystem,
    make_box,
    restrict,
)

Atom = tuple[ExpandedPoly, Relation]


@dataclass(frozen=True)
class Region:
    """Membership predicate on a box: the conjunction of `requires`.

    A chamber region also requires z_1 <= ... <= z_dim.  Its box must
    have the same range on every axis, so that the ordering holds on a
    grid's weakly increasing index tuples.
    """

    dim: int
    requires: tuple[Atom, ...]
    box: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    chamber: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("region dimension must be positive")
        lo, hi = self.box
        if len(lo) != self.dim or len(hi) != self.dim:
            raise DomainError("box vectors must match the region dimension")
        if any(a > b for a, b in zip(lo, hi)):
            raise DomainError("box has lo > hi")
        if self.chamber and (len(set(lo)) > 1 or len(set(hi)) > 1):
            raise DomainError("a chamber region needs the same range on every axis")
        for poly, _ in self.requires:
            if poly.nvars != self.dim:
                raise DomainError("constraint arity differs from region dimension")


def _exact(value, name: str) -> Fraction:
    if isinstance(value, float) and not value.is_integer():
        raise DomainError(
            f"{name} must be exact, got the float {value!r}; pass a Fraction"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be exact, got {value!r}") from None


@dataclass(frozen=True)
class OracleConfig:
    """Grid resolution policy.

    `h` is the starting pitch; refinement halves it up to `max_depth`
    times.  `eq_delta` of None means the EQ slab width follows the
    current pitch.  GT constraints are shrunk by a margin of one pitch.
    Both are stored as `Fraction`s; an int converts exactly, and a float
    must be integral.  `max_depth` must be an int.
    """

    h: Fraction = Fraction(1, 2)
    eq_delta: Fraction | None = None
    max_depth: int = 5

    def __post_init__(self):
        object.__setattr__(self, "h", _exact(self.h, "h"))
        if self.eq_delta is not None:
            object.__setattr__(self, "eq_delta", _exact(self.eq_delta, "eq_delta"))
        if self.h <= 0:
            raise DomainError("grid pitch must be positive")
        if self.eq_delta is not None and self.eq_delta < 0:
            raise DomainError("eq_delta must be nonnegative")
        if isinstance(self.max_depth, bool) or not isinstance(self.max_depth, int):
            raise DomainError(f"max_depth must be an int, got {self.max_depth!r}")
        if self.max_depth < 0:
            raise DomainError("max_depth must be nonnegative")


@dataclass(frozen=True)
class GridSummary:
    """Resolution record attached to certificates."""

    h_final: Fraction
    cells: int
    classes: int
    level_counts: tuple[int, ...]

    @property
    def stabilized(self) -> bool:
        return len(self.level_counts) >= 2 and self.level_counts[-1] == self.level_counts[-2]


def _effective_delta(cfg: OracleConfig, h: Fraction) -> Fraction:
    if cfg.eq_delta is not None:
        return cfg.eq_delta
    return h


_REL_TEXT = {Relation.GE: ">= 0", Relation.EQ: "= 0", Relation.GT: "> 0"}


def format_poly(poly: ExpandedPoly) -> str:
    """Readable rendering in variables z1..zl, for diagnostics."""
    if not poly.terms:
        return "0"
    bits = []
    for exp, c in sorted(poly.terms.items(), reverse=True):
        mono = "*".join(
            f"z{k + 1}" + (f"^{e}" if e > 1 else "")
            for k, e in enumerate(exp)
            if e
        )
        if not mono:
            bits.append(str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append("-" + mono)
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ")


def point_feasible(
    region: Region,
    x: Sequence,
    cfg: OracleConfig,
    h: Fraction | None = None,
) -> tuple[bool, str]:
    """Test a rational point against the predicate with query-side slack.

    Returns (ok, reason).  The reason names the first violated
    constraint, or the chamber ordering.  `h` selects the pitch whose
    tolerances apply; default is the starting pitch.
    """
    if len(x) != region.dim:
        raise PreconditionError(
            f"point has {len(x)} coordinates, region has dimension {region.dim}"
        )
    pt = tuple(Fraction(v) for v in x)
    h = cfg.h if h is None else h
    delta = _effective_delta(cfg, h)
    lo, hi = region.box
    for k in range(region.dim):
        if not lo[k] <= pt[k] <= hi[k]:
            return False, (
                f"coordinate {k + 1} = {pt[k]} outside box [{lo[k]}, {hi[k]}]"
            )
    for poly, rel in region.requires:
        v = poly.eval(pt)
        if not rel.holds(v, delta):
            return False, (
                f"constraint {format_poly(poly)} {_REL_TEXT[rel]} fails, value {v}"
            )
    if region.chamber:
        for k in range(region.dim - 1):
            step = pt[k + 1] - pt[k]
            if step < -delta:
                return False, (
                    f"chamber order z{k + 1} <= z{k + 2} fails, z{k + 2} - z{k + 1} = {step}"
                )
    return True, ""


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _suffix_ranges(values: list[int]) -> list[tuple[int, int]]:
    """(min, max) of values[s:] for every start s."""
    out = []
    lo = hi = values[-1]
    for v in reversed(values):
        lo, hi = min(lo, v), max(hi, v)
        out.append((lo, hi))
    return out[::-1]


def _interval_mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    ends = (p[0] * q[0], p[0] * q[1], p[1] * q[0], p[1] * q[1])
    return min(ends), max(ends)


class _Atom:
    """One constraint compiled against one grid's integer centers.

    Its value at a cell is `const`, plus `tables[k][i_k]` on each axis k
    that has a one-variable table, plus every mixed monomial j, whose
    coefficient is `coeffs[j]` before any factor is fixed.  Fixing axis k
    at index i multiplies in each monomial's factor from `fix[k]` and
    moves the monomials in `closing[k]`, now fully fixed, into the
    constant part.  Below a prefix of f fixed axes whose free indices
    start at s, `free[f][s]` bounds the tables of the free axes, and
    each monomial of `active[f]` has its free factors bounded by its
    product range at s.  A cell passes when lo <= value (<= hi for EQ).
    """

    __slots__ = ("lo", "hi", "const", "tables", "coeffs", "fix", "closing", "free", "active")


class _Grid:
    """Classification of one region at one fixed pitch.

    Cells are tested in integer arithmetic.  Center i on axis k is
    (a_k + (2i + 1) b_k) / D, where a_k / D is the box's lower corner and
    b_k / D half the cell width over one common denominator D, so `nums`
    holds each axis's numerators as an integer progression and only
    `center_of` builds `Fraction`s, for the representatives.  An atom g
    of total degree t is compiled to the integer polynomial L * D^t * g,
    where L clears its coefficient denominators; each cell test of the
    module docstring (g >= 0, |g| <= delta, g >= pitch) then compares
    integers, g * den >= thr or |g| * den <= thr with thr scaled by the
    same L * D^t.  As g is an integer, these are the integer intervals
    [ceil(thr / den), inf) and [-floor(thr / den), floor(thr / den)].
    Every comparison scales by the same D^t, so any common D gives the
    same cells.  A chamber region walks only its sorted cells.

    The walk fixes the axes in order, visiting prefixes lexicographically.
    Below a fixed prefix every undecided atom is bounded over all the
    cells that extend it.  Each free axis contributes the minimum and
    maximum of its one-variable table from the first free index on
    (suffix ranges, computed once per grid; the free indices of a sorted
    walk start at the last fixed one, of a product walk at 0).  Each
    mixed monomial contributes its fixed factors times the interval
    product of its free factors' suffix ranges; those are ranges of
    a^e over the actual centers, so an even power whose centers straddle
    0 gets the value nearest 0 as its minimum.  These bounds hold for
    the exact integer value at every center below the prefix, so an atom
    whose bound lies outside its interval fails at all of them and the
    prefix is skipped, and one whose bound lies inside holds at all of
    them and is dropped for the subtree.  The last axis is tested cell
    by cell against the prefix's partial sums.  The feasible set is
    therefore the one the per-center test gives, with the same ties.
    `tested` counts the centers that were tested.

    Consecutive feasible cells along the last axis form a run.  A run is
    joined to the overlapping runs of the row one step back along each
    other axis, which covers every face adjacency.  Runs come out in
    lexicographic order, so classes are numbered by their first cell in
    that order and each representative is that cell's center, as in a
    per-cell walk.  `feasible` maps each feasible cell's flat index to
    its class.
    """

    def __init__(self, region: Region, cfg: OracleConfig, h: Fraction):
        self.h = h
        self.dim = dim = region.dim
        delta = _effective_delta(cfg, h)
        lo, hi = region.box
        self.lo = lo
        m = [-((lo[k] - hi[k]) // h) or 1 for k in range(dim)]
        widths = [(hi[k] - lo[k]) / m[k] for k in range(dim)]
        # center i on axis k is (a + (2i + 1) b) / D with a / D = lo_k and
        # b / D = w_k / 2, so the numerators are a progression of step 2b
        halves = [w / 2 for w in widths]
        D = math.lcm(*(c.denominator for c in (*lo, *halves)))
        nums = []
        for k in range(dim):
            a = lo[k].numerator * (D // lo[k].denominator)
            b = halves[k].numerator * (D // halves[k].denominator)
            nums.append(list(range(a + b, a + b + 2 * b * m[k], 2 * b)) if b else [a])
        self.m = m
        self.widths = widths
        self.nums = nums
        self.D = D
        strides = [0] * dim
        s = 1
        for k in reversed(range(dim)):
            strides[k] = s
            s *= m[k]
        self.strides = strides

        # the chamber ordering holds exactly on the weakly increasing index
        # tuples of its uniform box, so only those cells are walked
        sorted_walk = region.chamber

        powers: dict[tuple[int, int], list[int]] = {}
        for poly, _ in region.requires:
            for exp in poly.terms:
                for k, e in enumerate(exp):
                    if e and (k, e) not in powers:
                        powers[k, e] = [a**e for a in nums[k]]
        ranges = {key: _suffix_ranges(p) for key, p in powers.items()}
        # bounds are kept for every start index the walk can pass down
        starts = m[0] if sorted_walk else 1
        last = dim - 1

        def compile_atom(atom: Atom) -> _Atom:
            poly, rel = atom
            t = poly.total_degree()
            L = math.lcm(*(c.denominator for c in poly.terms.values()))
            out = _Atom()
            out.const, out.tables, monos = 0, [None] * dim, []
            for exp, c in poly.terms.items():
                coeff = c.numerator * (L // c.denominator) * D ** (t - sum(exp))
                factors = [(k, e) for k, e in enumerate(exp) if e]
                if not factors:
                    out.const += coeff
                elif len(factors) == 1:
                    k, e = factors[0]
                    table = out.tables[k] or [0] * m[k]
                    out.tables[k] = [a + coeff * b for a, b in zip(table, powers[k, e])]
                else:
                    monos.append((coeff, factors))
            eq = rel is Relation.EQ
            bound = delta if eq else h if rel is Relation.GT else Fraction(0)
            thr, den = bound.numerator * L * D**t, bound.denominator
            out.lo, out.hi = (-(thr // den), thr // den) if eq else (-(-thr // den), None)
            out.coeffs = tuple(c for c, _ in monos)
            out.fix = [[] for _ in range(dim)]
            out.closing = [[] for _ in range(dim)]
            out.active = [[] for _ in range(dim + 1)]
            for j, (_, factors) in enumerate(monos):
                for k, e in factors:
                    out.fix[k].append((j, powers[k, e]))
                out.closing[factors[-1][0]].append(j)
                for f in range(factors[-1][0] + 1):
                    prod = [(1, 1)] * starts
                    for k, e in factors:
                        if k >= f:
                            prod = [_interval_mul(p, q) for p, q in zip(prod, ranges[k, e])]
                    out.active[f].append((j, prod))
            out.free = [[(0, 0)] * starts]
            for k in reversed(range(dim)):
                r = _suffix_ranges(out.tables[k]) if out.tables[k] else [(0, 0)] * starts
                out.free.append([(a + c, b + d) for (a, b), (c, d) in zip(out.free[-1], r)])
            out.free.reverse()
            return out

        def decide(atom: _Atom, base: int, cs, f: int, s: int) -> int:
            # -1: fails on every cell below the prefix, 1: holds on all
            glo, ghi = atom.free[f][s]
            glo += base
            ghi += base
            for j, prod in atom.active[f]:
                c = cs[j]
                pl, ph = prod[s]
                if c >= 0:
                    glo += c * pl
                    ghi += c * ph
                else:
                    glo += c * ph
                    ghi += c * pl
            if ghi < atom.lo or (atom.hi is not None and glo > atom.hi):
                return -1
            return 1 if glo >= atom.lo and (atom.hi is None or ghi <= atom.hi) else 0

        runs: list[tuple[int, int, int]] = []  # (row, first, last) in walk order
        row_runs: dict[int, list[tuple[int, int, int]]] = {}  # row: (first, last, run)
        parent: list[int] = []
        prefix = [0] * dim
        tested = 0

        def emit(row: int, a: int, b: int) -> None:
            r = len(runs)
            runs.append((row, a, b))
            parent.append(r)
            row_runs.setdefault(row, []).append((a, b, r))
            for k in range(last):
                if not prefix[k]:
                    continue
                for c, d, q in row_runs.get(row - strides[k], ()):
                    if c > b:
                        break
                    if d >= a:
                        ra, rb = _find(parent, r), _find(parent, q)
                        if ra != rb:
                            parent[ra] = rb

        def scan_row(row: int, s: int, states) -> None:
            nonlocal tested
            if not states:
                emit(row, s, m[last] - 1)
                return
            tested += m[last] - s
            cand = range(s, m[last])
            for atom, base, cs in states:
                vals = atom.tables[last] or [0] * m[last]
                for j, pw in atom.fix[last]:
                    c = cs[j]
                    vals = [v + c * p for v, p in zip(vals, pw)]
                a = atom.lo - base
                if atom.hi is None:
                    cand = [i for i in cand if vals[i] >= a]
                else:
                    b = atom.hi - base
                    cand = [i for i in cand if a <= vals[i] <= b]
            start = prev = -2
            for i in cand:
                if i != prev + 1:
                    if start >= 0:
                        emit(row, start, prev)
                    start = i
                prev = i
            if start >= 0:
                emit(row, start, prev)

        def walk(f: int, row: int, s: int, states) -> None:
            if f == last:
                scan_row(row, s, states)
                return
            for i in range(s, m[f]):
                prefix[f] = i
                t = i if sorted_walk else 0
                kept = []
                for atom, base, cs in states:
                    if atom.tables[f]:
                        base += atom.tables[f][i]
                    if atom.fix[f]:
                        cs = list(cs)
                        for j, pw in atom.fix[f]:
                            cs[j] *= pw[i]
                        for j in atom.closing[f]:
                            base += cs[j]
                    verdict = decide(atom, base, cs, f + 1, t)
                    if verdict < 0:
                        break
                    if verdict == 0:
                        kept.append((atom, base, cs))
                else:
                    walk(f + 1, row + i * strides[f], t, kept)

        states = []
        for atom in map(compile_atom, region.requires):
            verdict = decide(atom, atom.const, atom.coeffs, 0, 0)
            if verdict < 0:
                break
            if verdict == 0:
                states.append((atom, atom.const, atom.coeffs))
        else:
            walk(0, 0, 0, states)
        self.tested = tested

        classes: dict[int, int] = {}
        reps: list[tuple[Fraction, ...]] = []
        feasible: dict[int, int] = {}
        for r, (row, a, b) in enumerate(runs):
            cls = classes.setdefault(_find(parent, r), len(classes))
            if cls == len(reps):
                reps.append(self.center_of(self.unflatten(row + a)))
            feasible.update(dict.fromkeys(range(row + a, row + b + 1), cls))
        self.feasible = feasible
        self.representatives = reps
        self.class_count = len(classes)

    def unflatten(self, flat: int) -> tuple[int, ...]:
        return tuple((flat // self.strides[k]) % self.m[k] for k in range(self.dim))

    def center_of(self, idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(self.nums[k][idx[k]], self.D) for k in range(self.dim))

    def cell_of(self, x: Sequence) -> tuple[int, ...]:
        """Index of the cell containing x, clamped to the box."""
        idx = []
        for k in range(self.dim):
            if self.widths[k] == 0:
                idx.append(0)
                continue
            i = int((Fraction(x[k]) - self.lo[k]) // self.widths[k])
            idx.append(min(max(i, 0), self.m[k] - 1))
        return tuple(idx)

    def class_of_cell(self, idx: tuple[int, ...]) -> int | None:
        flat = 0
        for i, st in zip(idx, self.strides):
            flat += i * st
        return self.feasible.get(flat)

    def classes_near(self, idx: tuple[int, ...]) -> set[int]:
        """Class of the cell, or of its feasible face neighbors."""
        own = self.class_of_cell(idx)
        if own is not None:
            return {own}
        out = set()
        for k in range(self.dim):
            for step in (-1, 1):
                j = idx[k] + step
                if 0 <= j < self.m[k]:
                    nb = self.class_of_cell(idx[:k] + (j,) + idx[k + 1 :])
                    if nb is not None:
                        out.add(nb)
        return out


class RegionResolution:
    """Stabilized classification of one region.

    Refinement halves the pitch until two consecutive levels report the
    same class count, or the depth cap is hit.  The final level answers
    all queries.
    """

    def __init__(self, region, cfg, grid, level_counts):
        self.region = region
        self.cfg = cfg
        self._grid = grid
        self.level_counts = level_counts

    @property
    def h(self) -> Fraction:
        return self._grid.h

    @property
    def representatives(self) -> list[tuple[Fraction, ...]]:
        return list(self._grid.representatives)

    @property
    def class_count(self) -> int:
        return self._grid.class_count

    def point_classes(self, x: Sequence) -> frozenset[int]:
        return frozenset(self._grid.classes_near(self._grid.cell_of(x)))

    def connected_points(self, x: Sequence, y: Sequence) -> bool:
        gx = self._grid.cell_of(x)
        gy = self._grid.cell_of(y)
        if gx == gy:
            return True
        return bool(self._grid.classes_near(gx) & self._grid.classes_near(gy))

    def summary(self) -> GridSummary:
        return GridSummary(
            h_final=self._grid.h,
            cells=len(self._grid.feasible),
            classes=self._grid.class_count,
            level_counts=self.level_counts,
        )


def resolve_region(region: Region, cfg: OracleConfig | None = None) -> RegionResolution:
    """Classify at h, h/2, ... until the class count repeats, depth capped."""
    return _resolve_cached(region, cfg or OracleConfig())


@lru_cache(maxsize=32)
def _resolve_cached(region: Region, cfg: OracleConfig) -> RegionResolution:
    h = cfg.h
    grid = _Grid(region, cfg, h)
    counts = [grid.class_count]
    for _ in range(cfg.max_depth):
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            break
        h = h / 2
        grid = _Grid(region, cfg, h)
        counts.append(grid.class_count)
    return RegionResolution(region, cfg, grid, tuple(counts))


def sample_components(region: Region, cfg: OracleConfig | None = None) -> list[tuple[Fraction, ...]]:
    """One cell-center representative per detected component.

    An empty region yields an empty list, not an error.  Representatives
    are ordered by first appearance in the lexicographic cell walk, so
    repeated calls agree.
    """
    return resolve_region(region, cfg).representatives


def connected(
    region: Region,
    x: Sequence,
    y: Sequence,
    cfg: OracleConfig | None = None,
) -> bool:
    """True when the cells of x and y share a union-find class.

    Both points must satisfy the predicate with the slack of the final
    pitch; an infeasible point raises PreconditionError naming the
    violated constraint.
    """
    cfg = cfg or OracleConfig()
    res = resolve_region(region, cfg)
    for name, pt in (("x", x), ("y", y)):
        good, why = point_feasible(region, pt, cfg, res.h)
        if not good:
            raise PreconditionError(f"query point {name} is infeasible: {why}")
    return res.connected_points(x, y)


def face_region(sys: SymmetricSystem, lam: Composition | Sequence[int]) -> Region:
    """The face set of lam in its block coordinates, chamber ordering included."""
    lam = composition(lam)
    box = make_box(lam.length, sys.box[0][0], sys.box[1][0])
    return Region(dim=lam.length, requires=restrict(sys, lam), box=box, chamber=True)


def full_space_region(sys: SymmetricSystem) -> Region:
    """The whole system as a region of R^n, no ordering imposed."""
    return Region(dim=sys.n, requires=restrict(sys, (1,) * sys.n), box=sys.box)


def brute_force_connected(
    sys: SymmetricSystem,
    x: Sequence,
    y: Sequence,
    cfg: OracleConfig | None = None,
) -> bool:
    """Connectivity in the unrestricted system, straight grid in R^n.

    This is the ground-truth side of the validation harness.  It scales
    badly with n by design; keep n small.
    """
    return connected(full_space_region(sys), x, y, cfg)
