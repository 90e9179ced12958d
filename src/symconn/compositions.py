"""Compositions of n and the face lattice of the sorted chamber.

The chamber ``x_1 <= ... <= x_n`` is stratified into faces indexed by
compositions of n: the composition records the lengths of the maximal blocks
of equal coordinates, read left to right.  Everything here is exact integer
combinatorics; positions and wall indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DomainError


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive integers summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise DomainError("composition needs at least one part")
        if any((not isinstance(p, int)) or p < 1 for p in self.parts):
            raise DomainError(f"parts must be positive integers, got {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def breaks(self) -> frozenset[int]:
        """Cumulative sums except n: the positions where blocks end."""
        acc, out = 0, []
        for p in self.parts[:-1]:
            acc += p
            out.append(acc)
        return frozenset(out)

    def block_starts(self) -> tuple[int, ...]:
        """1-based first position of each block."""
        starts, acc = [], 1
        for p in self.parts:
            starts.append(acc)
            acc += p
        return tuple(starts)

    def block_of(self, pos: int) -> int:
        """1-based index of the block containing position pos."""
        if not 1 <= pos <= self.n:
            raise DomainError(f"position {pos} outside 1..{self.n}")
        acc = 0
        for k, p in enumerate(self.parts, start=1):
            acc += p
            if pos <= acc:
                return k
        raise AssertionError("unreachable")

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, k):
        return self.parts[k]


def composition(parts: Iterable[int]) -> Composition:
    return parts if isinstance(parts, Composition) else Composition(tuple(parts))


def from_breaks(n: int, breaks: Iterable[int]) -> Composition:
    """Rebuild the composition of n whose block ends are the given positions."""
    cuts = sorted(set(breaks))
    if any(not 1 <= c < n for c in cuts):
        raise DomainError(f"break positions must lie in 1..{n - 1}")
    prev, parts = 0, []
    for c in cuts + [n]:
        parts.append(c - prev)
        prev = c
    return Composition(tuple(parts))


def enumerate_compositions(n: int, length: int) -> list[Composition]:
    """All compositions of n with the given number of parts, lexicographic."""
    if n < 1 or not 1 <= length <= n:
        raise DomainError(f"no compositions of {n} with {length} parts")
    out = [
        from_breaks(n, cuts)
        for cuts in combinations(range(1, n), length - 1)
    ]
    out.sort(key=lambda c: c.parts)
    return out


def extremal_compositions(n: int, d: int) -> list[Composition]:
    """Length-d compositions of n whose faces can host fiber extrema.

    These carry 1s at alternating positions anchored on the left: parts
    1, 3, 5, ... equal 1.  Every nonempty fiber is connected and meets
    one of these faces, so this one family is all the reduction needs.
    For d = 1 the convention is the single composition (n).
    """
    if d < 1 or d > n:
        raise DomainError(f"need 1 <= d <= n, got d={d}, n={n}")
    if d == 1:
        return [Composition((n,))]
    ones = [2 * i for i in range(0, (d + 1) // 2)]  # 0-based positions fixed to 1
    free = [k for k in range(d) if k not in ones]
    rest = n - len(ones)
    if len(free) == 0:
        return [Composition((1,) * d)] if rest == 0 else []
    out = []
    for comp_free in enumerate_compositions(rest, len(free)):
        parts = [1] * d
        for slot, val in zip(free, comp_free.parts):
            parts[slot] = val
        out.append(Composition(tuple(parts)))
    return out


def join(lam: Composition, mu: Composition) -> Composition:
    """Coarsest composition refining into both: intersect the break sets."""
    if lam.n != mu.n:
        raise DomainError("join needs compositions of the same n")
    return from_breaks(lam.n, lam.breaks() & mu.breaks())


def precedes(lam: Composition, mu: Composition) -> bool:
    """True iff mu merges blocks of lam, i.e. lam's face contains mu's face."""
    if lam.n != mu.n:
        raise DomainError("precedes needs compositions of the same n")
    return mu.breaks() <= lam.breaks()


def merge_at_wall(lam: Composition, i: int) -> Composition:
    """Merge the blocks of lam meeting the wall x_i = x_{i+1}.

    If positions i and i+1 already share a block, lam is returned unchanged
    (the whole face lies inside that wall).
    """
    if not 1 <= i <= lam.n - 1:
        raise DomainError(f"wall index {i} outside 1..{lam.n - 1}")
    k = lam.block_of(i)
    k2 = lam.block_of(i + 1)
    if k == k2:
        return lam
    parts = list(lam.parts)
    merged = parts[k - 1] + parts[k2 - 1]
    parts[k - 1:k2] = [merged]
    return Composition(tuple(parts))


def embed(lam: Composition, z: Sequence) -> tuple:
    """Repeat each block value: embed((2,1),(a,b)) = (a,a,b)."""
    if len(z) != lam.length:
        raise DomainError(f"need {lam.length} block values, got {len(z)}")
    out = []
    for p, v in zip(lam.parts, z):
        out.extend([v] * p)
    return tuple(out)


def sorting_transpositions(y: Sequence) -> tuple[tuple[int, ...], tuple]:
    """Bubble-sort word for y: the adjacent swaps (i, i+1) that sort it.

    Returns (word, sorted_y) where each word entry i means "swap positions
    i and i+1" (1-based), applied left to right.  Equal entries are never
    swapped, so the word length is the inversion number of y.
    """
    v = list(y)
    n = len(v)
    word = []
    for sweep in range(1, n):
        for j in range(0, n - sweep):
            if v[j] > v[j + 1]:
                v[j], v[j + 1] = v[j + 1], v[j]
                word.append(j + 1)
    return tuple(word), tuple(v)


def apply_transpositions(y: Sequence, word: Iterable[int]) -> tuple:
    """Apply adjacent swaps (1-based, left to right) to a copy of y."""
    v = list(y)
    for i in word:
        if not 1 <= i <= len(v) - 1:
            raise DomainError(f"swap index {i} outside 1..{len(v) - 1}")
        v[i - 1], v[i] = v[i], v[i - 1]
    return tuple(v)
