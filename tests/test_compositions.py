import random
from fractions import Fraction
from math import comb

import pytest

from symconn.compositions import (
    Composition,
    all_compositions,
    apply_transpositions,
    composition,
    count_extremal_compositions,
    embed,
    enumerate_compositions,
    extremal_compositions,
    from_breaks,
    inversions,
    join,
    merge_at_wall,
    precedes,
    sorting_transpositions,
)
from symconn.errors import DomainError


def C(*parts):
    return Composition(tuple(parts))


def multiplicity_composition(x):
    """Run lengths of equal consecutive entries (sortedness not required)."""
    if len(x) == 0:
        raise DomainError("empty vector has no multiplicity composition")
    parts, run = [], 1
    for i in range(1, len(x)):
        if x[i] == x[i - 1]:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return Composition(tuple(parts))


def test_composition_basics():
    lam = C(2, 1, 1)
    assert lam.n == 4
    assert lam.length == 3
    assert lam.breaks() == frozenset({2, 3})
    assert lam.block_starts() == (1, 3, 4)
    assert [lam.block_of(p) for p in (1, 2, 3, 4)] == [1, 1, 2, 3]
    with pytest.raises(DomainError):
        C(2, 0, 1)
    with pytest.raises(DomainError):
        Composition(())


def test_from_breaks_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 12)
        length = rng.randint(1, n)
        cuts = rng.sample(range(1, n), length - 1) if n > 1 else []
        lam = from_breaks(n, cuts)
        assert lam.breaks() == frozenset(cuts)
        assert lam.n == n


def test_enumerate_compositions_6_3():
    got = enumerate_compositions(6, 3)
    assert len(got) == comb(5, 2) == 10
    assert got[0].parts == (1, 1, 4)
    assert got[-1].parts == (4, 1, 1)
    # lexicographic and duplicate-free
    parts = [c.parts for c in got]
    assert parts == sorted(parts)
    assert len(set(parts)) == 10


def test_all_compositions_of_4():
    got = {c.parts for c in all_compositions(4)}
    expected = {
        (4,),
        (1, 3), (3, 1), (2, 2),
        (2, 1, 1), (1, 2, 1), (1, 1, 2),
        (1, 1, 1, 1),
    }
    assert got == expected


def test_enumerate_counts():
    for n in range(1, 9):
        for length in range(1, n + 1):
            assert len(enumerate_compositions(n, length)) == comb(n - 1, length - 1)


def test_extremal_compositions_6_4():
    got = {c.parts for c in extremal_compositions(6, 4)}
    assert got == {(1, 1, 1, 3), (1, 2, 1, 2), (1, 3, 1, 1)}
    assert count_extremal_compositions(6, 4) == 3


def test_extremal_compositions_patterns():
    # left-anchored by default, mirrored reverses each tuple
    assert [c.parts for c in extremal_compositions(5, 2)] == [(1, 4)]
    assert [c.parts for c in extremal_compositions(5, 2, pattern="mirrored")] == [(4, 1)]
    # odd d: both patterns agree
    assert extremal_compositions(7, 3) == extremal_compositions(7, 3, pattern="mirrored")
    assert [c.parts for c in extremal_compositions(7, 3)] == [(1, 5, 1)]


def test_extremal_composition_d1_convention():
    assert [c.parts for c in extremal_compositions(5, 1)] == [(5,)]
    assert count_extremal_compositions(5, 1) == 1


def test_extremal_counts_match_formula():
    for n in range(2, 11):
        for d in range(2, min(n, 5) + 1):
            got = extremal_compositions(n, d)
            assert len(got) == count_extremal_compositions(n, d)
            for lam in got:
                assert lam.n == n and lam.length == d
                for i in range(0, d, 2):
                    assert lam.parts[i] == 1


def test_extremal_rejects_bad_degree():
    with pytest.raises(DomainError):
        extremal_compositions(3, 4)
    with pytest.raises(DomainError):
        extremal_compositions(3, 0)


def test_join_examples():
    assert join(C(2, 1, 1), C(1, 1, 1, 1)).parts == (2, 1, 1)
    assert join(C(2, 1, 1), C(1, 1, 2)).parts == (2, 2)
    assert join(C(2, 2), C(4,)).parts == (4,)


def test_precedes_examples():
    assert precedes(C(1, 2, 1), C(3, 1))
    assert precedes(C(1, 2, 1), C(1, 3))
    assert precedes(C(1, 2, 1), C(4,))
    assert not precedes(C(3, 1), C(1, 2, 1))
    # regenerated via the break-set rule: breaks((1,1,2)) = {1,2} is not
    # contained in breaks((2,2)) = {2}
    assert not precedes(C(2, 2), C(1, 1, 2))
    assert precedes(C(1, 1, 2), C(2, 2))
    assert precedes(C(2, 2), C(2, 2))


def test_join_is_least_upper_bound():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 9)
        lam = from_breaks(n, [b for b in range(1, n) if rng.random() < 0.5])
        mu = from_breaks(n, [b for b in range(1, n) if rng.random() < 0.5])
        j = join(lam, mu)
        assert precedes(lam, j) and precedes(mu, j)
        assert join(lam, lam) == lam
        assert join(lam, mu) == join(mu, lam)
        # any common upper bound sits above the join
        up = from_breaks(n, j.breaks() & frozenset(range(1, n)))
        assert precedes(j, up) or up == j


def test_multiplicity_composition():
    assert multiplicity_composition((-1, 5, 5, -3)).parts == (1, 2, 1)
    assert multiplicity_composition((Fraction(1, 3),) * 4).parts == (4,)
    assert multiplicity_composition((0, 1, 2)).parts == (1, 1, 1)
    with pytest.raises(DomainError):
        multiplicity_composition(())


def test_embedded_multiplicity_dominates():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(2, 8)
        length = rng.randint(1, n)
        lam = enumerate_compositions(n, length)[
            rng.randrange(comb(n - 1, length - 1))
        ]
        z = sorted(rng.choices(range(-3, 4), k=length))
        x = embed(lam, z)
        mc = multiplicity_composition(x)
        assert precedes(lam, mc)
        strict = all(a < b for a, b in zip(z, z[1:]))
        assert (mc == lam) == strict


def test_merge_at_wall():
    assert merge_at_wall(C(2, 1, 1), 2).parts == (3, 1)
    assert merge_at_wall(C(1, 2, 1), 3).parts == (1, 3)
    # wall interior to a block: unchanged
    assert merge_at_wall(C(2, 1, 1), 1).parts == (2, 1, 1)
    assert merge_at_wall(C(1, 3), 3).parts == (1, 3)
    with pytest.raises(DomainError):
        merge_at_wall(C(2, 2), 4)


def test_merge_at_wall_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 9)
        lam = from_breaks(n, [b for b in range(1, n) if rng.random() < 0.5])
        i = rng.randint(1, n - 1)
        mu = merge_at_wall(lam, i)
        assert precedes(lam, mu)
        assert mu.block_of(i) == mu.block_of(i + 1)
        assert mu.length in (lam.length, lam.length - 1)


def test_embed():
    assert embed(C(2, 1), (Fraction(5), Fraction(7))) == (5, 5, 7)
    assert embed(C(1, 1, 1), (1, 2, 3)) == (1, 2, 3)
    with pytest.raises(DomainError):
        embed(C(2, 1), (1,))


def test_sorting_transpositions_example():
    word, srt = sorting_transpositions((3, 1, 2))
    assert srt == (1, 2, 3)
    assert word == (1, 2)
    assert apply_transpositions((3, 1, 2), word) == srt


def test_sorting_transpositions_sorted_input():
    word, srt = sorting_transpositions((1, 1, 2))
    assert word == ()
    assert srt == (1, 1, 2)


def test_sorting_transpositions_random():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 8)
        y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        word, srt = sorting_transpositions(y)
        assert srt == tuple(sorted(y))
        assert len(word) == inversions(y)
        assert apply_transpositions(y, word) == srt


def test_multiplicity_of_embedded_strict_point():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 8)
        length = rng.randint(1, n)
        lam = enumerate_compositions(n, length)[rng.randrange(comb(n - 1, length - 1))]
        z = sorted(rng.sample(range(-20, 20), length))
        x = embed(lam, tuple(Fraction(v) for v in z))
        assert multiplicity_composition(x) == lam


def test_composition_helper_accepts_lists():
    assert composition([2, 1]).parts == (2, 1)
    lam = C(2, 1)
    assert composition(lam) is lam
