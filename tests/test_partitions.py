from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from almostabelian.partitions import (
    Partition,
    iter_partitions,
    partitions_of,
    restricted_count,
    restricted_counts,
)


def brute_partitions(m, max_parts, max_size):
    """Independent oracle: all weakly decreasing tuples with bounded shape.

    Enumerates combinations with replacement of part sizes, so it shares
    no code with the recursive enumerator or the box-count DP.
    """
    found = set()
    for k in range(0, max_parts + 1):
        for combo in combinations_with_replacement(range(1, max_size + 1), k):
            if sum(combo) == m:
                found.add(tuple(sorted(combo, reverse=True)))
    return found


class TestPartitionType:
    def test_normalisation_and_sum(self):
        p = Partition([1, 3, 2, 3])
        assert p.parts == (3, 3, 2, 1)
        assert p.n == 9
        assert len(p) == 4

    def test_empty(self):
        assert Partition().parts == ()
        assert Partition().n == 0

    def test_rejects_bad_parts(self):
        for bad in ([0], [-1], [1.5], [True], [3, 2, 0], [2, True], [2, 1.0]):
            with pytest.raises(ValueError):
                Partition(bad)

    def test_accepts_int_subclasses(self):
        class Part(int):
            pass

        assert Partition([Part(1), 3, Part(2)]) == Partition([3, 2, 1])

    def test_multiplicity_round_trip(self):
        p = Partition([4, 2, 2, 1])
        assert p.mult(2) == 2 and p.mult(3) == 0
        assert p.multiplicities() == {4: 1, 2: 2, 1: 1}
        assert Partition.from_multiplicities(p.multiplicities()) == p

    def test_immutable_and_hashable(self):
        p = Partition([2, 1])
        with pytest.raises(AttributeError):
            p.parts = (3,)
        assert len({p, Partition([1, 2])}) == 1


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == [Partition()]

    def test_two(self):
        assert [p.parts for p in partitions_of(2)] == [(2,), (1, 1)]

    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_brute_force(self, n):
        got = {p.parts for p in partitions_of(n)}
        assert got == brute_partitions(n, n, n)

    def test_count_of_five(self):
        assert len(brute_partitions(5, 5, 5)) == 7
        assert len(partitions_of(5)) == 7

    @pytest.mark.parametrize("n", range(0, 11))
    def test_no_duplicates_and_sums(self, n):
        ps = partitions_of(n)
        assert len(set(ps)) == len(ps)
        assert all(p.n == n for p in ps)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_lexicographically_decreasing(self, n):
        seqs = [p.parts for p in partitions_of(n)]
        assert seqs == sorted(seqs, reverse=True)

    def test_walk_is_lazy(self):
        # the first partitions of a large n come without walking the rest
        walk = iter_partitions(10**6)
        assert next(walk) == Partition([10**6])
        assert next(walk) == Partition([10**6 - 1, 1])


class TestRestrictedCount:
    def test_empty_partition_only(self):
        assert restricted_count(0, 4, 4) == 1
        assert restricted_count(0, 0, 0) == 1

    def test_small_cases_against_listing(self):
        # brute force lists 2 and 1+1
        assert brute_partitions(2, 2, 2) == {(2,), (1, 1)}
        assert restricted_count(2, 2, 2) == 2
        # brute force lists only 2+1
        assert brute_partitions(3, 2, 2) == {(2, 1)}
        assert restricted_count(3, 2, 2) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            restricted_count(-1, 2, 2)

    def test_box_larger_than_m(self):
        # parts above m and more than m parts never occur, so a huge box
        # counts like the m x m box, and needs no deep recursion
        assert restricted_count(10, 3, 1000) == restricted_count(10, 3, 10) == 14
        assert restricted_count(10, 1000, 3) == restricted_count(10, 10, 3) == 14
        assert restricted_count(12, 5000, 5000) == len(partitions_of(12))

    def test_large_m_without_recursion(self):
        # p(1000); the seed's recursion over n raised RecursionError here
        assert restricted_count(1000, 1000, 1000) == 24061467864032622473692149727991
        assert restricted_count(1000, 1000, 1000) == restricted_count(1000, 10**6, 10**6)

    def test_cache_is_bounded(self):
        assert restricted_count.cache_info().maxsize is not None

    @pytest.mark.parametrize("n", range(0, 8))
    @pytest.mark.parametrize("r", range(0, 8))
    def test_matches_brute_force(self, n, r):
        for m in range(0, n * r + 2):
            assert restricted_count(m, n, r) == len(brute_partitions(m, n, r))

    def test_box_complement_symmetry(self):
        for n in range(0, 11):
            for r in range(0, 11):
                for m in range(0, n * r + 1):
                    assert restricted_count(m, n, r) == restricted_count(n * r - m, n, r)

    def test_conjugation_symmetry(self):
        for n in range(0, 11):
            for r in range(0, 11):
                for m in range(0, n * r + 1):
                    assert restricted_count(m, n, r) == restricted_count(m, r, n)

    def test_total_over_box_is_binomial(self):
        for n in range(0, 11):
            for r in range(0, 11):
                total = sum(restricted_count(m, n, r) for m in range(0, n * r + 1))
                assert total == comb(n + r, r)


class TestRestrictedCounts:
    def test_rows_match_single_counts(self):
        for n in range(0, 11):
            for r in range(0, 11):
                row = restricted_counts(n, r, n * r)
                assert row == tuple(restricted_count(m, n, r) for m in range(0, n * r + 1))

    @pytest.mark.parametrize("n", range(0, 8))
    @pytest.mark.parametrize("r", range(0, 8))
    def test_rows_match_brute_force(self, n, r):
        # every partition in the n x r box once, tallied by its size
        sizes = Counter(
            sum(combo)
            for k in range(0, n + 1)
            for combo in combinations_with_replacement(range(1, r + 1), k)
        )
        assert restricted_counts(n, r, n * r) == tuple(sizes[m] for m in range(0, n * r + 1))

    def test_truncation_is_a_prefix(self):
        # top below r skips the factors that are 1 below degree top + 1;
        # top above n * r pads with zeros
        for n, r in [(3, 5), (5, 3), (0, 4), (4, 0), (6, 6)]:
            full = restricted_counts(n, r, n * r + 4)
            assert full[n * r + 1 :] == (0, 0, 0, 0)
            for top in range(0, n * r + 5):
                assert restricted_counts(n, r, top) == full[: top + 1]

    def test_rejects_negative(self):
        for args in [(-1, 2, 2), (2, -1, 2), (2, 2, -1)]:
            with pytest.raises(ValueError):
                restricted_counts(*args)

    def test_row_cache_is_bounded(self):
        assert restricted_counts.cache_info().maxsize is not None
