import random
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from almostabelian.partitions import restricted_count
from almostabelian.sl2 import (
    ZERO,
    InvalidWeightSystemError,
    Sl2Module,
    _wedge_sum,
    decompose_from_weights,
    delta,
    irreducible,
    slot_bytes,
    tensor,
    tensor_count,
    unpack,
    wedge,
    wedge_profile,
    weight_profile,
    wedge_weight_oracle,
)

W = irreducible


def small_modules(max_summands, max_dim):
    """Every module with at most max_summands summands, each of
    dimension at most max_dim, the zero module included."""
    return [
        Sl2Module(Counter(dims))
        for k in range(max_summands + 1)
        for dims in combinations_with_replacement(range(1, max_dim + 1), k)
    ]


class TestModuleType:
    def test_canonical_form_drops_zeros(self):
        assert Sl2Module({3: 0, 2: 1}) == W(2)
        assert Sl2Module([(2, 1), (2, 2)]) == 3 * W(2)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Sl2Module({0: 1})
        with pytest.raises(ValueError):
            Sl2Module({2: -1})

    @pytest.mark.parametrize(
        "mult", [{2: 0.5}, {2.0: 1}, {True: 2}, {2: True}, [(2, 1), (3, False)], {"2": 1}]
    )
    def test_rejects_non_int_entries(self, mult):
        # as Partition does: {2: 0.5} would print 0*W(2) with dim() 1.0,
        # and {True: 2} would be 2*W(1)
        with pytest.raises(ValueError, match="must be an int"):
            Sl2Module(mult)

    def test_dim_and_delta(self):
        v = 2 * W(1) + 3 * W(2)
        assert v.dim() == 8
        assert v.delta() == 5
        assert v.mult(2) == 3 and v.mult(5) == 0

    def test_weights_of_irreducible(self):
        assert dict(W(4).weights()) == {3: 1, 1: 1, -1: 1, -3: 1}
        assert dict(W(3).weights()) == {2: 1, 0: 1, -2: 1}

    def test_zero_module(self):
        assert ZERO.is_zero()
        assert ZERO.dim() == 0 and ZERO.delta() == 0


class TestDelta:
    def test_single_irreducible(self):
        assert delta(W(5)) == 1

    def test_two_summands(self):
        for n in range(2, 7):
            assert delta(W(n + 1) + W(n)) == 2

    def test_sum_of_multiplicities(self):
        assert delta(2 * W(1) + 3 * W(2)) == 5

    def test_delta_counts_weights_zero_and_one(self):
        # each irreducible has exactly one weight in {0, 1}
        rng = random.Random(7)
        for _ in range(50):
            v = Sl2Module({i: rng.randrange(0, 3) for i in range(1, 8)})
            mu = v.weights()
            assert delta(v) == mu[0] + mu[1]


class TestTensor:
    def test_clebsch_gordan_smallest(self):
        assert tensor(W(2), W(2)) == W(1) + W(3)

    def test_trivial_is_unit(self):
        rng = random.Random(3)
        for _ in range(20):
            v = Sl2Module({i: rng.randrange(0, 3) for i in range(1, 7)})
            assert tensor(W(1), v) == v
            assert tensor(v, W(1)) == v

    def test_delta_of_irreducible_product(self):
        for i in range(1, 16):
            for k in range(1, 16):
                assert delta(tensor(W(i), W(k))) == min(i, k)

    def test_dimension_multiplies(self):
        rng = random.Random(11)
        for _ in range(20):
            v = Sl2Module({i: rng.randrange(0, 3) for i in range(1, 6)})
            w = Sl2Module({i: rng.randrange(0, 3) for i in range(1, 6)})
            assert tensor(v, w).dim() == v.dim() * w.dim()

    def test_counted_delta_matches_expansion(self):
        mods = small_modules(3, 6)
        for v in mods:
            for w in mods:
                a, b = weight_profile(v.weights()), weight_profile(w.weights())
                assert tensor_count(a, b) == delta(tensor(v, w))

    def test_weights_add(self):
        v, w = W(3) + W(2), 2 * W(2)
        got = tensor(v, w).weights()
        expect = {}
        for a, ca in v.weights().items():
            for b, cb in w.weights().items():
                expect[a + b] = expect.get(a + b, 0) + ca * cb
        assert {k: c for k, c in got.items() if c} == expect


class TestDecomposeFromWeights:
    def test_single_irreducible_string(self):
        assert decompose_from_weights([2, 0, -2]) == W(3)

    def test_two_trivial_summands(self):
        assert decompose_from_weights([0, 0]) == 2 * W(1)

    def test_mixed(self):
        assert decompose_from_weights([1, -1, 1, -1, 3, -3]) == W(4) + W(2)

    def test_empty_gives_zero(self):
        assert decompose_from_weights([]) == ZERO

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidWeightSystemError):
            decompose_from_weights([1])
        with pytest.raises(InvalidWeightSystemError):
            decompose_from_weights([2, 1, -1])

    def test_rejects_gapped_string(self):
        with pytest.raises(InvalidWeightSystemError):
            decompose_from_weights([2, -2])
        with pytest.raises(InvalidWeightSystemError):
            decompose_from_weights([1, -1, 2, -2])

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(30):
            v = Sl2Module({i: rng.randrange(0, 3) for i in range(1, 8)})
            assert decompose_from_weights(v.weights()) == v


class TestWedge:
    def test_top_of_smallest(self):
        assert wedge(W(2), 2) == W(1)

    def test_degree_zero_and_one(self):
        v = W(3) + 2 * W(2)
        assert wedge(v, 0) == W(1)
        assert wedge(v, 1) == v

    def test_above_dimension_vanishes(self):
        assert wedge(W(3), 4) == ZERO

    @pytest.mark.parametrize("n", range(1, 7))
    def test_square_of_multiple_w2(self, n):
        assert wedge(n * W(2), 2) == comb(n + 1, 2) * W(1) + comb(n, 2) * W(3)

    def test_w4_square(self):
        got = wedge(W(4), 2)
        assert got == wedge_weight_oracle(W(4), 2)
        assert delta(got) == 2 == restricted_count(2, 2, 2)

    def test_dimension_is_binomial(self):
        rng = random.Random(5)
        for _ in range(15):
            v = Sl2Module({i: rng.randrange(0, 3) for i in range(1, 6)})
            if v.dim() > 16:
                continue
            for r in range(0, v.dim() + 2):
                assert wedge(v, r).dim() == comb(v.dim(), r)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            wedge(W(2), -1)

    def test_matches_weight_oracle_on_sums(self):
        rng = random.Random(17)
        mods = [W(5) + W(3), 3 * W(2) + W(1), W(4) + W(4), W(6) + 2 * W(3)]
        for _ in range(10):
            mods.append(Sl2Module({i: rng.randrange(0, 3) for i in range(1, 6)}))
        for v in mods:
            if v.dim() > 12:
                continue
            for r in range(0, v.dim() + 1):
                assert wedge(v, r) == wedge_weight_oracle(v, r)


    def test_matches_weight_oracle_on_small_modules(self):
        for v in small_modules(3, 5):
            for r in range(0, v.dim() + 1):
                assert wedge(v, r) == wedge_weight_oracle(v, r)

    def test_memo_is_bounded(self):
        assert _wedge_sum.cache_info().maxsize is not None


def counter_wedge_sum(v):
    """Reference for wedge_profile: a 0/1 knapsack over the full weight
    multiset of v, W(1) summands included, keeping the weights of each
    exterior degree in one Counter, each read as a profile by
    weight_profile (which also checks symmetry and unimodality)."""
    layers = [Counter({0: 1})]
    for w, c in v.weights().items():
        for _ in range(c):
            layers.append(Counter())
            for k in range(len(layers) - 1, 0, -1):
                tgt = layers[k]
                for s, n in layers[k - 1].items():
                    tgt[s + w] += n
    return tuple([weight_profile(layer) for layer in layers])


def random_module(rng, dims, max_mult, ones=0):
    """A module with a random multiplicity in [0, max_mult] for each
    dimension in dims, plus `ones` summands W(1)."""
    return Sl2Module({i: rng.randrange(max_mult + 1) for i in dims}) + ones * W(1)


def every_profile(v):
    """wedge_profile(v, r) for r = 0 .. dim v + 1: the memoised lower
    half, the upper degrees read off their mirrors, and the empty profile
    above the top."""
    return tuple(wedge_profile(v, r) for r in range(v.dim() + 2))


class TestWedgeSumAgainstCounterKnapsack:
    """wedge_profile, read off _wedge_sum's big-int layers and W(1)
    binomial sums over the lower half and mirrored above it, against the
    Counter knapsack over every weight and every degree."""

    def test_zero_module(self):
        assert _wedge_sum(ZERO) == ((1,),)
        assert every_profile(ZERO) == counter_wedge_sum(ZERO) + ((),)

    @pytest.mark.parametrize("c", range(1, 13))
    def test_only_trivial_summands(self, c):
        got = every_profile(c * W(1))
        assert got == counter_wedge_sum(c * W(1)) + ((),)
        assert got[:-1] == tuple((comb(c, k),) for k in range(c + 1))

    def test_mixed_weight_parities(self):
        rng = random.Random(23)
        for _ in range(40):
            v = random_module(rng, range(2, 9), 2, ones=rng.randrange(3))
            if len({i % 2 for i, _ in v.items() if i > 1}) < 2:
                v = v + W(2) + W(3)
            assert every_profile(v) == counter_wedge_sum(v) + ((),), v

    def test_one_parity(self):
        rng = random.Random(29)
        for _ in range(20):
            dims = range(rng.choice((2, 3)), 12, 2)
            v = random_module(rng, dims, 2)
            if v.is_zero():
                v = W(dims[0])
            assert every_profile(v) == counter_wedge_sum(v) + ((),), v

    def test_trivial_heavy_modules(self):
        rng = random.Random(31)
        for _ in range(20):
            v = random_module(rng, range(2, 7), 1, ones=rng.randrange(5, 21))
            assert every_profile(v) == counter_wedge_sum(v) + ((),), v

    @pytest.mark.parametrize("i", list(range(1, 25)) + [31, 40, 49, 60])
    def test_single_blocks(self, i):
        assert every_profile(W(i)) == counter_wedge_sum(W(i)) + ((),)
        assert every_profile(W(i) + W(1)) == counter_wedge_sum(W(i) + W(1)) + ((),)

    def test_memo_keeps_the_lower_half(self):
        """_wedge_sum holds degrees 0 .. dim v // 2 and no more, for
        modules of even and odd dimension, with and without W(1)s."""
        rng = random.Random(41)
        mods = [ZERO, W(1), 2 * W(1), W(2), W(7) + W(1), W(8) + 3 * W(1), W(60)]
        mods += [random_module(rng, range(1, 9), 2) for _ in range(20)]
        for v in mods:
            assert len(_wedge_sum(v)) == v.dim() // 2 + 1, v

    def test_duality_on_reducible_modules(self):
        """wedge(v, r) = wedge(v, dim v - r), the identity closed_table's
        folded grid relies on, with both sides against the weight oracle."""
        rng = random.Random(37)
        mods = [W(3) + W(2), W(4) + 2 * W(1), W(5) + W(4) + W(3), 2 * W(3) + W(2) + W(1)]
        while len(mods) < 30:
            v = random_module(rng, range(1, 7), 2)
            if len(v.items()) > 1 and v.dim() <= 12:
                mods.append(v)
        for v in mods:
            d = v.dim()
            for r in range(d + 1):
                got = wedge(v, r)
                assert got == wedge_weight_oracle(v, r) == wedge_weight_oracle(v, d - r)
                assert got == wedge(v, d - r)


class TestUnpack:
    """slot_bytes rounds a slot up to 1, 2, 4 or 8 bytes, which unpack
    reads by one memoryview cast, and leaves wider slots as they are."""

    @pytest.mark.parametrize(
        "bits, nbytes", [(0, 1), (7, 1), (8, 2), (15, 2), (16, 4), (23, 4), (31, 4), (32, 8), (63, 8), (64, 9), (200, 26)]
    )
    def test_slot_bytes(self, bits, nbytes):
        assert slot_bytes(bits) == nbytes
        assert 8 * nbytes > bits

    @pytest.mark.parametrize("bits", [0, 8, 16, 56, 64])
    def test_each_slot_at_zero_and_full(self, bits):
        """Slots of 1, 2, 3 (rounded to 4), 8 and 9 bytes, each empty or
        full, against one int.from_bytes per slot."""
        nbytes = slot_bytes(bits)
        full = (1 << 8 * nbytes) - 1
        for count in (1, 2, 7):
            for start in (0, 1):
                slots = [full if (i + start) % 2 else 0 for i in range(count)]
                packed = sum(c << 8 * nbytes * i for i, c in enumerate(slots))
                raw = packed.to_bytes(count * nbytes, "little")
                per_slot = [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(count)]
                assert unpack(packed, nbytes, count) == per_slot == slots


class TestWedgeIrreducibleOracle:
    """The weight oracle on one irreducible: all r-subsets of its weights."""

    def test_empty_wedge(self):
        for i in range(1, 8):
            assert wedge_weight_oracle(W(i), 0) == W(1)

    def test_top_wedge_trivial(self):
        for i in range(1, 8):
            assert wedge_weight_oracle(W(i), i) == W(1)

    def test_five_choose_two(self):
        got = wedge_weight_oracle(W(5), 2)
        assert delta(got) == 2 == restricted_count(3, 3, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wedge_weight_oracle(W(3), -1)
        assert wedge_weight_oracle(W(3), 4) == ZERO == wedge(W(3), 4)

    def test_agrees_with_wedge(self):
        for i in range(1, 11):
            for r in range(0, i + 1):
                assert wedge_weight_oracle(W(i), r) == wedge(W(i), r)


class TestCountingIdentities:
    def test_delta_of_wedge_is_box_count(self):
        for i in range(1, 13):
            for r in range(0, i + 1):
                expect = restricted_count((r * (i - r)) // 2, i - r, r)
                assert delta(wedge(W(i), r)) == expect

    def test_wedge_duality_for_irreducibles(self):
        for i in range(1, 13):
            for r in range(0, i + 1):
                assert wedge(W(i), r) == wedge(W(i), i - r)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_forms_for_multiples_of_w2(self, n):
        v = n * W(2)
        assert delta(wedge(v, 1)) == n
        assert delta(wedge(v, 2)) == n * n
        assert delta(wedge(v, 3)) == n * comb(n, 2)
        assert delta(wedge(v, 4)) == comb(n, 2) ** 2
        assert delta(wedge(v, 5)) == comb(n, 2) * comb(n, 3)
