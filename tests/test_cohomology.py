import hashlib
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, product
from math import comb
from types import SimpleNamespace

import pytest

from almostabelian import cli, cohomology, exactla, sl2
from almostabelian.cohomology import (
    CHECKS,
    CohomologyTable,
    DifferentialError,
    betti_closed,
    betti_oracle,
    betti_via_ideal_action,
    closed_table,
    d_squared_vanishes,
    dbar_squared_vanishes,
    frolicher_holds,
    hodge_closed,
    hodge_oracle,
    module_triple,
    oracle_table,
    run_checks,
    verify_symmetry,
)
from almostabelian.exactla import (
    RationalMatrix,
    jordan_block,
    jordan_type_from_ranks,
    power_ranks,
    sparse_rank,
)
from almostabelian.model import (
    AlgebraModel,
    ComplexModel,
    _overlap_indices,
    build_algebra,
    enumerate_models,
    nijenhuis_vanishes,
    stable_series,
    structure_equations,
)
from almostabelian.partitions import Partition
from almostabelian.sl2 import delta, slot_bytes, tensor_count, wedge, wedge_profile
from almostabelian.sl2 import irreducible as W
from permuted import chain_order, columns_of, dense_of, permuted_algebra, permuted_equations


def M(qparts, j):
    q = Partition(qparts)
    return ComplexModel(q.n, q, j)


def ex47(n):
    """Single-block family: q = [n], overlap n+1."""
    return M([n], n + 1)


def two_step_even(m):
    """q has m parts equal to 2, no overlap; half-dimension 2m."""
    return M([2] * m, 1)


def two_step_odd(m):
    """q has m parts equal to 2 and one 1, overlap 2; half-dimension 2m+1."""
    return M([2] * m + [1], 2)


class TestModuleTriple:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_single_block_family(self, n):
        t = module_triple(ex47(n))
        assert t.a_star == W(n + 1) + W(n)
        assert t.b01 == W(n)
        assert t.g10 == W(n + 1)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_two_step_even(self, m):
        t = module_triple(two_step_even(m))
        assert t.b01 == m * W(2)
        assert t.g10 == W(1) + m * W(2)
        assert t.a_star == W(1) + 2 * m * W(2)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_two_step_odd(self, m):
        t = module_triple(two_step_odd(m))
        assert t.g10 == (m + 1) * W(2)
        assert t.b01 == W(1) + m * W(2)
        assert t.a_star == W(1) + (2 * m + 1) * W(2)


class TestBettiClosed:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_single_block_low_degrees(self, n):
        b = betti_closed(ex47(n))
        assert b[1] == 3
        assert b[2] == 2 * n + 2

    @pytest.mark.parametrize("m", range(1, 4))
    def test_two_step_even_family(self, m):
        np = 2 * m
        b = betti_closed(two_step_even(m))
        assert b[1] == np + 2
        assert b[2] == (np + 1) ** 2
        assert b[3] == 3 * comb(np + 2, 3)
        assert b[4] == comb(np + 1, 2) ** 2
        assert b[5] == comb(np, 2) * comb(np + 2, 3)

    def test_b0_is_one(self):
        for n in range(1, 5):
            for c in enumerate_models(n):
                b = betti_closed(c)
                assert b[0] == 1 and b[-1] == 1


class TestHodgeClosed:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_single_block_family(self, n):
        h = hodge_closed(ex47(n))
        assert h[1][0] == 1
        assert h[0][1] == 2
        assert h[2][0] == (n + 1) // 2
        assert h[0][2] == n // 2 + 1
        assert h[1][1] == n + 1

    @pytest.mark.parametrize("m", range(1, 4))
    def test_two_step_even_family(self, m):
        h = hodge_closed(two_step_even(m))
        assert h[1][0] == m + 1
        assert h[1][1] == 2 * m * m + 2 * m + 1
        assert h[2][1] == (3 * m + 2) * comb(m + 1, 2)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_two_step_odd_family(self, m):
        h = hodge_closed(two_step_odd(m))
        assert h[0][1] == m + 2
        assert h[2][0] == (m + 1) ** 2
        assert h[1][1] == 2 * (m + 1) ** 2
        assert h[0][2] == (m + 1) ** 2

    def test_corners(self):
        for n in range(1, 5):
            for c in enumerate_models(n):
                h = hodge_closed(c)
                assert h[0][0] == 1
                assert h[n + 1][n + 1] == 1


def counted_tensor(v, w):
    """Summands of v (x) w, pair by pair: W(i) (x) W(k) has min(i, k)."""
    return sum(mi * mk * min(i, k) for i, mi in v.items() for k, mk in w.items())


def reference_tables(c):
    """Betti vector and Hodge grid by the route through decomposed
    modules: delta of each wedge(a_star, k), and the summands of
    wedge(b01, q) (x) wedge(g10, p) counted pair by pair."""
    n = c.n
    t = module_triple(c)
    deltas = [delta(wedge(t.a_star, k)) for k in range(2 * n + 3)]
    betti = tuple(deltas[k] + (deltas[k - 1] if k else 0) for k in range(2 * n + 3))
    wb = [wedge(t.b01, q) for q in range(n + 2)]
    hodge = []
    for p in range(n + 2):
        wg = wedge(t.g10, p)
        hodge.append(tuple(
            counted_tensor(wb[q], wg) + (counted_tensor(wb[q - 1], wg) if q else 0)
            for q in range(n + 2)
        ))
    return betti, tuple(hodge)


class TestClosedFormsAgainstModules:
    """The closed forms against tables built from decomposed wedge() modules."""

    @pytest.mark.parametrize("n", range(16, 21))
    def test_single_block_every_overlap(self, n):
        for j in (1, n + 1):
            c = M([n], j)
            assert (betti_closed(c), hodge_closed(c)) == reference_tables(c)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_model(self, n):
        for c in enumerate_models(n):
            table = closed_table(c)
            assert (table.betti, table.hodge) == reference_tables(c)

    def test_one_exterior_algebra_each_for_b01_and_g10(self):
        """One memo entry each for b01 and g10, each its lower half."""
        c = M([3, 2], 3)
        t = module_triple(c)
        sl2._wedge_sum.cache_clear()
        closed_table(c)
        assert sl2._wedge_sum.cache_info().misses == 2
        for v in (t.b01, t.g10):
            assert len(sl2._wedge_sum(v)) == v.dim() // 2 + 1
        assert sl2._wedge_sum.cache_info().misses == 2


def full_grid_tables(c):
    """Betti vector and Hodge grid from all (n+2)^2 tensor_counts of the
    grid over Lambda^p g10 (x) Lambda^q b01, with no duality fold."""
    t = module_triple(c)
    size = c.n + 2
    wb = [wedge_profile(t.b01, q) for q in range(size)]
    grid = [[tensor_count(wedge_profile(t.g10, p), b) for b in wb] for p in range(size)]
    deltas = [
        sum(grid[p][k - p] for p in range(size) if 0 <= k - p < size)
        for k in range(2 * size - 1)
    ]
    betti = tuple(deltas[k] + (deltas[k - 1] if k else 0) for k in range(2 * size - 1))
    hodge = tuple(tuple(row[q] + (row[q - 1] if q else 0) for q in range(size)) for row in grid)
    return betti, hodge


class TestFoldedGrid:
    """closed_table counts only the corner p <= (n+1)/2, q <= n/2 of its
    grid and reads the rest by duality; the full grid gives the same
    tables."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_model(self, n):
        for c in enumerate_models(n):
            table = closed_table(c)
            assert (table.betti, table.hodge) == full_grid_tables(c), c

    def test_every_model_counted(self):
        assert sum(1 for n in range(1, 9) for _ in enumerate_models(n)) == 178

    @pytest.mark.parametrize("n", range(2, 41))
    def test_one_and_two_blocks_every_overlap(self, n):
        for parts in ([n], [n - 1, 1]):
            q = Partition(parts)
            for j in _overlap_indices(q):
                c = ComplexModel(n, q, j)
                table = closed_table(c)
                assert (table.betti, table.hodge) == full_grid_tables(c), c

    def test_overlap_one_reuses_the_b01_knapsack(self, monkeypatch):
        """At j = 1, g10 is b01 + W(1): one knapsack serves both, and it
        builds the lower half of b01's exterior algebra, degrees 0 to 4,
        from which g10's lower half, degrees 0 to 4 of dimension 9, is
        summed, its degree 4 from b01's degrees 4 and 3."""
        knapsack = sl2._knapsack
        calls = []

        def spy(v):
            calls.append((v, knapsack(v)))
            return calls[-1][1]

        monkeypatch.setattr(sl2, "_knapsack", spy)
        sl2._wedge_sum.cache_clear()
        closed_table(M([5, 3], 1))
        sl2._wedge_sum.cache_clear()
        assert [(v, len(profiles)) for v, profiles in calls] == [(W(5) + W(3), 5)]


def per_cell_tables(c):
    """closed_table as it read each cell of D off the corner by index,
    D[p][q] = corner[min(p, n+1-p)][min(q, n-q)], and summed deltas and
    Hodge rows cell by cell: the reference for its slices."""
    t = module_triple(c)
    n = c.n
    size = n + 2
    wb = [wedge_profile(t.b01, q) for q in range(n // 2 + 1)]
    corner = []
    for p in range((n + 1) // 2 + 1):
        wg = wedge_profile(t.g10, p)
        corner.append([tensor_count(wg, b) for b in wb])
    deltas = [0] * (2 * size - 1)
    hodge = []
    for p in range(size):
        half = corner[min(p, n + 1 - p)]
        row = [half[min(q, n - q)] for q in range(n + 1)] + [0]
        for q, d in enumerate(row):
            deltas[p + q] += d
        hodge.append(tuple([row[0]] + [row[q] + row[q - 1] for q in range(1, size)]))
    betti = tuple([deltas[0]] + [deltas[k] + deltas[k - 1] for k in range(1, len(deltas))])
    return betti, tuple(hodge)


class TestSlicedGrid:
    """closed_table mirrors its corner rows and then its rows by slices,
    whose bounds differ for odd and even n; the per-cell fold gives the
    same tables."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_model(self, n):
        for c in enumerate_models(n):
            table = closed_table(c)
            assert (table.betti, table.hodge) == per_cell_tables(c), c

    @pytest.mark.parametrize("n", range(1, 41))
    def test_one_block_two_blocks_and_all_ones_every_overlap(self, n):
        shapes = [[n], [n - 1, 1], [1] * n] if n > 1 else [[1]]
        for parts in shapes:
            q = Partition(parts)
            for j in _overlap_indices(q):
                c = ComplexModel(n, q, j)
                table = closed_table(c)
                assert (table.betti, table.hodge) == per_cell_tables(c), c
                assert type(table.betti) is tuple
                assert all(type(row) is tuple for row in table.hodge)


def per_cell_frolicher(betti, hodge):
    """frolicher_holds as it summed each anti-diagonal cell by cell, for
    each k below len(betti): the reference for the one-slice sums.  It
    passes a Betti vector that is too short when its prefix matches."""
    size = len(hodge)
    for k in range(len(betti)):
        total = sum(hodge[p][k - p] for p in range(size) if 0 <= k - p < size)
        if betti[k] != total:
            return False
    return True


class TestFrolicherSums:
    """frolicher_holds and closed_table share one anti-diagonal sum; the
    verdicts are those of the per-cell sum, except on a Betti vector of
    the wrong length, which the per-cell sum passed on a matching
    prefix."""

    @staticmethod
    def assert_verdicts(table):
        betti, hodge = table.betti, table.hodge
        assert frolicher_holds(betti, hodge) is per_cell_frolicher(betti, hodge) is True
        size = len(hodge)
        for p, q in ((size // 2, (size - 1) // 2), (0, 0), (size - 1, size - 1)):
            bumped = [list(row) for row in hodge]
            bumped[p][q] += 1
            assert frolicher_holds(betti, bumped) is per_cell_frolicher(betti, bumped) is False
        assert per_cell_frolicher(betti[:-1], hodge)
        assert not frolicher_holds(betti[:-1], hodge)
        assert per_cell_frolicher(betti + (0,), hodge)
        assert not frolicher_holds(betti + (0,), hodge)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_tables(self, n):
        for c in enumerate_models(n):
            self.assert_verdicts(closed_table(c))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_oracle_tables(self, n):
        for c in enumerate_models(n):
            self.assert_verdicts(oracle_table(c))

    def test_sums_match_cell_by_cell(self):
        rng = random.Random(36)
        for size in range(8):
            grid = [[rng.randint(-3, 9) for _ in range(size)] for _ in range(size)]
            expected = [
                sum(grid[p][k - p] for p in range(size) if 0 <= k - p < size)
                for k in range(2 * size - 1)
            ]
            assert cohomology._antidiagonal_sums(grid) == expected


class TestBettiOracle:
    def test_heisenberg_plus_r3(self):
        b = betti_oracle(build_algebra(M([1, 1], 2)))
        assert b[1] == 5
        assert b == (1, 5, 11, 14, 11, 5, 1)

    def test_top_class(self):
        for n in range(1, 4):
            for c in enumerate_models(n):
                assert betti_oracle(build_algebra(c))[-1] == 1

    @pytest.mark.parametrize("n", range(1, 4))
    def test_total_matches_closed_form(self, n):
        for c in enumerate_models(n):
            assert sum(betti_oracle(build_algebra(c))) == sum(betti_closed(c))


class TestHodgeOracle:
    def test_heisenberg_plus_r3(self):
        h = hodge_oracle(M([1, 1], 2))
        assert h[1][0] == 2
        assert h[0][1] == 3

    def test_constants(self):
        for n in range(1, 4):
            for c in enumerate_models(n):
                assert hodge_oracle(c)[0][0] == 1

    @pytest.mark.parametrize("n", range(1, 4))
    def test_full_grid_matches_closed_form(self, n):
        for c in enumerate_models(n):
            assert hodge_oracle(c) == hodge_closed(c)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_tables_agree(self, n):
        for c in enumerate_models(n):
            ct, ot = closed_table(c), oracle_table(c)
            assert ct.betti == ot.betti
            assert ct.hodge == ot.hodge
            assert (ct.source, ot.source) == ("closed-form", "oracle")

    def test_block_order_invariance(self):
        # reordering the interchangeable chains leaves every invariant alone
        for c, sizes in ((M([2, 1], 1), [1, 2]), (M([2, 2, 1], 3), [2, 1, 2])):
            order, ideal = chain_order(c, sizes)
            alg = build_algebra(c)
            assert betti_oracle(alg) == betti_oracle(permuted_algebra(alg, ideal))
            assert hodge_oracle(c) == permuted_hodge(c, order)


def permuted_symbols(c, order):
    """The Dolbeault symbol table of c's structure equations, with the
    generators taken in `order`."""
    return cohomology._dolbeault_symbols(permuted_equations(structure_equations(c), order))


def permuted_hodge(c, order):
    """hodge_oracle on c's structure equations with the generators taken
    in `order`."""
    return cohomology._hodge_grid(cohomology._dbar_complex(permuted_symbols(c, order)))


def jordan_type(alg):
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense_of(alg.A)]
    return Partition(jordan_type_from_ranks(len(alg.A), power_ranks(rows)))


class TestBasisPermutations:
    """A permutation of the ideal basis (e_0 fixed), or of the structure
    equations' generators, writes the same model in another basis, so
    every invariant must come out unchanged."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_invariants_unchanged(self, n):
        rng = random.Random(n)
        for c in enumerate_models(n):
            alg, g = build_algebra(c), n + 1
            expected = (
                betti_oracle(alg),
                betti_via_ideal_action(alg),
                nijenhuis_vanishes(alg),
                jordan_type(alg),
                [t.dim for t in stable_series(alg, c)],
                hodge_oracle(c),
            )
            for _ in range(2):
                perm = rng.sample(range(2 * n + 1), 2 * n + 1)
                order = rng.sample(range(g), g)
                moved = permuted_algebra(alg, perm)
                assert (
                    betti_oracle(moved),
                    betti_via_ideal_action(moved),
                    nijenhuis_vanishes(moved),
                    jordan_type(moved),
                    [t.dim for t in stable_series(moved, c)],
                    permuted_hodge(c, order),
                ) == expected, (c, perm, order)


def algebra_of(a):
    """The almost abelian algebra with ad(e_0) = a on the ideal (J unused)."""
    dim = len(a) + 1
    return AlgebraModel(dim=dim, A=columns_of(a), J=columns_of([(0,) * dim] * dim))


class TestThirdRoute:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_ideal_action_matches(self, n):
        for c in enumerate_models(n):
            alg = build_algebra(c)
            assert betti_via_ideal_action(alg) == betti_closed(c)

    def test_entry_off_the_subdiagonal(self):
        # a slot sign that is dropped turns (1,3,4,4,3,1) into (1,3,5,5,3,1)
        alg = algebra_of([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [-1, -1, -1, 0]])
        assert betti_oracle(alg) == (1, 3, 4, 4, 3, 1)
        assert betti_via_ideal_action(alg) == (1, 3, 4, 4, 3, 1)

    def test_random_nilpotent_matches_oracle(self):
        rng = random.Random(2025)
        for _ in range(180):
            size = rng.randint(3, 5)
            a = [[rng.randint(-2, 2) if c < r else 0 for c in range(size)] for r in range(size)]
            alg = algebra_of(a)
            assert betti_via_ideal_action(alg) == betti_oracle(alg), a


class TestJordanBlockModule:
    """The two-term complex of the nilpotent Jordan block of size i has
    one-dimensional kernel and cokernel: the block has rank i - 1."""

    def test_smallest(self):
        assert jordan_block(1).rank() == 0

    def test_four(self):
        assert jordan_block(4).rank() == 3

    def test_sweep(self):
        for i in range(1, 11):
            assert jordan_block(i).rank() == i - 1

    def test_empty_block_has_no_cohomology(self):
        # the identity starts at i = 1: size 0 is the empty matrix
        m = jordan_block(0)
        assert (m.rows, m.cols, m.rank()) == (0, 0, 0)


class TestFrolicher:
    def test_single_block_n2(self):
        c = ex47(2)
        b, h = betti_closed(c), hodge_closed(c)
        assert b[2] == 6 == h[0][2] + h[1][1] + h[2][0]

    def test_heisenberg_plus_r3(self):
        c = M([1, 1], 2)
        b, h = betti_closed(c), hodge_closed(c)
        assert b[1] == 5 == h[1][0] + h[0][1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sweep_closed(self, n):
        for c in enumerate_models(n):
            assert frolicher_holds(betti_closed(c), hodge_closed(c))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_sweep_oracle(self, n):
        for c in enumerate_models(n):
            t = oracle_table(c)
            assert frolicher_holds(t.betti, t.hodge)

    def test_grid_total_equals_betti_total(self):
        for n in range(1, 5):
            for c in enumerate_models(n):
                h = hodge_closed(c)
                assert sum(sum(row) for row in h) == sum(betti_closed(c))

    def test_frolicher_holds_rejects_wrong_grid(self):
        c = ex47(2)
        h = [list(r) for r in hodge_closed(c)]
        h[1][1] += 1
        assert not frolicher_holds(betti_closed(c), tuple(tuple(r) for r in h))


class TestSymmetry:
    @pytest.mark.parametrize("m", range(1, 4))
    def test_no_overlap_grid_symmetric(self, m):
        rep = verify_symmetry(two_step_even(m))
        assert rep.epsilon == 0
        assert rep.hodge_symmetric and rep.odd_betti_even and rep.ok

    @pytest.mark.parametrize("n", range(2, 6))
    def test_single_block_asymmetric(self, n):
        c = ex47(n)
        rep = verify_symmetry(c)
        h = hodge_closed(c)
        assert rep.epsilon == 1
        assert betti_closed(c)[1] == 3
        assert rep.b1_odd and rep.ok
        assert h[1][0] == 1 != 2 == h[0][1]
        assert not rep.hodge_symmetric

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dichotomy_and_duality_sweep(self, n):
        for c in enumerate_models(n):
            rep = verify_symmetry(c)
            assert rep.ok
            assert rep.poincare and rep.serre

    @pytest.mark.parametrize("n", range(1, 4))
    def test_duality_in_oracle_tables(self, n):
        for c in enumerate_models(n):
            rep = verify_symmetry(c, table=oracle_table(c))
            assert rep.ok and rep.poincare and rep.serre

    def test_b1_formula_with_overlap(self):
        for n in range(1, 5):
            for c in enumerate_models(n):
                if c.epsilon:
                    t = module_triple(c)
                    assert betti_closed(c)[1] == 2 * t.b01.delta() + 1


def alpha_is_not_closed(real_equations):
    """structure_equations with d(alpha) = conj(alpha) ^ conj(beta), a
    (0,2)-form: d does not split, and conj(alpha) gets a rule of its own."""

    def patched(model):
        eqs = real_equations(model)
        beta = (eqs.generators[1], True)
        rules = (("alpha", ((1, (("alpha", True), beta)),)),) + eqs.rules[1:]
        return replace(eqs, rules=rules)

    return patched


def beta12_gains_a_11_term(real_equations):
    """structure_equations with d(beta1_2) gaining +beta1_1 ^
    conj(beta1_1), a (1,1)-term: d still splits, and dbar(beta1_2) gains
    the term, so dbar^2(beta1_3) picks up -conj(alpha) ^ beta1_1 ^
    conj(beta1_1) and fails.  A model without beta1_2 is unchanged."""

    def patched(model):
        eqs = real_equations(model)
        extra = ((1, (("beta1_1", False), ("beta1_1", True))),)
        rules = tuple(
            (name, terms + extra if name == "beta1_2" else terms) for name, terms in eqs.rules
        )
        return replace(eqs, rules=rules)

    return patched


def registry_results(c):
    return {name: ok for (name, _, _), ok in zip(CHECKS, run_checks(c))}


class TestDifferentialChecks:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_d_squared_and_dbar_squared(self, n):
        for c in enumerate_models(n):
            results = registry_results(c)
            assert results["d_squared"] and results["dbar_squared"] and results["d_splits"]
            assert d_squared_vanishes(build_algebra(c))
            assert dbar_squared_vanishes(c)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_structural_checks_all_pass(self, n):
        for c in enumerate_models(n):
            results = registry_results(c)
            structural = [name for name, category, _ in CHECKS if category == "structural checks"]
            assert len(structural) == 10
            assert all(results[name] for name in structural), results

    def test_failed_walk_runs_once(self, monkeypatch):
        real_rules = cohomology._dbar_rules
        builds = []

        def counted_rules(*args):
            builds.append(args)
            return real_rules(*args)

        # d does not split, so building dbar's rules raises DifferentialError;
        # d_splits, dbar_squared and the Hodge numbers share that one build
        monkeypatch.setattr(
            cohomology, "structure_equations", alpha_is_not_closed(cohomology.structure_equations)
        )
        monkeypatch.setattr(cohomology, "_dbar_rules", counted_rules)
        failed = [name for name, ok in registry_results(M([2], 3)).items() if not ok]
        assert len(builds) == 1
        assert failed == [
            "dbar_squared",
            "d_splits",
            "hodge_oracle_eq",
            "frolicher_oracle",
            "symmetry_oracle",
            "poincare",
            "serre",
        ]

    def test_unexpected_error_is_a_failed_check(self, monkeypatch):
        # an exception no check means to raise fails the checks that read
        # the failed build, each complex's cohomology built once per model
        calls = []

        def overflows(ranks, symbols, counts):
            calls.append(symbols)
            raise OverflowError("int too large to convert")

        monkeypatch.setattr(cohomology, "_cohomology", overflows)
        for c in list(enumerate_models(1)) + list(enumerate_models(2)):
            calls.clear()
            failed = [name for name, ok in registry_results(c).items() if not ok]
            assert failed == [
                "betti_oracle_eq",
                "hodge_oracle_eq",
                "frolicher_oracle",
                "symmetry_oracle",
                "poincare",
                "serre",
            ]
            # one CE and one Dolbeault build, 2n + 2 symbols each
            assert calls == [2 * c.n + 2, 2 * c.n + 2]

    @pytest.mark.parametrize("n", range(1, 4))
    def test_one_square_verdict_per_complex(self, n, monkeypatch):
        # d_squared and the Betti numbers read one CE verdict, dbar_squared
        # and the Hodge numbers one Dolbeault verdict
        real = cohomology._squares_vanish
        verdicts = []

        def counted(terms):
            verdicts.append(terms)
            return real(terms)

        monkeypatch.setattr(cohomology, "_squares_vanish", counted)
        for c in enumerate_models(n):
            verdicts.clear()
            assert all(run_checks(c))
            assert len(verdicts) == 2

    def test_dbar_squared_fails_while_d_splits(self, monkeypatch, capsys):
        real = cohomology._dolbeault
        builds = []

        def counted(model):
            builds.append(model)
            return real(model)

        monkeypatch.setattr(
            cohomology, "structure_equations", beta12_gains_a_11_term(cohomology.structure_equations)
        )
        monkeypatch.setattr(cohomology, "_dolbeault", counted)
        failed = [name for name, ok in registry_results(M([3], 1)).items() if not ok]
        assert len(builds) == 1
        assert failed == [
            "dbar_squared",
            "hodge_oracle_eq",
            "frolicher_oracle",
            "symmetry_oracle",
            "poincare",
            "serre",
        ]
        with pytest.raises(DifferentialError, match=r"^dbar\^2 != 0$"):
            hodge_oracle(M([3], 1))
        assert cli.main(["verify", "--max-dim", "8"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "failed: q=[3] j=1 check=dbar_squared" in lines
        assert not any(line.endswith(("check=d_squared", "check=d_splits")) for line in lines)

    def test_split_is_checked_before_any_monomial(self, monkeypatch):
        real_d_mask = cohomology._d_mask
        images = []

        def counted_d_mask(*args):
            images.append(args)
            return real_d_mask(*args)

        monkeypatch.setattr(
            cohomology, "structure_equations", alpha_is_not_closed(cohomology.structure_equations)
        )
        monkeypatch.setattr(cohomology, "_d_mask", counted_d_mask)
        for oracle in (hodge_oracle, dbar_squared_vanishes):
            with pytest.raises(DifferentialError) as info:
                oracle(M([2], 3))
            assert str(info.value) == "d does not split into (1,0)+(0,1) parts"
        assert images == []


def masks(symbols, k):
    """Bitmasks of the degree-k monomials in `symbols`, in lexicographic order."""
    return [sum(1 << s for s in combo) for combo in combinations(symbols, k)]


def reference_walk(blocks, terms):
    """The walk without the cocycle skip: every monomial through _d_mask,
    its images transposed into rows, each block's rank by sparse_rank.
    Returns (ranks, squares), squares the D^2 sum over every monomial
    whose image lies in the next block: the full-basis D^2 verdict when
    D maps each block into the next one or to zero."""
    ranks = {}
    squares = True
    below = {}
    for key, masks in blocks:
        here = {m: cohomology._d_mask(m, terms) for m in masks}
        if squares:
            for img in below.values():
                acc = {}
                for target, val in img.items():
                    for t2, v2 in here.get(target, {}).items():
                        acc[t2] = acc.get(t2, 0) + val * v2
                if any(acc.values()):
                    squares = False
                    break
        rows = {}
        for cix, img in enumerate(here.values()):
            for target, val in img.items():
                rows.setdefault(target, {})[cix] = val
        ranks[key] = sparse_rank(list(rows.values()))
        below = here
    return ranks, squares


def weighted_reference(weights, terms):
    """reference_walk over every monomial in the symbols of `weights`, one
    block per key (the sum of its symbols' weights), in key order."""
    blocks = {}
    for k in range(len(weights) + 1):
        for combo in combinations(sorted(weights), k):
            key = sum(weights[s] for s in combo)
            blocks.setdefault(key, []).append(sum(1 << s for s in combo))
    return reference_walk(sorted(blocks.items()), terms)


def nonzero(ranks):
    """A reference walk's nonzero ranks: a block that a walk does not
    list and a block of rank zero mean the same."""
    return {key: rank for key, rank in ranks.items() if rank}


def unpacked(ranks, weights):
    """_walk's ranks over the symbols of `weights`, one int with
    slot_bytes(len(weights)) bytes per key, lowest key first, as
    {key: rank} of the nonzero ones, each key shifted out on its own."""
    width = 8 * slot_bytes(len(weights))
    assert ranks >= 0
    out = {}
    for key in range(-(-ranks.bit_length() // width)):
        if rank := ranks >> key * width & (1 << width) - 1:
            out[key] = rank
    return out


class TestCocycleSkip:
    """_walk never builds the image of a monomial divisible by a symbol
    that kills every monomial it divides (e^0, conj(alpha)), and its
    ranks are those of the walk over every monomial."""

    @pytest.fixture
    def compared(self, monkeypatch):
        real_walk = cohomology._walk
        walks = []

        def both_walks(weights, terms):
            got = real_walk(weights, terms)
            assert unpacked(got, weights) == nonzero(weighted_reference(weights, terms)[0])
            walks.append(cohomology._cocycle_symbols(terms))
            return got

        monkeypatch.setattr(cohomology, "_walk", both_walks)
        return walks

    @pytest.mark.parametrize("n", range(1, 6))
    def test_walks_equal_the_walk_over_every_monomial(self, n, compared):
        models = list(enumerate_models(n))
        for c in models:
            alg = build_algebra(c)
            cohomology._ce(alg).dims
            cohomology._dolbeault(c).dims
            betti_via_ideal_action(alg)
        assert len(compared) == 3 * len(models)
        # the CE walks skip e^0 (symbol 0), the Dolbeault walks conj(alpha)
        # (symbol g = n + 1)
        assert all(dead & 1 for dead in compared[0::3])
        assert all(dead >> (n + 1) & 1 for dead in compared[1::3])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_patched_rules_switch_the_skip_off(self, n, compared):
        # with d(alpha) patched, d's own rules on the Dolbeault symbols
        # give conj(alpha) a rule, so no symbol is skipped; the walk by
        # total degree over all 2g symbols must still equal the reference
        patched = alpha_is_not_closed(cohomology.structure_equations)
        for c in enumerate_models(n):
            d1, g = cohomology._dolbeault_symbols(patched(c))
            terms = cohomology._slot_terms(d1)
            size = 2 * g
            assert cohomology._cocycle_symbols(terms) & ((1 << size) - 1) == 0
            cohomology._walk(dict.fromkeys(range(size), 1), terms)
        assert compared

    def test_a_symbol_with_a_rule_is_never_skipped(self, compared):
        # d(x1) = x1 ^ x2: x1 lies in every pair mask but has a rule, and
        # its image is not zero; only x2 is skipped
        terms = cohomology._slot_terms({0: (), 1: ((1, (1, 2)),), 2: ()})
        assert cohomology._cocycle_symbols(terms) == 0b100
        weights = dict.fromkeys(range(3), 1)
        assert unpacked(cohomology._walk(weights, terms), weights)[1] == 1

    def test_images_built_for_verify_dim12(self, monkeypatch):
        # a walk images a monomial through _d_mask or, when its chains are
        # strings, as the image of a chain vector that the persistence pass
        # of _chain_jordan builds by sparse_apply, or as a row of the
        # canonical core of a block product that _shape_rank hands the
        # kernel; all are counted, one per image
        real_d_mask = cohomology._d_mask
        real_shape_rank = cohomology._shape_rank
        real_sparse_rank = cohomology.sparse_rank
        real_pass = cohomology.graded_jordan_type
        real_apply = exactla.sparse_apply
        real_walk = cohomology._walk
        dead = []
        calls = []
        walking = []
        ranking = []
        passing = []

        def counted_d_mask(mono, terms):
            if walking:
                assert not mono & dead[-1]
            calls.append(bool(walking))
            return real_d_mask(mono, terms)

        def scoped_shape_rank(shape):
            ranking.append(True)
            try:
                return real_shape_rank(shape)
            finally:
                ranking.pop()

        def counted_sparse_rank(rows):
            if ranking:
                # a canonical core: every entry +1
                assert walking and all(set(row.values()) == {1} for row in rows)
                calls.extend([True] * len(rows))
            return real_sparse_rank(rows)

        def scoped_pass(pieces, images):
            # a chain piece: every entry of N +1
            assert walking and all(set(row.values()) <= {1} for row in images.values())
            passing.append(True)
            try:
                return real_pass(pieces, images)
            finally:
                passing.pop()

        def counted_apply(lines, v):
            if passing:
                calls.append(True)
            return real_apply(lines, v)

        def scoped_walk(weights, terms):
            walking.append(True)
            dead.append(cohomology._cocycle_symbols(terms))
            try:
                return real_walk(weights, terms)
            finally:
                walking.pop()
                dead.pop()

        monkeypatch.setattr(cohomology, "_d_mask", counted_d_mask)
        monkeypatch.setattr(cohomology, "_shape_rank", scoped_shape_rank)
        monkeypatch.setattr(cohomology, "sparse_rank", counted_sparse_rank)
        monkeypatch.setattr(cohomology, "graded_jordan_type", scoped_pass)
        monkeypatch.setattr(exactla, "sparse_apply", counted_apply)
        monkeypatch.setattr(cohomology, "_walk", scoped_walk)
        lines, all_ok = cli.run_verify(12)
        assert all_ok
        # in the walks: 171805 without the skip, 84008 with the spectators
        # walked, 29588 with each block walked whole instead of each
        # distinct core once, 16388 before the mirror ranked one piece of
        # each mirrored pair, 7652 (772 through _d_mask) before each string
        # core was ranked once per shape for the whole sweep, 2235 (2115
        # rows of 121 canonical cores) before each core was ranked through
        # its factors' Jordan types, 792 (120 through _d_mask, 114 rows of
        # 15 chain pieces and 558 rows of 49 block products) before one
        # fold took the place of parts and core shapes, 704 (126 rows of 27
        # chain pieces, Lambda^0 J_1 and Lambda^1 J_1 among them) before
        # the strings of length 1 left the fold for one binomial shift per
        # weight, 702 (124 rows of 25 chain pieces handed to power_ranks)
        # before the persistence pass; now 20 through _d_mask, the
        # Heisenberg type's whole monomials, 99 images of chain vectors in
        # the passes over 25 chain pieces, the degrees 0 and L among them,
        # and the same 558 rows of 49 block products
        assert calls.count(True) == 677
        # outside the walks, each model's CE and Dolbeault records check
        # D^2 once each, imaging each ruled generator and each monomial of
        # its image, dead symbols included; d_squared and the Betti
        # numbers share the CE verdict, dbar_squared and the Hodge numbers
        # the Dolbeault one (17700 while each oracle checked D^2 again,
        # 17044 before the mirror, 8308 before the shape ranks, 2891
        # before the Jordan types, 1448 before the fold, 1360 before the
        # binomial shift, with 27 chain pieces, 1358 before the persistence
        # pass)
        assert len(calls) == 1333
        assert cohomology._chain_jordan.cache_info().misses == 25
        assert real_shape_rank.cache_info().misses == 49


def ce_reference(alg):
    """The CE walk over every symbol, spectators included, and its
    full-basis d^2 verdict (the top degree maps to zero)."""
    blocks = [(k, masks(range(alg.dim), k)) for k in range(alg.dim)]
    return reference_walk(blocks, cohomology._ce(alg).terms)


def dolbeault_reference(symbols):
    """The Dolbeault walk over every symbol, spectators included, and its
    full-basis dbar^2 verdict: dbar has bidegree (0, 1), so it maps block
    (p, q) into (p, q + 1), the next block for q < g - 1, and (p, g - 1)
    into (p, g), whose image is zero."""
    _, g = symbols
    terms = cohomology._dbar_rules(symbols)
    holo = [masks(range(g), p) for p in range(g + 1)]
    anti = [masks(range(g, 2 * g), q) for q in range(g)]
    blocks = [
        ((p, q), [u | b for u in holo[p] for b in anti[q]]) for p in range(g + 1) for q in range(g)
    ]
    return reference_walk(blocks, terms)


def ideal_action_terms(alg):
    """The ideal action's rules, read off the rows of the dense A: rule r
    lists -A[r][c] times c in the order of c."""
    rows = dense_of(alg.A)
    return cohomology._slot_terms(
        {r: tuple((-a, (c,)) for c, a in enumerate(row) if a) for r, row in enumerate(rows)}
    )


def ideal_action_reference(alg):
    """betti_via_ideal_action with every symbol in the walk."""
    size = alg.dim - 1
    blocks = [(k, masks(range(size), k)) for k in range(size + 1)]
    ranks, _ = reference_walk(blocks, ideal_action_terms(alg))
    kernel = [comb(size, k) - ranks[k] for k in range(size + 1)] + [0]
    return tuple(kernel[k] + (kernel[k - 1] if k else 0) for k in range(size + 2))


def spectators(terms, size):
    """The symbols below `size` that no rule names: the chains of one
    symbol, strings of length 1 or, in a walk that is not strings, the
    symbols it does not take whole."""
    weights = dict.fromkeys(range(size), 1)
    chains, _ = cohomology._chains(weights, terms, cohomology._cocycle_symbols(terms))
    return [c[0] for c in chains if len(c) == 1]


def assert_ce_walk_equals_reference(alg):
    """The CE record's d^2 verdict against the d^2 sum over every
    monomial, and its cohomology (or, if d^2 fails, its walk's ranks)
    against the walk over every monomial; returns the verdict."""
    ce = cohomology._ce(alg)
    ranks, squares = ce_reference(alg)
    assert ce.squares is squares
    if squares:
        dim = alg.dim
        assert ce.dims == tuple(
            comb(dim, k) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in range(dim + 1)
        )
    else:
        assert unpacked(cohomology._walk(ce.weights, ce.terms), ce.weights) == nonzero(ranks)
    return squares


def assert_dolbeault_walk_equals_reference(symbols):
    """The same for the Dolbeault record and dbar^2, its cohomology as
    the grid of h^{p,q} that the reference's (p, q) blocks give."""
    dolbeault = cohomology._dbar_complex(symbols)
    ranks, squares = dolbeault_reference(symbols)
    assert dolbeault.squares is squares
    g = symbols[1]
    if squares:
        assert cohomology._hodge_grid(dolbeault) == tuple(
            tuple(
                comb(g, p) * comb(g, q) - ranks.get((p, q), 0) - ranks.get((p, q - 1), 0)
                for q in range(g + 1)
            )
            for p in range(g + 1)
        )
    else:
        walked = unpacked(cohomology._walk(dolbeault.weights, dolbeault.terms), dolbeault.weights)
        assert {divmod(k, g + 1): r for k, r in walked.items()} == nonzero(ranks)
    return squares


def assert_walks_equal_references(c):
    """All three walks of the model against the walks over every symbol,
    and d^2 = dbar^2 = 0 on the generators and on every monomial."""
    alg = build_algebra(c)
    assert assert_ce_walk_equals_reference(alg)
    symbols = cohomology._dolbeault_symbols(cohomology.structure_equations(c))
    assert assert_dolbeault_walk_equals_reference(symbols)
    assert betti_via_ideal_action(alg) == ideal_action_reference(alg)
    return symbols


class TestSpectatorFold:
    """Each walk leaves the symbols that no rule names, its strings of
    length 1, out of the fold and applies them to its ranks as one
    binomial shift per weight; its ranks are those of the walk over
    every symbol.  (TestCocycleSkip compares _walk with
    the reference on the symbols the walks hand it, so only these tests
    can see a bug in how a walk's caller keys its blocks.)"""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_walks_equal_the_walk_over_every_symbol(self, n):
        folded = 0
        for c in enumerate_models(n):
            symbols = assert_walks_equal_references(c)
            folded += len(spectators(cohomology._dbar_rules(symbols), 2 * symbols[1]))
        # parts 1 of q, and alpha at j = 1, give spectators at every n
        assert folded

    @pytest.mark.parametrize(
        "qparts, j, holo, anti",
        [
            # the beta of each part 1 and its conjugate; alpha at j = 1
            ([2, 1, 1], 1, 3, 2),
            # at j = 2 the overlap chain's beta has a rule, alpha ^ conj(alpha)
            ([1], 2, 0, 1),
            ([2, 1, 1], 2, 1, 2),
            ([2, 1, 1], 3, 2, 2),
            ([3, 2], 1, 1, 0),
            ([3, 2], 4, 0, 0),
        ],
    )
    def test_spectators_of_the_dolbeault_complex(self, qparts, j, holo, anti):
        symbols = cohomology._dolbeault_symbols(cohomology.structure_equations(M(qparts, j)))
        g = symbols[1]
        found = spectators(cohomology._dbar_rules(symbols), 2 * g)
        assert (sum(s < g for s in found), sum(s >= g for s in found)) == (holo, anti)

    @pytest.mark.parametrize(
        "d1, squares",
        [
            # g = 4: holomorphic spectator 3, antiholomorphic spectator 7;
            # 0 and 6 are named only as factors, 4 kills every monomial
            ({1: ((2, (0, 4)),), 2: ((-1, (4, 1)),), 5: ((3, (6, 4)),)}, True),
            # the same spectators, and d(2) = s1 ^ s6 with d(s1) != 0
            ({1: ((1, (0, 4)),), 2: ((1, (1, 6)),), 5: ((3, (6, 4)),)}, False),
            # two holomorphic spectators (2, 3) and none antiholomorphic
            ({1: ((1, (0, 5)),), 4: ((1, (5, 6)),), 7: ((1, (6, 5)),)}, True),
        ],
    )
    def test_synthetic_rules_with_spectators(self, d1, squares):
        symbols = ({s: d1.get(s, ()) for s in range(8)}, 4)
        terms = cohomology._dbar_rules(symbols)
        assert len(spectators(terms, 8)) >= 1
        assert assert_dolbeault_walk_equals_reference(symbols) is squares

    def test_factor_only_and_rule_only_symbols_are_not_spectators(self):
        # d(x1) = x0 ^ x2: x0 and x2 are only factors, x1 has only its
        # own rule, and x3 is the one spectator
        terms = cohomology._slot_terms({0: (), 1: ((1, (0, 2)),), 2: (), 3: ()})
        assert spectators(terms, 4) == [3]
        # a one-factor rule: x0 -> x1, x2 spectator
        terms = cohomology._slot_terms({0: ((1, (1,)),)})
        assert spectators(terms, 3) == [2]

    @pytest.mark.parametrize(
        "qparts, j, sizes",
        [([3, 1, 1], 1, [1, 1, 3]), ([3, 1, 1], 2, [1, 3, 1]), ([2, 2, 1, 1], 3, [2, 1, 1, 2])],
    )
    def test_singleton_chains_first(self, qparts, j, sizes):
        c = M(qparts, j)
        order, ideal = chain_order(c, sizes)
        alg = permuted_algebra(build_algebra(c), ideal)
        assert_ce_walk_equals_reference(alg)
        assert betti_via_ideal_action(alg) == ideal_action_reference(alg)
        assert_dolbeault_walk_equals_reference(permuted_symbols(c, order))
        assert permuted_hodge(c, order) == hodge_oracle(c) == hodge_closed(c)


def expanded(counts, w, m):
    """counts times (1 + x^w)^m, one factor at a time, as polynomials
    in x keyed by exponent."""
    for _ in range(m):
        times = {}
        for key, count in counts.items():
            for shift in (0, w):
                times[key + shift] = times.get(key + shift, 0) + count
        counts = times
    return counts


class TestBinomialShift:
    """_exterior multiplies a packed polynomial by (1 + x^w)^m per
    weight: _walk's packed ranks for its strings of length 1, and 1 for
    the block sizes of _cohomology, so it must multiply by (1 + x^w)^m
    exactly, and no walk may fold a string of length 1 in through
    _chain_jordan."""

    @pytest.mark.parametrize("g", [1, 3, 4])
    def test_against_the_product_of_factors(self, g):
        # 15 symbols pack 2 bytes per key, room for every count here
        weights = dict.fromkeys(range(15), 1)
        rng = random.Random(g)
        starts = [{}, {0: 1}] + [
            {rng.randrange(12): rng.randrange(1, 20) for _ in range(rng.randrange(1, 6))}
            for _ in range(4)
        ]
        for counts in starts:
            poly = sum(count << key * 16 for key, count in counts.items())
            for w in (1, 2, g + 1):
                for m in range(5):
                    got = cohomology._exterior(poly, {w: m}, 16)
                    assert unpacked(got, weights) == expanded(counts, w, m)
                    # m = 0 is the identity
                    assert (got == poly) is (m == 0 or not poly)
            # two weights at once, one factor after the other
            both = cohomology._exterior(poly, {1: 2, g + 1: 3}, 16)
            assert unpacked(both, weights) == expanded(expanded(counts, 1, 2), g + 1, 3)
        assert cohomology._exterior(5, {}, 16) == 5

    @pytest.mark.parametrize("n", range(1, 6))
    def test_block_sizes_count_the_monomials(self, n, monkeypatch):
        # with no rank, dims is the block sizes themselves
        monkeypatch.setattr(cohomology, "_walk", lambda weights, terms: 0)
        for c in enumerate_models(n):
            alg = build_algebra(c)
            dim = alg.dim
            assert cohomology._ce(alg).dims == tuple(comb(dim, k) for k in range(dim + 1))
            g = c.n + 1
            assert cohomology._dolbeault(c).dims == tuple(
                comb(g, p) * comb(g, q) for p in range(g + 1) for q in range(g + 1)
            )

    @pytest.mark.parametrize("qparts, j", [([6, 1, 1], 1), ([4, 1, 1, 1, 1], 5), ([1] * 4, 2)])
    def test_no_chain_piece_of_one_symbol(self, qparts, j, monkeypatch):
        real_chain_jordan = cohomology._chain_jordan
        lengths = []

        def spied_chain_jordan(length, k):
            lengths.append(length)
            return real_chain_jordan(length, k)

        monkeypatch.setattr(cohomology, "_chain_jordan", spied_chain_jordan)
        c = M(qparts, j)
        folded = 0
        for weights, terms in model_walks(c):
            chains, _ = chains_of(weights, terms)
            folded += sum(len(chain) == 1 for chain in chains)
        assert folded
        assert_walks_equal_references(c)
        assert 1 not in lengths
        # the Heisenberg type's walks are whole, so they fold no string
        assert bool(lengths) is not heisenberg(c)


def string_walk(lengths, dead, heavy):
    """The weights and generator rules of a walk of strings of the given
    lengths on consecutive symbols, the string at index i of weight
    heavy.get(i, 1): the rules s -> s + 1 along each string, coefficients
    2, -1, 3 in turn, one-factor rules, or with dead, two-factor rules
    (s + 1, x0) with x0 a symbol that kills every monomial it divides."""
    base = 1 if dead else 0
    weights = dict.fromkeys(range(base), 1)
    d1 = {}
    for i, length in enumerate(lengths):
        for s in range(base, base + length):
            weights[s] = heavy.get(i, 1)
            if s + 1 < base + length:
                coef = (2, -1, 3)[s % 3]
                d1[s] = ((coef, (s + 1, 0) if dead else (s + 1,)),)
        base += length
    return weights, d1


class TestPackedFold:
    """_walk packs its counts by key into ints, slot_bytes(len(weights))
    bytes per key, and _cohomology unpacks the dimensions in the same
    bytes.  Walks of 7, 8, 15 and 16 symbols sit on both sides of the
    width boundaries (1 to 2 bytes, 2 to 4), and their ranks are those
    of the walk over every
    monomial; at 15 symbols some rank needs a second byte.  The ideal
    action sizes its blocks with one symbol more than it walks, and at
    n = 3 and 7 it walks 7 and 15 symbols, one under a byte boundary."""

    @pytest.mark.parametrize(
        "lengths, dead, heavy",
        [
            pytest.param((4, 2, 1), False, {0: 3}, id="7-symbols"),
            pytest.param((3, 3, 1), True, {}, id="8-symbols"),
            pytest.param((5, 4, 3, 2, 1), False, {}, id="15-symbols"),
            pytest.param((6, 4, 3, 1, 1), True, {1: 2}, id="16-symbols"),
        ],
    )
    def test_walks_at_the_byte_boundaries(self, lengths, dead, heavy):
        weights, d1 = string_walk(lengths, dead, heavy)
        terms = cohomology._slot_terms(d1)
        chains, whole = chains_of(weights, terms)
        assert whole is None and sorted(map(len, chains), reverse=True) == list(lengths)
        packed = cohomology._walk(weights, terms)
        ranks = unpacked(packed, weights)
        reference = weighted_reference(weights, terms)[0]
        assert ranks == nonzero(reference)
        if len(weights) == 15:
            assert max(ranks.values()) > 255
        # with a dead symbol D raises the key by one; otherwise D keeps it,
        # and the cone of one more symbol of weight 1, as for the ideal
        # action, raises it: dims = sizes - r_k - r_(k-1) either way
        counts = Counter(weights.values())
        counts[1] += not dead
        sizes = {0: 1}
        for w, m in counts.items():
            sizes = expanded(sizes, w, m)
        dims = tuple(
            sizes.get(k, 0) - reference.get(k, 0) - reference.get(k - 1, 0)
            for k in range(max(sizes) + 1)
        )
        assert cohomology._cohomology(packed, len(weights), counts) == dims
        assert min(dims) >= 0

    @pytest.mark.parametrize("n", [3, 7])
    def test_ideal_action_one_symbol_under_a_byte(self, n):
        models = list(enumerate_models(n))
        for c in models:
            alg = build_algebra(c)
            assert alg.dim - 1 == 2 * n + 1
            assert betti_via_ideal_action(alg) == ideal_action_reference(alg)
        assert models


def chains_of(weights, terms):
    """_chains of the walk, with its dead symbols found as _walk finds
    them."""
    return cohomology._chains(weights, terms, cohomology._cocycle_symbols(terms))


def strings(weights, terms):
    """Whether _walk folds the Jordan blocks of strings for these rules,
    rather than ranking their named symbols whole."""
    return chains_of(weights, terms)[1] is None


class TestChainParts:
    """_walk folds in each string's Jordan blocks by its length and
    weight alone, so strings that carry one length and weight fold
    alike.  Rules that only look like strings must be walked whole, and
    a full chain with an image must be ranked."""

    @pytest.mark.parametrize(
        "qparts, j",
        [([3, 3], 1), ([3, 3], 4), ([2, 2, 2], 1), ([2, 2, 2], 3)]
        + [([2, 2, 1, 1], j) for j in (1, 2, 3)],
    )
    def test_multi_chain_models_at_n6(self, qparts, j):
        symbols = assert_walks_equal_references(M(qparts, j))
        g = symbols[1]
        weights = {s: g + 1 if s < g else 1 for s in range(2 * g)}
        chains, whole = chains_of(weights, cohomology._dbar_rules(symbols))
        assert whole is None
        # strings of two or more symbols share a length and a weight
        kinds = [(len(c), weights[c[0]]) for c in chains if len(c) > 1]
        assert len(set(kinds)) < len(kinds)

    def test_relabelled_chains_are_ranked_once(self, monkeypatch):
        # CE of q = 2,2,2 at j = 1: six 2-strings and one spectator.  The
        # fold meets Lambda^k J_2 for k = 0, 1, 2, three chain pieces (five
        # while the spectator folded in through Lambda^0 J_1 and Lambda^1
        # J_1; it is now one binomial shift of the ranks), and Lambda^1 J_2
        # is the one block J_2, so the block products are J_2^(x c) for
        # c = 1..6, each canonical core built once by _shape_rank (6 calls
        # of _core_blocks, which built the product of each core's blocks
        # but the last, while it paired that product with the last block)
        c = M([2, 2, 2], 1)
        alg = build_algebra(c)
        terms = cohomology._slot_terms(cohomology._ce_generator_differentials(alg))
        chains, whole = chains_of(dict.fromkeys(range(alg.dim), 1), terms)
        assert whole is None and sorted(map(len, chains)) == [1] + [2] * 6
        real_shape_rank = cohomology._shape_rank
        met = []

        def spied_shape_rank(sizes):
            met.append(sizes)
            return real_shape_rank(sizes)

        monkeypatch.setattr(cohomology, "_shape_rank", spied_shape_rank)
        assert_ce_walk_equals_reference(alg)
        assert sorted(set(met)) == [(2,) * c for c in range(1, 7)]
        assert real_shape_rank.cache_info().misses == 6
        assert cohomology._chain_jordan.cache_info().misses == 3
        # the ranks outlive their record: a second record ranks no block
        # product again, and reads every one from the cache
        cohomology._ce(alg).dims
        assert real_shape_rank.cache_info().misses == 6

    @staticmethod
    def assert_walk_equals_reference(weights, terms):
        assert unpacked(cohomology._walk(weights, terms), weights) == nonzero(
            weighted_reference(weights, terms)[0]
        )

    def test_full_chain_with_an_image_is_not_trivial(self):
        # x0 kills every monomial; d(x1) = x0 ^ x1 and d(x2) = -x0 ^ x2 are
        # diagonal terms s -> dead ^ s, each a step from a symbol to
        # itself: a cycle, so the walk is not strings, and x1, x2 and
        # x1 ^ x2 all have images, which cancel on x1 ^ x2
        weights = dict.fromkeys(range(3), 1)
        terms = cohomology._slot_terms({1: ((1, (0, 1)),), 2: ((-1, (0, 2)),)})
        assert cohomology._chains(weights, terms, 0b1) == ([], [1, 2])
        self.assert_walk_equals_reference(weights, terms)
        assert unpacked(cohomology._walk(weights, terms), weights) == {1: 2}
        assert cohomology._squares_vanish(terms)

    @pytest.mark.parametrize(
        "weights, d1, chains",
        [
            # one coefficient: x0 kills every monomial, and the pairs
            # {1, 2} and {3, 4} act on their symbols as [[1, 1], [1, 1]]
            # (rank 1) and [[1, 1], [1, 2]] (rank 2); two terms per rule,
            # so the walk is whole
            (
                dict.fromkeys(range(5), 1),
                {
                    1: ((1, (0, 1)), (1, (0, 2))),
                    2: ((1, (0, 1)), (1, (0, 2))),
                    3: ((1, (0, 3)), (1, (0, 4))),
                    4: ((1, (0, 3)), (2, (0, 4))),
                },
                ([], [1, 2, 3, 4]),
            ),
            # the side of the dead symbol x2: d(x1) = x1 ^ x2 lies below it,
            # d(x3) = x2 ^ x3 and d(x4) = x2 ^ x4 above; x1 ^ x3 is a
            # cocycle and x3 ^ x4 is not.  Each step is a cycle, so the
            # walk is whole, x0 a spectator
            (
                dict.fromkeys(range(5), 1),
                {1: ((1, (1, 2)),), 3: ((1, (2, 3)),), 4: ((1, (2, 4)),)},
                ([[0]], [1, 3, 4]),
            ),
            # the weight: keys as the Dolbeault walk gives them for g = 4,
            # a holomorphic string 2 -> 1 and an antiholomorphic string
            # 6 -> 5, both below the dead symbol x7, with one rule each:
            # strings of one length and two weights
            (
                {s: 5 if s < 4 else 1 for s in range(8)},
                {2: ((1, (7, 1)),), 6: ((1, (7, 5)),)},
                ([[0], [2, 1], [3], [4], [6, 5]], None),
            ),
        ],
        ids=["coefficient", "side", "weight"],
    )
    def test_equal_shapes_are_kept_apart(self, weights, d1, chains):
        terms = cohomology._slot_terms(d1)
        assert chains_of(weights, terms) == chains
        self.assert_walk_equals_reference(weights, terms)

    def test_holomorphic_and_antiholomorphic_chains_in_the_dolbeault_walk(self):
        # the weight case through the Dolbeault record: dbar's rules keep both
        # terms, and x7 = conj(alpha) kills every monomial
        d1 = {2: ((1, (7, 1)),), 6: ((1, (7, 5)),)}
        symbols = ({s: d1.get(s, ()) for s in range(8)}, 4)
        assert_dolbeault_walk_equals_reference(symbols)


def model_walks(c):
    """The (weights, terms) of the CE, Dolbeault and ideal-action walks."""
    alg = build_algebra(c)
    ce = cohomology._ce(alg)
    dolbeault = cohomology._dolbeault(c)
    return [
        (ce.weights, ce.terms),
        (dolbeault.weights, dolbeault.terms),
        (dict.fromkeys(range(alg.dim - 1), 1), ideal_action_terms(alg)),
    ]


def full_walk(weights, terms):
    """_walk with every named symbol ranked whole, as for rules that are
    not strings: the symbols of a string walk's strings of two or more,
    its strings of length 1 left to the binomial shift."""
    real_chains = cohomology._chains

    def whole_chains(weights, terms, dead):
        chains, whole = real_chains(weights, terms, dead)
        if whole is None:
            whole = sorted(s for chain in chains if len(chain) > 1 for s in chain)
            chains = [chain for chain in chains if len(chain) == 1]
        return chains, whole

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "_chains", whole_chains)
        return cohomology._walk(weights, terms)


def heisenberg(c):
    """Whether the model is the Heisenberg type, q = 1^n at j = 2."""
    return c.j == 2 and set(c.q.parts) == {1}


# synthetic rules whose chains are strings, with coefficients other than
# +-1, as (weights, d1): each (weights, _slot_terms(d1)) is a string walk
STRING_RULES = [
    # dead x0; the chain 1 -> 2 -> 3 -> 4 and, out of bit order,
    # 5 -> 7 -> 6; x8 a spectator
    pytest.param(
        dict.fromkeys(range(9), 1),
        {
            1: ((3, (0, 2)),),
            2: ((-2, (3, 0)),),
            3: ((5, (0, 4)),),
            5: ((2, (7, 0)),),
            7: ((-3, (0, 6)),),
        },
        id="interleaved",
    ),
    # dead x3 inside the chain 1 -> 2 -> 4 -> 5 -> 0
    pytest.param(
        dict.fromkeys(range(7), 1),
        {1: ((3, (3, 2)),), 2: ((-2, (4, 3)),), 4: ((5, (3, 5)),), 5: ((7, (0, 3)),)},
        id="dead-inside",
    ),
    # Dolbeault keys for g = 3: the holomorphic chain 0 -> 1 -> 2, the
    # antiholomorphic chain 4 -> 5, dead x3 = conj(alpha)
    pytest.param(
        {s: 4 if s < 3 else 1 for s in range(6)},
        {0: ((3, (3, 1)),), 1: ((-2, (3, 2)),), 4: ((5, (3, 5)),)},
        id="dolbeault",
    ),
    # one-factor rules, no dead symbol: 0 -> 1 -> 2 and 3 -> 4 -> 5
    pytest.param(
        dict.fromkeys(range(6), 1),
        {0: ((3, (1,)),), 1: ((-2, (2,)),), 3: ((5, (4,)),), 4: ((-4, (5,)),)},
        id="one-factor",
    ),
]


# one sha256 over the nonzero ranks of the CE, Dolbeault and ideal-action
# walks of the 112 models with n <= 7, taken with the walks that split
# each block into chain-multidegree parts and ranked each distinct core
# once, checked there against the walks that ranked every piece
WALK_RANKS_UP_TO_N7 = "8089f2b9a03492b06f454c17ce99d0f6caca3cb964dead022fcfc8b2caa76424"


class TestMirror:
    """When the rules are strings, _walk folds in their Jordan blocks and
    _shape_rank ranks the lower weight pieces of each block product,
    each counted for itself and its mirror; otherwise _walk ranks the
    named symbols whole.  (TestCocycleSkip compares every walk with n <= 5 with
    the walk over every monomial.)"""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mirrored_walks_equal_full_walks(self, n):
        for c in enumerate_models(n):
            for weights, terms in model_walks(c):
                assert strings(weights, terms) is not heisenberg(c), c
                assert unpacked(cohomology._walk(weights, terms), weights) == unpacked(
                    full_walk(weights, terms), weights
                )

    def test_walk_ranks_up_to_n7_as_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for n in range(1, 8):
            for c in enumerate_models(n):
                ranks = [
                    sorted(unpacked(cohomology._walk(weights, terms), weights).items())
                    for weights, terms in model_walks(c)
                ]
                digest.update(repr((str(c), ranks)).encode())
                count += 1
        assert (count, digest.hexdigest()) == (112, WALK_RANKS_UP_TO_N7)

    @pytest.mark.parametrize("weights, d1", STRING_RULES)
    def test_strings_with_non_unit_coefficients(self, weights, d1):
        terms = cohomology._slot_terms(d1)
        assert strings(weights, terms)
        assert unpacked(cohomology._walk(weights, terms), weights) == nonzero(
            weighted_reference(weights, terms)[0]
        )

    @pytest.mark.parametrize(
        "d1",
        [
            # d(x1) has two terms
            {1: ((1, (0, 2)), (2, (0, 3))), 2: ((3, (0, 3)),), 4: ((2, (0, 5)),)},
            # x2 is the live factor of both x1 and x4: 1 -> 2 -> 3 -> 4 -> 2
            # has one head, x1, and a cycle
            {1: ((3, (0, 2)),), 2: ((-2, (0, 3)),), 3: ((5, (0, 4)),), 4: ((2, (0, 2)),)},
            # x3 is the live factor of both x1 and x2, and the chain two heads
            {1: ((3, (0, 3)),), 2: ((-2, (0, 3)),), 3: ((5, (0, 4)),), 4: ((2, (0, 5)),)},
            # the cycle 1 -> 2 -> 3 -> 1, next to the string 4 -> 5
            {1: ((3, (0, 2)),), 2: ((-2, (0, 3)),), 3: ((5, (0, 1)),), 4: ((2, (0, 5)),)},
            # a zero coefficient breaks the chain 1 -> 2 -> 3 in two
            {1: ((0, (0, 2)),), 2: ((3, (0, 3)),), 4: ((2, (0, 5)),)},
        ],
        ids=["two-terms", "shared-factor", "two-heads", "cycle", "zero-coefficient"],
    )
    def test_other_rules_rank_every_piece(self, d1):
        weights = dict.fromkeys(range(6), 1)
        terms = cohomology._slot_terms(d1)
        assert not strings(weights, terms)
        assert unpacked(cohomology._walk(weights, terms), weights) == nonzero(
            weighted_reference(weights, terms)[0]
        )

    def test_a_chain_of_mixed_weights_ranks_every_piece(self):
        # the string 1 -> 2 -> 3 with weights 1, 2, 3: its Lambda^k J_3
        # would not lie in one block
        weights = {0: 1, 1: 1, 2: 2, 3: 3}
        terms = cohomology._slot_terms({1: ((3, (0, 2)),), 2: ((-2, (0, 3)),)})
        assert not strings(weights, terms)
        assert unpacked(cohomology._walk(weights, terms), weights) == nonzero(
            weighted_reference(weights, terms)[0]
        )

    def test_mirror_ranks_fewer_rows(self, monkeypatch):
        real_rank = cohomology.sparse_rank
        rows = []

        def counted_rank(images):
            rows.append(len(images))
            return real_rank(images)

        monkeypatch.setattr(cohomology, "sparse_rank", counted_rank)
        walks = model_walks(M([4], 5))
        assert all(strings(weights, terms) for weights, terms in walks)
        mirrored = [cohomology._walk(weights, terms) for weights, terms in walks]
        # the rows of every block product met, each ranked whole, no piece
        # mirrored: one per monomial with an image
        met = walked_products(walks)
        whole_rows = 0
        for sizes in met:
            factors, terms = canonical_core(tuple((b, 1) for b in sizes))
            whole_rows += sum(
                1 for masks in core_pieces(factors).values() for m in masks
                if cohomology._d_mask(m, terms)
            )
        assert len(met) == cohomology._shape_rank.cache_info().misses
        assert 0 < sum(rows) < whole_rows
        # on a warm cache a walk reads every rank and ranks nothing
        rows.clear()
        assert [cohomology._walk(weights, terms) for weights, terms in walks[-1:]] == mirrored[-1:]
        assert rows == []


def walked_products(walks):
    """The block products that _walk hands _shape_rank on these walks,
    in the order first met."""
    met = []
    real_shape_rank = cohomology._shape_rank

    def spied_shape_rank(sizes):
        met.append(sizes)
        return real_shape_rank(sizes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "_shape_rank", spied_shape_rank)
        for weights, terms in walks:
            cohomology._walk(weights, terms)
    return list(dict.fromkeys(met))


def canonical_core(shape):
    """The canonical core of a shape, built here apart from _shape_rank:
    each (L, k) a chain of L consecutive symbols with the one-factor
    rules s -> s + 1 of coefficient 1, and its degree-k factor.  Returns
    (factors, terms), each factor as {weight: masks}, a monomial's
    weight the sum of its symbols' positions along their chains.  A
    block product J_{b_1} (x) ... (x) J_{b_r} is the shape ((b_1, 1),
    ..., (b_r, 1))."""
    d1, factors, base = {}, [], 0
    for length, k in shape:
        d1.update((base + i, ((1, (base + i + 1,)),)) for i in range(length - 1))
        factor = {}
        for combo in combinations(range(length), k):
            factor.setdefault(sum(combo), []).append(sum(1 << base + i for i in combo))
        factors.append(factor)
        base += length
    return factors, cohomology._slot_terms(d1)


def core_pieces(factors):
    """The pieces of the product of the factors, as {weight: masks}."""
    pieces = {0: [0]}
    for factor in factors:
        out = {}
        for w1, m1 in pieces.items():
            for w2, m2 in factor.items():
                out.setdefault(w1 + w2, []).extend([a | b for a in m1 for b in m2])
        pieces = out
    return pieces


def canonical_rank(shape):
    """The rank of the canonical core of a shape, every monomial imaged
    by _d_mask and no piece mirrored."""
    factors, terms = canonical_core(shape)
    return sparse_rank(
        [
            img
            for masks in core_pieces(factors).values()
            for m in masks
            if (img := cohomology._d_mask(m, terms))
        ]
    )


class TestStringRows:
    """A string walk folds in its strings' Jordan blocks and ranks each
    product of blocks through _shape_rank, on the canonical core of its
    shape ((b_1, 1), ..., (b_r, 1)).  The core's weight pieces are built
    block by block up to weight top // 2, and each piece is ranked on
    its own, one matrix per piece in ascending weight.  Each monomial's
    row is read off its bits, every entry +1, and the rows go to the
    kernel in the reverse of their build order, keyed by negated
    targets.  For every block product the walks meet, the matrices a
    cold _shape_rank hands the kernel are held, list for list, against
    _d_mask's images on a canonical core built here, so a wrong row that
    keeps the rank is caught too."""

    @staticmethod
    def reference_matrices(sizes):
        """The kernel input of _shape_rank(sizes), from canonical_core
        and _d_mask, how many times each matrix counts, and the rank of
        the whole core, no piece mirrored."""
        shape = tuple((b, 1) for b in sizes)
        factors, terms = canonical_core(shape)
        pieces = core_pieces(factors)
        top = min(pieces) + max(pieces) - 1
        lower = {w: 1 if 2 * w == top else 2 for w in pieces if w <= top // 2}
        # the size rule the pieces were once chosen by: of each mirrored
        # pair, the piece with fewer monomials (the lower on a tie) counts
        # twice, the middle piece once; it picks the lower half
        sizes_of = {w: len(m) for w, m in pieces.items()}
        times = {}
        for w, size in sizes_of.items():
            other = sizes_of.get(top - w, 0)
            if w == top - w:
                times[w] = 1
            elif size < other or size == other and w < top - w:
                times[w] = 2
        assert times == lower
        matrices = []
        for w in lower:
            images = [cohomology._d_mask(m, terms) for m in pieces[w]]
            matrices.append([{-t: c for t, c in img.items()} for img in reversed(images) if img])
        return matrices, list(lower.values()), canonical_rank(shape)

    def assert_string_walk(self, weights, terms, seen):
        """Walk with _shape_rank spied on, check the block products'
        sizes against the walk's strings, and check the kernel input of
        every block product not in `seen` against the reference; adds the
        walk's block products to `seen`."""
        chains, whole = chains_of(weights, terms)
        assert whole is None
        strung = sum(len(chain) > 1 for chain in chains)
        products = walked_products([(weights, terms)])
        for sizes in products:
            # a product of Jordan blocks, none of size 1, at most one per
            # string
            assert list(sizes) == sorted(sizes) and all(b > 1 for b in sizes)
            assert 0 < len(sizes) <= strung
            if sizes in seen:
                continue
            seen.add(sizes)
            matrices = []

            def spied_rank(rows):
                matrices.append(rows)
                return sparse_rank(rows)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cohomology, "sparse_rank", spied_rank)
                # the uncached function: a cold rank of this product
                rank = cohomology._shape_rank.__wrapped__(sizes)
            expected, times, whole_rank = self.reference_matrices(sizes)
            assert matrices == expected
            assert rank == sum(t * sparse_rank(m) for t, m in zip(times, expected)) == whole_rank
            assert rank == cohomology._shape_rank(sizes)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_mirrored_walk_up_to_n7(self, n):
        models = list(enumerate_models(n))
        walked = 0
        seen = set()
        for c in models:
            for weights, terms in model_walks(c):
                if strings(weights, terms):
                    self.assert_string_walk(weights, terms, seen)
                    walked += 1
        assert walked == 3 * (len(models) - 1)
        # each block product is ranked once, by the first walk that meets it
        assert len(seen) == cohomology._shape_rank.cache_info().misses
        assert bool(seen) == bool(walked)

    @pytest.mark.parametrize("weights, d1", STRING_RULES)
    def test_synthetic_strings(self, weights, d1):
        seen = set()
        self.assert_string_walk(weights, cohomology._slot_terms(d1), seen)
        assert len(seen) == cohomology._shape_rank.cache_info().misses

    def test_walks_share_their_shapes(self, monkeypatch):
        # q = 3,3,2 at j = 4: within one walk the fold keeps one polynomial
        # per multiset of block sizes, so _shape_rank is called once per
        # multiset; the CE walk that follows the Dolbeault walk finds its
        # block products already ranked
        ce, dolbeault, _ = model_walks(M([3, 3, 2], 4))
        assert strings(*dolbeault) and strings(*ce)
        real_shape_rank = cohomology._shape_rank
        met = []

        def spied_shape_rank(sizes):
            met.append(sizes)
            return real_shape_rank(sizes)

        monkeypatch.setattr(cohomology, "_shape_rank", spied_shape_rank)
        cohomology._walk(*dolbeault)
        first = list(met)
        assert first and len(set(first)) == len(first)
        assert real_shape_rank.cache_info().misses == len(first)
        assert real_shape_rank.cache_info().hits == 0
        met.clear()
        cohomology._walk(*ce)
        assert met and len(set(met)) == len(met)
        assert set(met) <= set(first)
        assert real_shape_rank.cache_info().misses == len(first)
        assert real_shape_rank.cache_info().hits == len(met)


def own_string_cores(weights, terms):
    """Every core of a string walk, one per choice of a degree on each of
    its strings of two or more symbols, as (shape, key, shift, factors):
    the factors drawn from the walk's own symbols, as {key: masks}, for
    the degrees other than 0 and L, and shift the key that the full
    strings add."""
    chains, whole = chains_of(weights, terms)
    assert whole is None
    long = [chain for chain in chains if len(chain) > 1]
    for degrees in product(*(range(len(chain) + 1) for chain in long)):
        picked = [(chain, k) for chain, k in zip(long, degrees) if 0 < k < len(chain)]
        factors = []
        for chain, k in picked:
            factor = {}
            for combo in combinations(chain, k):
                factor.setdefault(sum(weights[s] for s in combo), []).append(
                    sum(1 << s for s in combo)
                )
            factors.append(factor)
        shape = tuple(sorted((len(chain), k) for chain, k in picked))
        key = sum(k * weights[chain[0]] for chain, k in picked)
        shift = sum(k * weights[chain[0]] for chain, k in zip(long, degrees)) - key
        yield shape, key, shift, factors


class TestShapeRanks:
    """The fold is the sum of its cores: every core of every string walk,
    one degree per string, ranked from its own factors with its walk's
    own rules, every monomial of the core imaged by _d_mask and no piece
    mirrored, has one block, its key, and a rank that depends only on its
    shape, the rank of the canonical core of that shape; and the walk's
    rank on each block is the sum of its cores' ranks there, times the
    ways the degrees 0 and L of the strings left out shift the key."""

    @staticmethod
    def assert_cores_rank_by_shape(weights, terms, canonical):
        ranks = {}
        cores = 0
        for shape, key, shift, factors in own_string_cores(weights, terms):
            own = {
                k: sparse_rank([img for m in masks if (img := cohomology._d_mask(m, terms))])
                for k, masks in core_pieces(factors).items()
            }
            assert set(nonzero(own)) <= {key}
            if shape not in canonical:
                canonical[shape] = canonical_rank(shape)
            assert sum(own.values()) == canonical[shape]
            ranks[key + shift] = ranks.get(key + shift, 0) + canonical[shape]
            cores += 1
        # each string of length 1 doubles the cores, with and without its
        # symbol
        chains, _ = chains_of(weights, terms)
        for chain in chains:
            if len(chain) == 1:
                shifted = {}
                for k, rank in ranks.items():
                    for s in (0, weights[chain[0]]):
                        shifted[k + s] = shifted.get(k + s, 0) + rank
                ranks = shifted
        assert unpacked(cohomology._walk(weights, terms), weights) == nonzero(ranks)
        return cores

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_string_walk_up_to_n6(self, n):
        models = list(enumerate_models(n))
        walked = 0
        canonical = {}
        for c in models:
            for weights, terms in model_walks(c):
                if strings(weights, terms):
                    assert self.assert_cores_rank_by_shape(weights, terms, canonical)
                    walked += 1
        assert walked == 3 * (len(models) - 1)

    @pytest.mark.parametrize("weights, d1", STRING_RULES)
    def test_synthetic_strings(self, weights, d1):
        assert self.assert_cores_rank_by_shape(weights, cohomology._slot_terms(d1), {})

    def test_reflected_shapes_are_ranked_apart(self):
        # (L, k) and (L, L - k) keep separate Jordan types, each read off
        # its own chain piece, and they agree: Lambda^2 J_5 and Lambda^3
        # J_5 are each J_7 + J_3
        assert cohomology._chain_jordan(5, 2) == cohomology._chain_jordan(5, 3) == ((7, 1), (3, 1))
        assert cohomology._chain_jordan.cache_info().misses == 2
        # Lambda^1 J_4 (x) Lambda^2 J_5 has 4 x 10 monomials in 4 + 3 sl2
        # summands, W(4) (x) (W(7) + W(3)), so the shift has rank 40 - 7,
        # the sum over its two block products J_4 (x) J_7 and J_4 (x) J_3
        assert cohomology._shape_rank((4, 7)) + cohomology._shape_rank((3, 4)) == 33
        assert canonical_rank(((4, 1), (5, 2))) == canonical_rank(((4, 3), (5, 3))) == 33
        assert cohomology._shape_rank.cache_info().misses == 2
        # a walk of the strings 0..3 and 4..8, one-factor rules, meets
        # both products and ranks as the walk over every monomial
        d1 = {s: ((1, (s + 1,)),) for s in (0, 1, 2, 4, 5, 6, 7)}
        weights = dict.fromkeys(range(9), 1)
        terms = cohomology._slot_terms(d1)
        assert chains_of(weights, terms) == ([[0, 1, 2, 3], [4, 5, 6, 7, 8]], None)
        assert {(4, 7), (3, 4)} <= set(walked_products([(weights, terms)]))
        assert unpacked(cohomology._walk(weights, terms), weights) == nonzero(
            weighted_reference(weights, terms)[0]
        )


def dense_jordan_type(length, k):
    """The Jordan type of N on Lambda^k J_length, apart from _chain_jordan:
    the canonical chain's rules s -> s + 1 through _slot_terms, _d_mask's
    images of the degree-k monomials, and the ranks of the powers of N.
    N raises a monomial's weight, the sum of its symbols, by one, so N^j
    is zero but on the dense RationalMatrix maps from piece w to piece
    w + j, products of j piece maps by RationalMatrix.mul, whose blocks
    meet no row or column twice: rank N^j is the sum of their ranks by
    RationalMatrix.rank."""
    terms = cohomology._slot_terms({s: ((1, (s + 1,)),) for s in range(length - 1)})
    pieces = {}
    for combo in combinations(range(length), k):
        pieces.setdefault(sum(combo), []).append(sum(1 << s for s in combo))
    low, high = min(pieces), max(pieces)
    maps = []
    for w in range(low, high):
        images = [cohomology._d_mask(m, terms) for m in pieces[w]]
        assert all(set(img) <= set(pieces[w + 1]) for img in images)
        maps.append(
            RationalMatrix([[img.get(t, 0) for img in images] for t in pieces[w + 1]])
        )
    ranks = []
    for j in range(1, high - low + 1):
        rank = 0
        for w in range(high - low - j + 1):
            power = maps[w]
            for step in maps[w + 1 : w + j]:
                power = step.mul(power)
            rank += power.rank()
        if not rank:
            break
        ranks.append(rank)
    return jordan_type_from_ranks(sum(map(len, pieces.values())), ranks)


class TestCoreRanks:
    """_walk ranks the strings' Jordan blocks, _chain_jordan's, through
    the block products _shape_rank ranks; the module docstring proves it
    exact, and these tests hold each piece to a reference built here."""

    def test_every_shape_of_verify_dim16(self, monkeypatch):
        # the mirrored rank against the canonical core ranked whole, on
        # every block product the 112-model sweep meets
        real_shape_rank = cohomology._shape_rank
        met = []

        def spied_shape_rank(sizes):
            met.append(sizes)
            return real_shape_rank(sizes)

        monkeypatch.setattr(cohomology, "_shape_rank", spied_shape_rank)
        _, all_ok = cli.run_verify(16)
        assert all_ok
        met = list(dict.fromkeys(met))
        assert len(met) == real_shape_rank.cache_info().misses == 203
        for sizes in met:
            assert real_shape_rank(sizes) == canonical_rank(tuple((b, 1) for b in sizes)), sizes

    def test_lower_pieces_of_every_small_shape(self, monkeypatch):
        # every sorted block product with each b >= 2, sum (b - 1) <= 12
        # and at most 6 blocks: its piece sizes, the coefficients of the
        # product of the 1 + x + ... + x^(b - 1), are palindromic and
        # unimodal, so the lower half holds the smaller piece of each
        # mirrored pair; the kernel sees one matrix per piece w <= top //
        # 2, the images of its monomials; and the rank is that of the
        # whole core, every piece ranked and none mirrored
        shapes = [
            sizes
            for r in range(1, 7)
            for sizes in combinations_with_replacement(range(2, 14), r)
            if sum(sizes) - r <= 12
        ]
        assert len(shapes) == 226
        matrices = []

        def spied_rank(rows):
            matrices.append(rows)
            return sparse_rank(rows)

        monkeypatch.setattr(cohomology, "sparse_rank", spied_rank)
        for sizes in shapes:
            shape = tuple((b, 1) for b in sizes)
            pieces = core_pieces(canonical_core(shape)[0])
            counts = [len(pieces[w]) for w in range(len(pieces))]
            top = len(counts) - 2
            peak = counts.index(max(counts))
            assert counts == counts[::-1]
            assert counts[: peak + 1] == sorted(counts[: peak + 1])
            assert counts[peak:] == sorted(counts[peak:], reverse=True)
            matrices.clear()
            rank = cohomology._shape_rank(sizes)
            assert len(matrices) == top // 2 + 1, sizes
            for w, rows in enumerate(matrices):
                assert len(rows) == counts[w]
                assert {-t for row in rows for t in row} <= set(pieces[w + 1])
            assert rank == canonical_rank(shape), sizes

    @pytest.mark.parametrize("length", range(1, 11))
    def test_chain_jordan_against_a_dense_matrix(self, length):
        for k in range(length + 1):
            blocks = cohomology._chain_jordan(length, k)
            sizes = [size for size, _ in blocks]
            assert sizes == sorted(set(sizes), reverse=True)
            expanded = [size for size, count in blocks for _ in range(count)]
            assert expanded == dense_jordan_type(length, k)
            assert sum(expanded) == comb(length, k)

    @pytest.mark.parametrize("length", range(1, 15))
    def test_chain_jordan_is_the_sl2_wedge(self, length):
        # Jacobson-Morozov: on an sl2-module the raising operator has one
        # Jordan block per irreducible summand, of its dimension, and
        # Lambda^k J_L is Lambda^k W(L) with N as that operator
        for k in range(length + 1):
            blocks = cohomology._chain_jordan(length, k)
            summands = wedge(W(length), k).items()
            assert blocks == summands
            assert sum(size * count for size, count in blocks) == comb(length, k)

    @pytest.mark.parametrize(
        "bumped", [(length, k) for length in range(2, 6) for k in range(1, length)]
    )
    def test_a_bumped_multiplicity_fails_an_oracle_check(self, bumped, monkeypatch):
        # one more block of the largest size in one chain piece's type: some
        # model with n <= 4 must then fail betti_oracle_eq or hodge_oracle_eq
        real_chain_jordan = cohomology._chain_jordan

        def mutated(length, k):
            blocks = real_chain_jordan(length, k)
            if (length, k) != bumped:
                return blocks
            (size, count), *rest = blocks
            return ((size, count + 1), *rest)

        monkeypatch.setattr(cohomology, "_chain_jordan", mutated)
        names = [name for name, _, _ in CHECKS]
        oracle_checks = [names.index("betti_oracle_eq"), names.index("hodge_oracle_eq")]
        caught = [
            c
            for n in range(1, 5)
            for c in enumerate_models(n)
            if not all(run_checks(c)[i] for i in oracle_checks)
        ]
        assert caught


def random_rules(rng, size):
    """Two-factor generator rules on `size` symbols: each symbol has a
    rule with probability 1/2, of one or two terms with coefficients in
    -2..2 other than 0 and two distinct factors in random order."""
    d1 = {}
    for s in range(size):
        if rng.random() < 0.5:
            d1[s] = tuple(
                (rng.choice([-2, -1, 1, 2]), tuple(rng.sample(range(size), 2)))
                for _ in range(rng.randint(1, 2))
            )
    return d1


class TestSquaresOnGenerators:
    """_squares_vanish checks D^2 = 0 on the generators only, which is
    exact for an odd derivation; reference_walk sums D^2 over every
    monomial.  (assert_walks_equal_references compares the two on every
    CE and Dolbeault complex with n <= 5, and the synthetic rule sets of
    TestSpectatorFold on both verdicts.)"""

    @staticmethod
    def reference(terms, size):
        return weighted_reference(dict.fromkeys(range(size), 1), terms)[1]

    def test_random_rules_give_both_verdicts(self):
        rng = random.Random(20)
        verdicts = []
        for _ in range(240):
            size = rng.randint(4, 7)
            terms = cohomology._slot_terms(random_rules(rng, size))
            verdict = cohomology._squares_vanish(terms)
            assert verdict is self.reference(terms, size)
            verdicts.append(verdict)
        assert 20 < verdicts.count(True) < 220

    @pytest.mark.parametrize("n", range(1, 5))
    def test_d_of_alpha_patched(self, n):
        # d's own rules on the Dolbeault symbols with d(alpha) =
        # conj(alpha) ^ conj(beta): no symbol kills every monomial
        patched = alpha_is_not_closed(cohomology.structure_equations)
        for c in enumerate_models(n):
            d1, g = cohomology._dolbeault_symbols(patched(c))
            terms = cohomology._slot_terms(d1)
            assert cohomology._squares_vanish(terms) is self.reference(terms, 2 * g) is False

    def test_extra_bracket_fails_d_squared(self, monkeypatch):
        # [e_1, e_2] = e_3 on top of each model's brackets: d(e^3) gains
        # -e^1 ^ e^2, a term without e^0, and d^2 = 0 fails on some models
        real = cohomology._ce_generator_differentials

        def extra_bracket(alg):
            d1 = real(alg)
            d1[3] += ((-1, (1, 2)),)
            return d1

        monkeypatch.setattr(cohomology, "_ce_generator_differentials", extra_bracket)
        models = [c for n in range(1, 5) for c in enumerate_models(n)]
        failed = []
        for c in models:
            results = registry_results(c)
            assert results["d_squared"] is self.reference(
                cohomology._ce(build_algebra(c)).terms, 2 * c.n + 2
            )
            if not results["d_squared"]:
                assert not results["betti_oracle_eq"]
                with pytest.raises(DifferentialError, match=r"^d\^2 != 0$"):
                    betti_oracle(build_algebra(c))
                failed.append(c)
        assert (len(failed), len(models)) == (9, 21)


class TestJSquared:
    """_j_squared multiplies the sparse columns of J; the reference
    squares the dense J with RationalMatrix.mul."""

    @staticmethod
    def verdicts(j):
        dim = len(j)
        alg = AlgebraModel(dim=dim, A=(), J=columns_of(j))
        dense = RationalMatrix([list(r) for r in j])
        minus_one = RationalMatrix([[-int(a == b) for b in range(dim)] for a in range(dim)])
        return cohomology._j_squared(SimpleNamespace(alg=alg)), dense.mul(dense) == minus_one

    @pytest.mark.parametrize("n", range(1, 5))
    def test_models(self, n):
        for c in enumerate_models(n):
            assert self.verdicts(dense_of(build_algebra(c).J)) == (True, True)

    def test_not_a_signed_permutation(self):
        # P J P^-1 with P = I + E_{2,3} still squares to -1
        j = dense_of(build_algebra(M([2], 1)).J)
        dim = len(j)

        def unipotent(c):
            return RationalMatrix(
                [[int(r == s) + c * int((r, s) == (2, 3)) for s in range(dim)] for r in range(dim)]
            )

        conj = unipotent(1).mul(RationalMatrix([list(r) for r in j])).mul(unipotent(-1)).data
        assert any(sum(1 for x in row if x) > 1 for row in conj)
        assert self.verdicts(conj) == (True, True)

    def test_square_is_not_minus_one(self):
        j = [list(r) for r in dense_of(build_algebra(M([2], 3)).J)]
        dim = len(j)
        identity = [[int(a == b) for b in range(dim)] for a in range(dim)]
        assert self.verdicts(identity) == (False, False)
        flipped = [list(r) for r in j]
        flipped[1][0] = -1
        assert self.verdicts(flipped) == (False, False)
        # one extra nonzero entry outside the signed permutation, anywhere
        for a in range(dim):
            for b in range(dim):
                if not j[a][b]:
                    extra = [list(r) for r in j]
                    extra[a][b] = 1
                    assert self.verdicts(extra) == (False, False), (a, b)

    def test_every_small_matrix(self):
        # every 2 x 2 matrix [[a, b], [c, d]] with entries in -2..2;
        # J^2 = -1 needs d = -a and a^2 + bc = -1: ten of them
        found = 0
        for entries in product(range(-2, 3), repeat=4):
            sparse, dense = self.verdicts([entries[:2], entries[2:]])
            assert sparse == dense, entries
            found += sparse
        assert found == 10
