import random
from itertools import product
from math import comb
from types import SimpleNamespace

import pytest

from almostabelian import cli, cohomology, sl2
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
from almostabelian.exactla import RationalMatrix, jordan_block, sparse_rank
from almostabelian.model import (
    AlgebraModel,
    ComplexModel,
    StructureEquations,
    _overlap_indices,
    build_algebra,
    enumerate_models,
)
from almostabelian.partitions import Partition
from almostabelian.sl2 import delta, tensor_count, wedge, wedge_profile
from almostabelian.sl2 import irreducible as W


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
        sl2._wedge_sum.cache_clear()
        closed_table(M([3, 2], 3))
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
        """At j = 1, g10 is b01 + W(1): one knapsack serves both."""
        knapsack = sl2._knapsack
        calls = []
        monkeypatch.setattr(sl2, "_knapsack", lambda v: calls.append(v) or knapsack(v))
        sl2._wedge_sum.cache_clear()
        closed_table(M([5, 3], 1))
        sl2._wedge_sum.cache_clear()
        assert calls == [W(5) + W(3)]


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
        c = M([2, 1], 1)
        assert betti_oracle(build_algebra(c)) == betti_oracle(
            build_algebra(c, block_sizes=[1, 2])
        )
        assert hodge_oracle(c) == hodge_oracle(c, block_sizes=[1, 2])
        c2 = M([2, 2, 1], 3)
        assert betti_oracle(build_algebra(c2)) == betti_oracle(
            build_algebra(c2, block_sizes=[2, 1, 2])
        )
        assert hodge_oracle(c2) == hodge_oracle(c2, block_sizes=[2, 1, 2])


def algebra_of(a):
    """The almost abelian algebra with ad(e_0) = a on the ideal (J unused)."""
    dim = len(a) + 1
    return AlgebraModel(
        dim=dim, A=tuple(tuple(r) for r in a), J=tuple((0,) * dim for _ in range(dim))
    )


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

    def patched(model, block_sizes=None):
        eqs = real_equations(model, block_sizes=block_sizes)
        beta = (eqs.generators[1], True)
        rules = (("alpha", ((1, (("alpha", True), beta)),)),) + eqs.rules[1:]
        return StructureEquations(eqs.n, eqs.epsilon, eqs.blocks, eqs.generators, rules)

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
        real_walk = cohomology._dolbeault_walk
        walks = []

        def counted_walk(*args):
            walks.append(args)
            return real_walk(*args)

        # d does not split, so the Dolbeault walk raises DifferentialError
        monkeypatch.setattr(
            cohomology, "structure_equations", alpha_is_not_closed(cohomology.structure_equations)
        )
        monkeypatch.setattr(cohomology, "_dolbeault_walk", counted_walk)
        failed = [name for name, ok in registry_results(M([2], 3)).items() if not ok]
        assert len(walks) == 1
        assert failed == [
            "dbar_squared",
            "d_splits",
            "hodge_oracle_eq",
            "frolicher_oracle",
            "symmetry_oracle",
            "poincare",
            "serre",
        ]

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


def reference_walk(blocks, terms, degrees=()):
    """The walk without the cocycle skip: every monomial through _d_mask,
    its images transposed into rows, each block's rank by sparse_rank."""
    ranks = {}
    squares = True
    below = {}
    for key, masks in blocks:
        here = {m: cohomology._d_mask(m, terms) for m in masks}
        if squares and below:
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
        below = here if masks and masks[0].bit_count() in degrees else {}
    return ranks, squares


class TestCocycleSkip:
    """_walk never builds the image of a monomial divisible by a symbol
    that kills every monomial it divides (e^0, conj(alpha)), and its
    ranks and D^2 verdicts are those of the walk over every monomial."""

    @pytest.fixture
    def compared(self, monkeypatch):
        real_walk = cohomology._walk
        walks = []

        def both_walks(blocks, terms, degrees=()):
            blocks = list(blocks)
            got = real_walk(iter(blocks), terms, degrees)
            assert got == reference_walk(blocks, terms, degrees)
            walks.append(cohomology._cocycle_symbols(terms))
            return got

        monkeypatch.setattr(cohomology, "_walk", both_walks)
        return walks

    @pytest.mark.parametrize("n", range(1, 6))
    def test_walks_equal_the_walk_over_every_monomial(self, n, compared):
        models = list(enumerate_models(n))
        for c in models:
            alg = build_algebra(c)
            cohomology._ce_walk(alg, range(1, alg.dim + 1))
            symbols = cohomology._dolbeault_symbols(cohomology.structure_equations(c))
            cohomology._dolbeault_walk(symbols, range(1, 2 * symbols[1] + 1))
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
            blocks = ((k, cohomology._masks(range(size), k)) for k in range(size))
            cohomology._walk(blocks, terms, range(1, size + 1))
        assert compared

    def test_a_symbol_with_a_rule_is_never_skipped(self, compared):
        # d(x1) = x1 ^ x2: x1 lies in every pair mask but has a rule, and
        # its image is not zero; only x2 is skipped
        terms = cohomology._slot_terms({0: (), 1: ((1, (1, 2)),), 2: ()})
        assert cohomology._cocycle_symbols(terms) == 0b100
        blocks = ((k, cohomology._masks(range(3), k)) for k in range(4))
        ranks, _ = cohomology._walk(blocks, terms, range(1, 4))
        assert ranks[1] == 1

    def test_images_built_for_verify_dim12(self, monkeypatch):
        real_d_mask = cohomology._d_mask
        dead = {}
        calls = []

        def counted_d_mask(mono, terms):
            if id(terms) not in dead:
                dead[id(terms)] = (terms, cohomology._cocycle_symbols(terms))
            assert not mono & dead[id(terms)][1]
            calls.append(mono)
            return real_d_mask(mono, terms)

        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        monkeypatch.setattr(cohomology, "_d_mask", counted_d_mask)
        lines, all_ok = cli.run_verify(12)
        assert all_ok
        # 171805 without the skip, 84008 without the fold
        assert len(calls) == 29588


def nonzero(walk):
    """A walk's nonzero ranks and its D^2 verdict: a block that no walk
    lists and a block of rank zero mean the same."""
    ranks, squares = walk
    return {key: rank for key, rank in ranks.items() if rank}, squares


def ce_reference(alg, degrees):
    """The CE walk over every symbol, spectators included."""
    terms = cohomology._slot_terms(cohomology._ce_generator_differentials(alg))
    blocks = [(k, cohomology._masks(range(alg.dim), k)) for k in range(alg.dim)]
    return reference_walk(blocks, terms, degrees)


def dolbeault_reference(symbols, degrees):
    """The Dolbeault walk over every symbol, spectators included."""
    _, g = symbols
    terms = cohomology._dbar_rules(symbols)
    holo = [cohomology._masks(range(g), p) for p in range(g + 1)]
    anti = [cohomology._masks(range(g, 2 * g), q) for q in range(g)]
    blocks = [
        ((p, q), [u | b for u in holo[p] for b in anti[q]]) for p in range(g + 1) for q in range(g)
    ]
    return reference_walk(blocks, terms, degrees)


def ideal_action_reference(alg):
    """betti_via_ideal_action with every symbol in the walk."""
    size = alg.dim - 1
    terms = cohomology._slot_terms(
        {r: tuple((-a, (c,)) for c, a in enumerate(row) if a) for r, row in enumerate(alg.A)}
    )
    blocks = [(k, cohomology._masks(range(size), k)) for k in range(size + 1)]
    ranks, _ = reference_walk(blocks, terms)
    kernel = [comb(size, k) - ranks[k] for k in range(size + 1)] + [0]
    return tuple(kernel[k] + (kernel[k - 1] if k else 0) for k in range(size + 2))


def spectator_count(terms, symbols):
    return len(symbols) - len(cohomology._named_symbols(symbols, terms))


class TestSpectatorFold:
    """Each walk leaves out the symbols that no rule names and folds them
    back by the binomial sum; its ranks and D^2 verdicts are those of the
    walk over every symbol.  (TestCocycleSkip compares _walk with the
    reference on the blocks the walks hand it, which have no spectators,
    so only these tests can see a fold bug.)"""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_walks_equal_the_walk_over_every_symbol(self, n):
        folded = 0
        for c in enumerate_models(n):
            alg = build_algebra(c)
            for degrees in ((1,), range(1, alg.dim + 1)):
                assert nonzero(cohomology._ce_walk(alg, degrees)) == nonzero(
                    ce_reference(alg, degrees)
                )
            symbols = cohomology._dolbeault_symbols(cohomology.structure_equations(c))
            for degrees in ((1,), range(1, 2 * symbols[1] + 1)):
                assert nonzero(cohomology._dolbeault_walk(symbols, degrees)) == nonzero(
                    dolbeault_reference(symbols, degrees)
                )
            assert betti_via_ideal_action(alg) == ideal_action_reference(alg)
            folded += spectator_count(cohomology._dbar_rules(symbols), range(2 * symbols[1]))
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
        terms = cohomology._dbar_rules(symbols)
        g = symbols[1]
        assert (spectator_count(terms, range(g)), spectator_count(terms, range(g, 2 * g))) == (
            holo,
            anti,
        )

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
        assert spectator_count(terms, range(8)) >= 1
        for degrees in ((1,), range(1, 9)):
            got = nonzero(cohomology._dolbeault_walk(symbols, degrees))
            assert got == nonzero(dolbeault_reference(symbols, degrees))
        assert got[1] is squares

    def test_factor_only_and_rule_only_symbols_are_not_spectators(self):
        # d(x1) = x0 ^ x2: x0 and x2 are only factors, x1 has only its
        # own rule, and x3 is the one spectator
        terms = cohomology._slot_terms({0: (), 1: ((1, (0, 2)),), 2: (), 3: ()})
        assert cohomology._named_symbols(range(4), terms) == [0, 1, 2]
        # a one-factor rule: x0 -> x1, x2 spectator
        terms = cohomology._slot_terms({0: ((1, (1,)),)})
        assert cohomology._named_symbols(range(3), terms) == [0, 1]

    @pytest.mark.parametrize(
        "qparts, j, sizes",
        [([3, 1, 1], 1, [1, 1, 3]), ([3, 1, 1], 2, [1, 3, 1]), ([2, 2, 1, 1], 3, [2, 1, 1, 2])],
    )
    def test_singleton_chains_first(self, qparts, j, sizes):
        c = M(qparts, j)
        alg = build_algebra(c, block_sizes=sizes)
        everything = range(1, alg.dim + 1)
        assert nonzero(cohomology._ce_walk(alg, everything)) == nonzero(
            ce_reference(alg, everything)
        )
        assert betti_via_ideal_action(alg) == ideal_action_reference(alg)
        symbols = cohomology._dolbeault_symbols(cohomology.structure_equations(c, sizes))
        everything = range(1, 2 * symbols[1] + 1)
        assert nonzero(cohomology._dolbeault_walk(symbols, everything)) == nonzero(
            dolbeault_reference(symbols, everything)
        )
        assert hodge_oracle(c, block_sizes=sizes) == hodge_oracle(c) == hodge_closed(c)


class TestJSquared:
    """_j_squared multiplies the sparse rows of J; the reference squares
    the dense J with RationalMatrix.mul."""

    @staticmethod
    def verdicts(j):
        dim = len(j)
        alg = AlgebraModel(dim=dim, A=(), J=tuple(tuple(r) for r in j))
        dense = RationalMatrix([list(r) for r in j])
        minus_one = RationalMatrix([[-int(a == b) for b in range(dim)] for a in range(dim)])
        return cohomology._j_squared(SimpleNamespace(alg=alg)), dense.mul(dense) == minus_one

    @pytest.mark.parametrize("n", range(1, 5))
    def test_models(self, n):
        for c in enumerate_models(n):
            assert self.verdicts(build_algebra(c).J) == (True, True)

    def test_not_a_signed_permutation(self):
        # P J P^-1 with P = I + E_{2,3} still squares to -1
        j = build_algebra(M([2], 1)).J
        dim = len(j)

        def unipotent(c):
            return RationalMatrix(
                [[int(r == s) + c * int((r, s) == (2, 3)) for s in range(dim)] for r in range(dim)]
            )

        conj = unipotent(1).mul(RationalMatrix([list(r) for r in j])).mul(unipotent(-1)).data
        assert any(sum(1 for x in row if x) > 1 for row in conj)
        assert self.verdicts(conj) == (True, True)

    def test_square_is_not_minus_one(self):
        j = [list(r) for r in build_algebra(M([2], 3)).J]
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
