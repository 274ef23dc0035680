import hashlib
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import almostabelian.model as model_module
from almostabelian.exactla import RationalMatrix, Subspace, jordan_type_from_ranks, power_ranks
from almostabelian.model import (
    AlgebraModel,
    ComplexModel,
    InvalidModelError,
    StableSeriesError,
    admits_complex_structure,
    build_algebra,
    enumerate_models,
    generator_coordinates,
    jordan_partition,
    nijenhuis_vanishes,
    nilpotency_step,
    stable_series,
    structure_equations,
)
from almostabelian.partitions import Partition, partitions_of
from permuted import chain_order, columns_of, dense_of, permuted_algebra

# -- exact complex scalars as (re, im) pairs of Fractions -------------------

CZERO = (Fraction(0), Fraction(0))


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cscale(k, a):
    return (k * a[0], k * a[1])


def conj(a):
    return (a[0], -a[1])


def wedge_pairs(u, v):
    """Coefficients of u^v over the basis e^i ^ e^j, i < j."""
    out = {}
    for i in range(len(u)):
        if u[i] == CZERO:
            continue
        for j in range(len(v)):
            if i == j or v[j] == CZERO:
                continue
            a, b = (i, j) if i < j else (j, i)
            term = cmul(u[i], v[j])
            if i > j:
                term = cscale(-1, term)
            out[(a, b)] = cadd(out.get((a, b), CZERO), term)
    return {k: c for k, c in out.items() if c != CZERO}


def d_of_coordinates(alg, coords):
    """d of a complex 1-form given by coordinates over e^0..e^{2n+1}.

    Uses d e^b = -sum c^b_{xy} e^x ^ e^y from the bracket tensor.
    """
    out = {}
    for (x, y), targets in alg.bracket_tensor().items():
        for b, c in targets.items():
            if coords[b] == CZERO:
                continue
            term = cscale(-c, coords[b])
            out[(x, y)] = cadd(out.get((x, y), CZERO), term)
    return {k: c for k, c in out.items() if c != CZERO}


def model_of(qparts, j):
    q = Partition(qparts)
    return ComplexModel(q.n, q, j)


def a_rows(alg):
    """The integer matrix A as the sparse rows power_ranks takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in dense_of(alg.A)]


def coordinate_span(dim, indices):
    """The subspace spanned by the standard basis vectors at `indices`."""
    return Subspace(dim, [[int(k == i) for k in range(dim)] for i in indices])


# -- a Fraction reference for the stable series -----------------------------


def fraction_rref(vectors, d):
    """Reduced row echelon rows of the span, textbook elimination over
    Fraction; zero vectors are dropped first."""
    m = [[Fraction(x) for x in v] for v in vectors if any(v)]
    rows = []
    for c in range(d):
        piv = next((i for i, row in enumerate(m) if row[c]), None)
        if piv is None:
            continue
        prow = m.pop(piv)
        prow = [x / prow[c] for x in prow]
        m = [[a - row[c] * b for a, b in zip(row, prow)] if row[c] else row for row in m]
        m = [row for row in m if any(row)]
        rows = [[a - row[c] * b for a, b in zip(row, prow)] if row[c] else row for row in rows]
        rows.append(prow)
    return [tuple(row) for row in rows]


def fraction_kernel(vectors, d):
    rows = fraction_rref(vectors, d)
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    basis = []
    for free in range(d):
        if free in pivots:
            continue
        vec = [Fraction(0)] * d
        vec[free] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def reference_series(alg, model):
    """The stable series from the bracket tensor over Fraction, unchecked."""
    dim = alg.dim
    unit = [tuple(1 if t == i else 0 for t in range(dim)) for i in range(dim)]
    ads = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, k), targets in alg.bracket_tensor().items():
        ads[i][k] = targets
        ads[k][i] = {r: -c for r, c in targets.items()}

    def apply(i, v):  # [e_i, v] = sum_k v_k [e_i, e_k]
        out = [0] * dim
        for k, x in enumerate(v):
            if x:
                for r, coef in ads[i][k].items():
                    out[r] += x * coef
        return out

    centres = [[]]
    for _ in range(model.j - 1):
        ann = fraction_kernel(centres[-1], dim) if centres[-1] else unit
        constraints = [
            [sum(f[r] * coef for r, coef in ads[i][c].items()) for c in range(dim)]
            for i in range(dim)
            for f in ann
        ]
        centres.append(fraction_rref(fraction_kernel(constraints, dim), dim))
    descending = [fraction_rref(unit, dim)]
    while descending[-1]:
        descending.append(
            fraction_rref([apply(i, v) for v in descending[-1] for i in range(dim)], dim)
        )
    terms = list(centres)
    for k in range(len(descending) - 1 - model.j, 0, -1):
        terms.append(fraction_rref(centres[-1] + descending[k], dim))
    terms.append(fraction_rref(unit, dim))
    filtration = [terms[0]]
    for t in terms[1:]:
        if len(t) != len(filtration[-1]):
            filtration.append(t)
    return filtration


# -- the checked stable series over every ad image, with a dense J -----------


def every_ad_image(alg, x):
    """[e_0, x], ..., [e_{dim-1}, x]: [e_0, x] = (0, A x') and, for
    k >= 1, [e_k, x] = -x_0 (0, A e_k), zero vectors included."""
    dense_a = dense_of(alg.A)
    out = [(0,) + tuple(sum(a * x[c + 1] for c, a in enumerate(row)) for row in dense_a)]
    out.extend((0,) + tuple(-x[0] * a for a in col) for col in zip(*dense_a))
    return out


def dense_apply_j(alg, x):
    dense_j = dense_of(alg.J)
    return tuple(sum(dense_j[r][c] * x[c] for c in range(alg.dim)) for r in range(alg.dim))


def every_image_centre(alg, prev):
    """{x : [e_i, x] in prev for every i}: one constraint f o ad(e_i) per
    functional f vanishing on prev and per basis vector e_i."""
    dim = alg.dim
    if prev.dim == dim:
        return prev
    annihilator = (
        RationalMatrix(prev.basis, cols=dim).nullspace()
        if prev.dim
        else RationalMatrix.identity(dim).data
    )
    constraints = []
    for f in annihilator:
        fa = [sum(a * v for a, v in zip(col, f[1:])) for col in zip(*dense_of(alg.A))]
        constraints.append([0] + fa)
        constraints.extend([-v] + [0] * (dim - 1) for v in fa)
    return Subspace(dim, RationalMatrix(constraints, cols=dim).nullspace())


def every_image_descending(alg):
    series = [Subspace.full(alg.dim)]
    while series[-1].dim > 0:
        images = [img for v in series[-1].basis for img in every_ad_image(alg, v) if any(img)]
        nxt = Subspace(alg.dim, images)
        if nxt == series[-1]:
            raise StableSeriesError("descending series stabilised; algebra not nilpotent")
        series.append(nxt)
    return series


def every_image_series(alg, model, descending=None):
    """stable_series with its checks run on all dim ad images of every
    basis vector and a dense J; `descending` replaces the computed
    descending series."""
    dim = alg.dim
    centres = [Subspace(dim)]
    for _ in range(model.j - 1):
        centres.append(every_image_centre(alg, centres[-1]))
    if descending is None:
        descending = every_image_descending(alg)
    nu = len(descending) - 1
    if nu != model.step:
        raise StableSeriesError(
            "nilpotency step mismatch: series says %d, model says %d" % (nu, model.step)
        )
    terms = list(centres)
    for k in range(nu - model.j, 0, -1):
        terms.append(centres[-1].sum(descending[k]))
    terms.append(Subspace.full(dim))
    filtration = [terms[0]]
    for t in terms[1:]:
        if not filtration[-1] <= t:
            raise StableSeriesError("filtration is not increasing")
        if t != filtration[-1]:
            filtration.append(t)
    for t in filtration:
        for v in t.basis:
            if not t.contains(dense_apply_j(alg, v)):
                raise StableSeriesError("term of dimension %d is not J-invariant" % t.dim)
    for prev, nxt in zip(filtration, filtration[1:]):
        for v in nxt.basis:
            for img in every_ad_image(alg, v):
                if not prev.contains(img):
                    raise StableSeriesError("quotient step is not central")
    return filtration


def series_outcome(series, *args):
    """The filtration a series function returns, or its error as text."""
    try:
        return series(*args)
    except StableSeriesError as exc:
        return "StableSeriesError: %s" % exc


def not_nilpotent_algebra():
    """q = [2], j = 1 with A + identity, invertible: [g, g] = [g, [g, g]]
    is the ideal."""
    c = model_of([2], 1)
    alg = build_algebra(c)
    a = tuple(
        tuple(x + (1 if r == k else 0) for k, x in enumerate(row))
        for r, row in enumerate(dense_of(alg.A))
    )
    return AlgebraModel(dim=alg.dim, A=columns_of(a), J=alg.J), c


def broken_j_algebra():
    """q = [2], j = 3 with a J that squares to -id but ignores the chain
    pairing."""
    c = model_of([2], 3)
    alg = build_algebra(c)
    dim = alg.dim
    j = [[0] * dim for _ in range(dim)]
    for a, b in [(0, 2), (1, 3), (4, 5)]:
        j[b][a], j[a][b] = 1, -1
    return AlgebraModel(dim=dim, A=alg.A, J=columns_of(j)), c


class TestJordanPartition:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_block_family(self, n):
        assert jordan_partition(Partition([n]), n + 1) == Partition([n + 1, n])

    def test_overlap_two(self):
        assert jordan_partition(Partition([1, 1]), 2) == Partition([2, 1, 1, 1])

    def test_no_overlap(self):
        assert jordan_partition(Partition([2]), 1) == Partition([2, 2, 1])

    def test_invalid_overlap(self):
        with pytest.raises(InvalidModelError):
            jordan_partition(Partition([2]), 5)

    def test_total_is_doubled_plus_one(self):
        for n in range(1, 7):
            for q in partitions_of(n):
                for j in sorted({p + 1 for p in q.parts} | {1}):
                    if j > 1 and q.mult(j - 1) == 0:
                        continue
                    assert jordan_partition(q, j).n == 2 * n + 1


class TestComplexModel:
    def test_epsilon(self):
        assert model_of([1], 2).epsilon == 1
        assert model_of([2], 1).epsilon == 0

    def test_abelian_excluded(self):
        with pytest.raises(InvalidModelError):
            model_of([1, 1], 1)

    def test_membership_rule(self):
        with pytest.raises(InvalidModelError):
            model_of([2], 2)

    def test_derived_fields(self):
        c = model_of([2], 3)
        assert c.dim == 6
        assert c.m == Partition([3, 2])
        assert c.step == 3

    def test_pickle_round_trip(self):
        for n in range(1, 4):
            for c in enumerate_models(n):
                copy = pickle.loads(pickle.dumps(c))
                assert copy == c and hash(copy.q) == hash(c.q)
                # the Jordan type is built once and kept out of eq and hash
                fresh = ComplexModel(c.n, c.q, c.j)
                assert c.m is c.m and copy.m == c.m
                assert fresh == c and hash(fresh) == hash(c) == hash(copy)
        with pytest.raises(AttributeError, match="immutable"):
            pickle.loads(pickle.dumps(Partition([2, 1]))).parts = (3,)


class TestAdmitsComplexStructure:
    def test_single_block_has_none(self):
        assert admits_complex_structure(Partition([3])) is None

    def test_heisenberg(self):
        c = admits_complex_structure(Partition([2, 1]))
        assert (c.q, c.j) == (Partition([1]), 2)

    def test_three_two(self):
        c = admits_complex_structure(Partition([3, 2]))
        assert (c.q, c.j) == (Partition([2]), 3)

    def test_abelian_type_has_none(self):
        assert admits_complex_structure(Partition([1, 1, 1])) is None

    def test_rejects_even_total(self):
        with pytest.raises(ValueError):
            admits_complex_structure(Partition([2, 2]))

    def test_degenerate_total_one(self):
        assert admits_complex_structure(Partition([1])) is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_enumeration(self, n):
        admitted = {c.m for c in enumerate_models(n)}
        for m in partitions_of(2 * n + 1):
            witness = admits_complex_structure(m)
            if m in admitted:
                assert witness is not None and witness.m == m
            else:
                assert witness is None


class TestEnumerateModels:
    def test_dim_four(self):
        models = list(enumerate_models(1))
        assert len(models) == 1
        assert (models[0].q, models[0].j) == (Partition([1]), 2)
        assert models[0].m == Partition([2, 1])

    def test_dim_six(self):
        ms = [c.m for c in enumerate_models(2)]
        assert len(ms) == 3
        assert set(ms) == {Partition([2, 2, 1]), Partition([3, 2]), Partition([2, 1, 1, 1])}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_per_partition(self, n):
        models = list(enumerate_models(n))
        for q in partitions_of(n):
            expected = len({p + 1 for p in q.parts}) + 1
            if all(p == 1 for p in q.parts):
                expected -= 1
            assert sum(1 for c in models if c.q == q) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_jordan_types_distinct(self, n):
        ms = [c.m for c in enumerate_models(n)]
        assert len(set(ms)) == len(ms)

    def test_failed_inversion_raises(self, monkeypatch):
        monkeypatch.setattr("almostabelian.model.admits_complex_structure", lambda m: None)
        with pytest.raises(RuntimeError, match=r"Jordan type \[2,2,1\] of q=\[2\] j=1"):
            list(enumerate_models(2))


class TestBuildAlgebra:
    def test_heisenberg_matrices(self):
        alg = build_algebra(model_of([1], 2))
        assert alg.dim == 4
        expected = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
        assert [list(r) for r in dense_of(alg.A)] == expected
        assert jordan_type_from_ranks(3, power_ranks(a_rows(alg))) == [2, 1]

    def test_three_two(self):
        alg = build_algebra(model_of([2], 3))
        assert len(alg.A) == 5
        assert jordan_type_from_ranks(5, power_ranks(a_rows(alg))) == [3, 2]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_j_squares_to_minus_identity(self, n):
        for c in enumerate_models(n):
            alg = build_algebra(c)
            j = RationalMatrix(dense_of(alg.J))
            assert j.mul(j) == RationalMatrix(
                [[-1 if a == b else 0 for b in range(alg.dim)] for a in range(alg.dim)]
            )

    @pytest.mark.parametrize("n", range(1, 5))
    def test_jordan_type_matches_model(self, n):
        for c in enumerate_models(n):
            alg = build_algebra(c)
            assert Partition(jordan_type_from_ranks(len(alg.A), power_ranks(a_rows(alg)))) == c.m

    def test_block_order_variants_are_conjugate(self):
        c = model_of([2, 1], 1)
        for sizes in ([2, 1], [1, 2]):
            alg = permuted_algebra(build_algebra(c), chain_order(c, sizes)[1])
            assert Partition(jordan_type_from_ranks(len(alg.A), power_ranks(a_rows(alg)))) == c.m
            assert nijenhuis_vanishes(alg)


class TestColumnFormat:
    """AlgebraModel stores A and J as the tuples of their columns, each a
    {row: int} dict without zero entries and with every row in range."""

    @staticmethod
    def assert_format(alg):
        assert len(alg.A) == alg.dim - 1 and len(alg.J) == alg.dim
        for matrix, size in ((alg.A, alg.dim - 1), (alg.J, alg.dim)):
            assert type(matrix) is tuple
            for col in matrix:
                assert type(col) is dict
                assert 0 not in col.values()
                assert all(type(r) is int and 0 <= r < size for r in col)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_model(self, n):
        for c in enumerate_models(n):
            self.assert_format(build_algebra(c))

    @pytest.mark.parametrize("n", range(10, 151, 10))
    def test_one_block_two_blocks_and_all_ones(self, n):
        for parts in ([n], [n - 1, 1], [1] * n):
            q = Partition(parts)
            for j in model_module._overlap_indices(q):
                c = ComplexModel(n, q, j)
                alg = build_algebra(c)
                assert alg.dim == c.dim
                self.assert_format(alg)


class TestNijenhuis:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_vanishes_on_models(self, n):
        for c in enumerate_models(n):
            assert nijenhuis_vanishes(build_algebra(c))

    def test_corrupted_j_detected(self):
        alg = build_algebra(model_of([1], 2))
        # swap the pairing: J e_0 = e_2 instead of e_1; J^2 = -id still holds
        j = [[0] * 4 for _ in range(4)]
        j[2][0], j[0][2] = 1, -1
        j[3][1], j[1][3] = 1, -1
        bad = AlgebraModel(dim=4, A=alg.A, J=columns_of(j))
        jm = RationalMatrix(dense_of(bad.J))
        assert jm.mul(jm) == RationalMatrix(
            [[-1 if a == b else 0 for b in range(4)] for a in range(4)]
        )
        assert not nijenhuis_vanishes(bad)

    def test_abelian_bracket_always_integrable(self):
        alg = build_algebra(model_of([1], 2))
        zero_a = tuple(tuple(0 for _ in r) for r in dense_of(alg.A))
        assert nijenhuis_vanishes(AlgebraModel(dim=4, A=columns_of(zero_a), J=alg.J))

    @staticmethod
    def dense_terms(alg, i, k):
        """The four brackets of N(e_i, e_k) from dense vectors, with
        [x, y] = (0, A (x_0 y' - y_0 x')): [Jx, Jy], [x, y], J[Jx, y], J[x, Jy]."""
        dim = alg.dim
        dense_a, dense_j = dense_of(alg.A), dense_of(alg.J)

        def bracket(x, y):
            return (0,) + tuple(
                sum(a * (x[0] * y[c + 1] - y[0] * x[c + 1]) for c, a in enumerate(row))
                for row in dense_a
            )

        def apply_j(x):
            return tuple(sum(dense_j[r][c] * x[c] for c in range(dim)) for r in range(dim))

        x, y = (tuple(int(t == s) for t in range(dim)) for s in (i, k))
        jx, jy = apply_j(x), apply_j(y)
        return (
            bracket(jx, jy),
            bracket(x, y),
            apply_j(bracket(jx, y)),
            apply_j(bracket(x, jy)),
        )

    @classmethod
    def dense_nijenhuis_vanishes(cls, alg):
        """N on every basis pair from dense vectors."""
        for i, k in combinations(range(alg.dim), 2):
            if any(t[0] - t[1] - t[2] - t[3] for t in zip(*cls.dense_terms(alg, i, k))):
                return False
        return True

    @staticmethod
    def variants(alg):
        """alg; A and J both conjugated by P = I + E_{2,3}; and the old A
        with the conjugated J.

        P fixes e_0 and the ideal, so the second is an isomorphic, still
        integrable structure whose J is not a signed permutation; pairing
        the new J with the old A need not be integrable.
        """
        dim = alg.dim
        p = [[int(r == s) + int((r, s) == (2, 3)) for s in range(dim)] for r in range(dim)]
        p_inv = [[int(r == s) - int((r, s) == (2, 3)) for s in range(dim)] for r in range(dim)]
        ad = [[0] * dim] + [[0] + list(row) for row in dense_of(alg.A)]

        def conj(m):
            return RationalMatrix(p).mul(RationalMatrix(m)).mul(RationalMatrix(p_inv)).data

        new_a = tuple(tuple(row[1:]) for row in conj(ad)[1:])
        new_j = tuple(tuple(row) for row in conj(dense_of(alg.J)))
        assert any(sum(1 for x in row if x) > 1 for row in new_j)
        new_a, new_j = columns_of(new_a), columns_of(new_j)
        return alg, AlgebraModel(dim, new_a, new_j), AlgebraModel(dim, alg.A, new_j)

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The pair lists that nijenhuis_vanishes evaluates N on, one per call."""
        calls = []
        real = model_module._nijenhuis_pairs

        def spy(*args):
            pairs = list(real(*args))
            calls.append(pairs)
            return pairs

        monkeypatch.setattr(model_module, "_nijenhuis_pairs", spy)
        return calls

    @pytest.mark.parametrize("n", range(1, 5))
    def test_sparse_matches_dense_formula(self, n):
        verdicts = set()
        for c in enumerate_models(n):
            alg, conjugated, mixed = self.variants(build_algebra(c))
            for variant in (alg, conjugated, mixed):
                expected = self.dense_nijenhuis_vanishes(variant)
                assert nijenhuis_vanishes(variant) == expected
                verdicts.add(expected)
            assert nijenhuis_vanishes(conjugated)
        assert n == 1 or False in verdicts  # non-integrable pairs were compared too

    def assert_skipped_pairs_zero(self, alg, evaluated):
        """Every pair the last check left out has all four brackets zero,
        so N vanishes there whatever the coefficients."""
        pairs = set(evaluated[-1])
        for i, k in combinations(range(alg.dim), 2):
            if (i, k) not in pairs:
                assert not any(any(t) for t in self.dense_terms(alg, i, k))

    def test_random_structures_match_dense_formula(self, evaluated):
        # random integer A, and random integer J with up to three nonzeros
        # per column and some zero columns; J^2 = -1 is not required
        rng = random.Random(1212)
        verdicts = Counter()
        for _ in range(300):
            dim = rng.randint(2, 7)
            a = tuple(
                tuple(rng.choice((0, 0, 0, 0, 0, 0, 1, -1, 2)) for _ in range(dim - 1))
                for _ in range(dim - 1)
            )
            j = [[0] * dim for _ in range(dim)]
            zero_cols = set(rng.sample(range(dim), rng.randint(0, dim // 2)))
            for c in set(range(dim)) - zero_cols:
                for r in rng.sample(range(dim), rng.randint(1, min(3, dim))):
                    j[r][c] = rng.choice((1, -1, 2, -3))
            alg = AlgebraModel(dim, columns_of(a), columns_of(j))
            expected = self.dense_nijenhuis_vanishes(alg)
            assert nijenhuis_vanishes(alg) == expected
            self.assert_skipped_pairs_zero(alg, evaluated)
            verdicts[expected] += 1
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_skipped_pairs_are_zero(self, n, evaluated):
        for c in enumerate_models(n):
            for alg in self.variants(build_algebra(c)):
                nijenhuis_vanishes(alg)
                self.assert_skipped_pairs_zero(alg, evaluated)

    @pytest.mark.parametrize("j", [1, 41])
    def test_evaluated_pairs_linear_in_dim(self, j, evaluated):
        # a single block of size 40: O(dim) pairs instead of dim(dim-1)/2 = 3321
        alg = build_algebra(model_of([40], j))
        assert nijenhuis_vanishes(alg)
        (pairs,) = evaluated
        assert 0 < len(pairs) <= 4 * alg.dim


class TestNilpotencyStep:
    def test_heisenberg(self):
        assert nilpotency_step(model_of([1], 2)) == 2

    @pytest.mark.parametrize("n", range(2, 6))
    def test_single_block_family(self, n):
        assert nilpotency_step(model_of([n], n + 1)) == n + 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_matrix_power(self, n):
        for c in enumerate_models(n):
            alg = build_algebra(c)
            assert nilpotency_step(c) == len(power_ranks(a_rows(alg))) + 1


class TestStableSeries:
    def test_heisenberg_filtration(self):
        c = model_of([1], 2)
        alg = build_algebra(c)
        terms = stable_series(alg, c)
        assert [t.dim for t in terms] == [0, 2, 4]
        centre = terms[1]
        assert centre == coordinate_span(alg.dim, (2, 3))

    def test_no_overlap_uses_descending_series(self):
        c = model_of([2], 1)
        alg = build_algebra(c)
        terms = stable_series(alg, c)
        assert [t.dim for t in terms] == [0, 2, 6]
        # C^1 is spanned by the images of the adjoint matrix (chain ends)
        assert terms[1] == coordinate_span(alg.dim, (3, 5))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_models_pass(self, n):
        for c in enumerate_models(n):
            terms = stable_series(build_algebra(c), c)
            assert terms[0].dim == 0 and terms[-1].dim == c.dim
            dims = [t.dim for t in terms]
            assert dims == sorted(set(dims))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_fraction_reference(self, n):
        for c in enumerate_models(n):
            alg = build_algebra(c)
            terms = stable_series(alg, c)
            ref = reference_series(alg, c)
            assert len(terms) == len(ref), c
            for term, rows in zip(terms, ref):
                assert term == Subspace(alg.dim, rows), c
                # the integer rows are the rational RREF rows times their
                # least common denominator
                for row, frow in zip(term.basis, rows):
                    scale = lcm(*(x.denominator for x in frow))
                    assert row == tuple(int(x * scale) for x in frow), c

    def test_no_fraction_on_the_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Fraction created")

        models = [c for n in range(1, 4) for c in enumerate_models(n)]
        algebras = [build_algebra(c) for c in models]
        monkeypatch.setattr(Fraction, "__new__", staticmethod(forbidden))
        if hasattr(Fraction, "_from_coprime_ints"):
            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(forbidden))
        with pytest.raises(AssertionError, match="Fraction created"):
            Fraction(1, 2)
        for c, alg in zip(models, algebras):
            stable_series(alg, c)

    def test_not_nilpotent_raises_stabilised(self):
        bad, c = not_nilpotent_algebra()
        with pytest.raises(StableSeriesError, match="stabilised"):
            stable_series(bad, c)

    def test_not_nilpotent_stops_without_subspace_equality(self, monkeypatch):
        # the descending series stops on dimension, so its termination does
        # not rest on Subspace rows being canonical; the patched equality
        # fails the test after a bounded number of calls instead of looping
        calls = []

        def never_equal(self, other):
            calls.append(other)
            if len(calls) > 100:
                raise AssertionError("Subspace equality called %d times" % len(calls))
            return False

        monkeypatch.setattr(model_module.Subspace, "__eq__", never_equal)
        bad, c = not_nilpotent_algebra()
        with pytest.raises(StableSeriesError, match="stabilised"):
            stable_series(bad, c)

    def test_detects_broken_j(self):
        bad, c = broken_j_algebra()
        with pytest.raises(StableSeriesError):
            stable_series(bad, c)


class TestStableSeriesEveryImage:
    """stable_series tests A v for each basis vector v, and the nonzero
    columns of A once per step when some v has v_0 != 0; the reference
    tests all dim ad images of every basis vector and applies J densely."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_models_agree(self, n):
        for c in enumerate_models(n):
            alg = build_algebra(c)
            assert stable_series(alg, c) == every_image_series(alg, c), c

    @pytest.mark.parametrize("build", [not_nilpotent_algebra, broken_j_algebra])
    def test_bad_algebras_agree(self, build):
        bad, c = build()
        got = series_outcome(stable_series, bad, c)
        assert got == series_outcome(every_image_series, bad, c)
        assert str(got).startswith("StableSeriesError")

    def test_column_reached_only_through_x0(self, monkeypatch):
        """A term holding e_0 whose A v all lie in the previous term, while
        the one nonzero column of A, [e_2, e_0] = -e_3, does not.

        The series stable_series computes is central by construction, so
        the descending series is replaced by 0 < T < g with
        T = span(e_0, e_1, e_3, e_5), J-invariant for the J of q = [2],
        j = 1, and A = the single entry e_2 -> e_3.  A kills every basis
        vector of T, so only the column test sees that [g, T] is not 0;
        the step T < g is central, as [g, g] = span(e_3) lies in T.
        """
        c = model_of([2], 1)
        dim = c.dim
        a = [[0] * (dim - 1) for _ in range(dim - 1)]
        a[2][1] = 1
        bad = AlgebraModel(dim=dim, A=columns_of(a), J=build_algebra(c).J)
        middle = coordinate_span(dim, (0, 1, 3, 5))
        series = [Subspace.full(dim), middle, Subspace(dim)]
        for v in middle.basis:
            assert every_ad_image(bad, v)[0] == (0,) * dim
        monkeypatch.setattr(model_module, "_descending_series", lambda alg, ad_span: series)
        with pytest.raises(StableSeriesError, match="quotient step is not central"):
            stable_series(bad, c)
        with pytest.raises(StableSeriesError, match="quotient step is not central"):
            every_image_series(bad, c, descending=series)


class TestStructureEquations:
    def test_heisenberg(self):
        eqs = structure_equations(model_of([1], 2))
        assert eqs.generators == ("alpha", "beta0_1")
        assert eqs.rules == (
            ("alpha", ()),
            ("beta0_1", ((1, (("alpha", False), ("alpha", True))),)),
        )

    def test_single_chain_no_overlap(self):
        eqs = structure_equations(model_of([2], 1))
        assert eqs.generators == ("alpha", "beta1_1", "beta1_2")
        rules = dict(eqs.rules)
        assert [name for name, _ in eqs.rules] == list(eqs.generators)
        assert rules["beta1_1"] == ()
        assert rules["beta1_2"] == (
            (1, (("alpha", False), ("beta1_1", False))),
            (1, (("alpha", True), ("beta1_1", False))),
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_generator_count(self, n):
        for c in enumerate_models(n):
            assert len(structure_equations(c).generators) == n + 1

    @pytest.mark.parametrize("n", range(1, 5))
    def test_consistent_with_algebra(self, n):
        """The stated differentials hold for the explicit coordinates of the
        generators inside the complexified dual of the built algebra."""
        for c in enumerate_models(n):
            alg = build_algebra(c)
            eqs = structure_equations(c)
            coords = generator_coordinates(c)
            for gen, rule in eqs.rules:
                got = d_of_coordinates(alg, coords[gen])
                expect = {}
                for coef, (f1, f2) in rule:
                    u = coords[f1[0]]
                    v = coords[f2[0]]
                    if f1[1]:
                        u = tuple(conj(x) for x in u)
                    if f2[1]:
                        v = tuple(conj(x) for x in v)
                    for key, val in wedge_pairs(u, v).items():
                        expect[key] = cadd(expect.get(key, CZERO), cscale(coef, val))
                expect = {k: v for k, v in expect.items() if v != CZERO}
                assert got == expect, (c, gen)



# sha256 over A, J, the structure equations and the generator coordinates
# of the 178 models with n <= 8, in enumeration order, taken while each of
# the three builders still worked out the chain layout on its own, and
# while build_algebra still wrote A and J as dense tuples of rows; the
# digest hashes the dense matrices rebuilt from the stored columns
BUILDER_DIGEST = "5aec5d6d80479cb1e9ee3e2eaf8aa05eae35038d372a7c0a7226e0b5f96e5954"


def test_builders_are_pinned():
    # The pin is the one guard against J's rows stored as its columns:
    # that stores J^T = -J, and -J is a complex structure integrable
    # exactly when J is, so every verify check accepts it.  A stored
    # transposed is caught elsewhere, by nijenhuis and stable_series.
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 9):
        for c in enumerate_models(n):
            alg, eqs = build_algebra(c), structure_equations(c)
            coords = sorted(generator_coordinates(c).items())
            a, j = dense_of(alg.A), dense_of(alg.J)
            digest.update(repr((str(c), a, j, eqs.generators, eqs.rules, coords)).encode())
            count += 1
    assert count == 178
    assert digest.hexdigest() == BUILDER_DIGEST


class TestCommutator:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_dimension_one_iff_heisenberg_plus_abelian(self, n):
        for c in enumerate_models(n):
            alg = build_algebra(c)
            expected_type = Partition([2] + [1] * (2 * n - 1))
            assert (RationalMatrix(dense_of(alg.A)).rank() == 1) == (c.m == expected_type)
