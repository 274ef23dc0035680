import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest

from almostabelian import exactla
from almostabelian.exactla import (
    NotNilpotentError,
    RationalMatrix,
    Subspace,
    graded_jordan_type,
    jordan_block,
    jordan_type_from_ranks,
    power_ranks,
    sparse_rank,
)
from almostabelian.exactla import _pivot_rows


def naive_gaussian_rank(data):
    """Independent oracle: textbook Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in data]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nrows):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def kernel_rank(data):
    """The rank kernel on a dense integer matrix, passed as nonzero sparse rows."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in data]
    return len(_pivot_rows([row for row in rows if row]))


def transposed(data):
    return [list(col) for col in zip(*data)]


def column(vec):
    """A vector as a one-column matrix."""
    return RationalMatrix([[x] for x in vec])


def random_int_matrix(rng, rows, cols, lo=-4, hi=4, density=1.0):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


class TestRank:
    def test_identity(self):
        assert RationalMatrix.identity(3).rank() == 3

    def test_jordan_block_rank(self):
        for k in range(1, 8):
            assert jordan_block(k).rank() == k - 1

    def test_empty_and_zero(self):
        assert RationalMatrix([], cols=5).rank() == 0
        assert RationalMatrix([[0] * 4 for _ in range(3)]).rank() == 0

    def test_fraction_entries(self):
        m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]])
        assert m.rank() == 2
        singular = RationalMatrix([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
        assert singular.rank() == 1

    def test_random_20x20_two_elimination_orders(self):
        rng = random.Random(2024)
        for _ in range(5):
            data = random_int_matrix(rng, 20, 20)
            m = RationalMatrix(data)
            # transposing swaps the roles of row and column pivoting
            assert m.rank() == RationalMatrix(transposed(data)).rank()

    def test_rank_plus_kernel_is_cols(self):
        rng = random.Random(9)
        for _ in range(20):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = RationalMatrix(random_int_matrix(rng, rows, cols, density=0.7))
            assert m.rank() + len(m.nullspace()) == cols

    def test_invariance_under_permutation_and_transpose(self):
        rng = random.Random(31)
        for _ in range(10):
            data = random_int_matrix(rng, 6, 7, density=0.6)
            m = RationalMatrix(data)
            r = m.rank()
            shuffled = data[:]
            rng.shuffle(shuffled)
            assert RationalMatrix(shuffled).rank() == r
            assert RationalMatrix(transposed(data)).rank() == r

    def test_kernel_matches_naive_gaussian_up_to_30(self):
        rng = random.Random(77)
        for size in (5, 10, 18, 25, 30):
            data = random_int_matrix(rng, size, size, density=0.5)
            assert kernel_rank(data) == naive_gaussian_rank(data)
            assert RationalMatrix(data).rank() == naive_gaussian_rank(data)
        # rank-deficient by construction: repeat and combine rows
        base = random_int_matrix(rng, 4, 9)
        data = base + [[a + b for a, b in zip(base[0], base[2])] for _ in range(3)]
        assert kernel_rank(data) == naive_gaussian_rank(data)

    def test_sparse_matches_dense_paths(self):
        rng = random.Random(123)
        for _ in range(25):
            rows, cols = rng.randint(1, 25), rng.randint(1, 25)
            data = random_int_matrix(rng, rows, cols, density=0.25)
            expected = naive_gaussian_rank(data)
            assert RationalMatrix(data).rank() == expected
            assert kernel_rank(data) == expected
            assert sparse_rank([dict(enumerate(row)) for row in data]) == expected

    def test_permuted_block_diagonal(self):
        # Column counts fall block by block, so the heap holds many
        # entries whose count has gone stale by the time they are popped.
        rng = random.Random(4242)
        for _ in range(12):
            sizes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(2, 6))]
            nrows = sum(r for r, _ in sizes)
            ncols = sum(c for _, c in sizes)
            data = [[0] * ncols for _ in range(nrows)]
            r0 = c0 = 0
            for r, c in sizes:
                block = random_int_matrix(rng, r, c, lo=-3, hi=3, density=0.6)
                for i in range(r):
                    data[r0 + i][c0 : c0 + c] = block[i]
                r0, c0 = r0 + r, c0 + c
            row_perm = rng.sample(range(nrows), nrows)
            col_perm = rng.sample(range(ncols), ncols)
            permuted = [[data[i][j] for j in col_perm] for i in row_perm]
            expected = naive_gaussian_rank(data)
            assert naive_gaussian_rank(permuted) == expected
            assert kernel_rank(permuted) == expected
            assert RationalMatrix(permuted).rank() == expected

    def test_repeated_and_combined_rows(self):
        # Eliminating copies and combinations of a pivot row empties rows
        # and columns mid-step, which leaves stale heap entries behind.
        rng = random.Random(606)
        for _ in range(15):
            cols = rng.randint(2, 14)
            base = random_int_matrix(rng, rng.randint(1, 6), cols, lo=-3, hi=3, density=0.5)
            data = [row[:] for row in base]
            for _ in range(rng.randint(1, 10)):
                a, b = rng.choice(base), rng.choice(base)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                data.append([s * x + t * y for x, y in zip(a, b)])
            data.extend(row[:] for row in rng.sample(base, len(base)))
            rng.shuffle(data)
            expected = naive_gaussian_rank(base)
            assert naive_gaussian_rank(data) == expected
            assert kernel_rank(data) == expected
            assert RationalMatrix(data).rank() == expected

    def test_sparse_rank_helper(self):
        assert sparse_rank([]) == 0
        assert sparse_rank([{0: 1, 2: -1}, {0: 2, 2: -2}, {1: 5}]) == 2

    def test_large_sparse_matrix(self):
        rng = random.Random(5150)
        data = random_int_matrix(rng, 80, 90, lo=-2, hi=2, density=0.04)
        m = RationalMatrix(data)
        assert m.rank() == naive_gaussian_rank(data)


def staircase(n):
    """Rows e_k + e_{k+1} (k < n-1) and e_{n-1}, plus a row of ones, so
    every column has two rows and only the row e_{n-1} has one entry.
    Rank n: the row of ones lies in the span of the others."""
    data = [[int(c in (k, k + 1)) for c in range(n)] for k in range(n)]
    return data + [[1] * n]


def peelable(rng, core, layers):
    """A dense core in which every row and column has several entries,
    grown by layers: a row with a new private column, or a row with one
    entry on a new column that is also added to some earlier rows, with
    rows and columns shuffled at the end."""
    data = random_int_matrix(rng, core, core, lo=1, hi=3)
    ncols = core
    for _ in range(layers):
        for row in data:
            row.append(0)
        if rng.random() < 0.5:
            data.append([rng.choice((0, 0, 1, -2)) for _ in range(ncols)] + [rng.randint(1, 3)])
        else:
            for row in rng.sample(data, rng.randint(0, len(data))):
                row[ncols] = rng.randint(-3, 3)
            data.append([0] * ncols + [rng.randint(1, 3)])
        ncols += 1
    rng.shuffle(data)
    perm = rng.sample(range(ncols), ncols)
    return [[row[j] for j in perm] for row in data]


class TestSingletonPeel:
    """Matrices with structural singletons, columns with one row and
    rows with one entry, in chains and around a dense core: the kernel
    reduces them like any other rows, and its rank is the Fraction
    elimination's."""

    def test_seeded_sparse(self):
        rng = random.Random(1990)
        for _ in range(60):
            rows, cols = rng.randint(1, 30), rng.randint(1, 30)
            data = random_int_matrix(rng, rows, cols, lo=-3, hi=3, density=0.12)
            expected = naive_gaussian_rank(data)
            assert kernel_rank(data) == expected
            assert kernel_rank(transposed(data)) == expected

    @pytest.mark.parametrize("n", (1, 2, 5, 12))
    def test_chains_of_row_and_column_singletons(self, n):
        data = staircase(n)
        assert naive_gaussian_rank(data) == n
        assert kernel_rank(data) == n
        # transposed, no row has one entry and each column has at most two
        assert kernel_rank(transposed(data)) == n

    @pytest.mark.parametrize("core", (0, 1, 2, 4))
    def test_cores_left_to_the_heap(self, core):
        # a core of 0 or 1 is all singleton layers; 2 and 4 add a dense core
        rng = random.Random(core)
        for _ in range(20):
            data = peelable(rng, core, rng.randint(1, 12))
            expected = naive_gaussian_rank(data)
            assert kernel_rank(data) == expected
            assert kernel_rank(transposed(data)) == expected

    def test_duplicate_rows(self):
        # a duplicate row reduces to empty against its first copy, for
        # rows of one entry and longer ones alike
        assert kernel_rank([[0, 3, 0], [0, 3, 0]]) == 1
        assert kernel_rank([[1, 2, 0], [1, 2, 0], [0, 0, 5], [0, 0, 5], [0, 4, 0]]) == 3
        rng = random.Random(77)
        for _ in range(20):
            base = random_int_matrix(rng, rng.randint(1, 8), rng.randint(1, 10), density=0.2)
            data = base + [row[:] for row in base]
            rng.shuffle(data)
            assert kernel_rank(data) == naive_gaussian_rank(base)

    def test_sparse_rank_leaves_its_input_alone(self):
        rng = random.Random(5)
        data = random_int_matrix(rng, 12, 10, lo=-2, hi=2, density=0.2) + staircase(10)
        # rows holding zeros, which sparse_rank filters into copies, then
        # the same rows without them, which the kernel copies only to reduce
        rows = [dict(enumerate(row)) for row in data]
        rows += [{j: x for j, x in row.items() if x} for row in rows]
        copies = [dict(row) for row in rows]
        assert sparse_rank(rows) == naive_gaussian_rank(data)
        assert rows == copies


def no_singleton_pattern(rng, rows, cols, density):
    """A random 0/1 matrix in which every row has two entries or more and
    every column two rows or more, so no row or column is a structural
    singleton.  Entries are added to short rows, then to short columns,
    which only lengthens rows."""
    data = random_int_matrix(rng, rows, cols, lo=1, hi=1, density=density)
    for row in data:
        if sum(row) < 2:
            for j in rng.sample(range(cols), 2):
                row[j] = 1
    for j in range(cols):
        if sum(row[j] for row in data) < 2:
            for i in rng.sample(range(rows), 2):
                data[i][j] = 1
    return data


def assert_sparse_rank_agrees(data):
    """sparse_rank of the matrix and of its transpose, as dicts without
    zeros, equal the Fraction elimination, and the dicts are unchanged."""
    expected = naive_gaussian_rank(data)
    for matrix in (data, transposed(data)):
        rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
        copies = [dict(row) for row in rows]
        assert sparse_rank(rows) == expected
        assert rows == copies


class TestCoreUpdate:
    """Reduction steps against a stored pivot p: a row is reduced
    without scaling when p divides its entry, as +-1 always does, and is
    otherwise scaled and then divided by its content."""

    @pytest.mark.parametrize("pivot", (1, -1, 2, -3))
    def test_first_core_pivot(self, pivot):
        # every entry is `pivot` times an integer, and stays so under the
        # reduction steps: a step against a stored pivot of `pivot`
        # itself never scales, one against a larger multiple of it may
        rng = random.Random(pivot)
        for _ in range(40):
            pattern = no_singleton_pattern(rng, rng.randint(2, 9), rng.randint(2, 9), 0.45)
            assert_sparse_rank_agrees([[pivot * x for x in row] for row in pattern])

    def test_patterns_leave_nothing_to_peel(self):
        rng = random.Random(3)
        for _ in range(100):
            data = no_singleton_pattern(rng, rng.randint(2, 14), rng.randint(2, 14), 0.3)
            assert all(sum(row) >= 2 for row in data)
            assert all(sum(col) >= 2 for col in zip(*data))

    def test_seeded_mixed_pivots(self):
        rng = random.Random(1990)
        for _ in range(150):
            pattern = no_singleton_pattern(rng, rng.randint(2, 14), rng.randint(2, 14), 0.3)
            assert_sparse_rank_agrees(
                [[rng.choice((1, -1, 2, -3)) * x for x in row] for row in pattern]
            )


class TestEchelonPass:
    """The kernel's contract: rows are reduced in the order given at their
    lowest column against the stored pivot rows, the rank is the number
    of rows stored, and no dict given is written to."""

    def test_same_dict_twice(self):
        r = {0: 2, 3: -4, 5: 1}
        assert len(_pivot_rows([r, r])) == 1
        assert sparse_rank([r, r]) == 1
        assert r == {0: 2, 3: -4, 5: 1}

    @pytest.mark.parametrize(
        "data",
        (
            # pivot 2, entry 3: 2 * row - 3 * pivot_row = [0, 7, 14],
            # divided by its content 7, then the third row reduces to empty
            [[2, 1, 0], [3, 5, 7], [0, 3, 6]],
            # pivot -3, entry 2: -3 * row - 2 * pivot_row = [0, -14, -16],
            # divided by its content 2
            [[-3, 1, 2], [2, 4, 4], [0, 7, 8], [0, 0, 5]],
            [[-3, 1, 2], [2, 4, 4], [0, 7, 9]],
        ),
    )
    def test_scaled_step_divides_by_content(self, data):
        rows = [{j: x for j, x in enumerate(row) if x} for row in data]
        copies = [dict(row) for row in rows]
        assert len(_pivot_rows(rows)) == naive_gaussian_rank(data)
        assert rows == copies

    def test_row_reducing_to_empty_adds_nothing(self):
        assert kernel_rank([[1, 2], [2, 4]]) == 1
        assert kernel_rank([[2, 4, 0], [-3, -6, 0]]) == 1
        assert kernel_rank([[0, 2, 4], [1, 0, 0], [0, -3, -6], [1, 1, 2]]) == 2

    def test_seeded_wide_entries(self):
        rng = random.Random(14)
        for _ in range(80):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.choice((0.2, 0.5, 1.0))
            data = random_int_matrix(rng, rows, cols, lo=-50, hi=50, density=density)
            expected = naive_gaussian_rank(data)
            assert kernel_rank(data) == expected
            assert kernel_rank(transposed(data)) == expected


def dense_power_ranks(matrix):
    """power_ranks by dense products: each power is RationalMatrix.mul of
    the last and each rank RationalMatrix.rank, with the same errors."""
    if matrix.rows != matrix.cols:
        raise ValueError("matrix must be square")
    out = []
    power = matrix
    for _ in range(matrix.rows + 1):
        r = power.rank()
        if r == 0:
            return out
        if out and r >= out[-1]:
            raise NotNilpotentError("rank of powers stabilised at %d" % r)
        out.append(r)
        power = power.mul(matrix)
    raise NotNilpotentError("no power vanished within the dimension bound")


def integer_rows(matrix):
    """A RationalMatrix scaled by the common denominator of its entries,
    which keeps the rank of every power, as the sparse integer rows
    power_ranks takes."""
    scale = lcm(*(x.denominator for row in matrix.data for x in row if x))
    return [{j: int(x * scale) for j, x in enumerate(row) if x} for row in matrix.data]


def ranks_or_error(ranks, matrix):
    """What a power-ranks function returns on matrix, or its error."""
    try:
        return ranks(matrix)
    except ValueError as exc:
        return type(exc), str(exc)


def elementary(d, i, j, c):
    """The identity of size d with c at (i, j), i != j: row_i += c row_j."""
    return RationalMatrix(
        [[int(r == s) + c * int((r, s) == (i, j)) for s in range(d)] for r in range(d)]
    )


def conjugated(rng, core):
    """U core U^-1 for U a product of 5d random elementary operations, d >= 2."""
    d = core.rows
    for _ in range(5 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        core = elementary(d, i, j, c).mul(core).mul(elementary(d, i, j, -c))
    return core


def block_diagonal(blocks):
    d = sum(b.rows for b in blocks)
    data = [[0] * d for _ in range(d)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            data[offset + i][offset : offset + b.cols] = row
        offset += b.rows
    return RationalMatrix(data, cols=d)


def random_jordan_sizes(rng, d):
    sizes = []
    while d:
        sizes.append(rng.randint(1, d))
        d -= sizes[-1]
    return sorted(sizes, reverse=True)


class TestPowerRanks:
    def test_single_jordan_block(self):
        assert power_ranks(integer_rows(jordan_block(3))) == [2, 1]
        assert power_ranks([{}, {0: 1}, {1: 1}]) == [2, 1]
        assert jordan_type_from_ranks(3, power_ranks(integer_rows(jordan_block(3)))) == [3]

    def test_zero_matrix(self):
        z = RationalMatrix([[0] * 5 for _ in range(5)])
        assert power_ranks(integer_rows(z)) == [] == power_ranks([{}] * 5)
        assert jordan_type_from_ranks(z.rows, power_ranks([{}] * 5)) == [1, 1, 1, 1, 1]

    def test_block_sum(self):
        b3, b2 = jordan_block(3), jordan_block(2)
        data = [[0] * 5 for _ in range(5)]
        for i in range(3):
            for j in range(3):
                data[i][j] = b3.data[i][j]
        for i in range(2):
            for j in range(2):
                data[3 + i][3 + j] = b2.data[i][j]
        m = RationalMatrix(data)
        assert jordan_type_from_ranks(m.rows, power_ranks(integer_rows(m))) == [3, 2]

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            power_ranks([{0: 1}, {1: 1}, {2: 1}])
        with pytest.raises(NotNilpotentError):
            power_ranks([{1: 1}, {0: 1}])

    def test_requires_square(self):
        # sparse rows name their columns: a square matrix names none past
        # its last row
        for rows in ([{2: 1}, {}], [{}, {-1: 1}]):
            with pytest.raises(ValueError, match="square"):
                power_ranks(rows)

    def test_conjugated_jordan_matrices(self):
        # U N U^-1 spreads each Jordan matrix N over dense integer rows
        rng = random.Random(17)
        filled = []
        for _ in range(50):
            d = rng.randint(2, 8)
            sizes = random_jordan_sizes(rng, d)
            m = conjugated(rng, block_diagonal([jordan_block(k) for k in sizes]))
            expected = dense_power_ranks(m)
            assert power_ranks(integer_rows(m)) == expected
            assert jordan_type_from_ranks(d, expected) == sizes
            if sizes[0] > 1:
                filled.append(sum(1 for row in m.data for x in row if x) / d**2)
        assert min(filled) >= 0.5 and sum(filled) / len(filled) > 0.9

    def test_rational_entries(self):
        # D M D^-1 with D = diag(1, 1/2, ..., 1/d) gives mixed denominators,
        # cleared by one common scale
        rng = random.Random(18)
        for _ in range(10):
            d = rng.randint(2, 6)
            sizes = random_jordan_sizes(rng, d)
            m = conjugated(rng, block_diagonal([jordan_block(k) for k in sizes]))
            diag = [[Fraction(int(r == s), r + 1) for s in range(d)] for r in range(d)]
            inverse = [[(r + 1) * int(r == s) for s in range(d)] for r in range(d)]
            q = RationalMatrix(diag).mul(m).mul(RationalMatrix(inverse))
            assert power_ranks(integer_rows(q)) == dense_power_ranks(q)
            assert dense_power_ranks(q) == power_ranks(integer_rows(m))

    def test_errors_match_dense_reference(self):
        rng = random.Random(19)
        cases = [
            RationalMatrix([]),
            RationalMatrix.identity(3),
            RationalMatrix([[0, 1], [1, 0]]),
            # not square: a 2 x 3 matrix with an entry in its last column
            RationalMatrix([[0, 0, 1], [0, 0, 0]]),
            RationalMatrix([[Fraction(1, 2), 0], [0, 0]]),
        ]
        for _ in range(10):
            d = rng.randint(2, 6)
            jordan = [jordan_block(k) for k in random_jordan_sizes(rng, d)]
            # unipotent, and nilpotent plus an idempotent block: the ranks
            # stabilise at d and at 1
            nilpotent = block_diagonal(jordan).data
            unipotent = RationalMatrix(
                [[x + int(r == s) for s, x in enumerate(row)] for r, row in enumerate(nilpotent)]
            )
            cases.append(conjugated(rng, unipotent))
            cases.append(conjugated(rng, block_diagonal(jordan + [RationalMatrix([[1]])])))
            cases.append(RationalMatrix(random_int_matrix(rng, d, d)))
        for m in cases:
            got = ranks_or_error(lambda m: power_ranks(integer_rows(m)), m)
            assert got == ranks_or_error(dense_power_ranks, m)
            if m.rows != m.cols:
                assert got[0] is ValueError
            elif m.rows:
                assert got[0] is NotNilpotentError


def random_graded_map(rng):
    """A nilpotent map that raises a grading by one: up to seven pieces
    of one to five columns each, the columns a random labelling of
    0..d-1, and each column's image a random combination of the next
    piece's columns with entries in -3..3, dense or sparse."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 7))]
    labels = rng.sample(range(sum(sizes)), sum(sizes))
    pieces = []
    for size in sizes:
        pieces.append(labels[:size])
        labels = labels[size:]
    density = rng.choice((0.3, 0.7, 1.0))
    images = {}
    for piece, following in zip(pieces, pieces[1:]):
        for c in piece:
            images[c] = {
                t: x for t in following if rng.random() < density and (x := rng.randint(-3, 3))
            }
    return pieces, images


class TestGradedJordanType:
    """The persistence pass against the Jordan type read off the ranks of
    every power, power_ranks and jordan_type_from_ranks."""

    def test_random_graded_maps(self, monkeypatch):
        real_cancel = exactla._cancel
        passing = []
        scaled = []

        def counted_cancel(row, prow, c):
            was_scaled = real_cancel(row, prow, c)
            if passing:
                scaled.append(was_scaled)
            return was_scaled

        monkeypatch.setattr(exactla, "_cancel", counted_cancel)
        rng = random.Random(32)
        lengths = set()
        for _ in range(300):
            pieces, images = random_graded_map(rng)
            copies = {c: dict(row) for c, row in images.items()}
            d = sum(map(len, pieces))
            rows = [images.get(c, {}) for c in range(d)]
            expected = jordan_type_from_ranks(d, power_ranks(rows))
            passing.append(True)
            assert graded_jordan_type(pieces, images) == expected
            passing.pop()
            assert images == copies
            lengths.update(expected)
        # the entries in -3..3 make the pass take scaled steps, and the
        # blocks reach every length up to the number of pieces
        assert any(scaled) and not all(scaled)
        assert lengths == set(range(1, 8))

    def test_small_cases(self):
        assert graded_jordan_type([], {}) == []
        assert graded_jordan_type([[4, 2]], {}) == [1, 1]
        # a single Jordan block, and the zero map on three pieces
        assert graded_jordan_type([[0], [1], [2]], {0: {1: 5}, 1: {2: -1}}) == [3]
        assert graded_jordan_type([[0], [1], [2]], {0: {}, 1: {}}) == [1, 1, 1]
        # two chains meet: e0 -> e2 and e1 -> 2 e2, so one chain ends at
        # once, and e2 -> e3 carries the elder one on
        images = {0: {2: 1}, 1: {2: 2}, 2: {3: 1}}
        assert graded_jordan_type([[0, 1], [2], [3]], images) == [3, 1]


class TestMatrixBasics:
    def test_mul_and_apply(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        b = RationalMatrix([[0, 1], [1, 0]])
        assert a.mul(b) == RationalMatrix([[2, 1], [4, 3]])
        assert a.mul(column((1, 1))) == column((3, 7))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            RationalMatrix([[0.5]])
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_nullspace(self):
        m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
        basis = m.nullspace()
        assert len(basis) == 2
        for v in basis:
            assert m.mul(column(v)) == column((0, 0))
            assert all(type(x) is int for x in v) and gcd(*v) == 1
        assert basis == [(-2, 1, 0), (-3, 0, 1)]
        assert RationalMatrix([[2, 0, 3], [0, 4, 1]]).nullspace() == [(-6, -1, 4)]
        assert RationalMatrix([[Fraction(1, 2), Fraction(1, 3)]]).nullspace() == [(-2, 3)]

    def test_rref_pivots(self):
        m = RationalMatrix([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
        s = Subspace(m.cols, m.data)
        assert s.pivots == (0, 1)
        assert s.basis[0] == (1, 0, 0)
        assert s.basis[1] == (0, 1, 2)
        # the rational RREF row (0, 1, 2/3) times its denominator
        t = Subspace(3, [(0, -3, -2), (5, 0, 0)])
        assert (t.basis, t.pivots) == (((1, 0, 0), (0, 3, 2)), (0, 1))


class TestSubspace:
    def test_basics(self):
        s = Subspace(3, [(1, 0, 0), (1, 1, 0)])
        assert s.dim == 2
        assert s.contains((5, -3, 0))
        assert not s.contains((0, 0, 1))

    def test_equality_is_canonical(self):
        a = Subspace(3, [(1, 1, 0), (0, 2, 0)])
        b = Subspace(3, [(1, 0, 0), (3, 1, 0)])
        assert a == b

    def test_sum_and_inclusion(self):
        a = Subspace(3, [(1, 0, 0)])
        b = Subspace(3, [(0, 1, 0)])
        c = a.sum(b)
        assert a <= c and b <= c and c.dim == 2

    def test_coordinate_indices(self):
        s = Subspace(4, [(0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)])
        assert s == Subspace(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        assert not s.contains((1, 0, 0, 0))

    def test_full_and_zero(self):
        assert Subspace.full(4).dim == 4
        assert Subspace(4).dim == 0

    def test_rows_primitive_reduced_positive_pivot(self):
        rng = random.Random(11)
        for _ in range(60):
            d = rng.randint(1, 7)
            vecs = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(0, 6))]
            s = Subspace(d, vecs)
            assert s.dim == naive_gaussian_rank(vecs)
            assert list(s.pivots) == sorted(s.pivots)
            for row, pc in zip(s.basis, s.pivots):
                assert all(type(x) is int for x in row)
                assert gcd(*row) == 1
                assert row[pc] > 0
                assert all(x == 0 for x in row[:pc])
                for other in s.pivots:
                    if other != pc:
                        assert row[other] == 0
            for v in vecs:
                assert s.contains(v)

    def test_rows_are_scaled_rational_rref(self):
        # the rational RREF rows (1, 0, 1/2, -1/3) and (0, 1, 2/5, 0)
        s = Subspace(4, [(6, 0, 3, -2), (0, 5, 2, 0)])
        assert s.basis == ((6, 0, 3, -2), (0, 5, 2, 0))
        t = Subspace(4, [(Fraction(1), 0, Fraction(1, 2), Fraction(-1, 3)),
                         (6, 5, 5, -2)])
        assert t == s and hash(t) == hash(s)

    def test_equality_ignores_order_and_scaling(self):
        vecs = [(1, 2, 0, -1), (0, 3, 1, 1), (2, 1, -1, 0)]
        ref = Subspace(4, vecs)
        for perm in permutations(vecs):
            for scales in ((1, 1, 1), (-2, 3, 5), (7, -1, -4)):
                scaled = [tuple(k * x for x in v) for k, v in zip(scales, perm)]
                other = Subspace(4, scaled + [scaled[0]])
                assert other == ref and hash(other) == hash(ref)
                assert other.basis == ref.basis

    def test_contains_and_inclusion(self):
        s = Subspace(4, [(2, 0, 1, 0), (0, 3, 0, 1)])
        assert s.contains((4, 3, 2, 1))
        assert s.contains((Fraction(1), Fraction(1, 3), Fraction(1, 2), Fraction(1, 9)))
        assert not s.contains((1, 0, 0, 0))
        assert Subspace(4, [(4, 3, 2, 1)]) <= s
        assert not Subspace(4, [(4, 3, 2, 2)]) <= s
        with pytest.raises(ValueError):
            s.contains((1, 2))

    @pytest.mark.parametrize("vec", [(1.5, 0, 0), (True, 0, 0), (1, 0, False), (1, "0", 0)])
    def test_rejects_bad_dense_entries(self, vec):
        # RationalMatrix's check: a float once raised AttributeError, and
        # a bool was taken as 0 or 1
        with pytest.raises(ValueError, match="entries must be int or Fraction"):
            Subspace(3, [vec])
        with pytest.raises(ValueError, match="entries must be int or Fraction"):
            Subspace(3, [(1, 0, 0)]).contains(vec)
        with pytest.raises(ValueError, match="entries must be int or Fraction"):
            RationalMatrix([vec])


# -- the dense integer echelon the sparse core replaced, as a reference -----


def dense_primitive(vec):
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def dense_eliminate(row, c, prow, p):
    """p * row - row[c] * prow, made primitive: zero at column c."""
    a = row[c]
    return dense_primitive([p * x - a * y for x, y in zip(row, prow)])


def dense_echelon(vectors, d):
    """Canonical reduced echelon basis of the span of integer vectors in
    Z^d, by dense fraction-free elimination: (rows, pivots), each row
    primitive, positive at its pivot column and zero at every other."""
    pending = {}
    for v in vectors:
        if any(v):
            v = dense_primitive(v)
            if next(x for x in v if x) < 0:
                v = tuple(-x for x in v)
            pending[v] = None
    pending = list(pending)
    done = []
    for c in range(d):
        if not pending:
            break
        hits = [i for i, row in enumerate(pending) if row[c]]
        if not hits:
            continue
        prow = pending.pop(min(hits, key=lambda i: abs(pending[i][c])))
        p = prow[c]
        if p < 0:
            prow = tuple(-x for x in prow)
            p = -p
        pending = [dense_eliminate(row, c, prow, p) if row[c] else row for row in pending]
        pending = [row for row in pending if any(row)]
        done = [(pc, dense_eliminate(row, c, prow, p) if row[c] else row) for pc, row in done]
        done.append((c, prow))
    return [row for _, row in done], [pc for pc, _ in done]


def dense_contains(rows, pivots, vec):
    for row, pc in zip(rows, pivots):
        f = vec[pc]
        if f:
            p = row[pc]
            vec = [p * a - f * b for a, b in zip(vec, row)]
    return not any(vec)


def dense_nullspace(rows, pivots, d):
    """One primitive vector per free column f: the common multiple L of
    the pivots at f, -row[f] * L / pivot at each pivot column."""
    basis = []
    for free in range(d):
        if free in pivots:
            continue
        scale = lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[free]))
        vec = [0] * d
        vec[free] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free] * scale // row[pc]
        basis.append(dense_primitive(vec))
    return basis


def to_integers(vec):
    denom = lcm(*(Fraction(x).denominator for x in vec))
    return [int(x * denom) for x in vec]


def random_family(rng, d):
    """Up to 8 vectors in Q^d: int or Fraction entries, sparse or dense,
    with zero vectors, repeats and multiples or sums of earlier ones."""
    density = rng.choice((0.2, 0.5, 1.0))
    fractions = rng.random() < 0.3
    out = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if out and kind < 0.15:
            out.append(list(rng.choice(out)))
        elif len(out) > 1 and kind < 0.35:
            a, b = rng.sample(out, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            out.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.45:
            out.append([0] * d)
        elif fractions:
            out.append([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        if rng.random() < density else 0 for _ in range(d)])
        else:
            out.append([rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(d)])
    return out


class TestSparseCoreAgainstDenseEchelon:
    """Subspace and RationalMatrix.nullspace, on the kernel's back-substituted
    pivot rows, against the dense echelon: rows, pivots, membership, sums,
    hashes and null spaces, the null space's signs included."""

    def test_seeded_families(self):
        rng = random.Random(19)
        for _ in range(600):
            d = rng.randint(1, 9)
            vecs, others = random_family(rng, d), random_family(rng, d)
            ints = [to_integers(v) for v in vecs]
            rows, pivots = dense_echelon(ints, d)
            s = Subspace(d, vecs)
            assert s.basis == tuple(rows) and s.pivots == tuple(pivots)
            assert hash(s) == hash((d, tuple(rows)))
            sparse = [{j: x for j, x in enumerate(v) if x} for v in ints]
            assert Subspace(d, sparse) == s
            assert RationalMatrix(vecs, cols=d).nullspace() == dense_nullspace(rows, pivots, d)
            assert s.annihilator() == Subspace(d, dense_nullspace(rows, pivots, d))

            t = Subspace(d, others)
            trows, tpivots = dense_echelon([to_integers(v) for v in others], d)
            assert s.sum(t).basis == tuple(dense_echelon(rows + trows, d)[0])
            assert (s <= t) == all(dense_contains(trows, tpivots, row) for row in rows)
            probes = vecs + others + [[int(i == k) for i in range(d)] for k in range(d)]
            for v in probes:
                expected = dense_contains(rows, pivots, to_integers(v))
                assert s.contains(v) == expected
                assert s.contains({j: x for j, x in enumerate(to_integers(v)) if x}) == expected

    def test_rows_are_the_dense_rows_as_dicts(self):
        s = Subspace(5, [(0, 2, 4, 0, -2), (1, 1, 0, 0, 3), (0, 0, 0, 5, 0)])
        assert s.rows == ({0: 1, 2: -2, 4: 4}, {1: 1, 2: 2, 4: -1}, {3: 1})
        assert s.pivots == (0, 1, 3)

    def test_input_dicts_left_alone(self):
        vecs = [{0: -2, 3: 4}, {0: 3, 1: 1}, {1: -6, 2: 9}, {0: -2, 3: 4}]
        copies = [dict(v) for v in vecs]
        s = Subspace(4, vecs)
        s.contains(vecs[1])
        s.sum(Subspace(4, vecs[2:]))
        assert vecs == copies

    def test_nullspace_signs(self):
        # the free column's entry is positive, whatever the pivot rows' signs
        assert RationalMatrix([[-2, 0, 3], [0, -4, -1]]).nullspace() == [(6, -1, 4)]
        assert RationalMatrix([[0, -1, 1]]).nullspace() == [(1, 0, 0), (0, 1, 1)]
        assert RationalMatrix([], cols=2).nullspace() == [(1, 0), (0, 1)]
