"""Exact linear algebra over the rationals.

Everything here works on plain Python ints and fractions.Fraction, so
all results are exact; no floating point is used anywhere.  Echelon
forms, kernels and subspaces are kept as primitive integer rows, so no
Fraction arises on integer input.  Every rank goes through one kernel:
a fraction-free sparse elimination.  It first peels structural
singletons without arithmetic (a column with one active row, a row with
one entry), as structured Gaussian elimination does, and then
eliminates the core that remains with the pivot column taken from a
lazy min-heap keyed by the number of active rows (Markowitz-style).
Core rows are updated in place, and a row is divided by its content
only after an update whose pivot is not +-1, the only step that scales
it.  Dense matrices are passed to it as sparse rows; the test suite
cross-checks it against textbook Gaussian elimination over Fraction.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class NotNilpotentError(ValueError):
    """Raised when a matrix expected to be nilpotent is not."""


class RationalMatrix:
    """Dense matrix with exact entries (int or Fraction)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = [list(row) for row in data]
        rows = len(data)
        if rows:
            cols = len(data[0])
            for row in data:
                if len(row) != cols:
                    raise ValueError("ragged rows")
                for x in row:
                    if type(x) is not int and (
                        not isinstance(x, (int, Fraction)) or isinstance(x, bool)
                    ):
                        raise ValueError("entries must be int or Fraction, got %r" % (x,))
        elif cols is None:
            cols = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable; build a new one")

    def __repr__(self):
        return "RationalMatrix(%d x %d)" % (self.rows, self.cols)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = self.data[i]
            out.append(
                [
                    sum(row[k] * other.data[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
            )
        return RationalMatrix(out, cols=other.cols)

    def _integer_rows(self):
        """Rows rescaled to integers (rank preserving)."""
        return [_integer_vector(row) for row in self.data]

    def rank(self):
        """Exact rank over Q, by fraction-free sparse elimination."""
        rows = [{j: x for j, x in enumerate(row) if x} for row in self._integer_rows()]
        return _rank_sparse([row for row in rows if row])

    def nullspace(self):
        """Basis of the right kernel, as primitive integer tuples.

        One vector per free column f of the echelon form: it has the
        common multiple L of the pivots at f, -row[f] * L / pivot at each
        pivot column, and zeros elsewhere.
        """
        rows, pivots = echelon(self._integer_rows(), self.cols)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            scale = lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[free]))
            vec = [0] * self.cols
            vec[free] = scale
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[free] * scale // row[pc]
            basis.append(_primitive(vec))
        return basis


def _integer_vector(vec):
    """A vector of ints and Fractions scaled by its least common denominator."""
    if set(map(type, vec)) <= {int}:
        return list(vec)
    denom = lcm(*(x.denominator for x in vec))
    return [int(x * denom) for x in vec]


def _primitive(vec):
    """An integer vector divided by the gcd of its entries, as a tuple."""
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def echelon(vectors, d):
    """Canonical reduced echelon basis of the span of integer vectors in Z^d.

    Returns (rows, pivots): each row is primitive, with a positive entry
    at its pivot column and zeros at every other pivot column, so it is
    the reduced row echelon row over Q times its least common
    denominator.  Elimination is fraction-free: a row update is the
    integer cross-multiplication p * row - a * pivot_row with p > 0,
    divided by the gcd of the result, so no sign changes after a row
    becomes a pivot row.  Inputs are made primitive, with a positive
    first entry, and deduplicated first.
    """
    pending = {}
    for v in vectors:
        if any(v):
            v = _primitive(v)
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
        pending = [_eliminate(row, c, prow, p) if row[c] else row for row in pending]
        pending = [row for row in pending if any(row)]
        done = [(pc, _eliminate(row, c, prow, p) if row[c] else row) for pc, row in done]
        done.append((c, prow))
    return [row for _, row in done], [pc for pc, _ in done]


def _eliminate(row, c, prow, p):
    """p * row - row[c] * prow, made primitive: zero at column c."""
    a = row[c]
    return _primitive([p * x - a * y for x, y in zip(row, prow)])


def _rank_sparse(rows):
    """Fraction-free sparse elimination of integer rows.

    Takes ownership of `rows`, a list of {column: int} dicts without
    zero entries: both stages change them in place.

    A first stage pivots on structural singletons without arithmetic,
    as structured Gaussian elimination does: a column with one active
    row removes that row, and a row with one entry removes its column
    from every other row.  Each peel can make new singletons, so both
    run off work stacks (stale entries are skipped) until neither has
    work; a row emptied by a removal is dropped.

    The core that remains is eliminated with pivots chosen in the
    column with fewest active rows (ties: the lowest column index) and
    then in the shortest row, which keeps fill-in low on the very
    sparse differential matrices this is used for.  The pivot column
    comes from a lazy min-heap of (active rows, column): each pivot
    step pushes a fresh entry for every column whose count it changed,
    and a popped entry whose count is out of date is dropped.  The
    pivot row is negated if needed, so that its pivot p is positive, and
    every other active row, with entry a in the pivot column, becomes
    p * row - a * pivot_row in place: it is scaled only when p != 1, the
    subtraction visits the pivot row's columns only, and only a scaled
    row is then divided by its content.  Most pivots on the differential
    matrices are +-1, and their updates neither scale nor divide.
    """
    rows = {i: row for i, row in enumerate(rows) if row}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    col_stack = [j for j, s in cols.items() if len(s) == 1]
    row_stack = [i for i, row in rows.items() if len(row) == 1]
    rank = 0
    while col_stack or row_stack:
        if col_stack:
            active = cols.get(col_stack.pop())
            if active is None or len(active) != 1:
                continue
            i = active.pop()
            for j in rows.pop(i):
                s = cols[j]
                s.discard(i)
                if len(s) == 1:
                    col_stack.append(j)
                elif not s:
                    del cols[j]
        else:
            i = row_stack.pop()
            row = rows.get(i)
            if row is None or len(row) != 1:
                continue
            (c,) = row
            del rows[i]
            for r in cols.pop(c):
                if r != i:
                    other = rows[r]
                    del other[c]
                    if len(other) == 1:
                        row_stack.append(r)
                    elif not other:
                        del rows[r]
        rank += 1
    heap = [(len(s), j) for j, s in cols.items()]
    heapify(heap)
    while rows:
        count, c = heappop(heap)
        active = cols.get(c)
        if active is None or len(active) != count:
            continue
        pr = min(active, key=lambda i: (len(rows[i]), abs(rows[i][c]), i))
        del cols[c]
        active.discard(pr)
        prow = rows.pop(pr)
        p = prow.pop(c)
        for j in prow:
            cols[j].discard(pr)
        if p < 0:
            p = -p
            prow = {j: -x for j, x in prow.items()}
        for i in active:
            row = rows[i]
            a = row.pop(c)
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, x in prow.items():
                if j in row:
                    v = row[j] - a * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        cols[j].discard(i)
                else:
                    row[j] = -a * x
                    cols[j].add(i)
            if not row:
                del rows[i]
            elif p != 1:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        for j in prow:
            s = cols[j]
            if s:
                heappush(heap, (len(s), j))
            else:
                del cols[j]
        rank += 1
    return rank


def sparse_rank(row_dicts):
    """Exact rank of a matrix given as per-row {column: int} dicts; the
    kernel works on copies, so the caller's dicts are left unchanged."""
    clean = []
    for row in row_dicts:
        # dict() copies at C speed; only a row holding a zero is filtered
        entries = {j: x for j, x in row.items() if x} if 0 in row.values() else dict(row)
        if entries:
            clean.append(entries)
    if not clean:
        return 0
    return _rank_sparse(clean)


def jordan_block(k):
    """The k x k nilpotent lower triangular Jordan block (ones below the diagonal)."""
    return RationalMatrix(
        [[1 if j == i - 1 else 0 for j in range(k)] for i in range(k)], cols=k
    )


def power_ranks(matrix):
    """Ranks of successive powers of a nilpotent matrix, until the zero power.

    Returns [rank(M), rank(M^2), ...] for the nonzero powers; the zero
    matrix gives [].  Raises NotNilpotentError when the rank sequence
    stops strictly decreasing before reaching zero.
    """
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


def jordan_type_from_ranks(n, powers):
    """Jordan type of a nilpotent n x n matrix from power_ranks: there are
    r_{i-1} - 2 r_i + r_{i+1} blocks of size i, with r_0 = n and r_k = 0
    past the nilpotency index."""
    ranks = [n] + list(powers) + [0, 0]
    blocks = []
    for i in range(1, len(ranks) - 1):
        for _ in range(ranks[i - 1] - 2 * ranks[i] + ranks[i + 1]):
            blocks.append(i)
    return sorted(blocks, reverse=True)


class Subspace:
    """Subspace of Q^d, stored by a reduced row-echelon basis.

    The basis rows are primitive integer rows (see `echelon`), which are
    canonical, so equality of subspaces is structural equality of the
    stored rows.  Vectors may hold ints or Fractions; Fraction vectors
    are scaled to integers first.
    """

    __slots__ = ("d", "basis", "pivots")

    def __init__(self, d, vectors=()):
        vectors = [_integer_vector(v) for v in vectors]
        for v in vectors:
            if len(v) != d:
                raise ValueError("vector length != ambient dimension")
        rows, pivots = echelon(vectors, d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "basis", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    @classmethod
    def full(cls, d):
        return cls(d, RationalMatrix.identity(d).data)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        """Membership, by integer elimination against the echelon rows."""
        if len(vec) != self.d:
            raise ValueError("vector length != ambient dimension")
        vec = _integer_vector(vec)
        for row, pc in zip(self.basis, self.pivots):
            f = vec[pc]
            if f:
                p = row[pc]
                vec = [p * a - f * b for a, b in zip(vec, row)]
        return not any(vec)

    def __le__(self, other):
        return all(other.contains(v) for v in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.d == other.d and self.basis == other.basis

    def __hash__(self):
        return hash((self.d, self.basis))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.d)

    def sum(self, other):
        if self.d != other.d:
            raise ValueError("ambient dimensions differ")
        return Subspace(self.d, list(self.basis) + list(other.basis))
