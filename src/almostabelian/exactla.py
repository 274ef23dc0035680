"""Exact linear algebra over the rationals.

Everything here works on plain Python ints and fractions.Fraction, so
all results are exact; no floating point is used anywhere.  Echelon
forms, kernels and subspaces are kept as primitive integer rows, so no
Fraction arises on integer input.  Every rank goes through one kernel:
an incremental fraction-free echelon pass over sparse rows, as in the
boundary-matrix reduction of computational homology.  It keeps one
reduced row per pivot column, reduces each new row at its lowest
column against the row stored there until that column is free, and
stores what is left; the rank is the number of stored rows.  A row is
scaled, and then divided by its content, only when the pivot does not
divide its entry, so +-1 pivots cost one subtraction.  No row handed
in is written to.  Dense matrices are passed to it as sparse rows; the
test suite cross-checks it against textbook Gaussian elimination over
Fraction.
"""

from fractions import Fraction
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
        return _rank_sparse(
            [{j: x for j, x in enumerate(row) if x} for row in self._integer_rows()]
        )

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
    """Exact rank of integer rows, given as {column: int} dicts without
    zero entries, by one incremental fraction-free echelon pass.

    `pivots` maps a column to the stored row whose lowest column it is.
    The rows are taken in the order given: each is reduced at its
    lowest column c, against the pivot row stored there, until c has no
    pivot row or the row is empty, and a nonzero result is stored at c.
    The rank is the number of stored rows.  A reduction step with pivot
    p and entry a at c is exact: when p divides a, as +-1 always does,
    the row becomes row - (a // p) * pivot_row, and no other step is
    needed; otherwise it becomes (p / g) * row - (a / g) * pivot_row,
    g = gcd(a, p), and is then divided by its content.  Either way the
    step visits the pivot row's columns only.

    No dict given is written to: a row is copied just before its first
    step, an unreduced row is stored as it is, and a stored row is
    never changed.
    """
    pivots = {}
    for row in rows:
        owned = False
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            if not owned:
                row = dict(row)
                owned = True
            a = row[c]
            p = prow[c]
            f, r = divmod(a, p)
            if r:
                g = gcd(a, p)
                s = p // g
                f = a // g
                for j in row:
                    row[j] *= s
            for j, x in prow.items():
                v = row.get(j, 0) - f * x
                if v:
                    row[j] = v
                else:
                    del row[j]
            if r:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
    return len(pivots)


def sparse_rank(row_dicts):
    """Exact rank of a matrix given as per-row {column: int} dicts.

    The kernel writes to none of them, so a row is passed on as it is;
    only a row holding a zero is replaced by a filtered copy.
    """
    return _rank_sparse(
        [{j: x for j, x in row.items() if x} if 0 in row.values() else row for row in row_dicts]
    )


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
