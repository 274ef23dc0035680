"""Exact linear algebra over the rationals, in plain ints and Fractions.

One elimination kernel, one pass, four outputs: rank, canonical rows,
null space, and the Jordan type of a nilpotent map that raises a
grading by one.  The kernel is an incremental fraction-free echelon
pass over sparse rows, as in the boundary-matrix reduction of
computational homology: it reduces each new row at its lowest column
against the row stored there until that column is free, and stores
what is left.  A row is scaled, and then divided by its content, only
when the pivot does not divide its entry, so +-1 pivots cost one
subtraction, and no row handed in is written to.  The rank is the
number of stored rows.  Back-substituted, the stored rows give a
`Subspace` its canonical rows, the reduced row echelon rows over Q
each times its least common denominator, so no Fraction arises on
integer input; the null space is read off those rows.  The Jordan type
of a graded map comes from one upward persistence pass,
`graded_jordan_type`, whose images of the live chains go through the
same reduction, oldest chain first.  The tests cross-check rank, rows
and null space against textbook elimination over Fraction and the
dense integer echelon, and the Jordan type against the ranks of every
power.
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
                _check_entries(row)
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
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable; build a new one")

    def __repr__(self):
        return "RationalMatrix(%d x %d)" % (self.rows, self.cols)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = [
            [sum(row[k] * other.data[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for row in self.data
        ]
        return RationalMatrix(out, cols=other.cols)

    def rank(self):
        """Exact rank over Q, by fraction-free sparse elimination."""
        return len(_pivot_rows(self._sparse_rows()))

    def nullspace(self):
        """Basis of the right kernel, as primitive integer tuples: one
        vector per free column, positive there (see `_null_vectors`)."""
        rows = _reduced_rows(_pivot_rows(self._sparse_rows()))
        return [tuple(v.get(j, 0) for j in range(self.cols)) for v in _null_vectors(rows, self.cols)]

    def _sparse_rows(self):
        """Rows rescaled to integers (rank preserving), as {column: int} dicts."""
        return [_sparse(row, self.cols) for row in self.data]


def _check_entries(vec):
    """ValueError unless every entry is an int or a Fraction, not a bool."""
    for x in vec:
        if type(x) is not int and (not isinstance(x, (int, Fraction)) or isinstance(x, bool)):
            raise ValueError("entries must be int or Fraction, got %r" % (x,))


def _sparse(vec, d):
    """A vector of d ints and Fractions, scaled by the least common
    denominator of its entries, as a {column: int} dict without zeros;
    ValueError for any other entry."""
    if len(vec) != d:
        raise ValueError("vector length != ambient dimension")
    if not set(map(type, vec)) <= {int}:
        _check_entries(vec)
        denom = lcm(*(x.denominator for x in vec))
        vec = [int(x * denom) for x in vec]
    return {j: x for j, x in enumerate(vec) if x}


def _pivot_rows(rows):
    """The stored pivot rows of integer rows, given as {column: int}
    dicts without zero entries, by one incremental fraction-free echelon
    pass: {pivot column: stored row}, whose length is the rank.

    `pivots` maps a column to the stored row whose lowest column it is.
    The rows are taken in the order given, each stored by `_store`.
    """
    pivots = {}
    for row in rows:
        _store(row, pivots)
    return pivots


def _store(row, pivots):
    """Reduce `row` at its lowest column c against the pivot row stored
    there, until c has no pivot row or the row is empty, and store a
    nonzero result at c; returns c, or None when the row reduced to zero.
    Each reduction step is `_cancel`, exact, visiting the pivot row's
    columns only; a row it scaled is then divided by its content.

    No dict given is written to: a row is copied just before its first
    step, an unreduced row is stored as it is, and a stored row is
    never changed.
    """
    owned = False
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            pivots[c] = row
            return c
        if not owned:
            row = dict(row)
            owned = True
        if _cancel(row, prow, c):
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
    return None


def graded_jordan_type(pieces, images):
    """The Jordan type of a nilpotent map N that raises a grading by one,
    as its block sizes in descending order, from one upward persistence
    pass (Zomorodian-Carlsson, "Computing persistent homology", 2005).

    `pieces` lists the weight pieces in ascending weight, each a list of
    the columns of its basis, no column in two pieces.  `images` maps
    each column of every piece but the last to its image under N, a
    {column: int} dict without zero entries, in the columns of the next
    piece; past the last piece N is zero.  No power of N is formed.

    Each live chain keeps its birth weight and a vector in the current
    piece, oldest chain first; the columns of the first piece start one
    chain each.  Step to the next piece: each chain's image, `sparse_apply`
    of `images` to its vector, is reduced by `_store` against the images
    stored before it at this step; one that reduces to zero ends its
    chain, of length w - birth at the new weight w, and one that does not
    is the chain's new vector.  The columns that are no pivot of a stored
    image start new chains, born at w, and the chains alive past the
    last piece end there.

    Why the lengths are the Jordan type (the elder rule).  The vectors of
    the live chains at a weight are the images N^(w - b) g of homogeneous
    generators g, one per chain born at b, and they are a basis of the
    piece: the stored images have distinct lowest columns, so with the
    unit vectors of the other columns they are triangular.  An image that
    reduces to zero says N^(w - b) g_c is a combination of images
    N^(w - b_i) g_i of chains stored before it, each born at b_i <= b;
    replacing g_c by g_c - sum a_i N^(b - b_i) g_i, a generator of the
    same weight, changes each earlier vector of chain c by a combination
    of vectors of older chains live at that weight, so every piece keeps
    a basis, and it makes N^(w - b) g_c = 0.  A stored image is such a
    combination too, up to a nonzero scalar from the fraction-free steps.
    At the end the chains N^i g, 0 <= i < length, are a basis of the
    whole space with N^length g = 0: V is the direct sum of one Jordan
    block per chain.
    """
    blocks = []
    live = [(0, {c: 1}) for c in pieces[0]] if pieces else []
    for w, piece in enumerate(pieces[1:], 1):
        pivots = {}
        kept = []
        for birth, vec in live:
            c = _store(sparse_apply(images, vec), pivots)
            if c is None:
                blocks.append(w - birth)
            else:
                kept.append((birth, pivots[c]))
        live = kept + [(w, {c: 1}) for c in piece if c not in pivots]
    blocks.extend(len(pieces) - birth for birth, _ in live)
    return sorted(blocks, reverse=True)


def sparse_rank(row_dicts):
    """Exact rank of a matrix given as per-row {column: int} dicts.

    The kernel writes to none of them, so a row is passed on as it is;
    only a row holding a zero is replaced by a filtered copy.
    """
    return len(_pivot_rows(
        [{j: x for j, x in row.items() if x} if 0 in row.values() else row for row in row_dicts]
    ))


def jordan_block(k):
    """The k x k nilpotent lower triangular Jordan block (ones below the diagonal)."""
    return RationalMatrix([[int(j == i - 1) for j in range(k)] for i in range(k)], cols=k)


def sparse_apply(lines, v):
    """The sum of v[k] * lines[k] over the entries of the sparse vector v,
    all {index: int} dicts without zero entries: M v when the lines are
    the columns of M, v M when they are its rows."""
    out = {}
    for k, a in v.items():
        for j, x in lines[k].items():
            y = out.get(j, 0) + a * x
            if y:
                out[j] = y
            else:
                del out[j]
    return out


def sparse_product(left, right):
    """The product of two matrices given as per-row {column: int} dicts
    without zero entries, in the same form."""
    return [sparse_apply(right, row) for row in left]


def power_ranks(rows):
    """Ranks of successive powers of a nilpotent matrix, until the zero power.

    M is square, given as its per-row {column: int} dicts without zero
    entries, every column below the number of rows; ValueError otherwise.
    Returns [rank(M), rank(M^2), ...] for the nonzero powers; the zero
    matrix gives [].  Raises NotNilpotentError when the rank sequence
    stops strictly decreasing before reaching zero.  Each power is one
    `sparse_product` away from the last and ranked by `sparse_rank`.
    """
    size = len(rows)
    if any(not 0 <= j < size for row in rows for j in row):
        raise ValueError("matrix must be square")
    out = []
    power = rows
    for _ in range(size + 1):
        r = sparse_rank(power)
        if r == 0:
            return out
        if out and r >= out[-1]:
            raise NotNilpotentError("rank of powers stabilised at %d" % r)
        out.append(r)
        power = sparse_product(power, rows)
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


def _cancel(row, prow, c):
    """Clear column c of the owned dict `row` against `prow`, whose entry
    there is p: row - (a // p) * prow when p divides the entry a, as +-1
    always does, else (p / g) * row - (a / g) * prow with g = gcd(a, p).
    No content is divided out; returns whether the row was scaled."""
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
    return bool(r)


def _reduced_rows(pivots):
    """The canonical rows of the span of `_pivot_rows`' output, as
    {pivot column: row} in ascending pivot order: back-substituted from
    the highest pivot down, a row's entries at higher pivot columns are
    cleared against the rows already reduced there, which are zero at
    every other pivot column; it is then divided by its content, signed
    to a positive pivot.  The result is the reduced row echelon form
    over Q, each row times its least common denominator, so it depends
    on the span only.  A row that needs no change is kept as given."""
    done = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        hits = [k for k in row if k in done]
        if hits:
            row = dict(row)
            for k in hits:
                _cancel(row, done[k], k)
        g = gcd(*row.values())
        if row[c] < 0:
            g = -g
        if g != 1:
            row = {j: x // g for j, x in row.items()}
        done[c] = row
    return {c: done[c] for c in reversed(done)}


def _null_vectors(rows, d):
    """The right kernel of canonical rows (`_reduced_rows`) in Q^d, one
    primitive {column: int} vector per free column f: the common
    multiple L of the pivots of the rows that meet f at f, -row[f] * L /
    pivot at each of their pivot columns, and zeros elsewhere."""
    meeting = {}  # free column -> the pivot columns of the rows meeting it
    for c, row in rows.items():
        for j in row:
            if j != c:
                meeting.setdefault(j, []).append(c)
    out = []
    for f in range(d):
        if f in rows:
            continue
        hits = meeting.get(f, ())
        scale = lcm(*(rows[c][c] for c in hits))
        vec = {f: scale}
        for c in hits:
            vec[c] = -rows[c][f] * scale // rows[c][c]
        g = gcd(*vec.values())
        out.append({j: x // g for j, x in vec.items()} if g > 1 else vec)
    return out


class Subspace:
    """Subspace of Q^d, stored by its canonical rows (`_reduced_rows`).

    The rows are sparse {column: int} dicts, primitive, with a positive
    entry at their pivot column and zeros at every other pivot column.
    They depend on the span only, so equality of subspaces is equality
    of the stored rows.  A vector is either a sequence of d ints or
    Fractions, scaled to integers first, or a {column: int} dict without
    zero entries, which is not copied and must not be changed after.
    `basis` and `pivots` give the rows densely, as tuples.
    """

    __slots__ = ("d", "_rows")

    def __init__(self, d, vectors=()):
        rows = [v if isinstance(v, dict) else _sparse(v, d) for v in vectors]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_rows", _reduced_rows(_pivot_rows(rows)))

    @classmethod
    def full(cls, d):
        return cls(d, [{i: 1} for i in range(d)])

    @property
    def dim(self):
        return len(self._rows)

    @property
    def rows(self):
        """The canonical rows, as dicts, in ascending pivot order."""
        return tuple(self._rows.values())

    @property
    def pivots(self):
        return tuple(self._rows)

    @property
    def basis(self):
        return tuple(tuple(row.get(j, 0) for j in range(self.d)) for row in self._rows.values())

    def contains(self, vec):
        """Membership: the vector's entries at pivot columns are cleared
        against the rows there, which leaves nothing iff it lies in the span."""
        vec = dict(vec) if isinstance(vec, dict) else _sparse(vec, self.d)
        for c in [c for c in vec if c in self._rows]:
            _cancel(vec, self._rows[c], c)
        return not vec

    def annihilator(self):
        """The subspace of the vectors orthogonal to this one: the right
        kernel of its rows."""
        return Subspace(self.d, _null_vectors(self._rows, self.d))

    def __le__(self, other):
        return self.dim <= other.dim and all(other.contains(row) for row in self._rows.values())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.d == other.d and self._rows == other._rows

    def __hash__(self):
        return hash((self.d, self.basis))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.d)

    def sum(self, other):
        if self.d != other.d:
            raise ValueError("ambient dimensions differ")
        return Subspace(self.d, self.rows + other.rows)
