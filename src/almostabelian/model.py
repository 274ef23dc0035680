"""Canonical models of nilpotent almost abelian Lie algebras with complex structure.

Conventions, fixed once for the whole package:

* the algebra has basis e_0, ..., e_{2n+1} and the codimension one
  abelian ideal is spanned by e_1, ..., e_{2n+1};
* the only nonzero brackets are [e_0, e_k] for k >= 1, encoded by the
  nilpotent matrix `A` acting on the ideal coordinates;
* `A` has a zero first row, a link entry A[1][0] = epsilon, and two
  identical copies of a lower triangular Jordan-form matrix `B` whose
  block sizes are the parts of the partition q (when the overlap index
  j is > 1, the first block of `B` has size j-1 and epsilon = 1, so the
  link extends that chain by e_1 to a block of size j);
* the complex structure J sends e_0 -> e_1 and e_{1+k} -> e_{1+n+k}
  for k = 1..n, pairing the two copies of the `B` basis.

A model is determined by (n, q, j); the Jordan type of `A` is q
together with `g10_partition(q, j)`, q with one (j-1) block raised to a
j block when j > 1 or with an extra singleton when j = 1.  The all-ones
q with j = 1 would give the abelian algebra and is excluded.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactla import RationalMatrix, Subspace
from .partitions import Partition, iter_partitions


class InvalidModelError(ValueError):
    """(q, j) violating the overlap membership rule, or the abelian case."""


class StableSeriesError(RuntimeError):
    """A filtration term failed J-invariance or centrality."""


def _is_all_ones(q):
    return all(p == 1 for p in q.parts)


@dataclass(frozen=True)
class ComplexModel:
    """A point of the classification: half-dimension n, partition q of n, overlap j."""

    n: int
    q: Partition
    j: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidModelError("n must be positive")
        if self.q.n != self.n:
            raise InvalidModelError("q must be a partition of n")
        if self.j < 1:
            raise InvalidModelError("j must be positive")
        # m, the Jordan type of the adjoint matrix (a partition of 2n+1), is
        # kept outside the fields, so eq and hash ignore it; building it
        # raises InvalidModelError unless j-1 is a part of q
        object.__setattr__(self, "m", jordan_partition(self.q, self.j))
        if self.j == 1 and _is_all_ones(self.q):
            raise InvalidModelError("q all ones with j = 1 is the abelian algebra")

    @property
    def epsilon(self):
        return 1 if self.j > 1 else 0

    @property
    def dim(self):
        """Dimension of the Lie algebra."""
        return 2 * self.n + 2

    @property
    def step(self):
        return nilpotency_step(self)

    def __str__(self):
        return "q=%s j=%d" % (self.q, self.j)


def g10_partition(q, j):
    """sl2 type of g10, the holomorphic dual of the model (q, j): q with
    one (j-1)-block promoted to a j-block when j > 1, or with an extra
    singleton when j = 1.  The one place the overlap rule is written."""
    parts = list(q.parts)
    if j > 1:
        if j - 1 not in parts:
            raise InvalidModelError("overlap size %d needs a part of size %d in q" % (j, j - 1))
        parts[parts.index(j - 1)] = j
    else:
        parts.append(1)
    return Partition(parts)


def jordan_partition(q, j):
    """Jordan type of the adjoint matrix for the model (q, j): the parts
    of q and of g10_partition(q, j), as a* = b01 + g10."""
    return Partition(q.parts + g10_partition(q, j).parts)


def admits_complex_structure(m):
    """Witness (as a ComplexModel) that the algebra with Jordan type m
    carries a complex structure, or None.

    Inverts jordan_partition, which is injective: the parts of odd
    multiplicity in m are exactly {1} for j = 1 (m not all ones) and
    exactly {j-1, j} for j > 1; undoing that one change leaves even
    multiplicities, whose halves are q.  Any other m has no witness.
    """
    if m.n % 2 == 0:
        raise ValueError("a Jordan type of odd total size is required")
    mult = m.multiplicities()
    odd = sorted(i for i, c in mult.items() if c % 2)
    if odd == [1] and len(mult) > 1:
        j = 1
        mult[1] -= 1
    elif len(odd) == 2 and odd[1] == odd[0] + 1:
        j = odd[1]
        mult[j] -= 1
        mult[j - 1] += 1
    else:
        return None
    q = Partition.from_multiplicities({i: c // 2 for i, c in mult.items()})
    return ComplexModel(q.n, q, j)


def _overlap_indices(q):
    """Admissible overlap sizes for q, ascending, abelian case dropped."""
    out = [] if _is_all_ones(q) else [1]
    out.extend(sorted({p + 1 for p in q.parts}))
    return out


def enumerate_models(n):
    """Yield the models of dimension 2n+2, grouped by q in enumeration order.

    Each model's Jordan type must invert back to the model, which keeps
    the Jordan types pairwise distinct without remembering them.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for q in iter_partitions(n):
        for j in _overlap_indices(q):
            c = ComplexModel(n, q, j)
            m = c.m
            if admits_complex_structure(m) != c:
                raise RuntimeError("Jordan type %s of %s does not invert to it" % (m, c))
            yield c


def nilpotency_step(model):
    """Nilpotency step: the largest Jordan block of the adjoint matrix."""
    return max(model.j, model.q.parts[0])


def _block_sizes(model, block_sizes=None):
    """Block sizes of B: by default size j-1 first when j > 1 and the
    rest weakly decreasing.  An override must form q and, when
    epsilon = 1, still start with j-1."""
    if block_sizes is None:
        parts = list(model.q.parts)
        if model.j > 1:
            parts.remove(model.j - 1)
            return [model.j - 1] + parts
        return parts
    sizes = list(block_sizes)
    if sorted(sizes, reverse=True) != list(model.q.parts):
        raise InvalidModelError("block sizes must form the partition q")
    if model.epsilon and sizes[0] != model.j - 1:
        raise InvalidModelError("the first block must have size j-1")
    return sizes


@dataclass(frozen=True)
class AlgebraModel:
    """The model realised on the basis e_0, ..., e_{2n+1}."""

    dim: int
    A: tuple  # (2n+1) x (2n+1), adjoint action of e_0 on the ideal
    J: tuple  # (2n+2) x (2n+2), the complex structure

    def a_matrix(self):
        return RationalMatrix([list(r) for r in self.A])

    def j_matrix(self):
        return RationalMatrix([list(r) for r in self.J])

    def bracket_tensor(self):
        """All structure constants: {(i, k): {target: coefficient}} for i < k.

        The ideal is abelian, so only [e_0, e_k] = sum_r A[r][k-1] e_{r+1}
        is nonzero."""
        out = {}
        for k in range(1, self.dim):
            entry = {r + 1: row[k - 1] for r, row in enumerate(self.A) if row[k - 1]}
            if entry:
                out[(0, k)] = entry
        return out


def build_algebra(model, block_sizes=None):
    """Assemble the adjoint matrix A and the complex structure J.

    `block_sizes` overrides the canonical block order of B (the first
    entry must still be j-1 when epsilon = 1); any order yields an
    isomorphic algebra.
    """
    n = model.n
    sizes = _block_sizes(model, block_sizes)
    size = 2 * n + 1
    a = [[0] * size for _ in range(size)]
    a[1][0] = model.epsilon
    offset = 0
    for s in sizes:
        for t in range(s - 1):
            # two identical copies of each chain of B
            a[1 + offset + t + 1][1 + offset + t] = 1
            a[1 + n + offset + t + 1][1 + n + offset + t] = 1
        offset += s
    dim = size + 1
    j = [[0] * dim for _ in range(dim)]
    j[1][0] = 1
    j[0][1] = -1
    for t in range(n):
        j[2 + n + t][2 + t] = 1
        j[2 + t][2 + n + t] = -1
    return AlgebraModel(
        dim=dim,
        A=tuple(tuple(r) for r in a),
        J=tuple(tuple(r) for r in j),
    )


def _nijenhuis_pairs(tensor, cols):
    """The pairs i < k of basis indices on which N(e_i, e_k) can be nonzero.

    With S_i = {i} together with the support of J e_i (`cols[i]`), each
    of the four brackets in N(e_i, e_k) pairs an index of S_i with one
    of S_k, so it is an empty sum unless some key {a, b} of `tensor`
    has a in S_i and b in S_k.  Inverting S gives those pairs in
    O(|tensor| |S|^2) steps, for any J and any tensor.
    """
    holders = {}  # a -> every i with a in S_i
    for i, col in enumerate(cols):
        for a in col.keys() | {i}:
            holders.setdefault(a, []).append(i)
    pairs = set()
    for a, b in tensor:
        for i in holders.get(a, ()):
            for k in holders.get(b, ()):
                if i != k:
                    pairs.add((i, k) if i < k else (k, i))
    return sorted(pairs)


def nijenhuis_vanishes(alg):
    """Whether N(x, y) = [Jx, Jy] - [x, y] - J[Jx, y] - J[x, Jy] vanishes
    on all pairs of basis vectors.

    N is evaluated on the pairs of `_nijenhuis_pairs` only: on every
    other pair each of its four brackets is an empty sum, so N is zero
    there by construction.  Vectors are sparse {index: coefficient}
    dicts: J e_i is column i of J, and brackets expand over the nonzero
    structure constants only.
    """
    dim = alg.dim
    tensor = alg.bracket_tensor()
    cols = [{r: alg.J[r][c] for r in range(dim) if alg.J[r][c]} for c in range(dim)]

    def add_bracket(out, x, y, scale):
        """out += scale [x, y]."""
        for a, xa in x.items():
            for b, yb in y.items():
                if a < b:
                    coefs, s = tensor.get((a, b)), scale * xa * yb
                else:
                    coefs, s = tensor.get((b, a)), -scale * xa * yb
                if coefs:
                    for t, c in coefs.items():
                        out[t] = out.get(t, 0) + s * c
        return out

    for i, k in _nijenhuis_pairs(tensor, cols):
        ei, ek = {i: 1}, {k: 1}
        # J is linear: J[Jx, y] + J[x, Jy] = J([Jx, y] + [x, Jy])
        inner = add_bracket(add_bracket({}, cols[i], ek, 1), ei, cols[k], 1)
        n = add_bracket(add_bracket({}, cols[i], cols[k], 1), ei, ek, -1)
        for a, xa in inner.items():
            for t, c in cols[a].items():
                n[t] = n.get(t, 0) - xa * c
        if any(n.values()):
            return False
    return True


def _ad_span(alg):
    """The map V -> vectors spanning [g, span V], read straight off A.

    [e_0, v] = (0, A v'), v' the ideal coordinates of v, and for k >= 1
    [e_k, v] = -v_0 A e_k, a multiple of column k of A.  So [g, span V]
    is spanned by the A v, together with the nonzero columns of A,
    taken once, as soon as some v has v_0 != 0; the other ad images
    are multiples of these.
    """
    rows = [[(c + 1, a) for c, a in enumerate(row) if a] for row in alg.A]
    cols = [(0,) + col for col in zip(*alg.A) if any(col)]

    def span(vectors):
        out = []
        for v in vectors:
            img = (0,) + tuple(sum(a * v[c] for c, a in row) for row in rows)
            if any(img):
                out.append(img)
        if any(v[0] for v in vectors):
            out.extend(cols)
        return out

    return span


def _ascending_centre(alg, prev):
    """{x : [g, x] in prev for every basis vector g}.

    A functional f vanishing on prev gives the constraint f o ad(e_i)
    for every i: f o ad(e_0) = (0, f_ideal A), and for k >= 1
    f o ad(e_k) = -(f_ideal A e_k) e^0.  The latter are multiples of
    e^0, which joins the constraints once if some f_ideal A is nonzero.
    """
    dim = alg.dim
    if prev.dim == dim:
        return prev
    annihilator = (
        RationalMatrix(prev.basis, cols=dim).nullspace()
        if prev.dim
        else RationalMatrix.identity(dim).data
    )
    rows = [[(c + 1, a) for c, a in enumerate(row) if a] for row in alg.A]
    constraints = []
    for f in annihilator:
        fa = [0] * dim  # (0, f_ideal A), summed over the nonzero entries of A
        for x, row in zip(f[1:], rows):
            if x:
                for c, a in row:
                    fa[c] += x * a
        if any(fa):
            constraints.append(fa)
    if constraints:
        constraints.append([1] + [0] * (dim - 1))
    return Subspace(dim, RationalMatrix(constraints, cols=dim).nullspace())


def _descending_series(alg, ad_span):
    """Descending central series from the ad action, until it vanishes."""
    dim = alg.dim
    series = [Subspace.full(dim)]
    while series[-1].dim > 0:
        nxt = Subspace(dim, ad_span(series[-1].basis))
        if nxt == series[-1]:
            raise StableSeriesError("descending series stabilised; algebra not nilpotent")
        series.append(nxt)
    return series


def stable_series(alg, model):
    """The filtration by centres up to step j-1 followed by the shifted
    descending series, checked term by term.

    Every term must be J-invariant and every quotient step central in
    the corresponding quotient; violations raise StableSeriesError.
    """
    dim = alg.dim
    centres = [Subspace(dim)]
    for _ in range(model.j - 1):
        centres.append(_ascending_centre(alg, centres[-1]))
    ad_span = _ad_span(alg)
    descending = _descending_series(alg, ad_span)
    nu = len(descending) - 1
    if nu != model.step:
        raise StableSeriesError(
            "nilpotency step mismatch: series says %d, model says %d" % (nu, model.step)
        )
    terms = list(centres)
    anchor = centres[-1]
    for k in range(nu - model.j, 0, -1):
        terms.append(anchor.sum(descending[k]))
    terms.append(Subspace.full(dim))
    filtration = [terms[0]]
    for t in terms[1:]:
        if not filtration[-1] <= t:
            raise StableSeriesError("filtration is not increasing")
        if t != filtration[-1]:
            filtration.append(t)
    j_rows = [[(c, x) for c, x in enumerate(row) if x] for row in alg.J]
    for t in filtration:
        for v in t.basis:
            if not t.contains([sum(x * v[c] for c, x in row) for row in j_rows]):
                raise StableSeriesError("term of dimension %d is not J-invariant" % t.dim)
    for prev, nxt in zip(filtration, filtration[1:]):
        for img in ad_span(nxt.basis):
            if not prev.contains(img):
                raise StableSeriesError("quotient step is not central")
    return filtration


@dataclass(frozen=True)
class StructureEquations:
    """Differentials of a basis of (1,0)-forms.

    Generators are named "alpha" and "beta<l>_<i>" where l labels the
    chain (l = 0 is the overlap chain, present only when epsilon = 1)
    and i the position inside it.  Each rule is a sum of integer
    multiples of wedge pairs; a factor is (name, conjugated).
    """

    n: int
    epsilon: int
    blocks: tuple  # (label, length) per chain
    generators: tuple
    rules: tuple  # (generator, ((coef, (factor, factor)), ...)) pairs, in generator order


def _beta(label, i):
    return "beta%d_%d" % (label, i)


def structure_equations(model, block_sizes=None):
    """Structure equations of the model in the canonical (1,0)-basis.

    d(alpha) = 0; each chain l is a string beta_1, beta_2, ... with
    d(beta_i) = (alpha + conj(alpha)) ^ beta_{i-1}, started by
    d(beta_1) = 0 for an ordinary chain and by alpha ^ conj(alpha) for
    the overlap chain.  `block_sizes` overrides the canonical block
    order (used by tests for order-invariance checks); the first entry
    must still be j-1 when epsilon = 1.
    """
    sizes = _block_sizes(model, block_sizes)
    first_label = 0 if model.epsilon else 1
    blocks = tuple((first_label + t, s) for t, s in enumerate(sizes))
    generators = ["alpha"]
    rules = [("alpha", ())]
    alpha = ("alpha", False)
    alpha_bar = ("alpha", True)
    for label, size in blocks:
        for i in range(1, size + 1):
            name = _beta(label, i)
            generators.append(name)
            if i > 1:
                prev = (_beta(label, i - 1), False)
                rules.append((name, ((1, (alpha, prev)), (1, (alpha_bar, prev)))))
            elif label == 0:
                rules.append((name, ((1, (alpha, alpha_bar)),)))
            else:
                rules.append((name, ()))
    return StructureEquations(
        n=model.n,
        epsilon=model.epsilon,
        blocks=blocks,
        generators=tuple(generators),
        rules=tuple(rules),
    )


def generator_coordinates(model, block_sizes=None):
    """Each generator as a complex combination of the dual basis e^0..e^{2n+1}.

    Returned coordinates are (real, imaginary) pairs of Fractions.  The
    chains are scaled so that the structure equations hold on the nose:
    for epsilon = 1 position i of a chain carries the factor (-2)^(i-1),
    and the overlap chain an extra factor 2i.
    """
    n = model.n
    dim = 2 * n + 2
    sizes = _block_sizes(model, block_sizes)
    zero = (Fraction(0), Fraction(0))

    def vector(entries):
        coords = [zero] * dim
        for idx, val in entries:
            coords[idx] = val
        return tuple(coords)

    out = {}
    if model.epsilon:
        out["alpha"] = vector([(0, (Fraction(1), Fraction(0))), (1, (Fraction(0), Fraction(1)))])
    else:
        out["alpha"] = vector(
            [(0, (Fraction(-1, 2), Fraction(0))), (1, (Fraction(0), Fraction(-1, 2)))]
        )
    first_label = 0 if model.epsilon else 1
    offset = 0
    for t, size in enumerate(sizes):
        label = first_label + t
        for i in range(1, size + 1):
            k = 2 + offset + (i - 1)
            if model.epsilon:
                scale = Fraction((-2) ** (i - 1))
                if label == 0:
                    # overlap chain: multiply by 2i
                    re, im = Fraction(0), 2 * scale
                else:
                    re, im = scale, Fraction(0)
            else:
                re, im = Fraction(1), Fraction(0)
            # coefficient of e^{k+n} is i * (re + i im) = -im + i re
            out[_beta(label, i)] = vector(
                [(k, (re, im)), (k + n, (-im, re))]
            )
        offset += size
    return out
