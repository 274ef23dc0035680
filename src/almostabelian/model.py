"""Canonical models of nilpotent almost abelian Lie algebras with complex structure.

Conventions, fixed once for the whole package:

* the algebra has basis e_0, ..., e_{2n+1} and the codimension one
  abelian ideal is spanned by e_1, ..., e_{2n+1};
* the only nonzero brackets are [e_0, e_k] for k >= 1, encoded by the
  nilpotent matrix `A` acting on the ideal coordinates 0..2n.  So
  ad(e_0) has column 0 empty and column k equal to A e_{k-1} shifted by
  one (`_ad0`), and every bracket is read off those columns by the
  bracket formula [x, y] = x_0 ad(e_0) y - y_0 ad(e_0) x: the bracket
  tensor, the Nijenhuis check and the stable series all use it;
* `A` has a zero first row, a link entry epsilon in row 1 of column 0,
  and two identical copies of a lower triangular Jordan-form matrix `B`
  with one chain per part of the partition q;
* `_chain_layout` fixes the order of those chains: when the overlap
  index j is > 1, the overlap chain of size j-1 comes first (labelled
  0) and epsilon = 1, so the link extends that chain by e_1 to a block
  of size j; the other parts follow weakly decreasing, labelled from 1.
  A, the structure equations and the generator coordinates all follow
  this one layout;
* the complex structure J sends e_0 -> e_1 and e_{1+k} -> e_{1+n+k}
  for k = 1..n, pairing the two copies of the `B` basis;
* `AlgebraModel` stores A and J as the tuples of their columns, each
  column a sparse {row: int} dict without zero entries: A[k], column k
  of A, is [e_0, e_{k+1}] in the ideal coordinates, and J[i] = J e_i.
  No dense form of either matrix is built.

A model is determined by (n, q, j); the Jordan type of `A` is q
together with `g10_partition(q, j)`, q with one (j-1) block raised to a
j block when j > 1 or with an extra singleton when j = 1.  The all-ones
q with j = 1 would give the abelian algebra and is excluded.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count

from .exactla import Subspace, sparse_apply
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


def _chain_layout(model):
    """(label, size, offset) for each chain of B, in basis order: when
    j > 1 the overlap chain of size j-1 first, labelled 0, then the other
    parts of q weakly decreasing, labelled from 1.  Offset counts the
    basis vectors of B before the chain.  The one place the chain order
    is fixed: A, the structure equations and the generator coordinates
    all follow it."""
    parts = list(model.q.parts)
    if model.j > 1:
        parts.remove(model.j - 1)
        parts.insert(0, model.j - 1)
    return list(zip(count(1 - model.epsilon), parts, accumulate(parts, initial=0)))


@dataclass(frozen=True)
class AlgebraModel:
    """The model realised on the basis e_0, ..., e_{2n+1}, A and J as sparse columns."""

    dim: int
    A: tuple  # 2n+1 columns, A[k] = [e_0, e_{k+1}] in ideal coordinates
    J: tuple  # 2n+2 columns, J[i] = J e_i, the complex structure

    def bracket_tensor(self):
        """All structure constants: {(i, k): {target: coefficient}} for i < k.

        The ideal is abelian, so only [e_0, e_k], column k of `_ad0`, is nonzero."""
        return {(0, k): col for k, col in enumerate(_ad0(self)) if col}


def build_algebra(model):
    """Assemble the columns of the adjoint matrix A and of the complex
    structure J, in O(n) steps."""
    n = model.n
    a = [{} for _ in range(2 * n + 1)]
    if model.epsilon:
        a[0][1] = 1
    for _, s, offset in _chain_layout(model):
        for t in range(offset + 1, offset + s):
            # two identical copies of each chain of B
            a[t][t + 1] = 1
            a[t + n][t + 1 + n] = 1
    j = [{1: 1}, {0: -1}]
    j += [{2 + n + t: 1} for t in range(n)]
    j += [{2 + t: -1} for t in range(n)]
    return AlgebraModel(dim=2 * n + 2, A=tuple(a), J=tuple(j))


def _ad0(alg):
    """The columns of ad(e_0) in the coordinates of the algebra: column 0
    is empty and column k is [e_0, e_k] = A e_(k-1), shifted by one."""
    return [{}] + [{r + 1: x for r, x in col.items()} for col in alg.A]


def _nijenhuis_pairs(heads, moved):
    """The pairs i < k of basis indices on which N(e_i, e_k) can be nonzero:
    i in `heads`, the indices where e_i or J e_i has an e_0 entry, and k
    in `moved`, those where ad(e_0) e_k or ad(e_0) J e_k is nonzero, or
    the other way round.  By the bracket formula each term of N's four
    brackets pairs an e_0 entry of one side with an image of the other,
    so on every other pair all four are zero.
    """
    return sorted({(min(i, k), max(i, k)) for i in heads for k in moved if i != k})


def nijenhuis_vanishes(alg):
    """Whether N(x, y) = [Jx, Jy] - [x, y] - J[Jx, y] - J[x, Jy] vanishes
    on all pairs of basis vectors.

    With b_i the e_0 entry of J e_i, u_i = ad(e_0) e_i and
    v_i = ad(e_0) J e_i, the bracket formula expands N, for i < k, to

        N(e_i, e_k) = b_i P_k - b_k P_i - [i = 0] Q_k,

    P_i = v_i - J u_i and Q_i = u_i + J v_i, each computed once per index;
    e_k has no e_0 entry as k > 0.  N is evaluated on the pairs of
    `_nijenhuis_pairs` only, where it can be nonzero.  Vectors are sparse
    {index: coefficient} dicts.
    """
    ad0, cols = _ad0(alg), alg.J
    b = [col.get(0, 0) for col in cols]
    heads = [i for i, x in enumerate(b) if i == 0 or x]
    moved, p, q = [], [], []
    for i, col in enumerate(cols):
        u, v = ad0[i], sparse_apply(ad0, col)
        if u or v:
            moved.append(i)
        p_i, q_i = dict(v), dict(u)
        for t, x in sparse_apply(cols, u).items():
            p_i[t] = p_i.get(t, 0) - x
        for t, x in sparse_apply(cols, v).items():
            q_i[t] = q_i.get(t, 0) + x
        p.append(p_i)
        q.append(q_i)
    for i, k in _nijenhuis_pairs(heads, moved):
        n = {}
        for c, vec in ((b[i], p[k]), (-b[k], p[i]), (-1 if i == 0 else 0, q[k])):
            if c:
                for t, x in vec.items():
                    n[t] = n.get(t, 0) + c * x
        if any(n.values()):
            return False
    return True


def _spans(alg):
    """The maps V -> vectors spanning [g, span V] and F -> functionals
    spanning F o ad(g), both read off the columns of ad(e_0).

    By the bracket formula, [g, span V] is spanned by the ad(e_0) v,
    together with the nonzero columns of ad(e_0), taken once, as soon as
    some v has v_0 != 0.  And F o ad(g) is spanned by the f o ad(e_0),
    f times the rows of ad(e_0), together with e^0 as soon as one of these
    is nonzero, since f o ad(e_k) is -(f o ad(e_0))_k e^0 for k >= 1.
    Vectors are sparse {index: int} dicts.
    """
    cols = _ad0(alg)
    rows = [{} for _ in cols]
    for k, col in enumerate(cols):
        for t, c in col.items():
            rows[t][k] = c
    nonzero = [col for col in cols if col]

    def ad_span(vectors):
        out = [img for img in (sparse_apply(cols, v) for v in vectors) if img]
        if any(0 in v for v in vectors):
            out.extend(nonzero)
        return out

    def coad_span(functionals):
        out = [img for img in (sparse_apply(rows, f) for f in functionals) if img]
        if out:
            out.append({0: 1})
        return out

    return ad_span, coad_span


def _descending_series(alg, ad_span):
    """Descending central series from the ad action, until it vanishes.
    D_(k+1) = [g, D_k] lies in D_k, so a term of the same dimension as
    the one before equals it and the series has stabilised."""
    dim = alg.dim
    series = [Subspace.full(dim)]
    while series[-1].dim > 0:
        nxt = Subspace(dim, ad_span(series[-1].rows))
        if nxt.dim == series[-1].dim:
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
    ad_span, coad_span = _spans(alg)
    # the centres Z_i = {x : [g, x] in Z_(i-1)} are the annihilators of the
    # coadjoint series C_0 = g*, C_i = C_(i-1) o ad(g)
    centres = [Subspace(dim)]
    coadjoint = Subspace.full(dim)
    for _ in range(model.j - 1):
        coadjoint = Subspace(dim, coad_span(coadjoint.rows))
        centres.append(coadjoint.annihilator())
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
    for t in filtration:
        for v in t.rows:
            if not t.contains(sparse_apply(alg.J, v)):
                raise StableSeriesError("term of dimension %d is not J-invariant" % t.dim)
    for prev, nxt in zip(filtration, filtration[1:]):
        for img in ad_span(nxt.rows):
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

    generators: tuple
    rules: tuple  # (generator, ((coef, (factor, factor)), ...)) pairs, in generator order


def _beta(label, i):
    return "beta%d_%d" % (label, i)


def structure_equations(model):
    """Structure equations of the model in the canonical (1,0)-basis.

    d(alpha) = 0; each chain l is a string beta_1, beta_2, ... with
    d(beta_i) = (alpha + conj(alpha)) ^ beta_{i-1}, started by
    d(beta_1) = 0 for an ordinary chain and by alpha ^ conj(alpha) for
    the overlap chain.
    """
    generators = ["alpha"]
    rules = [("alpha", ())]
    alpha = ("alpha", False)
    alpha_bar = ("alpha", True)
    for label, size, _ in _chain_layout(model):
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
    return StructureEquations(generators=tuple(generators), rules=tuple(rules))


def generator_coordinates(model):
    """Each generator as a complex combination of the dual basis e^0..e^{2n+1}.

    Returned coordinates are (real, imaginary) pairs of Fractions.  The
    chains are scaled so that the structure equations hold on the nose:
    for epsilon = 1 position i of a chain carries the factor (-2)^(i-1),
    and the overlap chain a further factor 2 sqrt(-1).
    """
    n = model.n
    dim = 2 * n + 2
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
    for label, size, offset in _chain_layout(model):
        for i in range(1, size + 1):
            k = 1 + offset + i
            if model.epsilon:
                scale = Fraction((-2) ** (i - 1))
                if label == 0:
                    # overlap chain: multiply by 2 sqrt(-1)
                    re, im = Fraction(0), 2 * scale
                else:
                    re, im = scale, Fraction(0)
            else:
                re, im = Fraction(1), Fraction(0)
            # coefficient of e^{k+n} is i * (re + i im) = -im + i re
            out[_beta(label, i)] = vector([(k, (re, im)), (k + n, (-im, re))])
    return out
