"""Betti and Hodge numbers, twice over.

Closed forms come from the representation calculus: the dual a* of
the abelian ideal is b01 + g10 as formal sl2-modules, and one grid of
summand counts of Lambda^p g10 (x) Lambda^q b01 gives the Hodge numbers
and, summed over p + q = k, the summand counts of Lambda^k a* behind
the Betti numbers.  The brute-force oracles build the
Chevalley-Eilenberg complex of the algebra (for Betti numbers) and the
Dolbeault complex spanned by the structure-equation generators and
their conjugates (for Hodge numbers) and take exact ranks.

Sign convention, fixed once: d on a dual generator g^k is
-sum_{i<j} c^k_{ij} g^i ^ g^j where [g_i, g_j] = sum c^k_{ij} g_k, and
d extends to monomials as a degree-one derivation with the Koszul sign
for the fixed ascending monomial order.  dbar extends the same way from
its own generator rules, the terms of each generator's d that keep the
holomorphic degree; building those rules is where the split of d into
(1,0) + (0,1) parts is checked, once per complex.  Every complex gives
its generator rules on factor tuples in any order, and _slot_terms alone
applies the wedge signs.

A spectator, a symbol that no generator rule names, is a Kunneth
factor: D(x ^ r) = D(x) ^ r, so x (x) s -> x ^ s is an isomorphism from
the complex without the spectators, tensored with their exterior
algebra, onto the whole complex.  Each oracle walks the monomials in the
other symbols only and folds the spectators back by the binomial sum
rank_k = sum_i C(s, i) r_{k-i}; this is exact, and so is the D^2 check
on the smaller basis.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from operator import add

from .exactla import (
    NotNilpotentError,
    jordan_type_from_ranks,
    power_ranks,
    sparse_product,
    sparse_rank,
)
from .model import (
    StableSeriesError,
    build_algebra,
    g10_partition,
    nijenhuis_vanishes,
    stable_series,
    structure_equations,
)
from .partitions import Partition
from .sl2 import Sl2Module, tensor_count, wedge_profile


class DifferentialError(RuntimeError):
    """d^2 or dbar^2 failed to vanish (construction bug)."""


@dataclass(frozen=True)
class ModuleTriple:
    """The three dual spaces as formal sl2-modules."""

    a_star: Sl2Module  # dual of the abelian ideal, b01 + g10, dimension 2n+1
    b01: Sl2Module  # antiholomorphic dual of the J-invariant part, dimension n
    g10: Sl2Module  # holomorphic dual of the algebra, dimension n+1


def module_triple(model):
    """Module structures determined by (q, j): b01 follows q, g10 follows
    g10_partition (q with the overlap rule applied), and a_star, whose
    type is the Jordan type m of the adjoint matrix, is their direct sum."""
    b01 = Sl2Module(model.q.multiplicities())
    g10 = Sl2Module(g10_partition(model.q, model.j).multiplicities())
    return ModuleTriple(a_star=b01 + g10, b01=b01, g10=g10)


@dataclass(frozen=True)
class CohomologyTable:
    """Betti vector and Hodge grid with their provenance."""

    betti: tuple
    hodge: tuple
    source: str  # "closed-form" | "oracle"


def closed_table(model):
    """Betti vector and Hodge grid read off one grid: D[p][q] counts the
    summands of Lambda^p g10 (x) Lambda^q b01 (tensor_count of their
    profiles), h^{p,q} = D[p][q] + D[p][q-1], and b_k = delta_k +
    delta_{k-1} with delta_k = sum_{p+q=k} D[p][q], the summand count of
    Lambda^k a* since a* = b01 + g10.

    Lambda^r V and Lambda^{dim V - r} V are isomorphic, and g10 and b01
    have dimensions n+1 and n, so D[p][q] = D[n+1-p][q] = D[p][n-q] and
    D[p][n+1] = 0: only the corner p <= (n+1)/2, q <= n/2 is counted.
    The Serre symmetry of the Hodge grid then holds by construction."""
    triple = module_triple(model)
    n = model.n
    size = n + 2
    wb = [wedge_profile(triple.b01, q) for q in range(n // 2 + 1)]
    corner = [
        [tensor_count(wedge_profile(triple.g10, p), b) for b in wb]
        for p in range((n + 1) // 2 + 1)
    ]
    deltas = [0] * (2 * size - 1)
    hodge = []
    for p in range(size):
        half = corner[min(p, n + 1 - p)]
        row = [half[min(q, n - q)] for q in range(n + 1)] + [0]
        for q, d in enumerate(row):
            deltas[p + q] += d
        hodge.append(tuple([row[0]] + [row[q] + row[q - 1] for q in range(1, size)]))
    betti = tuple([deltas[0]] + [deltas[k] + deltas[k - 1] for k in range(1, len(deltas))])
    return CohomologyTable(betti=betti, hodge=tuple(hodge), source="closed-form")


def betti_closed(model):
    """Betti vector b_0..b_{2n+2}: b_k = delta(Lambda^k a*) +
    delta(Lambda^{k-1} a*), each count summed over a* = b01 + g10."""
    return closed_table(model).betti


def hodge_closed(model):
    """Hodge grid h^{p,q}, 0 <= p, q <= n+1: the summand count of
    (Lambda^q b01 + Lambda^{q-1} b01) (x) Lambda^p g10."""
    return closed_table(model).hodge


# -- monomial differentials ---------------------------------------------------
#
# A wedge monomial is an int bitmask: bit k set means generator k is a
# factor, and the factors are read in ascending order.  The sign of
# moving a factor into place is the parity of the set bits below it,
# (mask & (bit - 1)).bit_count().


def _slot_terms(d1):
    """Per-generator rules for the derivation extension of d1; the one
    place that decides a wedge sign or a factor order.

    d1 maps a generator index to ((coef, factors), ...), factors a tuple
    of one or two symbol indices in any order.  A rule with a repeated
    factor is zero and dropped; otherwise coef is negated once per
    inversion of the factors.  Replacing generator g of a monomial by
    the ascending wedge of the factors costs (-1)^slot, slot the number
    of factors below g (the Koszul sign of d, or for a one-factor rule
    of degree zero the sign of moving the factor out of that slot), and
    the sign of sorting each factor into the rest.  All are parities of
    the rest under one mask, (g_bit - 1) ^ XOR of (f_bit - 1) over the
    factors, so each rule is (coef, factor mask, sign mask).

    Returns (ruled, rules): rules maps the bit 1 << g of each generator
    g with at least one rule left to its rules, and ruled is the mask of
    those bits.  A generator without rules appears in neither.
    """
    rules = {}
    for g, stated in d1.items():
        out = []
        for coef, factors in stated:
            if len(set(factors)) < len(factors):
                continue
            if sum(a > b for a, b in combinations(factors, 2)) & 1:
                coef = -coef
            sign = (1 << g) - 1
            for f in factors:
                sign ^= (1 << f) - 1
            out.append((coef, sum(1 << f for f in factors), sign))
        if out:
            rules[1 << g] = tuple(out)
    return sum(rules), rules


def _d_mask(mono, terms):
    """Image of a monomial under the derivation extension, as {mask: coef};
    `terms` is (ruled, rules) from _slot_terms, and only the factors in
    ruled are visited: the others contribute nothing."""
    ruled, rules = terms
    out = {}
    bits = mono & ruled
    while bits:
        low = bits & -bits
        bits ^= low
        rest = mono ^ low
        for coef, pair, sign in rules[low]:
            if rest & pair:
                continue
            target = rest | pair
            if (rest & sign).bit_count() & 1:
                out[target] = out.get(target, 0) - coef
            else:
                out[target] = out.get(target, 0) + coef
    if 0 in out.values():
        return {k: v for k, v in out.items() if v}
    return out


def _masks(symbols, k):
    """Bitmasks of the degree-k monomials in `symbols`, in lexicographic
    order: each is the builtin sum of a combination of the symbols' bit
    values, which are computed once per call."""
    return list(map(sum, combinations([1 << s for s in symbols], k)))


def _cocycle_symbols(terms):
    """Mask of the symbols b that kill every monomial they divide: b has
    no rule of its own and lies in the pair mask of every rule, so each
    term of the derivation extension meets b in the rest and _d_mask's
    `rest & pair` test drops it.  e^0 of the CE complex and conj(alpha)
    of the Dolbeault complex are such symbols; the rules decide, so a
    changed rule changes the mask (with no rule at all, every symbol
    is in it)."""
    ruled, rules = terms
    dead = ~ruled
    for stated in rules.values():
        for _, pair, _ in stated:
            dead &= pair
    return dead


def _named_symbols(symbols, terms):
    """The symbols of `symbols` that some rule names, by a rule of their
    own or as a factor; the others are spectators, which each walk
    leaves out of its monomials and puts back with _fold."""
    ruled, rules = terms
    for stated in rules.values():
        for _, pair, _ in stated:
            ruled |= pair
    return [s for s in symbols if ruled >> s & 1]


def _fold(ranks, count, shift):
    """Ranks of D on the complex tensored with the exterior algebra of
    `count` spectators, from its ranks `ranks` without them.

    x (x) s -> x ^ s is an isomorphism of complexes (D(x ^ s) = D(x) ^ s,
    and the sign of sorting x ^ s into a monomial depends on that
    monomial alone), so each block is the direct sum, over the i-subsets
    of spectators, of the block i degrees below: rank_k = sum_i C(count,
    i) r_{k-i}, where shift(key, i) is the key i degrees above key."""
    out = {}
    for key, rank in ranks.items():
        for i in range(count + 1):
            k = shift(key, i)
            out[k] = out.get(k, 0) + comb(count, i) * rank
    return out


def _walk(blocks, terms, degrees=()):
    """One pass over the monomials of a graded complex with differential D.

    `blocks` yields (key, masks) in column order; D is the derivation
    extension of the generator rules `terms`, as _d_mask applies them.
    Returns the rank of D on each block, by key, and whether D^2 = 0 on
    the monomials whose degree is in `degrees`, which needs D to map
    each block into the next one or into monomials that D kills.
    Degree 1 alone is the check on generators, enough for a derivation
    by the graded Leibniz rule.  Each image is computed once, visiting
    only the factors that have rules, and goes to the rank kernel as it
    is, one row per monomial: the rank of D's transpose is D's rank.  A
    block's images are kept past its rank only while its D^2 check
    waits for the next block.  Only nonzero images are kept: a monomial
    divisible by a symbol of _cocycle_symbols(terms) never reaches
    _d_mask, and one whose image cancels is dropped, so neither adds a
    row to a rank, and the D^2 sum reads a missing image as the empty
    one.  The callers leave the spectators out of the blocks and fold
    them back by _fold's binomial sum, which is exact; D^2(x ^ s) =
    D^2(x) ^ s for each monomial s in them, so the D^2 check on the
    blocks without them is the check on every monomial.
    """
    dead = _cocycle_symbols(terms)
    ranks = {}
    squares = True
    below = {}
    for key, masks in blocks:
        here = {m: img for m in masks if not m & dead if (img := _d_mask(m, terms))}
        if squares and below:
            for img in below.values():
                acc = {}
                for target, val in img.items():
                    for t2, v2 in here.get(target, {}).items():
                        acc[t2] = acc.get(t2, 0) + val * v2
                if any(acc.values()):
                    squares = False
                    break
        # sparse_rank copies only the rows it changes: `here` waits for the
        # next D^2 check
        ranks[key] = sparse_rank(list(here.values()))
        below = here if masks and masks[0].bit_count() in degrees else {}
    return ranks, squares


# -- Chevalley-Eilenberg oracle -----------------------------------------------


def _ce_generator_differentials(alg):
    """d on each dual generator of the CE complex, from the bracket tensor."""
    d1 = {k: () for k in range(alg.dim)}
    for pair, targets in alg.bracket_tensor().items():
        for b, c in targets.items():
            d1[b] = d1[b] + ((-c, pair),)
    return d1


def _ce_walk(alg, degrees):
    """The walk of the CE complex: ranks of d on degrees 0..dim-1 (the
    top degree maps to zero) and d^2 = 0 on the given degrees."""
    terms = _slot_terms(_ce_generator_differentials(alg))
    kept = _named_symbols(range(alg.dim), terms)
    blocks = ((k, _masks(kept, k)) for k in range(len(kept)))
    ranks, squares = _walk(blocks, terms, degrees)
    return _fold(ranks, alg.dim - len(kept), add), squares


def _betti_numbers(dim, walk):
    ranks, squares = walk
    if not squares:
        raise DifferentialError("d^2 != 0")
    return tuple(comb(dim, k) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in range(dim + 1))


def betti_oracle(alg):
    """Betti vector from exact ranks of the CE differentials.

    Raises DifferentialError if d^2 fails on a generator.
    """
    return _betti_numbers(alg.dim, _ce_walk(alg, (1,)))


def d_squared_vanishes(alg):
    """Check d^2 = 0 on the full monomial basis of the CE complex."""
    return _ce_walk(alg, range(1, alg.dim + 1))[1]


# -- Dolbeault oracle ----------------------------------------------------------


def _dolbeault_symbols(eqs):
    """Symbol table for the bigraded complex.

    Symbols are integers: s < g is generator s in the order of
    eqs.generators, 2g > s >= g its conjugate.  Returns (d1, g) with d1
    as _slot_terms reads it: each stated term coef * f1 ^ f2 becomes the
    rule (coef, (f1, f2)) on symbols, and its conjugate flips the bar of
    each factor and keeps coef, since all stated coefficients are
    integers (hence real); _slot_terms applies every sign.
    """
    gens = eqs.generators
    g = len(gens)
    index = {name: i for i, name in enumerate(gens)}

    def symbol(factor, conjugate):
        name, bar = factor
        return index[name] + (g if bar != conjugate else 0)

    d1 = {}
    for name, terms in eqs.rules:
        for conjugate in (False, True):
            d1[index[name] + (g if conjugate else 0)] = tuple(
                (coef, tuple(symbol(f, conjugate) for f in factors)) for coef, factors in terms
            )
    return d1, g


def _dbar_rules(symbols):
    """dbar's generator rules, as _slot_terms builds them: the terms of
    each symbol's d that keep its holomorphic degree, the number of
    factors below g.  This is where the split is checked: d = d' + dbar
    by bidegree iff every other term raises that degree by one;
    DifferentialError otherwise."""
    d1, g = symbols
    rules = {}
    for s, terms in d1.items():
        rises = [sum(f < g for f in factors) - (s < g) for _, factors in terms]
        if not set(rises) <= {0, 1}:
            raise DifferentialError("d does not split into (1,0)+(0,1) parts")
        rules[s] = tuple(t for t, rise in zip(terms, rises) if rise == 0)
    return _slot_terms(rules)


def _dolbeault_walk(symbols, degrees):
    """The walk of the Dolbeault complex, blocks (p, q) for q < g (dbar
    kills q = g): ranks of dbar and dbar^2 = 0 on the given total
    degrees.  A d that does not split raises before any monomial.  A
    holomorphic spectator shifts p, an antiholomorphic one q."""
    _, g = symbols
    terms = _dbar_rules(symbols)
    named = _named_symbols(range(2 * g), terms)
    holo = [s for s in named if s < g]
    anti = [s for s in named if s >= g]
    holo_masks = [_masks(holo, p) for p in range(len(holo) + 1)]
    anti_masks = [_masks(anti, q) for q in range(len(anti))]
    blocks = (
        ((p, q), [u | b for u in holo_masks[p] for b in anti_masks[q]])
        for p in range(len(holo) + 1)
        for q in range(len(anti))
    )
    ranks, squares = _walk(blocks, terms, degrees)
    ranks = _fold(ranks, g - len(holo), lambda key, i: (key[0] + i, key[1]))
    return _fold(ranks, g - len(anti), lambda key, i: (key[0], key[1] + i)), squares


def _hodge_numbers(g, walk):
    ranks, squares = walk
    if not squares:
        raise DifferentialError("dbar^2 != 0")
    sizes = [comb(g, k) for k in range(g + 1)]
    return tuple(
        tuple(a * b - ranks.get((p, q), 0) - ranks.get((p, q - 1), 0) for q, b in enumerate(sizes))
        for p, a in enumerate(sizes)
    )


def hodge_oracle(model, block_sizes=None):
    """Hodge grid from exact ranks of the Dolbeault differentials.

    The complex is spanned by wedge monomials in the structure-equation
    generators and their conjugates; dbar is the derivation extension of
    its own generator rules, the terms of each generator's d that keep
    the holomorphic degree.  All matrices are integer matrices in this
    basis.  Raises DifferentialError if d fails to split into bidegree
    (1,0) + (0,1) parts, checked on the generator rules before any rank,
    or if dbar^2 fails on a generator.  `block_sizes` reorders the
    chains (the grid must not change).
    """
    symbols = _dolbeault_symbols(structure_equations(model, block_sizes=block_sizes))
    return _hodge_numbers(symbols[1], _dolbeault_walk(symbols, (1,)))


def dbar_squared_vanishes(model):
    """Check dbar^2 = 0 on the full monomial basis of the Dolbeault
    complex, dbar the derivation extension of its generator rules;
    raises DifferentialError, before any monomial, if d does not split
    by bidegree (the check is on the generator rules)."""
    symbols = _dolbeault_symbols(structure_equations(model))
    return _dolbeault_walk(symbols, range(1, 2 * symbols[1] + 1))[1]


# -- auxiliary routes ----------------------------------------------------------


def betti_via_ideal_action(alg):
    """Betti numbers through the action of e_0 on the exterior powers of
    the dual ideal: b_k = dim ker L_k + dim coker L_{k-1}.

    Independent of both the closed form and the full CE complex; L is
    the degree-zero derivation extension of the coadjoint action on the
    dual ideal: it sends dual generator r to -A[r][c] times c, a
    one-factor rule whose sign _slot_terms applies.
    """
    size = alg.dim - 1
    terms = _slot_terms(
        {r: tuple((-a, (c,)) for c, a in enumerate(row) if a) for r, row in enumerate(alg.A)}
    )
    kept = _named_symbols(range(size), terms)
    blocks = ((k, _masks(kept, k)) for k in range(len(kept) + 1))
    ranks = _fold(_walk(blocks, terms)[0], size - len(kept), add)
    # L_k is square, so its kernel and cokernel have the same dimension
    kernel = [comb(size, k) - ranks[k] for k in range(size + 1)] + [0]
    return tuple(kernel[k] + (kernel[k - 1] if k else 0) for k in range(size + 2))


# -- tables and verification ----------------------------------------------------


def oracle_table(model):
    return CohomologyTable(
        betti=betti_oracle(build_algebra(model)),
        hodge=hodge_oracle(model),
        source="oracle",
    )


def frolicher_holds(betti, hodge):
    """b_k = sum over p+q=k of h^{p,q}, for every k."""
    size = len(hodge)
    for k in range(len(betti)):
        total = sum(hodge[p][k - p] for p in range(size) if 0 <= k - p < size)
        if betti[k] != total:
            return False
    return True


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the conjugation/duality checks for one table."""

    epsilon: int
    hodge_symmetric: bool
    odd_betti_even: bool
    b1_odd: bool
    poincare: bool
    serre: bool

    @property
    def ok(self):
        """The dichotomy: symmetric grid and even odd-Betti numbers when
        epsilon = 0, odd first Betti number when epsilon = 1."""
        if self.epsilon == 0:
            return self.hodge_symmetric and self.odd_betti_even
        return self.b1_odd


def verify_symmetry(model, table=None):
    """Symmetry dichotomy plus the empirical duality checks.

    Poincare duality (b_k = b_{top-k}) and Serre duality
    (h^{p,q} = h^{n+1-p,n+1-q}) are reported as checked facts, never
    assumed by any computation.
    """
    if table is None:
        table = closed_table(model)
    betti, hodge = table.betti, table.hodge
    size = len(hodge)
    symmetric = all(hodge[p][q] == hodge[q][p] for p in range(size) for q in range(size))
    odd_even = all(betti[k] % 2 == 0 for k in range(1, len(betti), 2))
    top = len(betti) - 1
    poincare = all(betti[k] == betti[top - k] for k in range(len(betti)))
    serre = all(
        hodge[p][q] == hodge[size - 1 - p][size - 1 - q]
        for p in range(size)
        for q in range(size)
    )
    return SymmetryReport(
        epsilon=model.epsilon,
        hodge_symmetric=symmetric,
        odd_betti_even=odd_even,
        b1_odd=betti[1] % 2 == 1,
        poincare=poincare,
        serre=serre,
    )


# -- the per-model check registry ------------------------------------------------

# package errors that mark a check failed instead of escaping run_checks
_CHECK_ERRORS = (DifferentialError, StableSeriesError, NotNilpotentError)


class _shared(cached_property):
    """A cached_property that also keeps a package error its build
    raised: later reads raise it again instead of rebuilding.  A built
    value lives in the instance dict, so reads of it skip this code."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        errors = instance.__dict__.setdefault("_errors", {})
        if self.attrname in errors:
            raise errors[self.attrname]
        try:
            return super().__get__(instance, owner)
        except _CHECK_ERRORS as exc:
            errors[self.attrname] = exc
            raise


@dataclass
class _ModelFacts:
    """What the checks of one model share, each value built on first use
    and then kept, or the package error its build raised: the algebra,
    the Dolbeault symbols, the power ranks of A, the closed table, one
    walk per complex, the oracle table and the symmetry reports of both
    tables."""

    model: object
    alg = _shared(lambda s: build_algebra(s.model))
    symbols = _shared(lambda s: _dolbeault_symbols(structure_equations(s.model)))
    a_ranks = _shared(lambda s: power_ranks(s.alg.a_matrix()))
    jordan = _shared(lambda s: Partition(jordan_type_from_ranks(len(s.alg.A), s.a_ranks)))
    closed = _shared(lambda s: closed_table(s.model))
    ce = _shared(lambda s: _ce_walk(s.alg, range(1, s.alg.dim + 1)))
    dolbeault = _shared(lambda s: _dolbeault_walk(s.symbols, range(1, 2 * s.symbols[1] + 1)))
    betti = _shared(lambda s: _betti_numbers(s.alg.dim, s.ce))
    hodge = _shared(lambda s: _hodge_numbers(s.symbols[1], s.dolbeault))
    oracle = _shared(lambda s: CohomologyTable(s.betti, s.hodge, "oracle"))
    closed_report = _shared(lambda s: verify_symmetry(s.model, s.closed))
    oracle_report = _shared(lambda s: verify_symmetry(s.model, s.oracle))


def _j_squared(f):
    """J^2 = -1, by the sparse product of J's rows with themselves."""
    rows = [{c: x for c, x in enumerate(row) if x} for row in f.alg.J]
    return sparse_product(rows, rows) == [{r: -1} for r in range(f.alg.dim)]


def _commutator_rule(f):
    """The commutator, of dimension rank A, is one-dimensional exactly for
    the Heisenberg type."""
    heisenberg = Partition([2] + [1] * (2 * f.model.n - 1))
    return (f.a_ranks[0] == 1) == (f.model.m == heisenberg)


# (name, category, predicate on _ModelFacts), in the order verify reports them
CHECKS = (
    ("j_squared", "structural checks", _j_squared),
    ("nijenhuis", "structural checks", lambda f: nijenhuis_vanishes(f.alg)),
    ("d_squared", "structural checks", lambda f: f.ce[1]),
    ("dbar_squared", "structural checks", lambda f: f.dolbeault[1]),
    # _dbar_rules raises DifferentialError, a failed check, if d does not split
    ("d_splits", "structural checks", lambda f: bool(_dbar_rules(f.symbols))),
    ("jordan_recovery", "structural checks", lambda f: f.jordan == f.model.m),
    (
        "commutator_formula",
        "structural checks",
        lambda f: f.a_ranks[0] == len(f.alg.A) - len(f.model.m),
    ),
    ("step_formula", "structural checks", lambda f: f.model.step == len(f.a_ranks) + 1),
    ("stable_series", "structural checks", lambda f: bool(stable_series(f.alg, f.model))),
    ("commutator_rule", "structural checks", _commutator_rule),
    ("betti_oracle_eq", "oracle agreement", lambda f: f.closed.betti == f.betti),
    ("hodge_oracle_eq", "oracle agreement", lambda f: f.closed.hodge == f.hodge),
    # frolicher_closed, and serre on the closed tables, are true by
    # construction (closed_table reads both tables off one grid, folded by
    # duality); betti_oracle_eq, hodge_oracle_eq and jordan_recovery test the
    # closed forms, and serre on the oracle tables is independent evidence
    ("frolicher_closed", "frolicher", lambda f: frolicher_holds(f.closed.betti, f.closed.hodge)),
    ("frolicher_oracle", "frolicher", lambda f: frolicher_holds(f.betti, f.hodge)),
    ("symmetry_closed", "symmetry and duality", lambda f: f.closed_report.ok),
    ("symmetry_oracle", "symmetry and duality", lambda f: f.oracle_report.ok),
    (
        "poincare",
        "symmetry and duality",
        lambda f: f.closed_report.poincare and f.oracle_report.poincare,
    ),
    ("serre", "symmetry and duality", lambda f: f.closed_report.serre and f.oracle_report.serre),
)


def run_checks(model):
    """Every check of CHECKS on one model, as booleans in registry order.

    A DifferentialError, StableSeriesError or NotNilpotentError raised
    inside a check marks that check failed.
    """
    facts = _ModelFacts(model)
    results = []
    for _, _, predicate in CHECKS:
        try:
            results.append(bool(predicate(facts)))
        except _CHECK_ERRORS:
            results.append(False)
    return tuple(results)
