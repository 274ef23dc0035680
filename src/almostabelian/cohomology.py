"""Betti and Hodge numbers, twice over.

Closed forms come from the representation calculus: the dual a* of
the abelian ideal is b01 + g10 as formal sl2-modules, and one grid of
summand counts of Lambda^p g10 (x) Lambda^q b01 gives the Hodge numbers
and, summed over p + q = k, the summand counts of Lambda^k a* behind
the Betti numbers.  The brute-force oracles take exact ranks on two
complexes, the Chevalley-Eilenberg complex of the algebra (for Betti
numbers) and the Dolbeault complex spanned by the structure-equation
generators and their conjugates (for Hodge numbers).  Each is one
_Complex record, its block weights and generator rules, that computes
its D^2 verdict and its cohomology once, by one formula for both.

Sign convention, fixed once: d on a dual generator g^k is
-sum_{i<j} c^k_{ij} g^i ^ g^j where [g_i, g_j] = sum c^k_{ij} g_k, and
d extends to monomials as a degree-one derivation with the Koszul sign
for the fixed ascending monomial order.  dbar extends the same way from
its own generator rules, the terms of each generator's d that keep the
holomorphic degree; building those rules is where the split of d into
(1,0) + (0,1) parts is checked, once per complex.  Every complex gives
its generator rules on factor tuples in any order, and _slot_terms alone
applies the wedge signs.

Every walk is one fold over Jordan blocks.  Set aside the symbols
that kill every monomial they divide (e^0, conj(alpha);
_cocycle_symbols).  The walk is strings (_chains) when each ruled
generator's rule is one term with a nonzero coefficient and one live
factor, its step, no two generators step to one symbol, and the paths
that follow the steps from the heads, the live symbols that are no
step, cover every live symbol, each path of one weight: D then moves
one factor one step along its string.  Up to dim 22 every CE,
Dolbeault and ideal-action walk is strings but the Heisenberg type's
(q = 1^n at j = 2).  Why the fold is exact:
1. _cocycle_symbols puts every dead symbol in every rule's pair mask; a
   pair has at most two factors, one of them live, so a string walk
   has at most one dead symbol d0, and D = +-d0 ^ N or D = N, N the
   even derivation that extends each string's shift.  d0 ^ is
   injective on the live monomials, so D and N have one rank on each
   block, keyed by its live monomials' key.
2. Rescaling each string's symbols along its path makes every shift
   coefficient 1, an automorphism of the exterior algebra, and the
   live monomials, up to a sign per monomial, are the tensor product of
   the Lambda J_L = sum_k Lambda^k J_L of the strings, N acting as N_1
   (x) 1 + 1 (x) N_2 + ..., N_c on its own string.
3. Over Q, N_c on Lambda^k J_L is conjugate to its Jordan form, the
   blocks of _chain_jordan(L, k).  Conjugating each factor alone
   conjugates N, which keeps the rank, and the tensor product of direct
   sums is the direct sum of the products of one block per factor, on
   each of which N acts alone, in one block of the complex: key sum k w
   over the strings, w a string's weight.  A block of size 1 is the
   zero map on a line, so it drops out of its product, and a product of
   such blocks alone has rank 0.
So _walk folds in the strings of length 2 or more one at a time,
keeping one polynomial per sorted multiset of block sizes > 1, whose
coefficient of x^key counts that block product in the block of that
key.  Each polynomial is one int, a fixed-width count per key, as
sl2._knapsack packs its weights, and a string of length L and weight
w multiplies it, for each block size b, by sum over k of the
multiplicity of b in Lambda^k J_L times x^(k w): one int product per
multiset and block size.  The ranks are then the sum over multisets
of rank(J_{b_1} (x) ... (x) J_{b_r}) times its polynomial, each
product ranked by _shape_rank once per process, whichever walk or
model meets it first; no sl2 formula or piece size enters.  A string
of length 1, a symbol s with no rule that no rule names, never enters
the fold: D(x ^ s) = +-D(x) ^ s, a sign per monomial, so the complex
is (the rest) (x) Lambda(s), and m such symbols of weight w multiply
the rest's ranks by (1 + x^w)^m (_exterior).  A walk that is not
strings ranks the monomials of its named live symbols, those a rule
names, whole through _d_mask, block by block, each block's rank
written straight into the ranks, so its fold stays at the empty
product; its unnamed symbols are strings of length 1 and take the same
factor.  _cohomology subtracts (1 + x) times the packed ranks from the
block sizes, that factor over every symbol, and unpacks once.
The walks only rank: D^2 = 0 is checked on the generators, which
suffices since D^2 is a derivation.  _chain_jordan keeps (L, k) and
(L, L - k) apart, each type read off one persistence pass over the
weight pieces of its own chain piece (exactla.graded_jordan_type), so
the Poincare and Serre dualities on the oracle tables still test that
those two types agree, and the fold; the block products, ranked once,
are shared by both sides.

_shape_rank ranks a block product J_{b_1} (x) ... (x) J_{b_r} as its
canonical core: each block on consecutive symbols, one-factor rules s
-> s + 1 of coefficient 1, no dead symbol, and each symbol's weight its
position along its block.  N raises a monomial's weight by one, from
0 up to W = sum (b_i - 1), and with top = W - 1 it ranks only the
weight pieces S_w with w <= top // 2, each counted twice, for itself
and its mirror top - w, or once when 2w = top.  Two reasons:
1. The mirror makes it exact: rank(S_w -> S_w+1) = rank(S_top-w ->
   S_top-w+1), since reversing each block conjugates N to its
   transpose, whose derivation extension is the transpose of N's up to
   a sign per monomial.
2. The sizes make it cheap: |S_w| is the coefficient of x^w in the
   product of the 1 + x + ... + x^(b_i - 1), palindromic and unimodal,
   so the lower piece of each mirrored pair is never the larger.
The mirror relates pieces of one block; the Poincare and Serre
dualities relate different blocks, so they stay independent evidence.

The canonical core builds its rows itself, with no rule table and no
sign.  Each rule s -> s + 1 is a one-factor rule of degree zero, so its
only sign is that of moving s + 1 into the slot s leaves, (-1) to the
number of the monomial's other factors between them, and no symbol
lies between s and s + 1: every entry is +1.  Symbol s of a monomial
moves when s + 1 is no factor and s is not last in its block, so with
`interior` the mask of those symbols, the moving bits are mono & ~(mono
>> 1) & interior, and bit b gives the target mono ^ 3b; distinct bits
give distinct targets, so nothing cancels.  _shifted reads the images
of _chain_jordan's pass and the rows of _shape_rank this way.
_shape_rank builds the pieces block by block, dropping a partial
product once its weight passes top // 2, as weights only grow, and
hands the kernel each piece's rows on their own, in the reverse of
their build order, keyed by negated targets, a row permutation and a
column bijection that keeps the rank and, on the dim-14 models,
roughly halves the kernel's reduction steps.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from operator import add

from .exactla import (
    graded_jordan_type,
    jordan_type_from_ranks,
    power_ranks,
    sparse_product,
    sparse_rank,
)
from .model import (
    build_algebra,
    g10_partition,
    nijenhuis_vanishes,
    stable_series,
    structure_equations,
)
from .partitions import Partition
from .sl2 import Sl2Module, slot_bytes, tensor_count, unpack, wedge_profile


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


def _antidiagonal_sums(grid):
    """[sum over p + q = k of grid[p][q] for k = 0 .. 2 (size - 1)] of a
    square grid of `size` rows, each row added in by one slice."""
    size = len(grid)
    sums = [0] * (2 * size - 1)
    for p, row in enumerate(grid):
        sums[p : p + size] = map(add, sums[p : p + size], row)
    return sums


def closed_table(model):
    """Betti vector and Hodge grid read off one grid: D[p][q] counts the
    summands of Lambda^p g10 (x) Lambda^q b01 (tensor_count of their
    profiles), h^{p,q} = D[p][q] + D[p][q-1], and b_k = delta_k +
    delta_{k-1} with delta_k = sum_{p+q=k} D[p][q], the summand count of
    Lambda^k a* since a* = b01 + g10.

    Lambda^r V and Lambda^{dim V - r} V are isomorphic, and g10 and b01
    have dimensions n+1 and n, so D[p][q] = D[n+1-p][q] = D[p][n-q] and
    D[p][n+1] = 0: only the corner p <= (n+1)/2, q <= n/2 is counted,
    from the lower halves of the two exterior algebras that sl2 keeps,
    and each corner row is mirrored into a row of D by slicing, then the
    rows into D.  A Hodge row depends on its row of D alone, so the
    Hodge rows mirror alike, and the Serre symmetry of the grid holds by
    construction."""
    triple = module_triple(model)
    n = model.n
    wb = [wedge_profile(triple.b01, q) for q in range(n // 2 + 1)]
    rows = []
    for p in range((n + 1) // 2 + 1):
        wg = wedge_profile(triple.g10, p)
        half = [tensor_count(wg, b) for b in wb]
        rows.append(half + half[(n - 1) // 2 :: -1] + [0])
    hodge = [(row[0], *map(add, row[1:], row)) for row in rows]
    hodge += hodge[n // 2 :: -1]
    rows += rows[n // 2 :: -1]
    deltas = _antidiagonal_sums(rows)
    betti = (deltas[0], *map(add, deltas[1:], deltas))
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


def _squares_vanish(terms):
    """Whether D^2 = 0, D the odd derivation extension of the generator
    rules `terms`.  D^2 = [D, D] / 2 is a derivation, so it vanishes iff
    it vanishes on every generator: each ruled generator's D^2 is the
    sum of _d_mask over the monomials of its image, every symbol kept."""
    for bit in terms[1]:
        acc = {}
        for target, coef in _d_mask(bit, terms).items():
            for t2, v2 in _d_mask(target, terms).items():
                acc[t2] = acc.get(t2, 0) + coef * v2
        if any(acc.values()):
            return False
    return True


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


def _chains(weights, terms, dead):
    """The live symbols of `weights`, those outside `dead`, as strings or
    whole (module docstring).  Returns (chains, whole).

    When the walk is strings, the chains are its strings, each a list of
    symbols from its head along the steps, and whole is None.  Otherwise
    whole lists the named live symbols, those some rule names, in bit
    order, and the chains are the unnamed ones, one symbol each."""
    ruled, rules = terms
    named, step = ruled, {}
    for bit, stated in rules.items():
        for _, pair, _ in stated:
            named |= pair & ~dead
        coef, pair, _ = stated[0]
        factor = pair & ~dead
        if len(stated) == 1 and coef and factor and not factor & (factor - 1):
            step[bit.bit_length() - 1] = factor.bit_length() - 1
    live = sorted(s for s in weights if not dead >> s & 1)
    steps = set(step.values())
    if len(step) == len(rules) and len(steps) == len(step):
        # step is one-to-one, so the path from a head never meets itself
        # and paths from two heads never meet; a symbol on no path lies
        # on a cycle
        chains = []
        for head in live:
            if head not in steps:
                chain = [head]
                while chain[-1] in step:
                    chain.append(step[chain[-1]])
                chains.append(chain)
        if sum(map(len, chains)) == len(live) and all(
            len({weights[s] for s in chain}) == 1 for chain in chains
        ):
            return chains, None
    return [[s] for s in live if not named >> s & 1], [s for s in live if named >> s & 1]


def _shifted(mono, interior):
    """The monomials that the shift s -> s + 1 of a canonical core sends
    mono to, each with coefficient +1 (module docstring): one per bit b
    of mono & ~(mono >> 1) & interior, a factor whose successor is no
    factor and which is not last in its block, giving mono ^ 3b."""
    bits = mono & ~(mono >> 1) & interior
    while bits:
        b = bits & -bits
        bits ^= b
        yield mono ^ 3 * b


@cache
def _shape_rank(sizes):
    """The rank of N on the block product J_{b_1} (x) ... (x) J_{b_r},
    `sizes` the sorted b_i, each above 1, ranked as its canonical core
    (module docstring).  Cached for the life of the process, so each
    product is ranked once, whichever walk or model meets it first.

    Only the lower weight pieces w <= top // 2, top = sum (b - 1) - 1,
    are built, block by block, and ranked, each on its own and counted
    twice, for itself and its mirror top - w, or once when 2w = top:
    the mirror makes this exact, and the unimodal piece sizes make the
    lower piece of each mirrored pair never the larger.  No row is
    empty: a core monomial, one symbol per block, has no image only when
    each symbol is last in its block, at the top weight W = top + 1, and
    the lower pieces stop at (W - 1) // 2."""
    top = sum(sizes) - len(sizes) - 1
    pieces, interior, base = {0: [0]}, 0, 0
    for size in sizes:
        out = {}
        for w, masks in pieces.items():
            for i in range(min(size, top // 2 - w + 1)):
                out.setdefault(w + i, []).extend([m | 1 << base + i for m in masks])
        pieces = out
        interior |= (1 << base + size - 1) - (1 << base)
        base += size
    rank = 0
    for w, masks in pieces.items():
        rows = [{-target: 1 for target in _shifted(mono, interior)} for mono in reversed(masks)]
        rank += (1 if 2 * w == top else 2) * sparse_rank(rows)
    return rank


@cache
def _chain_jordan(length, k):
    """The Jordan type of N on Lambda^k J_length, the degree-k monomials
    of a string of `length` symbols under s -> s + 1, as ((block size,
    multiplicity), ...) in descending size.  The monomials are graded by
    their weight, the sum of their symbols, which N raises by one, so
    graded_jordan_type reads the type off one persistence pass over the
    weight pieces, each monomial's image read by _shifted.  Cached for
    the life of the process."""
    pieces = {}
    for combo in combinations(range(length), k):
        pieces.setdefault(sum(combo), []).append(sum(1 << s for s in combo))
    interior = (1 << length - 1) - 1
    images = {m: dict.fromkeys(_shifted(m, interior), 1) for g in pieces.values() for m in g}
    blocks = graded_jordan_type([pieces[w] for w in sorted(pieces)], images)
    # the type comes in descending size, and Counter keeps that order
    return tuple(Counter(blocks).items())


def _exterior(poly, counts, width):
    """poly times (1 + x^w)^m for each item (w, m) of counts, x = 2^width:
    the exterior algebra of m symbols of weight w multiplies a graded
    space's block sizes by it, and D's ranks when no rule has or names
    those symbols (module docstring)."""
    for w, m in counts.items():
        poly *= ((1 << w * width) + 1) ** m
    return poly


def _cohomology(ranks, symbols, counts):
    """The cohomology's dimension at each block key, 0 to the top: the
    block sizes _exterior(1, counts) less (1 + x) times the packed ranks
    of a _walk over `symbols` symbols, unpacked once by sl2.unpack,
    nbytes = slot_bytes(symbols) bytes per key, as packed.  Every size
    fits: a block of the walk has fewer than 2^symbols monomials, and
    the ideal action's C(symbols + 1, k) < 2^(symbols + 1) <=
    2^(8 nbytes).  The subtraction never borrows: each coefficient is a
    cohomology dimension, >= 0 and below 2^(8 nbytes)."""
    nbytes = slot_bytes(symbols)
    top = sum(w * m for w, m in counts.items())
    dims = _exterior(1, counts, 8 * nbytes) - (ranks << 8 * nbytes) - ranks
    return tuple(unpack(dims, nbytes, top + 1))


def _walk(weights, terms):
    """The rank of D on each block of a graded complex, from one fold
    over the Jordan blocks of its strings (module docstring), packed in
    one int with nbytes = slot_bytes(len(weights)) bytes per block key,
    as sl2._knapsack packs its weights: a block has fewer than
    2^len(weights) monomials, so no count it bounds carries into the
    next key, and a polynomial in x = 2^(8 nbytes) is multiplied as one
    int.  _cohomology unpacks the ranks.

    `weights` maps each symbol to its block weight, an int; a monomial's
    block key, the sum of its symbols' weights, determines its degree.
    D is the derivation extension of the generator rules `terms`, as
    _d_mask applies them.  A monomial divisible by a symbol of
    _cocycle_symbols(terms) has an empty image, so no walk visits it.

    The fold maps each sorted multiset of block sizes > 1 to the
    polynomial of its counts by key, in the order the walk first meets
    it.  Each string of length L >= 2 and weight w multiplies in the
    blocks of each Lambda^k J_L: a block size b adds the factor sum over
    k of its multiplicity x^(k w).  The ranks are then sum
    _shape_rank(sizes) x its polynomial.  A walk that is not strings
    ranks the monomials of its whole symbols block by block, straight
    into the ranks, and its other symbols are all strings of length 1,
    so its fold stays at the empty product.  The strings of length 1 are
    counted per weight and applied last, m of weight w as _exterior's
    factor (1 + x^w)^m on the ranks: such a symbol s has no rule and no
    rule names it, so D(x ^ s) = +-D(x) ^ s and the complex is the rest
    (x) Lambda(s)."""
    chains, whole = _chains(weights, terms, _cocycle_symbols(terms))
    width = 8 * slot_bytes(len(weights))
    ranks = 0
    if whole is not None:
        pieces = {}
        for k in range(len(whole) + 1):
            for combo in combinations(whole, k):
                key = sum(weights[s] for s in combo)
                pieces.setdefault(key, []).append(sum(1 << s for s in combo))
        for key, masks in pieces.items():
            ranks += sparse_rank([img for m in masks if (img := _d_mask(m, terms))]) << key * width
    fold = {(): 1}
    singles = Counter()
    for chain in chains:
        length, w = len(chain), weights[chain[0]]
        if length == 1:
            singles[w] += 1
            continue
        factors = {}
        for k in range(length + 1):
            for size, ways in _chain_jordan(length, k):
                factors[size] = factors.get(size, 0) + (ways << k * w * width)
        merged = {}
        for sizes, poly in fold.items():
            for size, factor in factors.items():
                grown = sizes if size == 1 else tuple(sorted(sizes + (size,)))
                merged[grown] = merged.get(grown, 0) + poly * factor
        fold = merged
    for sizes, poly in fold.items():
        if sizes:
            ranks += _shape_rank(sizes) * poly
    return _exterior(ranks, singles, width)


@dataclass(frozen=True)
class _Complex:
    """The monomials in the symbols of `weights`, a monomial's block key
    the sum of its symbols' weights, and D, the derivation extension of
    the rules `terms` (from _slot_terms), which raises that key by one;
    `name` ("d" or "dbar") names D in the DifferentialError of dims."""

    weights: dict
    terms: tuple
    name: str

    @cached_property
    def squares(self):
        """Whether D^2 = 0, checked on the generators."""
        return _squares_vanish(self.terms)

    @cached_property
    def dims(self):
        """The cohomology's dimensions in key order, _cohomology of one
        _walk; raises DifferentialError if D^2 fails on a generator."""
        if not self.squares:
            raise DifferentialError("%s^2 != 0" % self.name)
        ranks = _walk(self.weights, self.terms)
        return _cohomology(ranks, len(self.weights), Counter(self.weights.values()))


# -- Chevalley-Eilenberg oracle -----------------------------------------------


def _ce_generator_differentials(alg):
    """d on each dual generator of the CE complex, from the bracket tensor."""
    d1 = {k: () for k in range(alg.dim)}
    for pair, targets in alg.bracket_tensor().items():
        for b, c in targets.items():
            d1[b] = d1[b] + ((-c, pair),)
    return d1


def _ce(alg):
    """The CE complex: every symbol of weight 1, so a block is a degree."""
    terms = _slot_terms(_ce_generator_differentials(alg))
    return _Complex(dict.fromkeys(range(alg.dim), 1), terms, "d")


def betti_oracle(alg):
    """Betti vector from exact ranks of the CE differentials; raises
    DifferentialError if d^2 fails on a generator."""
    return _ce(alg).dims


def d_squared_vanishes(alg):
    """Check d^2 = 0 on every generator of the CE complex, which
    suffices since d^2 is a derivation."""
    return _ce(alg).squares


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


def _dolbeault(model):
    """The model's Dolbeault record: `_dbar_complex` of the symbol table
    of its structure equations.  Raises DifferentialError if d does not
    split by bidegree."""
    return _dbar_complex(_dolbeault_symbols(structure_equations(model)))


def _dbar_complex(symbols):
    """The Dolbeault complex of dbar's rules: block (p, q) has key
    p * (g + 1) + q, so dbar raises it by one, keys order blocks as
    (p, q) does, and (p - 1, g), the key below (p, 0), has rank zero.
    Raises DifferentialError if d does not split by bidegree."""
    g = symbols[1]
    return _Complex({s: g + 1 if s < g else 1 for s in range(2 * g)}, _dbar_rules(symbols), "dbar")


def _hodge_grid(dolbeault):
    """A Dolbeault record's dims as the Hodge grid, in rows of g + 1."""
    size = len(dolbeault.weights) // 2 + 1
    dims = dolbeault.dims
    return tuple(tuple(dims[key : key + size]) for key in range(0, len(dims), size))


def hodge_oracle(model):
    """Hodge grid from exact integer ranks of dbar on the Dolbeault
    complex, the wedge monomials in the structure-equation generators and
    their conjugates; dbar extends the terms of each generator's d that
    keep the holomorphic degree.  Raises DifferentialError if d does not
    split into (1,0) + (0,1) parts, checked on the generator rules
    before any rank, or if dbar^2 fails on a generator."""
    return _hodge_grid(_dolbeault(model))


def dbar_squared_vanishes(model):
    """Check dbar^2 = 0 on every generator of the Dolbeault complex, which
    suffices since dbar^2 is a derivation; raises DifferentialError if d
    does not split by bidegree (checked on the generator rules)."""
    return _dolbeault(model).squares


# -- auxiliary routes ----------------------------------------------------------


def betti_via_ideal_action(alg):
    """Betti numbers through the action of e_0 on the exterior powers of
    the dual ideal: b_k = dim ker L_k + dim coker L_{k-1}.

    L is the degree-zero derivation extension of the coadjoint action on
    the dual ideal: it sends dual generator r to -A[r][c] times c, a
    one-factor rule whose sign _slot_terms applies.  It checks the CE
    oracle's rules, read here off A's columns, not the bracket tensor, and
    the cone formula; it shares the walk, _cohomology and the kernel.
    """
    size = alg.dim - 1
    rules = dict.fromkeys(range(size), ())
    for c, col in enumerate(alg.A):
        for r, a in col.items():
            rules[r] += ((-a, (c,)),)
    terms = _slot_terms(rules)
    # L_k is square, so its kernel and cokernel have the same dimension,
    # and b_k = C(size + 1, k) - rank L_k - rank L_(k-1)
    return _cohomology(_walk(dict.fromkeys(range(size), 1), terms), size, {1: size + 1})


# -- tables and verification ----------------------------------------------------


def oracle_table(model):
    return CohomologyTable(
        betti=betti_oracle(build_algebra(model)),
        hodge=hodge_oracle(model),
        source="oracle",
    )


def frolicher_holds(betti, hodge):
    """b_k = sum over p+q=k of h^{p,q}, for each k of the grid and no other k."""
    return list(betti) == _antidiagonal_sums(hodge)


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

class _shared(cached_property):
    """A cached_property that also keeps the exception its build raised:
    later reads raise it again instead of rebuilding.  A built value
    lives in the instance dict, so reads of it skip this code."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        errors = instance.__dict__.setdefault("_errors", {})
        if self.attrname in errors:
            raise errors[self.attrname]
        try:
            return super().__get__(instance, owner)
        except Exception as exc:
            errors[self.attrname] = exc
            raise


@dataclass
class _ModelFacts:
    """What the checks of one model share, each value built on first use
    and then kept, or the exception its build raised: the algebra,
    the power ranks of A, the closed table, the CE and Dolbeault records
    (each complex's D^2 verdict and cohomology computed once, shared by
    its structural check and its oracle check; building the Dolbeault
    record is the split check), the oracle table and the symmetry
    reports of both tables."""

    model: object
    alg = _shared(lambda s: build_algebra(s.model))
    # A's columns are the rows of its transpose, which has A's power ranks
    a_ranks = _shared(lambda s: power_ranks(s.alg.A))
    jordan = _shared(lambda s: Partition(jordan_type_from_ranks(len(s.alg.A), s.a_ranks)))
    closed = _shared(lambda s: closed_table(s.model))
    ce = _shared(lambda s: _ce(s.alg))
    dolbeault = _shared(lambda s: _dolbeault(s.model))
    betti = _shared(lambda s: s.ce.dims)
    hodge = _shared(lambda s: _hodge_grid(s.dolbeault))
    oracle = _shared(lambda s: CohomologyTable(s.betti, s.hodge, "oracle"))
    closed_report = _shared(lambda s: verify_symmetry(s.model, s.closed))
    oracle_report = _shared(lambda s: verify_symmetry(s.model, s.oracle))


def _j_squared(f):
    """J^2 = -1, by the sparse product of J's columns with themselves:
    taken as rows they are J^T, and (J^T)^2 = -1 exactly when J^2 = -1."""
    return sparse_product(f.alg.J, f.alg.J) == [{r: -1} for r in range(f.alg.dim)]


def _commutator_rule(f):
    """The commutator, of dimension rank A, is one-dimensional exactly for
    the Heisenberg type."""
    heisenberg = Partition([2] + [1] * (2 * f.model.n - 1))
    return (f.a_ranks[0] == 1) == (f.model.m == heisenberg)


# (name, category, predicate on _ModelFacts), in the order verify reports them
CHECKS = (
    ("j_squared", "structural checks", _j_squared),
    ("nijenhuis", "structural checks", lambda f: nijenhuis_vanishes(f.alg)),
    ("d_squared", "structural checks", lambda f: f.ce.squares),
    ("dbar_squared", "structural checks", lambda f: f.dolbeault.squares),
    # _dbar_rules raises DifferentialError, a failed check, if d does not split
    ("d_splits", "structural checks", lambda f: bool(f.dolbeault)),
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

    Any Exception raised inside a check, a DifferentialError from a d
    that does not split or an error no check means to raise, marks that
    check failed; KeyboardInterrupt and SystemExit still escape.
    """
    facts = _ModelFacts(model)
    results = []
    for _, _, predicate in CHECKS:
        try:
            results.append(bool(predicate(facts)))
        except Exception:
            results.append(False)
    return tuple(results)
