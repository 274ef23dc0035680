"""Formal calculus of finite dimensional sl2(C)-modules.

A module is recorded by the multiset of dimensions of its irreducible
summands; the irreducible of dimension i has weight string
i-1, i-3, ..., -(i-1).  Its summand profile a(t), the number of
summands of dimension >= t, is read straight off its weights.  One
knapsack over the weight multiset of a module gives the weights of
the lower half of its exterior algebra, degrees 0 to dim // 2, at once,
each degree held as one big int with a fixed-width count per weight and
read back by one unpack; summands W(1) are added afterwards by binomial
sums, and the memo keeps the profile of each of those powers.  An upper
degree is read off its mirror: Lambda^r V and Lambda^(dim V - r) V are
isomorphic for every sl2-module V.
The profiles count the summands of a tensor product without expanding
it; a module is the differences of its profile.  Tensor products also
expand by the Clebsch-Gordan rule, and a brute-force weight oracle is
provided for cross-checking.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, pairwise, repeat
from math import comb
from operator import add, mul
from sys import byteorder


class InvalidWeightSystemError(ValueError):
    """A weight multiset that is not the weight system of any module."""


class Sl2Module:
    """Formal direct sum of irreducibles: dimension -> multiplicity.

    Zero multiplicities are dropped on construction, so equality of
    modules is structural equality of the stored vectors.  Dimensions
    and multiplicities must be ints, not bools, as `Partition`'s parts;
    ValueError otherwise.
    """

    __slots__ = ("_mult",)

    def __init__(self, mult=()):
        items = mult.items() if hasattr(mult, "items") else mult
        acc = {}
        for i, m in items:
            if type(i) is not int or type(m) is not int:
                # names a bad entry; int subclasses other than bool pass
                for what, x in (("irreducible dimension", i), ("multiplicity", m)):
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise ValueError("%s must be an int, got %r" % (what, x))
            if i < 1:
                raise ValueError("irreducible dimension must be positive, got %r" % (i,))
            if m < 0:
                raise ValueError("multiplicity must be non-negative, got %r" % (m,))
            if m:
                acc[i] = acc.get(i, 0) + m
        object.__setattr__(self, "_mult", tuple(sorted(acc.items(), reverse=True)))

    def mult(self, i):
        """Multiplicity of the irreducible of dimension i."""
        for d, m in self._mult:
            if d == i:
                return m
        return 0

    def items(self):
        """(dimension, multiplicity) pairs, largest dimension first."""
        return self._mult

    def dim(self):
        return sum(i * m for i, m in self._mult)

    def delta(self):
        """Number of irreducible summands."""
        return sum(m for _, m in self._mult)

    def weights(self):
        """Weight multiset as a Counter."""
        mu = Counter()
        for i, m in self._mult:
            for w in range(i - 1, -i, -2):
                mu[w] += m
        return mu

    def is_zero(self):
        return not self._mult

    def __add__(self, other):
        """Direct sum."""
        return Sl2Module(self._mult + other._mult)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Sl2Module(tuple((i, k * m) for i, m in self._mult))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Sl2Module) and self._mult == other._mult

    def __hash__(self):
        return hash(self._mult)

    def __setattr__(self, name, value):
        raise AttributeError("Sl2Module is immutable")

    def __repr__(self):
        if not self._mult:
            return "0"
        bits = []
        for i, m in self._mult:
            bits.append("W(%d)" % i if m == 1 else "%d*W(%d)" % (m, i))
        return " + ".join(bits)


ZERO = Sl2Module()


def irreducible(i):
    """The irreducible module of dimension i."""
    return Sl2Module(((i, 1),))


def delta(v):
    """Number of irreducible summands of v."""
    return v.delta()


def tensor(v, w):
    """Tensor product, expanded bilinearly by the Clebsch-Gordan rule."""
    acc = Counter()
    for i, mi in v.items():
        for k, mk in w.items():
            for d in range(abs(i - k) + 1, i + k, 2):
                acc[d] += mi * mk
    return Sl2Module(acc)


def weight_profile(mu):
    """Summand profile of the module with weight multiplicities mu (a
    mapping weight -> multiplicity): the tuple a(1), ..., a(top + 1), top
    the largest weight, where a(t) = mu(t-1) + mu(t) is the number of
    summands of dimension >= t (W(d) has one weight in {t-1, t} when
    t <= d, none when t > d).  W(d) occurs a(d) - a(d+1) times.

    Raises InvalidWeightSystemError when the multiset is not symmetric
    under negation or not unimodal, that is when the profile rises.  A
    symmetric multiset whose profile never rises has no gaps either: its
    module has dimension sum_t a(t) = mu(0) + 2 sum_{w>0} mu(w).
    """
    for w, c in mu.items():
        if mu.get(-w, 0) != c:
            raise InvalidWeightSystemError("multiset not symmetric under negation")
    top = max(mu, default=-1)
    # A list, then frozen (as are the profiles of _knapsack and _wedge_sum
    # and closed_table's rows): tuples grown from generators piled up on
    # CPython's free lists over repeated cold passes, +3 MB peak RSS in
    # perfbench's large_n.
    profile = [mu.get(t - 1, 0) + mu.get(t, 0) for t in range(1, top + 2)]
    if any(a < b for a, b in pairwise(profile)):
        raise InvalidWeightSystemError("weight multiplicities are not unimodal")
    return tuple(profile)


def _module(profile):
    """The module with the given summand profile: its differences."""
    return Sl2Module(enumerate((a - b for a, b in zip(profile, profile[1:] + (0,))), 1))


def decompose_from_weights(weights):
    """The unique module with the given weight multiset.

    Raises InvalidWeightSystemError when the multiset is not the weight
    system of a module (see weight_profile).
    """
    return _module(weight_profile(Counter(weights)))


def tensor_count(a, b):
    """Number of irreducible summands of V (x) W, from the profiles a of V
    and b of W: W(i) (x) W(k) has min(i, k) = sum_t [i >= t][k >= t]
    summands, so the count is sum_t a(t) b(t)."""
    return sum(map(mul, a, b))


def slot_bytes(bits):
    """Bytes per slot of a packed int whose counts are below 2^bits:
    bits // 8 + 1, rounded up to 1, 2, 4 or 8 so that unpack reads the
    slots with one memoryview cast; wider slots stay as they are."""
    nbytes = bits // 8 + 1
    return next((b for b in (1, 2, 4, 8) if b >= nbytes), nbytes)


_CAST = {1: "B", 2: "H", 4: "I", 8: "Q"}


def unpack(packed, nbytes, count):
    """The first `count` slots of nbytes bytes each of the int packed,
    lowest first, as a list: one to_bytes, read back by one memoryview
    cast when nbytes is 1, 2, 4 or 8, else by one int.from_bytes per
    slot."""
    raw = packed.to_bytes(count * nbytes, byteorder)
    if nbytes in _CAST:
        return memoryview(raw).cast(_CAST[nbytes]).tolist()
    return [int.from_bytes(raw[i : i + nbytes], byteorder) for i in range(0, len(raw), nbytes)]


def _knapsack(v):
    """The summand profile of the exterior powers of v of degrees 0 to
    dim v // 2, by a 0/1 knapsack over the full weight multiset of v
    (each weight slot is used at most once).  The upper degrees are not
    built: Lambda^r v and Lambda^(dim v - r) v are isomorphic, as
    wedge_profile reads them.

    The weights of degree k are kept in one int, a count per slot of
    slot_bytes(dim v) bytes: a count is at most C(dim v, k) < 2^dim v,
    so no slot carries into the next.  A weight w of v sits at slot
    (w + D) / step, D the top weight and step 2 when every weight has
    the parity of D, else 1, so slot i of degree k holds the weight
    i step - k D, and adding a weight slot is one shift-and-add per
    degree.  The weights are added in ascending order, which keeps the
    ints short until the last ones.  Each degree's weights >= 0 are read
    back by one unpack.
    """
    dim = v.dim()
    if not dim:
        return ((1,),)
    top = v.items()[0][0] - 1
    step = 2 if all((i - 1 - top) % 2 == 0 for i, _ in v.items()) else 1
    nbytes = slot_bytes(dim)
    width = 8 * nbytes
    half = dim // 2
    layers = [1] + [0] * half
    filled = 0
    for w, c in sorted(v.weights().items()):
        shift = (w + top) // step * width
        for _ in range(c):
            filled += 1
            for k in range(min(filled, half), 0, -1):
                layers[k] += layers[k - 1] << shift
    profiles = []
    for k in range(half + 1):
        layer, layers[k] = layers[k], None  # each degree is freed once read
        first = -(-k * top // step)  # the slot of the least weight >= 0
        mu = unpack(layer, nbytes, (layer.bit_length() + width - 1) // width)[first:]
        # a(t) = mu(t-1) + mu(t), as in weight_profile, and a list first
        # for the same reason
        if step == 1:
            profile = list(map(add, mu, mu[1:] + [0]))
        else:
            # one of the two is zero, so each count serves twice, as one
            # object: weights 0, 2, 4, ... give a = mu(0), mu(2), mu(2),
            # mu(4), ...; weights 1, 3, ... give mu(1), mu(1), mu(3), ...
            twice = mu * 2
            twice[::2] = mu
            twice[1::2] = mu
            profile = twice[1:] if first * step == k * top else twice
        profiles.append(tuple(profile))
    return tuple(profiles)


@lru_cache(maxsize=256)
def _wedge_sum(v):
    """The summand profile of the exterior powers of v of degrees 0 to
    dim v // 2, as a tuple; wedge_profile reads the upper degrees off
    their mirrors.

    With V the summands of v of dimension > 1 and c the multiplicity of
    W(1), Lambda^k v = sum_i C(c, i) Lambda^{k-i} V, so only V goes
    through the knapsack, and through this memo: the g10 of a model with
    overlap j = 1, its b01 plus one W(1), reuses the entry of b01.
    """
    ones = v.mult(1)
    if not ones:
        return _knapsack(v)
    rest = Sl2Module(tuple(item for item in v.items() if item[0] > 1))
    base, d = _wedge_sum(rest), rest.dim()
    every = base + base[(d - 1) // 2 :: -1]  # degrees 0 to d, the upper ones mirrored
    # lists, then frozen: see weight_profile
    profiles = []
    for k in range(v.dim() // 2 + 1):
        acc = []
        for i in range(max(0, k - d), min(ones, k) + 1):
            a, times = every[k - i], comb(ones, i)
            if times > 1:
                a = list(map(mul, repeat(times), a))
            if len(a) > len(acc):  # the longer profile is copied, the shorter added in
                acc, a = list(a), acc
            acc[: len(a)] = map(add, acc, a)
        profiles.append(tuple(acc))
    return tuple(profiles)


def wedge_profile(v, r):
    """Summand profile of the r-th exterior power of v (see weight_profile),
    read off the memoised lower half of the exterior algebra of v; empty
    above dim v.

    Degree r > dim v / 2 is read at dim v - r: Lambda^r V is isomorphic to
    (Lambda^(dim V - r) V)* (x) Lambda^(dim V) V, the top power of an
    sl2-module is trivial (its one weight is the sum of all weights, 0),
    and every sl2-module is self-dual."""
    if r < 0:
        raise ValueError("exterior power must be non-negative")
    d = v.dim()
    return _wedge_sum(v)[min(r, d - r)] if r <= d else ()


def wedge(v, r):
    """r-th exterior power of v, the differences of its memoised profile."""
    return _module(wedge_profile(v, r))


def wedge_weight_oracle(v, r):
    """Brute-force wedge of an arbitrary module over its full weight multiset.

    Enumerates all r-subsets of weight slots, so this is only meant for
    small modules (the cross-check range is dim <= 12 or so).
    """
    if r < 0:
        raise ValueError("exterior power must be non-negative")
    pool = []
    for w, c in sorted(v.weights().items()):
        pool.extend([w] * c)
    return decompose_from_weights(Counter(sum(c) for c in combinations(pool, r)))
