"""Integer partitions: enumeration, multiplicity views and box-bounded counts."""

from functools import lru_cache


class Partition:
    """A weakly decreasing tuple of positive integers.

    Any iterable of positive integers is accepted; parts are sorted on
    construction, so two partitions compare equal iff they have the same
    multiset of parts.  The empty partition (of 0) is allowed.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(sorted(parts, reverse=True))
        # one C-level test for plain ints; the loop names a bad part and accepts int subclasses
        if not set(map(type, parts)) <= {int} or (parts and parts[-1] < 1):
            for p in parts:
                if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                    raise ValueError("parts must be positive integers, got %r" % (p,))
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_multiplicities(cls, mult):
        """Partition with mult[i] parts equal to i."""
        parts = []
        for i, m in mult.items():
            if m < 0:
                raise ValueError("negative multiplicity for part %d" % i)
            parts.extend([i] * m)
        return cls(parts)

    @property
    def n(self):
        """Sum of the parts."""
        return sum(self.parts)

    def mult(self, i):
        """Number of parts equal to i."""
        return self.parts.count(i)

    def multiplicities(self):
        """Mapping part size -> multiplicity, largest part first."""
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, k):
        return self.parts[k]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        # rebuilt through __init__, since __setattr__ refuses the slot restore
        return Partition, (self.parts,)

    def __repr__(self):
        return "Partition(%s)" % (list(self.parts),)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def iter_partitions(n):
    """Yield every partition of n once, in lexicographically decreasing
    order, keeping none: each step lowers the last part above 1 by one and
    refills the tail with the largest parts the order allows."""
    if n < 0:
        raise ValueError("n must be non-negative")
    parts = [n] if n else []
    while True:
        yield Partition(parts)
        rest = 0
        while parts and parts[-1] == 1:
            parts.pop()
            rest += 1
        if not parts:
            return
        parts[-1] -= 1
        rest += 1
        cap = parts[-1]
        while rest > cap:
            parts.append(cap)
            rest -= cap
        parts.append(rest)


def partitions_of(n):
    """All partitions of n as a list, in the order of iter_partitions."""
    return list(iter_partitions(n))


@lru_cache(maxsize=4096)
def restricted_count(m, n, r):
    """A(m, n, r): partitions of m into at most n parts, each of size <= r.

    A(m, n, r) is the coefficient of q^m in the Gaussian binomial
    [n+r choose r]_q = prod_{i=1..r} (1 - q^(n+i)) / (1 - q^i).  No
    partition of m has more than m parts or a part above m, so n and r
    are clamped to m first.  The product is built one factor at a time
    on coefficients truncated at degree m: multiplying by 1 - q^(n+i),
    then dividing by 1 - q^i as a power series.  After factor i the list
    holds [n+i choose i]_q, so every division is exact.  The work is
    O(r m) integer additions and there is no recursion.
    """
    if m < 0 or n < 0 or r < 0:
        raise ValueError("arguments must be non-negative")
    n, r = min(n, m), min(r, m)
    if m > n * r:
        return 0
    coeffs = [1] + [0] * m
    for i in range(1, r + 1):
        for k in range(m, n + i - 1, -1):
            coeffs[k] -= coeffs[k - n - i]
        for k in range(i, m + 1):
            coeffs[k] += coeffs[k - i]
    return coeffs[m]
