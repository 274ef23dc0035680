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

    def __repr__(self):
        return "Partition(%s)" % (list(self.parts),)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def partitions_of(n):
    """All partitions of n, each once, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = []
    prefix = []

    def descend(remaining, cap):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            descend(remaining - p, p)
            prefix.pop()

    descend(n, n)
    return out


@lru_cache(maxsize=None)
def restricted_count(m, n, r):
    """A(m, n, r): partitions of m into at most n parts, each of size <= r.

    No partition of m has more than m parts or a part above m, so n and
    r are clamped to m first.  Box recursion: either no part equals r,
    or removing one part equal to r leaves a partition in the (n-1) x r
    box.  Unrolled over r, A(m, n, r) is the sum over the largest part
    s = 1..r of A(m - s, n - 1, s), so the recursion only descends in n
    (depth at most min(n, m)).  All arithmetic stays in plain integers.
    """
    if m < 0 or n < 0 or r < 0:
        raise ValueError("arguments must be non-negative")
    if m == 0:
        return 1
    n, r = min(n, m), min(r, m)
    if n == 0 or r == 0:
        return 0
    return sum(restricted_count(m - s, n - 1, s) for s in range(1, r + 1))
