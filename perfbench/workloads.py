"""The benchmark's workloads: seeded inputs, timed ops and their checks.

Inputs are generated here from the seed, with the benchmark's own
partition and Jordan-type code; the program's enumerators are never
used to choose inputs.  A workload is one *pass*: a list of ops, each a
timed call into the package plus an untimed check against a reference
that does not come from the code under test.  Every call goes through
module attributes (``cohomology.oracle_table``, not a name imported
here), so a traced run sees it.
"""

import io
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable

from almostabelian import cli, cohomology, model, partitions, records

# Exact stdout of `verify --max-dim D` at the seed commit, with exit status 0.
EXPECTED_VERIFY = {
    12: (
        "representation identities: 543 passed, 0 failed\n"
        "partition identities: 6413 passed, 0 failed\n"
        "enumeration: 134 passed, 0 failed\n"
        "structural checks: 390 passed, 0 failed\n"
        "oracle agreement: 78 passed, 0 failed\n"
        "frolicher: 78 passed, 0 failed\n"
        "symmetry and duality: 156 passed, 0 failed\n"
        "models checked: 39\n"
        "result: PASS\n"
    ),
    6: (
        "representation identities: 543 passed, 0 failed\n"
        "partition identities: 6413 passed, 0 failed\n"
        "enumeration: 15 passed, 0 failed\n"
        "structural checks: 40 passed, 0 failed\n"
        "oracle agreement: 8 passed, 0 failed\n"
        "frolicher: 8 passed, 0 failed\n"
        "symmetry and duality: 16 passed, 0 failed\n"
        "models checked: 4\n"
        "result: PASS\n"
    ),
}

# Full-size parameters, and the tiny ones the benchmark's tests use.
SIZES = {
    "full": {"max_dim": 12, "oracle_n": 6, "classify_n": 28, "queries": 16,
             "record_n": 16, "record_tops": (3, 4, 5, 6), "record_distinct": 3},
    "tiny": {"max_dim": 6, "oracle_n": 3, "classify_n": 6, "queries": 4,
             "record_n": 5, "record_tops": (2, 3), "record_distinct": 2},
}


@dataclass
class Op:
    """One timed call and the check of its result."""

    kind: str  # "verify" | "oracle" | "classify" | "record"
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    models: int = 0  # models the op sweeps (verify, oracles)
    params: tuple = ()  # (q, j) of the model, or the Jordan type queried


# -- reference combinatorics, independent of the package -----------------------


def own_partitions(n, cap=None):
    """Partitions of n as weakly decreasing tuples."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        out.extend((first,) + rest for rest in own_partitions(n - first, first))
    return out


def overlaps(q):
    """Admissible overlap indices j for q: 1 unless q is all ones, and p+1
    for every part p."""
    return ([] if set(q) == {1} else [1]) + sorted({p + 1 for p in q})


def own_jordan(q, j):
    """Jordan type of the model (q, j): doubled q, then one (j-1)-block
    promoted to a j-block (j > 1) or one extra 1-block (j = 1)."""
    mult = Counter({p: 2 * c for p, c in Counter(q).items()})
    if j > 1:
        mult[j - 1] -= 1
    mult[j] += 1
    return tuple(sorted(mult.elements(), reverse=True))


def own_classify(m):
    """(q, j) whose Jordan type is m, or None.

    m is admissible iff its parts of odd multiplicity are exactly {1}
    (j = 1, m not all ones) or exactly {k, k+1} (j = k+1); q then halves
    the multiplicities after undoing the overlap.
    """
    mult = Counter(m)
    odd = sorted(p for p, c in mult.items() if c % 2)
    if odd == [1] and set(m) != {1}:
        j = 1
        mult[1] -= 1
    elif len(odd) == 2 and odd[1] == odd[0] + 1:
        j = odd[1]
        mult[j] -= 1
        mult[j - 1] += 1
    else:
        return None
    q = tuple(sorted(Counter({p: c // 2 for p, c in mult.items()}).elements(), reverse=True))
    return q, j


def random_partition(rng, n):
    """A partition of n: a random composition into a random number of parts, sorted."""
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True))


def frolicher_poincare_serre(betti, hodge):
    size = len(hodge)
    frolicher = all(
        betti[k] == sum(hodge[p][k - p] for p in range(size) if 0 <= k - p < size)
        for k in range(len(betti))
    )
    poincare = betti == betti[::-1]
    serre = all(hodge[p][q] == hodge[size - 1 - p][size - 1 - q]
                for p in range(size) for q in range(size))
    return frolicher and poincare and serre


def complex_model(q, j):
    return model.ComplexModel(sum(q), partitions.Partition(q), j)


# -- verify_dim12 ----------------------------------------------------------------


def verify_ops(rng, size):
    """The whole `verify` sweep, in process and sequential; the seed is unused."""
    max_dim = size["max_dim"]
    expected = EXPECTED_VERIFY[max_dim]

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            status = cli.main(["verify", "--max-dim", str(max_dim)])
        return status, out.getvalue()

    models = int(expected.split("models checked: ")[1].split("\n")[0])
    return [Op("verify", "verify --max-dim %d" % max_dim, call,
               lambda result: result == (0, EXPECTED_VERIFY[max_dim]), models)]


# -- oracles_dim14 ---------------------------------------------------------------


def oracle_strata(n):
    """The models of dimension 2n+2, split into strata of at most two.

    Cells are (single-block / 2-3 blocks / 4+ blocks) x (j = 1 / j > 1);
    inside a cell, models are ordered by the rank of the adjoint matrix
    (2n+1 minus the number of Jordan blocks), then by largest part, and
    neighbours are paired.  Oracle cost follows that order, so drawing
    one model per stratum gives every seed nearly the same work.
    """
    cells = {}
    for q in own_partitions(n):
        blocks = 0 if len(q) == 1 else 1 if len(q) <= 3 else 2
        for j in overlaps(q):
            cells.setdefault((blocks, j > 1), []).append((q, j))
    strata = []
    for key in sorted(cells):
        ordered = sorted(cells[key], key=lambda qj: (-len(own_jordan(*qj)), qj[0][0], qj))
        strata.extend(ordered[i : i + 2] for i in range(0, len(ordered), 2))
    return strata


def oracle_op(q, j):
    c = complex_model(q, j)

    def call():
        alg = model.build_algebra(c)
        return cohomology.oracle_table(c), cohomology.betti_via_ideal_action(alg)

    def check(result):
        table, ideal = result
        closed = cohomology.closed_table(c)
        return table.betti == ideal == closed.betti and table.hodge == closed.hodge

    return Op("oracle", "oracles q=%s j=%d" % (list(q), j), call, check, 1, (q, j))


def oracle_ops(rng, size):
    picks = [rng.choice(stratum) for stratum in oracle_strata(size["oracle_n"])]
    rng.shuffle(picks)
    return [oracle_op(q, j) for q, j in picks]


# -- large_n ---------------------------------------------------------------------


def classify_op(m):
    jordan = partitions.Partition(m)

    def check(witness):
        expected = own_classify(m)
        if witness is None or expected is None:
            return witness is None and expected is None
        return ((witness.q.parts, witness.j) == expected
                and model.jordan_partition(witness.q, witness.j) == jordan)

    return Op("classify", "classify m=%s" % list(m),
              lambda: model.admits_complex_structure(jordan), check, 0, m)


def record_op(q, j):
    c = complex_model(q, j)

    def call():
        record = records.ExportRecord.for_model(c)
        return record, record.to_json()

    def check(result):
        record, text = result
        return (
            records.ExportRecord.from_json(text) == record
            and (record.q, record.j, record.m) == (q, j, own_jordan(q, j))
            and dict(record.checks)["frolicher"] and dict(record.checks)["nijenhuis"]
            and frolicher_poincare_serre(record.betti, record.hodge)
        )

    return Op("record", "record q=%s j=%d" % (list(q), j), call, check, 0, (q, j))


def record_qs(rng, n, tops, distinct):
    """The single block q = (n), then for each largest part in `tops` one
    random partition of n with that largest part and `distinct` distinct
    parts (so `distinct` + 1 records).

    Closed-form cost grows steeply with the largest part: at n = 16 a
    record of (16) takes about ten times the median one.  The single
    block is always drawn, so the costliest records, and the p90, are
    the same for every seed; the draws per largest part give every seed
    the same number and spread of typical ones.
    """
    return [(n,)] + [
        rng.choice([q for q in own_partitions(n) if q[0] == top and len(set(q)) == distinct])
        for top in tops
    ]


def large_n_ops(rng, size):
    """Classify queries and closed-form records, interleaved.

    Queries: half are Jordan types of random models (q, j), half random
    partitions of 2n+1.  Records: every admissible j of a few q (see
    record_qs), so records of one q share exterior powers through the
    sl2 memo.
    """
    n = size["classify_n"]
    half = size["queries"] // 2
    queries = []
    for _ in range(half):
        q = random_partition(rng, n)
        queries.append(own_jordan(q, rng.choice(overlaps(q))))
    queries.extend(random_partition(rng, 2 * n + 1) for _ in range(half))
    rng.shuffle(queries)
    recs = [record_op(q, j)
            for q in record_qs(rng, size["record_n"], size["record_tops"],
                               size["record_distinct"])
            for j in overlaps(q)]
    pairs = zip_longest(map(classify_op, queries), recs)
    return [op for pair in pairs for op in pair if op is not None]


WORKLOADS = {
    "verify_dim12": verify_ops,
    "oracles_dim14": oracle_ops,
    "large_n": large_n_ops,
}


def build(name, seed, size="full"):
    """The pass of workload `name` for `seed`: the same seed gives the same ops."""
    return WORKLOADS[name](random.Random(seed), SIZES[size])
