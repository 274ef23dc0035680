"""Acceptance criteria, one test per criterion.

Every comparison is exact integer equality; wall-clock budgets are
asserted where a criterion states one.  Each test prints one
`ACCEPTANCE <k> ...: PASS|FAIL` line (run pytest with `-s` or `-rA` to
see them on passing runs).
"""

import time
from math import comb

import pytest

from almostabelian.cohomology import (
    CHECKS,
    betti_closed,
    closed_table,
    frolicher_holds,
    hodge_closed,
    oracle_table,
    run_checks,
    verify_symmetry,
)
from almostabelian.exactla import jordan_block
from almostabelian.model import ComplexModel, admits_complex_structure, enumerate_models
from almostabelian.partitions import Partition, partitions_of, restricted_count
from almostabelian.sl2 import delta, irreducible, tensor, wedge, wedge_weight_oracle


class criterion:
    """Prints the pass/fail line for one acceptance criterion."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.start = time.monotonic()
        return self

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %d (%s): %s" % (self.number, self.name, status))
        return False


def M(qparts, j):
    q = Partition(qparts)
    return ComplexModel(q.n, q, j)


def h_at(grid, p, q):
    """Hodge number with the out-of-range convention h^{p,q} = 0."""
    if 0 <= p < len(grid) and 0 <= q < len(grid):
        return grid[p][q]
    return 0


@pytest.fixture(scope="module")
def sweep12():
    """Closed-form and oracle tables for every model of dimension <= 12,
    timing the dim <= 10 part and the full sweep separately."""
    start = time.monotonic()
    entries = []
    for n in range(1, 5):
        for model in enumerate_models(n):
            entries.append((model, closed_table(model), oracle_table(model)))
    elapsed10 = time.monotonic() - start
    for model in enumerate_models(5):
        entries.append((model, closed_table(model), oracle_table(model)))
    total = time.monotonic() - start
    return entries, elapsed10, total


def test_criterion_1_single_block_family():
    with criterion(1, "single-block family reproduction") as c:
        for n in (2, 3, 4, 5):
            model = M([n], n + 1)
            b = betti_closed(model)
            h = hodge_closed(model)
            assert b[1] == 3
            assert b[2] == 2 * n + 2
            assert h[1][0] == 1
            assert h[0][1] == 2
            assert h[2][0] == (n + 1) // 2
            assert h[0][2] == n // 2 + 1
            assert h[1][1] == n + 1
        assert c.elapsed < 1.0


def test_criterion_2_two_step_even_family():
    with criterion(2, "two-step family without overlap") as c:
        for m in (1, 2, 3, 4):
            np = 2 * m
            model = M([2] * m, 1)
            b = betti_closed(model)
            h = hodge_closed(model)
            assert b[1] == np + 2
            assert b[2] == (np + 1) ** 2
            assert b[3] == 3 * comb(np + 2, 3)
            assert b[4] == comb(np + 1, 2) ** 2
            assert b[5] == comb(np, 2) * comb(np + 2, 3)
            assert h_at(h, 1, 0) == m + 1
            assert h_at(h, 2, 0) == m * m + m
            assert h_at(h, 3, 0) == m * comb(m + 1, 2)
            assert h_at(h, 4, 0) == comb(m, 2) * comb(m + 1, 2)
            assert h_at(h, 5, 0) == comb(m, 2) * comb(m + 1, 3)
            assert h_at(h, 1, 1) == 2 * m * m + 2 * m + 1
            assert h_at(h, 2, 1) == (3 * m + 2) * comb(m + 1, 2)
        assert c.elapsed < 5.0


def test_criterion_3_two_step_odd_family():
    with criterion(3, "two-step family with overlap") as c:
        for m in (1, 2, 3):
            np = 2 * m + 1
            model = M([2] * m + [1], 2)
            b = betti_closed(model)
            h = hodge_closed(model)
            assert h[1][0] == m + 1
            assert h[0][1] == m + 2
            assert h[2][0] == (m + 1) ** 2
            assert h[1][1] == 2 * (m + 1) ** 2
            assert h[0][2] == (m + 1) ** 2
            assert b[1] == np + 2
            assert b[2] == (np + 1) ** 2
            assert b[3] == 3 * comb(np + 2, 3)
            assert b[4] == comb(np + 1, 2) ** 2
            assert b[5] == comb(np, 2) * comb(np + 2, 3)
        assert c.elapsed < 5.0


def test_criterion_4_oracle_equivalence(sweep12):
    with criterion(4, "oracle equals closed form through dimension 12"):
        entries, elapsed10, total = sweep12
        assert len(entries) == 39
        for model, closed, oracle in entries:
            assert closed.betti == oracle.betti, model
            assert closed.hodge == oracle.hodge, model
        assert elapsed10 < 60.0
        assert total < 600.0


def test_criterion_5_frolicher_degeneration(sweep12):
    with criterion(5, "Betti numbers are Hodge sums through dimension 12"):
        entries, _, _ = sweep12
        for model, closed, oracle in entries:
            assert frolicher_holds(closed.betti, closed.hodge), model
            assert frolicher_holds(oracle.betti, oracle.hodge), model


def test_criterion_6_symmetry_dichotomy(sweep12):
    with criterion(6, "symmetry dichotomy through dimension 12"):
        entries, _, _ = sweep12
        for model, closed, oracle in entries:
            for table in (closed, oracle):
                rep = verify_symmetry(model, table=table)
                if model.epsilon == 0:
                    assert rep.hodge_symmetric, model
                    assert rep.odd_betti_even, model
                else:
                    assert rep.b1_odd, model


def test_criterion_7_representation_identities():
    with criterion(7, "representation-calculus identities") as c:
        for i in range(1, 16):
            for k in range(1, 16):
                assert delta(tensor(irreducible(i), irreducible(k))) == min(i, k)
        for i in range(1, 13):
            for r in range(0, i + 1):
                w = wedge(irreducible(i), r)
                assert delta(w) == restricted_count((r * (i - r)) // 2, i - r, r)
                assert w == wedge(irreducible(i), i - r)
                assert w == wedge_weight_oracle(irreducible(i), r)
        for n in range(1, 9):
            v = n * irreducible(2)
            assert delta(wedge(v, 1)) == n
            assert delta(wedge(v, 2)) == n * n
            assert delta(wedge(v, 3)) == n * comb(n, 2)
            assert delta(wedge(v, 4)) == comb(n, 2) ** 2
            assert delta(wedge(v, 5)) == comb(n, 2) * comb(n, 3)
        for v in (
            irreducible(4) + irreducible(2),
            3 * irreducible(2) + irreducible(1),
            irreducible(5) + irreducible(3),
            2 * irreducible(3) + 2 * irreducible(2),
        ):
            for r in range(0, v.dim() + 1):
                assert wedge(v, r) == wedge_weight_oracle(v, r)
        assert c.elapsed < 30.0


def test_criterion_8_structural_validity():
    with criterion(8, "structural validity through dimension 14") as c:
        for n in range(1, 7):
            for model in enumerate_models(n):
                failed = [name for (name, _, _), ok in zip(CHECKS, run_checks(model)) if not ok]
                assert not failed, (model, failed)
        assert c.elapsed < 120.0


def test_criterion_9_enumeration_counts():
    with criterion(9, "enumeration counts and classification agreement"):
        assert len(list(enumerate_models(1))) == 1
        assert len(list(enumerate_models(2))) == 3
        for n in range(1, 7):
            models = list(enumerate_models(n))
            for q in partitions_of(n):
                expected = len({p + 1 for p in q.parts}) + 1
                if all(p == 1 for p in q.parts):
                    expected -= 1
                assert sum(1 for c in models if c.q == q) == expected
            admitted = {c.m for c in models}
            for m in partitions_of(2 * n + 1):
                witness = admits_complex_structure(m)
                if m in admitted:
                    assert witness is not None and witness.m == m
                else:
                    assert witness is None


def test_jordan_block_module_cohomology_is_one_one():
    # supporting fact used by the closed forms: both cohomologies of the
    # one-block module are one-dimensional, i.e. the block has rank i - 1
    for i in range(1, 11):
        assert jordan_block(i).rank() == i - 1
