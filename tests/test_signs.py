"""The bitmask differentials against a tuple-based reference.

The reference below is the tuple-monomial derivation extension the
package used before monomials became bitmasks: a monomial is an
ascending tuple of generator indices, and d replaces each factor by its
two-form with the Koszul sign (-1)^slot and the signs of sorting the
new factors into place.  The rules on generators are read off the
bracket tensor and the structure equations as stated, and random rule
tables, with factors in any order and repeated, test the one sign rule
of _slot_terms on its own; one-factor rules, as in the degree-zero
ideal action, have a reference of their own.  A sign slip that kept
every rank would go unseen by the oracle-agreement checks, so the
images are compared coefficient for coefficient on every monomial.
"""

import random
from itertools import combinations

import pytest

from almostabelian.cohomology import (
    _ce_generator_differentials,
    _d_mask,
    _dbar_rules,
    _dolbeault_symbols,
    _slot_terms,
)
from almostabelian.model import build_algebra, enumerate_models, structure_equations


def _insert_factor(mono, x):
    """Insert a degree-one factor into an ascending monomial; (tuple, sign) or None."""
    pos = 0
    while pos < len(mono) and mono[pos] < x:
        pos += 1
    if pos < len(mono) and mono[pos] == x:
        return None
    return mono[:pos] + (x,) + mono[pos:], -1 if pos % 2 else 1


def _d_monomial(mono, d1):
    """Image of a tuple monomial; d1 maps a generator to ((coef, (x, y)), ...)."""
    out = {}
    for t, g in enumerate(mono):
        terms = d1[g]
        if not terms:
            continue
        rest = mono[:t] + mono[t + 1 :]
        slot_sign = -1 if t % 2 else 1
        for coef, (x, y) in terms:
            step = _insert_factor(rest, y)
            if step is None:
                continue
            with_y, s1 = step
            step = _insert_factor(with_y, x)
            if step is None:
                continue
            target, s2 = step
            out[target] = out.get(target, 0) + coef * slot_sign * s1 * s2
    return {k: v for k, v in out.items() if v}


def _act_monomial(mono, d1):
    """Image of a tuple monomial under a degree-zero derivation; d1 maps
    a generator to ((coef, (c,)), ...).  Factor c takes the slot of the
    generator it replaces, and the tuple is then sorted: the only sign
    is the parity of that sort, and a repeated factor gives zero."""
    out = {}
    for t, g in enumerate(mono):
        for coef, (c,) in d1[g]:
            placed = mono[:t] + (c,) + mono[t + 1 :]
            if len(set(placed)) < len(placed):
                continue
            inversions = sum(a > b for a, b in combinations(placed, 2))
            target = tuple(sorted(placed))
            out[target] = out.get(target, 0) + (-coef if inversions % 2 else coef)
    return {k: v for k, v in out.items() if v}


def tuple_ce_d1(alg):
    """CE differential on generators, built straight from the bracket tensor."""
    d1 = {k: () for k in range(alg.dim)}
    for (x, y), targets in alg.bracket_tensor().items():
        for b, c in targets.items():
            d1[b] = d1[b] + ((-c, (x, y)),)
    return d1


def tuple_dolbeault_d1(eqs):
    """Dolbeault differential on symbols, read off the structure equations
    as stated: s < g is generator s, s >= g its conjugate, and each
    coef * f1 ^ f2 becomes an ascending pair, negated if f1 > f2."""
    g = len(eqs.generators)
    index = {name: i for i, name in enumerate(eqs.generators)}

    def symbol(factor, conjugate=False):
        name, bar = factor
        return index[name] + (g if bar != conjugate else 0)

    d1 = {}
    for name, terms in eqs.rules:
        plain, conj = [], []
        for coef, (f1, f2) in terms:
            for out, conjugate in ((plain, False), (conj, True)):
                a, b = symbol(f1, conjugate), symbol(f2, conjugate)
                if a != b:
                    out.append((coef if a < b else -coef, (min(a, b), max(a, b))))
        d1[index[name]] = tuple(plain)
        d1[index[name] + g] = tuple(conj)
    return 2 * g, d1, g


def as_mask(mono):
    return sum(1 << s for s in mono)


def as_masks(image):
    return {as_mask(t): v for t, v in image.items()}


def all_monomials(nsym):
    return [m for k in range(nsym + 1) for m in combinations(range(nsym), k)]


def small_models():
    return [c for n in range(1, 4) for c in enumerate_models(n)]


@pytest.mark.parametrize("c", small_models(), ids=lambda c: "q=%s-j=%d" % (c.q, c.j))
def test_ce_differential_matches_tuple_reference(c):
    alg = build_algebra(c)
    reference = tuple_ce_d1(alg)
    terms = _slot_terms(_ce_generator_differentials(alg))
    nonzero = 0
    for mono in all_monomials(alg.dim):
        expected = as_masks(_d_monomial(mono, reference))
        assert _d_mask(as_mask(mono), terms) == expected, mono
        nonzero += bool(expected)
    assert nonzero  # the comparison saw real images, not only zeros


@pytest.mark.parametrize("c", small_models(), ids=lambda c: "q=%s-j=%d" % (c.q, c.j))
def test_dolbeault_differential_matches_tuple_reference(c):
    eqs = structure_equations(c)
    nsym, reference, g = tuple_dolbeault_d1(eqs)
    symbols = _dolbeault_symbols(eqs)
    assert symbols[1] == g
    terms = _slot_terms(symbols[0])
    dbar_terms = _dbar_rules(symbols)
    seen_dbar = seen_dprime = False
    for mono in all_monomials(nsym):
        full = _d_monomial(mono, reference)
        p = sum(1 for s in mono if s < g)
        dbar = {t: v for t, v in full.items() if sum(1 for s in t if s < g) == p}
        mask = as_mask(mono)
        assert _d_mask(mask, terms) == as_masks(full), mono
        assert _d_mask(mask, dbar_terms) == as_masks(dbar), mono
        seen_dbar = seen_dbar or bool(dbar)
        seen_dprime = seen_dprime or len(dbar) < len(full)
    assert seen_dbar and seen_dprime


def test_pair_reordering_sign():
    # g^1 ^ g^0 = -g^0 ^ g^1, and g^2 ^ g^2 = 0
    # rules are keyed by the generator's bit, and ruled masks those bits
    assert _slot_terms({3: ((1, (1, 0)),)}) == (0b1000, {0b1000: ((-1, 0b11, 0b110),)})
    assert _slot_terms({3: ((1, (0, 1)),)}) == (0b1000, {0b1000: ((1, 0b11, 0b110),)})
    assert _slot_terms({3: ((1, (2, 2)),)}) == (0, {})
    # d(g^2 ^ g^3) = d(g^2) ^ g^3 with g^0 ^ g^1 sorted in front: no sign
    terms = _slot_terms({0: (), 1: (), 2: ((1, (0, 1)),), 3: ()})
    assert _d_mask(0b1100, terms) == {0b1011: 1}
    # d(g^0 ^ g^2): slot 1 gives the Koszul sign -1
    terms = _slot_terms({0: (), 1: (), 2: ((1, (3, 4)),), 3: (), 4: ()})
    assert _d_mask(0b101, terms) == {0b11001: -1}


def test_cancelled_terms_are_dropped():
    # d(x0) = x0 ^ x2 and d(x1) = -x1 ^ x2 + 2 x1 ^ x3: on x0 ^ x1,
    # d(x0) ^ x1 = -x0^x1^x2 and -x0 ^ d(x1) = x0^x1^x2 - 2 x0^x1^x3, so
    # only the x3 term is left; a generator whose two rules cancel has
    # image zero
    d1 = {0: ((1, (0, 2)),), 1: ((-1, (1, 2)), (2, (1, 3))), 2: (), 3: ()}
    terms = _slot_terms(d1)
    assert _d_mask(0b11, terms) == {0b1011: -2}
    assert as_masks(_d_monomial((0, 1), d1)) == {0b1011: -2}
    assert _d_mask(0b1, _slot_terms({0: ((1, (1, 2)), (1, (2, 1)))})) == {}


def seeded_rules(seed, nsym=6):
    """A random rule table on nsym symbols, one-factor rules for an even
    seed and two-factor rules for an odd one: up to three rules per
    symbol, nonzero coefficients, factors drawn independently, so
    two-factor rules come in both orders and sometimes repeat a factor."""
    rng = random.Random(seed)
    arity = 2 if seed % 2 else 1
    return {
        g: tuple(
            (rng.choice((-3, -2, -1, 1, 2, 3)), tuple(rng.randrange(nsym) for _ in range(arity)))
            for _ in range(rng.randrange(4))
        )
        for g in range(nsym)
    }


@pytest.mark.parametrize("seed", range(50))
def test_random_rule_tables_match_tuple_references(seed):
    d1 = seeded_rules(seed)
    terms = _slot_terms(d1)
    reference = _d_monomial if seed % 2 else _act_monomial
    for mono in all_monomials(6):
        assert _d_mask(as_mask(mono), terms) == as_masks(reference(mono, d1)), mono


def test_random_rule_tables_cover_every_case():
    # the two-factor tables hold reversed, ascending and repeated factors,
    # and tables of both arities have nonzero images
    pairs = [f for seed in range(1, 50, 2) for rules in seeded_rules(seed).values() for _, f in rules]
    assert any(x > y for x, y in pairs)
    assert any(x < y for x, y in pairs)
    assert any(x == y for x, y in pairs)
    for seed in (0, 1):
        terms = _slot_terms(seeded_rules(seed))
        assert any(_d_mask(as_mask(m), terms) for m in all_monomials(6))
