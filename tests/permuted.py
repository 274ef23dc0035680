"""Test helpers: a model written in another order of its basis, and the
dense form of the matrices an `AlgebraModel` stores as sparse columns.

Each permuting helper takes an order `perm` (or `order`) whose entry i
is the old position that moves to position i, so the result is the same
algebra or the same structure equations in a permuted basis.  Every
invariant the package computes must come out unchanged.
"""

from dataclasses import replace

from almostabelian.model import AlgebraModel, _chain_layout


def columns_of(matrix):
    """A square dense matrix, a sequence of rows, as `AlgebraModel`
    stores it: the tuple of its columns, each a {row: entry} dict
    without zero entries."""
    return tuple(
        {r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(len(matrix))
    )


def dense_of(columns):
    """The square matrix whose columns are `columns`, as a tuple of rows."""
    return tuple(tuple(col.get(r, 0) for col in columns) for r in range(len(columns)))


def _conjugate(columns, order):
    """The columns of P M P^-1, M given by its columns, with P moving
    basis vector order[i] to i."""
    moved = {old: new for new, old in enumerate(order)}
    return tuple({moved[r]: x for r, x in columns[old].items()} for old in order)


def permuted_algebra(alg, perm):
    """`alg` with the ideal basis e_1, ..., e_{2n+1} permuted and e_0
    fixed: perm is a permutation of the ideal coordinates 0..2n, and A
    and J are conjugated by it."""
    full = [0] + [1 + p for p in perm]
    return AlgebraModel(dim=alg.dim, A=_conjugate(alg.A, perm), J=_conjugate(alg.J, full))


def permuted_equations(eqs, order):
    """`eqs` with its generators, and their rules, taken in `order`, a
    permutation of the generator positions."""
    return replace(
        eqs,
        generators=tuple(eqs.generators[i] for i in order),
        rules=tuple(eqs.rules[i] for i in order),
    )


def chain_order(model, sizes):
    """The generator order that lays the chains of `model` out in the
    order of their sizes `sizes` (chains of one size keep their order),
    and the ideal order that does the same to both copies of B in A."""
    chains = _chain_layout(model)
    order = [0]
    for size in sizes:
        chain = next(ch for ch in chains if ch[1] == size)
        chains.remove(chain)
        order.extend(range(1 + chain[2], 1 + chain[2] + size))
    return order, order + [model.n + k for k in order[1:]]
