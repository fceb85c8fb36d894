"""Test-only oracles: every k-dimensional subspace of F_p^dim, and an isotropic search with no shortcut.

A subspace is its reduced row echelon basis, a tuple of row tuples, as in
the library.  The library's enumerate_isotropic prunes partial bases row
by row and never builds most subspaces.  This module keeps the plain walk
the tests hold it to: every echelon basis, built from its pivot pattern,
filtered by is_isotropic, at the cost of building every basis.

enumerate_isotropic also answers k > n at once, by the rank argument,
so it no longer witnesses that argument.  isotropic_by_pivot_walk does:
it runs the library's pruned search over every pivot pattern at any k,
which checks that the subspaces it decided add up to the Gaussian
binomial.
"""

from __future__ import annotations

import itertools

from pgroupcert.symplectic import (
    DEFAULT_SUBSPACE_BUDGET,
    BudgetExceeded,
    _pivot_walk,
    gaussian_binomial,
)


def enumerate_subspaces(dim: int, p: int, k: int, budget: int = DEFAULT_SUBSPACE_BUDGET) -> list:
    """The reduced echelon basis of every k-dimensional subspace of F_p^dim (no isotropy constraint)."""
    if k > dim:
        return []
    total = gaussian_binomial(dim, k, p)
    if total > budget:
        raise BudgetExceeded(total, budget)
    out = []
    for pivots in itertools.combinations(range(dim), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, dim) if j not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            basis = [[int(j == c) for j in range(dim)] for c in pivots]
            for (i, j), v in zip(free, values):
                basis[i][j] = v
            out.append(tuple(tuple(row) for row in basis))
    assert len(out) == total
    return out


def is_isotropic(basis, form) -> bool:
    """Whether the form vanishes on every pair of basis rows."""
    return all(form.evaluate(a, b) == 0 for a, b in itertools.combinations_with_replacement(basis, 2))


def isotropic_by_pivot_walk(forms, k: int, budget: int = DEFAULT_SUBSPACE_BUDGET) -> list:
    """Every k-dimensional subspace isotropic for all the forms, searched at every k.

    Runs the library's _pivot_walk, which decides each of the
    gaussian_binomial(dim, k, p) subspaces one pivot pattern at a time,
    even where the rank argument already says the answer is empty.
    """
    return _pivot_walk(forms, k, budget)
