"""Test-only oracles: every k-dimensional subspace of F_p^dim, and an isotropic search with no shortcut.

The library's enumerate_isotropic prunes partial bases row by row and
never builds most subspaces.  This module keeps the plain walk the tests
hold it to: with Subspace.is_isotropic_for it gives the isotropic
subspaces by filtering, at the cost of building every basis.

enumerate_isotropic also answers k > n at once, by the rank argument,
so it no longer witnesses that argument.  isotropic_by_pivot_walk does:
it runs the pruned search over every pivot pattern at any k, and checks
that the subspaces it decided add up to the Gaussian binomial.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import mul

from pgroupcert.symplectic import (
    DEFAULT_SUBSPACE_BUDGET,
    BudgetExceeded,
    Subspace,
    _isotropic_with_pivots,
    gaussian_binomial,
)


def enumerate_subspaces(dim: int, p: int, k: int, budget: int = DEFAULT_SUBSPACE_BUDGET) -> list[Subspace]:
    """All k-dimensional subspaces of F_p^dim (no isotropy constraint)."""
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
            out.append(Subspace(p, tuple(tuple(row) for row in basis)))
    assert len(out) == total
    return out


def isotropic_by_pivot_walk(forms, k: int, budget: int = DEFAULT_SUBSPACE_BUDGET) -> list[Subspace]:
    """Every k-dimensional subspace isotropic for all the forms, searched at every k.

    Decides each of the gaussian_binomial(dim, k, p) subspaces through
    _isotropic_with_pivots, one pivot pattern at a time, even where the
    rank argument already says the answer is empty.
    """
    p, dim = forms[0].p, forms[0].dim
    total = gaussian_binomial(dim, k, p)
    if total > budget:
        raise BudgetExceeded(total, budget)
    if k == 0:
        return [Subspace(p, ())]
    grams = [f.matrix for f in forms]

    @cache
    def normals(y):
        return tuple(tuple(sum(map(mul, w, y)) % p for w in gram) for gram in grams)

    survivors = []
    decided = 0
    for pivots in itertools.combinations(range(dim), k):
        bases, count = _isotropic_with_pivots(normals, dim, p, pivots)
        decided += count
        survivors.extend(bases)
    assert decided == total, f"decided {decided} subspaces, expected {total}"
    return [Subspace(p, basis) for basis in sorted(survivors)]
