"""Test-only oracle: every k-dimensional subspace of F_p^dim, one echelon basis at a time.

The library's enumerate_isotropic prunes partial bases row by row and
never builds most subspaces.  This module keeps the plain walk the tests
hold it to: with Subspace.is_isotropic_for it gives the isotropic
subspaces by filtering, at the cost of building every basis.
"""

from __future__ import annotations

import itertools

from pgroupcert.symplectic import DEFAULT_SUBSPACE_BUDGET, BudgetExceeded, Subspace, gaussian_binomial


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
