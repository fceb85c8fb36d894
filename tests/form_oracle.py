"""Test-only oracles for F_p linear algebra: the full Gram product and row spaces by brute force.

SymplecticForm.pullback computes only the entries of A^T M A above the
diagonal and fills the rest by antisymmetry; full_pullback_gram computes
every entry, so the tests can hold the shortcut to the plain product.
row_space lists a span vector by vector, so rank and row reduction can be
held to the count they must agree with.
"""

from __future__ import annotations

from typing import Sequence


def full_pullback_gram(matrix: Sequence[Sequence[int]], a: Sequence[Sequence[int]], p: int):
    """A^T M A mod p, every entry computed as sum_{k,l} a[k][i] M[k][l] a[l][j]."""
    dim = len(a)
    return tuple(
        tuple(
            sum(a[k][i] * matrix[k][l] * a[l][j] for k in range(dim) for l in range(dim)) % p
            for j in range(dim)
        )
        for i in range(dim)
    )


def row_space(rows: Sequence[Sequence[int]], p: int, width: int) -> frozenset[tuple[int, ...]]:
    """Every F_p-linear combination of the rows, reduced mod p."""
    span = {(0,) * width}
    for row in rows:
        span = {
            tuple((x + c * y) % p for x, y in zip(vector, row))
            for vector in span
            for c in range(p)
        }
    return frozenset(span)
