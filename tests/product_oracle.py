"""Test-only oracle: explicit elements of a product subgroup of r Heisenberg groups.

The library bounds product subgroups through their form families and
never builds their elements.  This module builds them, through
group_oracle's HeisenbergElement and its group law only, so the tests can check the
commutation criterion and the exact abelian bound against the group
itself.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from group_oracle import HeisenbergElement
from pgroupcert.products import ProductSubgroupSpec
from pgroupcert.symplectic import BudgetExceeded


def product_element(
    spec: ProductSubgroupSpec, v: Sequence[int], zs: Sequence[int]
) -> tuple[HeisenbergElement, ...]:
    """The tuple with common projection v and central coordinates zs."""
    n, p = spec.n, spec.p
    if len(v) != 2 * n or len(zs) != spec.r:
        raise ValueError("v must have length 2n and zs length r")
    out = []
    for a, z in zip(spec.mats, zs):
        image = tuple(sum(a[i][j] * v[j] for j in range(2 * n)) % p for i in range(2 * n))
        out.append(HeisenbergElement(n, p, image[:n], image[n:], z))
    return tuple(out)


def product_mul(
    g: tuple[HeisenbergElement, ...], h: tuple[HeisenbergElement, ...]
) -> tuple[HeisenbergElement, ...]:
    return tuple(a * b for a, b in zip(g, h))


def common_projection(spec: ProductSubgroupSpec, g: tuple[HeisenbergElement, ...]) -> tuple[int, ...]:
    """A_1^-1 eta(g_1); with A_1 = I this is just eta(g_1)."""
    n, p = spec.n, spec.p
    a1 = [list(row) for row in spec.mats[0]]
    target = list(g[0].eta())
    # solve A_1 w = eta(g_1) by elimination
    aug = [row + [t] for row, t in zip(a1, target)]
    dim = 2 * n
    r = 0
    for c in range(dim):
        pivot = next((i for i in range(r, dim) if aug[i][c] % p), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for i in range(dim):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        r += 1
    return tuple(aug[i][dim] for i in range(dim))


def iterate_product_group(
    spec: ProductSubgroupSpec, budget: int = 10_000
) -> Iterator[tuple[HeisenbergElement, ...]]:
    """All p^(2n+r) elements of the product subgroup."""
    n, p, r = spec.n, spec.p, spec.r
    order = p ** (2 * n + r)
    if order > budget:
        raise BudgetExceeded(order, budget, what="group elements")
    for v in itertools.product(range(p), repeat=2 * n):
        for zs in itertools.product(range(p), repeat=r):
            yield product_element(spec, v, zs)
