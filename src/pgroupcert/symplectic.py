"""Linear algebra over F_p: symplectic forms, echelon bases, isotropic enumeration.

Matrices are tuples of int tuples and every operation on them is exact
integer arithmetic reduced mod p, so entries of any size, and primes of
any size, give the same answer as their residues.

A subspace is its reduced row echelon basis, a tuple of row tuples.  That
basis is unique, so subspace equality is matrix equality and enumeration
by pivot pattern visits every subspace exactly once.  The number of
k-dimensional subspaces of F_p^m is the Gaussian binomial coefficient; it
gates each exhaustive enumeration against a budget.  The library only
does forward elimination: it decides rank, and so invertibility and the
nondegeneracy of a form, and the search builds its echelon bases
directly, so no basis is ever row-reduced.

The isotropic search grows echelon bases row by row and prunes a partial
basis as soon as two of its rows pair nonzero under some form, so it
touches far fewer candidate rows than there are subspaces.  It still
decides every subspace, and checks that the subspaces it ruled out plus
those it kept add up to the Gaussian binomial.  The
subspaces_examined_per_attempt of a form-family transcript is that count
of subspaces decided, not the number of candidate rows touched.  The
rank argument lives here and nowhere else: every SymplecticForm is
nondegenerate (its constructor checks the rank), and such a form on
F_p^(2n) has no isotropic subspace of dimension above n, since W lies in
W-perp and dim W-perp = 2n - dim W, so enumerate_isotropic answers those
dimensions empty, before the budget.  The tests hold the search to a
plain walk over every echelon basis.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from operator import mul
from typing import Callable, NamedTuple, Sequence

Row = tuple[int, ...]
Matrix = tuple[Row, ...]

#: Default ceiling on how many subspaces an exhaustive enumeration may visit.
DEFAULT_SUBSPACE_BUDGET = 10**7

#: Most matrix entries, r * (2n)^2, a form family may have; its producer
#: refuses a larger family before drawing a matrix, and its verifier before
#: reading one.
MAX_FORM_FAMILY_ENTRIES = 65_536

#: Largest bit length a count is written in decimal for: 14,000 bits are at
#: most 4,215 digits, inside CPython's default limit of 4,300 on int/str
#: conversion.  A larger count is described by its bit length.
_DECIMAL_BITS = 14_000


def _describe_count(value: int) -> str:
    bits = value.bit_length()
    return str(value) if bits <= _DECIMAL_BITS else f"at least 2^{bits - 1}"


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would visit more objects than the budget allows."""

    def __init__(self, needed: int, budget: int, what: str = "subspaces"):
        super().__init__(
            f"enumeration needs {_describe_count(needed)} {what}, budget is {_describe_count(budget)}"
        )
        self.needed = needed
        self.budget = budget


def _as_matrix(rows: Sequence[Sequence[int]], p: int) -> Matrix:
    return tuple(tuple(int(x) % p for x in row) for row in rows)


def _echelon_mod_p(work: list[list[int]], p: int) -> list[int]:
    """Forward elimination over F_p in place; returns the pivot columns.

    The entries of work must already lie in range(p).  Afterwards its first
    len(pivots) rows are in row echelon form and the rows below them are
    zero: only the rows under each pivot are eliminated, and no row is scaled.
    """
    pivots: list[int] = []
    height = len(work)
    r = 0
    for c in range(len(work[0]) if work else 0):
        if not work[r][c]:
            below = next((i for i in range(r + 1, height) if work[i][c]), None)
            if below is None:
                continue
            work[r], work[below] = work[below], work[r]
        top = work[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, height):
            f = work[i][c]
            if f:
                f = f * inv % p
                work[i] = [(a - f * b) % p for a, b in zip(work[i], top)]
        pivots.append(c)
        r += 1
        if r == height:
            break
    return pivots


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(_echelon_mod_p([[int(x) % p for x in row] for row in rows], p))


def is_invertible(matrix: Sequence[Sequence[int]], p: int) -> bool:
    m = list(matrix)
    return bool(m) and len(m) == len(m[0]) and rank_mod_p(m, p) == len(m)


def random_invertible(dim: int, p: int, rng: random.Random) -> Matrix:
    """Uniformly sampled entries, rejected until invertible."""
    while True:
        candidate = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if is_invertible(candidate, p):
            return tuple(map(tuple, candidate))


class _FormFields(NamedTuple):
    p: int
    matrix: Matrix


class SymplecticForm(_FormFields):
    """A nondegenerate antisymmetric bilinear form on F_p^(2n), given by its Gram matrix.

    An immutable (p, matrix) record, compared and hashed by value; the
    constructor refuses a matrix that is not such a form.
    """

    __slots__ = ()

    def __new__(cls, p: int, matrix: Matrix) -> "SymplecticForm":
        dim = len(matrix)
        if dim == 0 or any(len(row) != dim for row in matrix):
            raise ValueError("form matrix must be square")
        if dim % 2:
            raise ValueError("symplectic forms need even dimension")
        # The antisymmetry test is symmetric in i and j, so each pair i < j is
        # tested once, in the order a full row-major scan first fails it.
        for i, row in enumerate(matrix):
            if row[i] % p:
                raise ValueError(f"nonzero diagonal entry at {i}")
            for j in range(i + 1, dim):
                if (row[j] + matrix[j][i]) % p:
                    raise ValueError(f"matrix is not antisymmetric at ({i},{j})")
        if rank_mod_p(matrix, p) != dim:
            raise ValueError("form is degenerate")
        return super().__new__(cls, p, matrix)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def standard(cls, n: int, p: int) -> "SymplecticForm":
        """omega((x,y),(x',y')) = sum x_j y'_j - x'_j y_j; built and checked once per (n, p)."""
        return _standard_form(n, p)

    def evaluate(self, u: Sequence[int], v: Sequence[int]) -> int:
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.matrix[i]
                total += ui * sum(row[j] * v[j] for j in range(len(v)) if v[j])
        return total % self.p

    def pullback(self, a: Sequence[Sequence[int]]) -> "SymplecticForm":
        """The form (u,v) -> self(Au, Av), i.e. Gram matrix A^T M A.

        Each row of M A is built as a combination of the rows of A, so a zero
        entry of M costs nothing: the standard form has one nonzero per row.
        M is antisymmetric with zero diagonal mod p, and so is A^T M A: only
        the entries above the diagonal are computed, and each entry below it
        is the negative of its mirror.
        """
        p = self.p
        cols = list(zip(*a))
        dim = len(cols)
        ma = []
        for m_row in self.matrix:
            acc = [0] * dim
            for m, a_row in zip(m_row, a):
                if m:
                    acc = [x + m * y for x, y in zip(acc, a_row)]
            ma.append(acc)
        images = list(zip(*ma))
        gram = [[0] * dim for _ in range(dim)]
        for i, u in enumerate(cols):
            upper = gram[i]
            for j in range(i + 1, dim):
                x = sum(map(mul, u, images[j])) % p
                upper[j] = x
                gram[j][i] = -x % p
        return SymplecticForm(p, tuple(map(tuple, gram)))


@lru_cache(maxsize=64)
def _standard_form(n: int, p: int) -> SymplecticForm:
    # A SymplecticForm is immutable, so every caller can share one checked instance.
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][n + i] = 1
        m[n + i][i] = p - 1
    return SymplecticForm(p, _as_matrix(m, p))


def gaussian_binomial(m: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


def _row_fillings(dim: int, p: int, pivots: tuple[int, ...], i: int) -> list[Row]:
    """Every echelon row i of the pivot pattern.

    Row i has a 1 in column pivots[i], zeros before it and in the other
    pivot columns, and free entries in the remaining later columns.
    """
    free = [j for j in range(pivots[i] + 1, dim) if j not in pivots]
    out = []
    for values in itertools.product(range(p), repeat=len(free)):
        row = [0] * dim
        row[pivots[i]] = 1
        for j, v in zip(free, values):
            row[j] = v
        out.append(tuple(row))
    return out


def _isotropic_with_pivots(
    normals: Callable[[Row], tuple[Row, ...]], dim: int, p: int, pivots: tuple[int, ...]
) -> tuple[list[Matrix], int]:
    """Isotropic echelon bases with one pivot pattern, and how many bases were decided.

    normals(y) gives the vectors W y, one per form W.  The bases are built
    from the last row up; a new row x is kept on top of a prefix only if
    x W y = 0 for every form W and every prefix row y, i.e. x is
    orthogonal to every normal of the prefix.  A rejected (row, prefix)
    pair decides all of its completions at once.
    """
    k = len(pivots)
    free_counts = [dim - 1 - c - (k - 1 - i) for i, c in enumerate(pivots)]
    prefixes = [((row,), normals(row)) for row in _row_fillings(dim, p, pivots, k - 1)]
    decided = 0
    for i in range(k - 2, -1, -1):
        if not prefixes:
            break
        completions = p ** sum(free_counts[:i])
        kept = []
        for row in _row_fillings(dim, p, pivots, i):
            for basis, constraints in prefixes:
                for w in constraints:
                    if sum(map(mul, row, w)) % p:
                        decided += completions
                        break
                else:
                    kept.append(((row,) + basis, normals(row) + constraints))
        prefixes = kept
    return [basis for basis, _ in prefixes], decided + len(prefixes)


def enumerate_isotropic(
    forms: Sequence[SymplecticForm],
    k: int,
    budget: int = DEFAULT_SUBSPACE_BUDGET,
) -> list[Matrix]:
    """The reduced echelon bases of all k-dimensional subspaces isotropic for every form, sorted.

    The search is exhaustive: per pivot pattern it grows echelon bases
    row by row from the last row, and drops a partial basis as soon as a
    new row pairs nonzero with a row below it under some form.  Each
    dropped partial basis rules out all of its completions, and the
    subspaces ruled out plus the survivors must add up to the Gaussian
    binomial count, so an empty list is a certificate that every
    subspace was decided.  Raises BudgetExceeded before doing any work
    if that count is over budget.  Above half the dimension the answer is
    empty by the rank argument, with no search and no budget.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not forms:
        raise ValueError("need at least one form")
    p, dim = forms[0].p, forms[0].dim
    for f in forms:
        if f.p != p or f.dim != dim:
            raise ValueError("forms must share p and dimension")
    if 2 * k > dim:
        return []
    return _pivot_walk(forms, k, budget)


def _pivot_walk(forms: Sequence[SymplecticForm], k: int, budget: int) -> list[Matrix]:
    """The budgeted search of enumerate_isotropic, run over every pivot pattern at any k."""
    p, dim = forms[0].p, forms[0].dim
    total = gaussian_binomial(dim, k, p)
    if total > budget:
        raise BudgetExceeded(total, budget)
    if k == 0:
        return [()]

    grams = [f.matrix for f in forms]
    cache: dict[Row, tuple[Row, ...]] = {}

    def normals(y: Row) -> tuple[Row, ...]:
        # Rows recur across pivot patterns, so each W y is computed once per call.
        hit = cache.get(y)
        if hit is None:
            hit = cache[y] = tuple(tuple(sum(map(mul, w, y)) % p for w in gram) for gram in grams)
        return hit

    survivors: list[Matrix] = []
    decided = 0
    for pivots in itertools.combinations(range(dim), k):
        bases, count = _isotropic_with_pivots(normals, dim, p, pivots)
        decided += count
        survivors.extend(bases)
    assert decided == total, f"decided {decided} subspaces, expected {total}"
    return sorted(survivors)


def max_common_isotropic_dim(
    forms: Sequence[SymplecticForm], below: int, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> int | None:
    """The largest d < below such that some d-dimensional subspace is isotropic for every form.

    The search runs down from the highest dimension the rank argument
    leaves open, so a huge ``below`` costs nothing.  Raises BudgetExceeded
    when a dimension it reaches is over budget; None only when below < 1.
    """
    for d in range(min(below, forms[0].dim // 2 + 1) - 1, -1, -1):
        if enumerate_isotropic(forms, d, budget=budget):
            return d
    return None
