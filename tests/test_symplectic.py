"""Symplectic forms, subspaces as echelon bases, exhaustive isotropic enumeration."""

import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgroupcert.products import olshanskii_search
from pgroupcert.symplectic import (
    BudgetExceeded,
    SymplecticForm,
    enumerate_isotropic,
    gaussian_binomial,
    is_invertible,
    random_invertible,
    rank_mod_p,
)
from pgroupcert import symplectic
from form_oracle import full_pullback_gram, row_space
from subspace_oracle import enumerate_subspaces, is_isotropic, isotropic_by_pivot_walk


def test_standard_form_evaluation():
    form = SymplecticForm.standard(2, 5)
    # omega((x,y),(x',y')) = sum x_j y'_j - x'_j y_j
    assert form.evaluate((1, 0, 0, 0), (0, 0, 1, 0)) == 1
    assert form.evaluate((0, 0, 1, 0), (1, 0, 0, 0)) == 4  # -1 mod 5
    assert form.evaluate((1, 2, 3, 4), (1, 2, 3, 4)) == 0


def test_form_validation():
    with pytest.raises(ValueError):
        SymplecticForm(3, ((0, 1), (1, 0)))  # not antisymmetric
    with pytest.raises(ValueError):
        SymplecticForm(3, ((1, 1), (2, 0)))  # nonzero diagonal
    with pytest.raises(ValueError):
        SymplecticForm(3, ((0, 0), (0, 0)))  # degenerate
    with pytest.raises(ValueError):
        SymplecticForm(3, ((0,),))  # odd dimension


def test_pullback_gram():
    form = SymplecticForm.standard(1, 3)
    a = ((1, 1), (0, 1))
    pulled = form.pullback(a)
    for u in [(0, 1), (1, 0), (1, 2)]:
        for v in [(1, 1), (2, 0), (0, 2)]:
            au = tuple(sum(a[i][j] * u[j] for j in range(2)) % 3 for i in range(2))
            av = tuple(sum(a[i][j] * v[j] for j in range(2)) % 3 for i in range(2))
            assert pulled.evaluate(u, v) == form.evaluate(au, av)


@st.composite
def _small_matrices(draw):
    """Matrices of any shape over F_3, F_5 or F_7, entries outside range(p) included,
    with zero rows, repeated rows and multiples of rows mixed in."""
    p = draw(st.sampled_from([3, 5, 7]))
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=width, max_size=width), max_size=4))
    if draw(st.booleans()):
        rows.append([0] * width)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        c = draw(st.integers(2, p - 1))
        rows.append([c * x for x in draw(st.sampled_from(rows))])
    return p, width, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(case=_small_matrices())
def test_elimination_agrees_with_the_row_space(case):
    p, width, rows = case
    span = row_space(rows, p, width)
    rank = rank_mod_p(rows, p)
    assert p**rank == len(span)
    if rows and len(rows) == width:
        assert is_invertible(rows, p) == (rank == width)


@pytest.mark.parametrize("n, p", [(1, 3), (2, 3), (2, 5), (3, 7), (4, 3)])
def test_pullback_matches_the_full_product(n, p):
    rng = random.Random(100 * n + p)
    standard = SymplecticForm.standard(n, p)
    for _ in range(5):
        a = random_invertible(2 * n, p, rng)
        b = random_invertible(2 * n, p, rng)
        pulled = standard.pullback(a)
        assert pulled.matrix == full_pullback_gram(standard.matrix, a, p)
        # A non-standard M: a pullback of a pullback.
        assert pulled.pullback(b).matrix == full_pullback_gram(pulled.matrix, b, p)
        # M and A with entries outside range(p) give the same form as their residues.
        shifted = tuple(tuple(x + p * rng.randrange(-2, 3) for x in row) for row in pulled.matrix)
        b_shifted = tuple(tuple(x + p * rng.randrange(-2, 3) for x in row) for row in b)
        expected = full_pullback_gram(pulled.matrix, b, p)
        assert SymplecticForm(p, shifted).pullback(b_shifted).matrix == expected


def test_pullback_by_a_singular_matrix_is_degenerate():
    with pytest.raises(ValueError, match="form is degenerate"):
        SymplecticForm.standard(2, 5).pullback(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)))


@pytest.mark.parametrize(
    "faults, message",
    [
        # One pair off, at either of its two entries.
        ([(1, 3)], "matrix is not antisymmetric at (1,3)"),
        ([(3, 1)], "matrix is not antisymmetric at (1,3)"),
        ([(0, 1)], "matrix is not antisymmetric at (0,1)"),
        ([(1, 0)], "matrix is not antisymmetric at (0,1)"),
        # Several faults: the first in a row-major scan is named.
        ([(2, 2), (3, 1)], "matrix is not antisymmetric at (1,3)"),
        ([(1, 1), (2, 0)], "matrix is not antisymmetric at (0,2)"),
        ([(1, 2), (3, 0)], "matrix is not antisymmetric at (0,3)"),
        ([(2, 1), (3, 2)], "matrix is not antisymmetric at (1,2)"),
        ([(3, 2), (2, 2)], "nonzero diagonal entry at 2"),
    ],
)
def test_a_form_fault_is_named_by_the_first_pair_a_row_major_scan_meets(faults, message):
    bad = [list(row) for row in SymplecticForm.standard(2, 5).matrix]
    for i, j in faults:
        bad[i][j] = (bad[i][j] + 1) % 5
    with pytest.raises(ValueError, match=re.escape(message)):
        SymplecticForm(5, tuple(map(tuple, bad)))


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(8, 6, 3) == 896260
    assert gaussian_binomial(4, 5, 3) == 0


def test_enumeration_count_matches_gaussian_binomial():
    all_planes = enumerate_subspaces(4, 3, 2)
    assert len(all_planes) == 130
    assert len(set(all_planes)) == 130
    assert len(enumerate_subspaces(3, 2, 1)) == 7


def test_isotropic_lines_always_exist():
    form = SymplecticForm.standard(1, 3)
    lines = enumerate_isotropic([form], 1)
    assert len(lines) == 4  # every line is isotropic for an antisymmetric form


def test_no_isotropic_beyond_half_dimension():
    for n, p in [(1, 3), (1, 5), (2, 3)]:
        form = SymplecticForm.standard(n, p)
        assert isotropic_by_pivot_walk([form], n + 1) == enumerate_isotropic([form], n + 1) == []
        assert isotropic_by_pivot_walk([form], n) == enumerate_isotropic([form], n) != []


def test_above_half_dimension_nothing_is_searched_or_budgeted(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("isotropic search run")

    monkeypatch.setattr(symplectic, "_isotropic_with_pivots", refuse)
    form = SymplecticForm.standard(64, 3)
    assert enumerate_isotropic([form], 65, budget=0) == []
    with pytest.raises(BudgetExceeded):
        enumerate_isotropic([form], 64, budget=0)


def test_lagrangian_count():
    # number of Lagrangians of a 2n-dim symplectic space: prod (p^i + 1)
    for n, expected in [(2, (3 + 1) * (9 + 1)), (3, (3 + 1) * (9 + 1) * (27 + 1))]:
        form = SymplecticForm.standard(n, 3)
        lagrangians = enumerate_isotropic([form], n)
        assert len(lagrangians) == expected
        for sub in lagrangians:
            assert is_isotropic(sub, form)


def test_enumerate_isotropic_k_above_dim_is_empty():
    form = SymplecticForm.standard(1, 3)
    assert enumerate_isotropic([form], 4) == []


def test_standard_form_is_built_once_per_n_and_p():
    assert SymplecticForm.standard(4, 3) is SymplecticForm.standard(4, 3)
    assert SymplecticForm.standard(4, 3) is not SymplecticForm.standard(4, 5)
    assert SymplecticForm.standard(4, 3).matrix != SymplecticForm.standard(3, 3).matrix


def test_budget_guard():
    form = SymplecticForm.standard(4, 3)
    with pytest.raises(BudgetExceeded):
        enumerate_isotropic([form], 4, budget=1000)


def test_budget_error_describes_a_huge_count_by_its_bit_length():
    # 3^10000 has 4772 digits, past CPython's limit on int-to-decimal conversion.
    exc = BudgetExceeded(3**10_000, 10**7)
    assert str(exc) == "enumeration needs at least 2^15849 subspaces, budget is 10000000"
    assert exc.needed == 3**10_000
    assert str(BudgetExceeded(896260, 1000)) == "enumeration needs 896260 subspaces, budget is 1000"


def test_random_invertible_is_invertible():
    rng = random.Random(0)
    for _ in range(20):
        a = random_invertible(4, 3, rng)
        assert is_invertible(a, 3)


# The pure-Python oracle decides every subspace one by one, so cases with
# more subspaces than this are left out: at p = 5 in dimension 6 that is
# k = 2, 3, 4 (0.5 to 2.6 million subspaces).  Every other (dim, p, k) with
# dim <= 6 and p in {2, 3, 5} is drawn.
ORACLE_SUBSPACES = 40_000


@functools.lru_cache(maxsize=None)
def _all_subspaces(dim, p, k):
    return tuple(enumerate_subspaces(dim, p, k))


@settings(max_examples=20, deadline=None)
@given(
    half=st.integers(1, 3),
    p=st.sampled_from([2, 3, 5]),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_enumerate_isotropic_matches_oracle(half, p, count, seed):
    rng = random.Random(seed)
    standard = SymplecticForm.standard(half, p)
    forms = [standard.pullback(random_invertible(2 * half, p, rng)) for _ in range(count)]
    for k in range(2 * half + 1):
        if gaussian_binomial(2 * half, k, p) > ORACLE_SUBSPACES:
            continue
        expected = sorted(s for s in _all_subspaces(2 * half, p, k) if all(is_isotropic(s, f) for f in forms))
        assert enumerate_isotropic(forms, k) == expected


def test_flagship_family_has_no_common_isotropic_6_space():
    spec = olshanskii_search(4, 4, 3, seed=7)
    assert spec.k == 6
    assert isotropic_by_pivot_walk(list(spec.forms), 6) == []


@settings(max_examples=30, deadline=None)
@given(
    half=st.integers(1, 2),
    p=st.sampled_from([3, 5]),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_common_isotropic_space_above_half_dimension(half, p, count, seed):
    # The rank argument enumerate_isotropic settles k > n by, witnessed by a search.
    rng = random.Random(seed)
    standard = SymplecticForm.standard(half, p)
    forms = [standard.pullback(random_invertible(2 * half, p, rng)) for _ in range(count)]
    for k in range(half + 1, 2 * half + 1):
        assert isotropic_by_pivot_walk(forms, k) == []
