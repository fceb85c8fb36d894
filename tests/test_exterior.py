"""Exterior algebra: wedge signs, omega powers, pullbacks, symmetrization."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exterior_oracle import (
    ExteriorClass,
    IndexPermutation,
    omega,
    oracle_symmetrization_coefficients,
    permutation_pullback,
    subset_expansion_coefficients,
    wedge,
)
from pgroupcert import exterior
from pgroupcert.exterior import (
    MAX_SYMMETRIZATION_N,
    a_table,
    atilde_table,
    omega_power_table,
    symmetrization_coefficients,
)

F = Fraction


def u(n, i):
    return ExteriorClass.u(n, i)


def v(n, i):
    return ExteriorClass.v(n, i)


# -- independent oracle -------------------------------------------------------


def perm_sign(seq):
    """Sign of the permutation sorting seq, or 0 on repeats; independent of the library."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def brute_omega_power(n, k):
    """Expand omega^k by raw multinomial enumeration over index tuples."""
    coeffs = {}
    for choice in itertools.product(range(n), repeat=k):
        indices = []
        for i in choice:
            indices.extend([i, n + i])
        sign = perm_sign(indices)
        if sign == 0:
            continue
        key = tuple(sorted(indices))
        coeffs[key] = coeffs.get(key, 0) + sign
    return {k2: c for k2, c in coeffs.items() if c}


# -- wedge basics -------------------------------------------------------------


def test_wedge_sorted_pair():
    assert wedge(u(1, 1), v(1, 1)) == ExteriorClass(1, {(0, 1): 1})


def test_wedge_transposition_sign():
    assert wedge(v(1, 1), u(1, 1)) == ExteriorClass(1, {(0, 1): -1})


def test_wedge_repeated_generator_vanishes():
    assert wedge(wedge(u(1, 1), v(1, 1)), u(1, 1)).is_zero()


def test_wedge_mismatched_n():
    with pytest.raises(ValueError):
        wedge(u(1, 1), u(2, 1))


def test_constructor_absorbs_sorting_sign():
    # u1*v1*u2*v2 entered unsorted equals -(u1*u2*v1*v2)
    unsorted = ExteriorClass(2, {(0, 2, 1, 3): 1})
    assert unsorted == ExteriorClass(2, {(0, 1, 2, 3): -1})


def test_nilpotency_of_generators():
    for n in range(1, 5):
        for i in range(1, n + 1):
            assert wedge(u(n, i), u(n, i)).is_zero()
            assert wedge(v(n, i), v(n, i)).is_zero()


# -- omega and its powers ------------------------------------------------------


def test_omega_small():
    assert omega(1) == ExteriorClass(1, {(0, 1): 1})
    assert omega(2) == ExteriorClass(2, {(0, 2): 1, (1, 3): 1})


def test_omega_square_n2():
    # 2 * u1*v1*u2*v2, i.e. -2 on the sorted monomial
    expected = ExteriorClass(2, {(0, 2, 1, 3): 2})
    assert wedge(omega(2), omega(2)) == expected
    assert wedge(omega(2), omega(2)) == ExteriorClass(2, {(0, 1, 2, 3): -2})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_powers_match_brute_force(n):
    for k in range(1, n + 1):
        brute = brute_omega_power(n, k)
        lib = omega(n) ** k
        assert {key: F(c) for key, c in brute.items()} == lib.terms


@pytest.mark.parametrize(
    "n,k,coeff",
    [(2, 1, 1), (2, 2, -2), (3, 2, -2), (3, 3, -6), (4, 4, 24)],
)
def test_omega_power_table_values(n, k, coeff):
    rows = {row.k: row for row in omega_power_table(n)}
    assert rows[k].coefficient == coeff


def test_omega_power_table_records_closed_form_mismatch():
    # the quoted closed form disagrees with direct expansion at most k (it
    # coincides at k = n for some n); both values are kept
    rows = {row.k: row for row in omega_power_table(3)}
    assert rows[1].closed_form_coefficient == -3  # (-1)^1 * 3!/2!
    assert not rows[1].matches_closed_form  # direct expansion gives +1
    assert not rows[2].matches_closed_form  # -2 vs +6
    assert rows[3].matches_closed_form  # -6 on both routes
    assert any(not row.matches_closed_form for row in omega_power_table(2))


def test_omega_power_vanishes_beyond_n():
    for n in range(1, 6):
        assert (omega(n) ** (n + 1)).is_zero()


# -- permutation pullback --------------------------------------------------------


def test_pullback_identity():
    c = wedge(u(2, 1), v(2, 2)) + 3 * omega(2)
    assert permutation_pullback(c, IndexPermutation.identity(2)) == c


def test_pullback_relabels():
    swap = IndexPermutation((2, 1))
    assert permutation_pullback(wedge(u(2, 1), v(2, 1)), swap) == wedge(u(2, 2), v(2, 2))


def test_pullback_sort_sign():
    swap = IndexPermutation((2, 1))
    # u1*u2 -> u2*u1 = -u1*u2
    assert permutation_pullback(wedge(u(2, 1), u(2, 2)), swap) == -wedge(u(2, 1), u(2, 2))


def test_pullback_fixes_omega_all_permutations():
    for n in range(1, 6):
        w = omega(n)
        for perm in IndexPermutation.iter_all(n):
            assert permutation_pullback(w, perm) == w


def _random_class(rng, n, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, 2 * n)
        key = tuple(rng.sample(range(2 * n), size))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return ExteriorClass(n, terms)


def _random_homogeneous(rng, n, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.sample(range(2 * n), degree))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return ExteriorClass(n, terms)


def test_pullback_is_multiplicative():
    rng = random.Random(7)
    for n in range(1, 5):
        perms = list(IndexPermutation.iter_all(n))
        for _ in range(25):
            a = _random_class(rng, n)
            b = _random_class(rng, n)
            perm = rng.choice(perms)
            assert permutation_pullback(wedge(a, b), perm) == wedge(
                permutation_pullback(a, perm), permutation_pullback(b, perm)
            )


def test_graded_commutativity():
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(25):
            da = rng.randint(0, 2 * n)
            db = rng.randint(0, 2 * n)
            a = _random_homogeneous(rng, n, da)
            b = _random_homogeneous(rng, n, db)
            assert wedge(a, b) == (-1) ** (da * db) * wedge(b, a)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_associative(n, data):
    keys = st.lists(
        st.lists(st.integers(0, 2 * n - 1), unique=True, max_size=2 * n), max_size=3
    )
    coeff = st.integers(-4, 4)

    def cls():
        return ExteriorClass(
            n, {tuple(k): data.draw(coeff) for k in data.draw(keys)}
        )

    a, b, c = cls(), cls(), cls()
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- symmetrization --------------------------------------------------------------

# frozen oracle values, derived by hand from the grouped form of the product:
# prod over sigma collapses to prod over k-subsets S of (1 + k!(n-k)! u_S v_S)
HAND_A_TABLES = {
    1: {1: [F(1)]},
    2: {1: [F(1), F(1, 2)], 2: [F(-1)]},
    3: {1: [F(2), F(2), F(4, 3)], 2: [F(-1)], 3: [F(-1)]},
    4: {1: [F(6), F(18), F(36), F(54)], 2: [F(-2), F(2)], 3: [F(-1)], 4: [F(1)]},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetrization_against_hand_tables(n):
    for k in range(1, n + 1):
        assert symmetrization_coefficients(n, k) == HAND_A_TABLES[n][k]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetrization_leading_coefficient_nonzero(n):
    for k in range(1, n + 1):
        coeffs = symmetrization_coefficients(n, k)
        assert coeffs[0] != 0
        assert len(coeffs) == n // k


def test_symmetrization_cap():
    with pytest.raises(ValueError):
        symmetrization_coefficients(MAX_SYMMETRIZATION_N + 1, 1)


def test_tables_cap():
    with pytest.raises(ValueError):
        a_table(MAX_SYMMETRIZATION_N + 1)
    with pytest.raises(ValueError):
        atilde_table(MAX_SYMMETRIZATION_N + 1)


@pytest.mark.parametrize("n", range(1, MAX_SYMMETRIZATION_N + 1))
def test_closed_form_matches_subset_expansion(n):
    # the producer's closed form against the verifier's block-count
    # recursion and the brute bitmask expansion of the subset product
    table = a_table(n)
    for k in range(1, n + 1):
        expected = [table[(k, j)] for j in range(1, n // k + 1)]
        assert symmetrization_coefficients(n, k) == expected
        assert subset_expansion_coefficients(n, k) == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_block_count_recursion_matches_subset_expansion(n, monkeypatch):
    # The recursion holds for every n; the cap only bounds the work the
    # producer and verifier accept, so it is lifted here to reach n = 12.
    monkeypatch.setattr(exterior, "MAX_SYMMETRIZATION_N", 12)
    for k in range(1, n + 1):
        assert symmetrization_coefficients(n, k) == subset_expansion_coefficients(n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_form_matches_permutation_product(n):
    table = a_table(n)
    for k in range(1, n + 1):
        assert oracle_symmetrization_coefficients(n, k) == [
            table[(k, j)] for j in range(1, n // k + 1)
        ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_omega_power_table_matches_expansion(n):
    for row in omega_power_table(n):
        power = omega(n) ** row.k
        assert set(power.terms.values()) == {row.coefficient}
        assert len(power.terms) == comb(n, row.k)


def test_atilde_scaling():
    table = atilde_table(3)
    raw = a_table(3)
    assert table[(3, 1)] == F(factorial(2)) * raw[(3, 1)] == F(-2)
    assert table[(1, 3)] == raw[(1, 3)] == F(4, 3)


def test_index_permutation_validation():
    with pytest.raises(ValueError):
        IndexPermutation((1, 1))
    with pytest.raises(ValueError):
        IndexPermutation((0, 1))
