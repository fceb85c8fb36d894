"""Truncated series ring and the Chern classes of the construction."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exterior_oracle import ExteriorClass, omega
from pgroupcert.series import OmegaSeries, chern_G, direct_sum
from pgroupcert.solver import rank_formula

F = Fraction


def S(n, *coeffs):
    return OmegaSeries(n, coeffs)


# -- multiplication and inversion ---------------------------------------------


def test_mul_truncates():
    assert S(1, 1, 1) * S(1, 1, -1) == S(1, 1, 0)


def test_mul_basic():
    assert S(2, 1, 1, 0) * S(2, 1, 1, 0) == S(2, 1, 2, 1)
    assert S(2, 1, 3, 0) * S(2, 1, -3, 9) == S(2, 1, 0, 0)


def test_mul_mismatched_truncation():
    with pytest.raises(ValueError):
        S(1, 1, 0) * S(2, 1, 0, 0)


def test_inverse_examples():
    assert S(2, 1, 0, 0).inverse() == S(2, 1, 0, 0)
    assert S(2, 1, 1, 0).inverse() == S(2, 1, -1, 1)
    assert S(2, 1, 2, 1).inverse() == S(2, 1, -2, 3)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        S(1, 2, 0).inverse()


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(
        st.one_of(
            st.just(0),
            st.integers(-30, 30),
            st.fractions(min_value=-30, max_value=30, max_denominator=12),
        ),
        min_size=12,
        max_size=12,
    ),
)
@settings(max_examples=80, deadline=None)
def test_inverse_is_exact_inverse(n, tail):
    # Rational and sparse tails too: the recurrence skips zero coefficients.
    a = OmegaSeries(n, [1] + tail[:n])
    assert (a * a.inverse()).is_one()


# -- Chern classes of the construction bundles ----------------------------------
#
# c(F_k(delta)), the symmetrized bundle before the pullback, is chern_G at p = 1.


def line(n, c1):
    """Class of a line power with first Chern class c1 * omega."""
    return OmegaSeries.from_dict(n, {0: 1, 1: c1})


def test_chern_F_examples():
    assert chern_G(3, 2, 0, 1).is_one()
    for d in (-3, 1, 5):
        assert chern_G(1, 1, d, 1) == S(1, 1, d)
        assert chern_G(2, 2, d, 1) == S(2, 1, 0, -d)


def test_chern_F_rational_omega_coefficients_are_integral_classes():
    # at (n,k) = (2,1) the omega^2 coefficient is delta^2/2: rational in the
    # omega basis but integral as a cohomology class
    b = chern_G(2, 1, 3, 1)
    assert b == S(2, 1, 3, F(9, 2))
    assert b.is_integral_class()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chern_F_always_integral_class(n):
    for k in range(1, n + 1):
        for delta in range(-20, 21):
            assert chern_G(n, k, delta, 1).is_integral_class()


@pytest.mark.parametrize("n,k,delta", [(2, 1, 3), (3, 1, 5), (3, 2, -4)])
def test_chern_F_matches_exterior_expansion(n, k, delta):
    # independent route: expand the series back into the exterior algebra and
    # compare with the product over all permutation pullbacks
    from exterior_oracle import IndexPermutation, permutation_pullback

    series = chern_G(n, k, delta, 1)
    as_class = ExteriorClass.zero(n)
    for j, c in enumerate(series.coeffs):
        as_class = as_class + c * omega(n) ** j
    base_key = tuple(range(k)) + tuple(range(n, n + k))
    base = ExteriorClass(n, {base_key: delta * factorial(k - 1)})
    product = ExteriorClass.one(n)
    for perm in IndexPermutation.iter_all(n):
        product = product * (1 + permutation_pullback(base, perm))
    assert as_class == product
    assert product.is_integral()


def test_pullback_w_examples():
    # the p-power pullback scales the omega^j coefficient by p^(2j)
    assert chern_G(1, 1, 4, 3) == S(1, 1, 36)
    assert chern_G(2, 2, -7, 5) == S(2, 1, 0, 7 * 625)
    for n, k, delta, p in [(3, 1, 2, 5), (4, 2, -3, 7)]:
        unpulled = chern_G(n, k, delta, 1)
        assert chern_G(n, k, delta, p).coeffs == tuple(c * p ** (2 * j) for j, c in enumerate(unpulled.coeffs))


def test_pullback_w_is_ring_homomorphism():
    import random

    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        p = rng.choice([3, 5, 7])
        a = OmegaSeries(n, [1] + [rng.randint(-9, 9) for _ in range(n)])
        b = OmegaSeries(n, [1] + [rng.randint(-9, 9) for _ in range(n)])
        scale = lambda s: OmegaSeries(
            s.n, [c * F(p) ** (2 * j) for j, c in enumerate(s.coeffs)]
        )
        assert scale(a * b) == scale(a) * scale(b)


def test_chern_G_scaling():
    assert chern_G(1, 1, -1, 3) == S(1, 1, -9)
    assert chern_G(2, 2, 5, 7) == S(2, 1, 0, -5 * 7**4)


def test_chern_G_range_of_k():
    for k in (0, 3):
        with pytest.raises(ValueError):
            chern_G(2, k, 1, 3)


def test_direct_sum_examples():
    assert direct_sum([OmegaSeries.one(2)] * 3).is_one()
    # opposite line powers cancel at n=1
    assert direct_sum([line(1, 12), line(1, -12)]).is_one()
    assert direct_sum([line(2, 3), chern_G(2, 2, 1, 1)]) == S(2, 1, 3, -1)
    with pytest.raises(ValueError):
        direct_sum([])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_formula_for_full_recipe(n):
    # n+1 line powers of rank 1 plus G_k of rank k*n! for k = 1..n
    assert (n + 1) * 1 + sum(k * factorial(n) for k in range(1, n + 1)) == rank_formula(n)


def test_direct_sum_mismatched_n():
    with pytest.raises(ValueError):
        direct_sum([line(1, 3), line(2, 3)])


def test_non_integral_class_is_detected():
    assert S(1, 1, 3).is_integral_class()
    # omega coefficient 1/2 at degree 1 is not an integral class
    assert not S(1, 1, F(1, 2)).is_integral_class()
    assert not S(2, 1, 0, F(1, 3)).is_integral_class()
