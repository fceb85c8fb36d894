"""Truncated series ring and the bundle Chern data."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exterior_oracle import ExteriorClass, omega
from pgroupcert.series import (
    BundleDescriptor,
    OmegaSeries,
    chern_F,
    chern_G,
    direct_sum,
    line_power_chern,
    pullback_w,
)

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
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(-30, 30), min_size=8, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_inverse_is_exact_inverse(n, tail):
    a = OmegaSeries(n, [1] + tail[:n])
    assert (a * a.inverse()).is_one()


# -- bundle descriptors ---------------------------------------------------------


def test_line_power():
    assert line_power_chern(1, 3, 0).chern.is_one()
    assert line_power_chern(1, 3, 1).chern == S(1, 1, 3)
    assert line_power_chern(2, 7, -2).chern == S(2, 1, -14, 0)
    assert line_power_chern(2, 7, -2).rank == 1


def test_chern_F_examples():
    zero = chern_F(3, 2, 0)
    assert zero.chern.is_one()
    assert zero.rank == 2 * factorial(3)

    for d in (-3, 1, 5):
        assert chern_F(1, 1, d).chern == S(1, 1, d)
        assert chern_F(1, 1, d).rank == 1
        assert chern_F(2, 2, d).chern == S(2, 1, 0, -d)
        assert chern_F(2, 2, d).rank == 4


def test_chern_F_rational_omega_coefficients_are_integral_classes():
    # at (n,k) = (2,1) the omega^2 coefficient is delta^2/2: rational in the
    # omega basis but integral as a cohomology class
    b = chern_F(2, 1, 3)
    assert b.chern == S(2, 1, 3, F(9, 2))
    assert b.chern.is_integral_class()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chern_F_always_integral_class(n):
    for k in range(1, n + 1):
        for delta in range(-20, 21):
            assert chern_F(n, k, delta).chern.is_integral_class()


@pytest.mark.parametrize("n,k,delta", [(2, 1, 3), (3, 1, 5), (3, 2, -4)])
def test_chern_F_matches_exterior_expansion(n, k, delta):
    # independent route: expand the series back into the exterior algebra and
    # compare with the product over all permutation pullbacks
    from exterior_oracle import IndexPermutation, permutation_pullback

    series = chern_F(n, k, delta).chern
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
    assert pullback_w(BundleDescriptor("x", 1, S(1, 1, 0)), 5).chern.is_one()
    got = pullback_w(chern_F(1, 1, 4), 3)
    assert got.chern == S(1, 1, 36)
    assert got.label == "G"
    b = BundleDescriptor("F", 4, S(2, 1, 0, -7), {"k": 2, "delta": 7})
    assert pullback_w(b, 5).chern == S(2, 1, 0, -7 * 625)


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
    assert chern_G(1, 1, -1, 3).chern == S(1, 1, -9)
    assert chern_G(2, 2, 5, 7).chern == S(2, 1, 0, -5 * 7**4)


def test_direct_sum_examples():
    trivial = [BundleDescriptor("x", 2, OmegaSeries.one(2)) for _ in range(3)]
    summed = direct_sum(trivial)
    assert summed.rank == 6 and summed.chern.is_one()

    # opposite line powers cancel at n=1
    n1 = direct_sum([line_power_chern(1, 3, 4), line_power_chern(1, 3, -4)])
    assert n1.chern.is_one() and n1.rank == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_formula_for_full_recipe(n):
    # n+1 line powers plus the pulled-back bundles for k = 1..n, any deltas
    p = 3
    bundles = [line_power_chern(n, p, 0) for _ in range(n + 1)]
    bundles += [chern_G(n, k, 0, p) for k in range(1, n + 1)]
    total = direct_sum(bundles)
    assert total.rank == n + 1 + n * (n + 1) // 2 * factorial(n)


def test_direct_sum_mismatched_n():
    with pytest.raises(ValueError):
        direct_sum([line_power_chern(1, 3, 1), line_power_chern(2, 3, 1)])


def test_bundle_descriptor_rejects_non_chern():
    with pytest.raises(ValueError):
        BundleDescriptor("x", 1, S(1, 2, 0))
    with pytest.raises(ValueError):
        # omega coefficient 1/2 at degree 1 is not an integral class
        BundleDescriptor("x", 1, S(1, 1, F(1, 2)))
