"""Product subgroups over form families: search, bounds, commutation criterion."""

import itertools
import random
from fractions import Fraction

import pytest

from pgroupcert import products, verify
from pgroupcert.groups import max_abelian_order
from pgroupcert.products import (
    ProductSubgroupSpec,
    identity_matrix,
    isotropy_free_dimension,
    lambda_row,
    olshanskii_search,
    product_subgroup_bound,
)
from pgroupcert.symplectic import BudgetExceeded, enumerate_isotropic
from product_oracle import common_projection, iterate_product_group, product_element, product_mul


def test_isotropy_free_dimension():
    assert isotropy_free_dimension(1, 2) == 4
    assert isotropy_free_dimension(4, 4) == 6
    assert isotropy_free_dimension(3, 2) == 8
    # floor variant still satisfies 4n < r(k-1) when r does not divide 4n
    assert isotropy_free_dimension(3, 5) == 4
    assert 4 * 3 < 5 * (4 - 1)


def test_lambda_row_is_the_written_out_rule_on_both_sides():
    for n, r in itertools.product(range(1, 13), repeat=2):
        if r == 1:
            k, abelian, order, exact = None, n + 1, 2 * n + 1, True
        else:
            k = 4 * n // r + 2
            abelian, order, exact = r + min(k, 2 * n), 2 * n + r, (4 * n) % r == 0
        row = lambda_row(n, r)
        assert (row.n, row.r, row.k) == (n, r, k)
        assert (row.abelian_exponent, row.order_exponent) == (abelian, order)
        assert row.bound == Fraction(abelian, order)
        assert row.exponent_form_exact == exact
        assert verify._bound_row(n, r) == (k, abelian, order, exact)


def test_search_rejects_single_factor():
    with pytest.raises(ValueError):
        olshanskii_search(1, 1, 3)


def test_vacuous_family_certifies():
    spec = olshanskii_search(1, 2, 3, seed=7)
    assert spec.certified
    assert spec.k == 4  # exceeds the ambient dimension 2, so no subspace exists
    assert spec.mats[0] == identity_matrix(2)
    assert spec.order_exponent == 4
    assert spec.abelian_exponent == 2 + min(4, 2)


def test_spec_rejects_singular_matrix():
    spec = olshanskii_search(1, 2, 3, seed=7)
    with pytest.raises(ValueError, match="A_2 is not invertible"):
        ProductSubgroupSpec(n=1, p=3, r=2, k=4, mats=(spec.mats[0], ((1, 2), (2, 1))), certified=True)


def test_exact_bound_via_common_isotropic_dimension():
    spec = olshanskii_search(1, 2, 3, seed=7)
    bound = product_subgroup_bound(spec)
    assert bound.order_exponent == 4
    # lines are isotropic for every antisymmetric form, the full plane is not
    assert bound.max_common_isotropic_dim == 1
    assert bound.exact_abelian_exponent == 3


def test_exact_bound_matches_group_brute_force():
    # enumerate the 81-element product group explicitly and compare the true
    # maximal abelian order against p^(r + max common isotropic dim)
    spec = olshanskii_search(1, 2, 3, seed=7)
    elements = list(iterate_product_group(spec))
    assert len(elements) == 3**4
    best = max_abelian_order(elements, product_mul)
    bound = product_subgroup_bound(spec)
    assert best == 3**bound.exact_abelian_exponent


def test_commutation_criterion():
    spec = olshanskii_search(1, 2, 3, seed=7)
    elements = list(iterate_product_group(spec))
    rng = random.Random(2)
    for _ in range(150):
        g, h = rng.choice(elements), rng.choice(elements)
        commute = product_mul(g, h) == product_mul(h, g)
        vg, vh = common_projection(spec, g), common_projection(spec, h)
        isotropic = all(form.evaluate(vg, vh) == 0 for form in spec.forms)
        assert commute == isotropic


def test_degenerate_identity_family_has_common_lagrangian():
    # all A_j equal: every Lagrangian of the standard form is common, so the
    # exact abelian exponent collapses to r + n
    n, p, r = 2, 3, 2
    k = isotropy_free_dimension(n, r)
    mats = (identity_matrix(2 * n),) * r
    spec = ProductSubgroupSpec(n=n, p=p, r=r, k=k, mats=mats, certified=False)
    spec.certified = not enumerate_isotropic(list(spec.forms), k)
    assert spec.certified  # k = 6 exceeds 2n = 4, vacuously
    bound = product_subgroup_bound(spec)
    assert bound.max_common_isotropic_dim == n
    assert bound.exact_abelian_exponent == r + n


def test_uncertified_spec_refuses_bounds():
    spec = olshanskii_search(1, 2, 3, seed=7)
    broken = ProductSubgroupSpec(
        n=spec.n,
        p=spec.p,
        r=spec.r,
        k=spec.k,
        mats=spec.mats,
        certified=False,
        transcript={"exhausted": True},
    )
    with pytest.raises(ValueError):
        product_subgroup_bound(broken)


def test_product_elements_satisfy_constraint():
    spec = olshanskii_search(1, 2, 3, seed=1)
    for v in itertools.product(range(3), repeat=2):
        g = product_element(spec, v, (0, 1))
        assert common_projection(spec, g) == v


def test_spec_rejects_wrongly_shaped_matrices():
    spec = olshanskii_search(1, 2, 3, seed=7)
    tall = ((1, 0), (0, 1), (1, 1))  # 3 x 2: pullback would silently drop the last row
    wide = ((1, 0, 0), (0, 1, 0))
    for bad in (tall, wide):
        with pytest.raises(ValueError, match="A_2 is not 2 x 2"):
            ProductSubgroupSpec(n=1, p=3, r=2, k=4, mats=(spec.mats[0], bad), certified=True)


def _refuse_enumeration(*args, **kwargs):
    raise AssertionError("enumerate_isotropic called")


def test_k_above_n_is_certified_by_nondegeneracy(monkeypatch):
    monkeypatch.setattr(products, "enumerate_isotropic", _refuse_enumeration)
    spec = olshanskii_search(4, 4, 3, seed=7)
    assert (spec.k, spec.n) == (6, 4)
    assert spec.certified
    assert spec.transcript["attempts"] == [{"attempt": 1, "common_isotropic_found": 0}]
    assert spec.transcript["subspaces_examined_per_attempt"] == 896260


def test_k_above_n_is_not_refused_by_the_enumeration_budget(monkeypatch):
    monkeypatch.setattr(products, "enumerate_isotropic", _refuse_enumeration)
    spec = olshanskii_search(5, 4, 3, seed=0, budget=1)
    assert (spec.k, spec.n) == (7, 5)
    assert spec.certified
    assert spec.transcript["subspaces_examined_per_attempt"] == 18_326_727_760


def test_k_at_most_n_is_still_refused_over_budget():
    with pytest.raises(BudgetExceeded, match="75913222"):
        olshanskii_search(4, 6, 3)


def test_k_at_most_n_is_certified_by_enumeration(monkeypatch):
    calls = []

    def counting(forms, k, budget):
        calls.append(k)
        return enumerate_isotropic(forms, k, budget=budget)

    monkeypatch.setattr(products, "enumerate_isotropic", counting)
    spec = olshanskii_search(3, 7, 3, seed=1)
    assert (spec.k, spec.n) == (3, 3)
    assert spec.certified
    assert calls == [3] * len(spec.transcript["attempts"])


def _exact_dim_from_2n(spec, budget):
    """The exact-dimension search as it was, starting at min(k-1, 2n)."""
    for d in range(min(spec.k - 1, 2 * spec.n), -1, -1):
        try:
            if enumerate_isotropic(list(spec.forms), d, budget=budget):
                return d
        except BudgetExceeded:
            return None
    return None


@pytest.mark.parametrize(
    "n,r,seed,budget",
    [
        (1, 2, 7, 10**7),
        (1, 3, 1, 10**7),
        (2, 2, 1, 10**7),
        (2, 3, 2, 10**7),
        (2, 4, 5, 10**7),
        (2, 3, 2, 129),  # gb(4, 2, 3) = 130 is just over, gb(4, 3, 3) = 40 fits
        (3, 2, 4, 10**7),
        (3, 3, 1, 10**7),
        (3, 3, 1, 33_879),  # gb(6, 3, 3) = 33,880 is just over
        (3, 7, 1, 10**7),
    ],
)
def test_exact_dimension_search_starts_at_n(n, r, seed, budget):
    spec = olshanskii_search(n, r, 3, seed=seed)
    assert spec.certified
    bound = product_subgroup_bound(spec, exact_budget=budget)
    assert bound.max_common_isotropic_dim == _exact_dim_from_2n(spec, budget)


def test_exact_dimension_search_on_a_shared_lagrangian():
    n, r = 2, 2
    mats = (identity_matrix(2 * n),) * r
    spec = ProductSubgroupSpec(n=n, p=3, r=r, k=isotropy_free_dimension(n, r), mats=mats, certified=True)
    for budget in (10**7, 130, 129):
        bound = product_subgroup_bound(spec, exact_budget=budget)
        assert bound.max_common_isotropic_dim == _exact_dim_from_2n(spec, budget)
