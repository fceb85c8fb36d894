"""Product subgroups over form families: search, bounds, commutation criterion."""

import itertools
import random

import pytest

from pgroupcert.groups import max_abelian_order
from pgroupcert.products import (
    ProductSubgroupSpec,
    common_projection,
    identity_matrix,
    isotropy_free_dimension,
    iterate_product_group,
    olshanskii_search,
    product_element,
    product_mul,
    product_subgroup_bound,
)
from pgroupcert.symplectic import enumerate_isotropic


def test_isotropy_free_dimension():
    assert isotropy_free_dimension(1, 2) == 4
    assert isotropy_free_dimension(4, 4) == 6
    assert isotropy_free_dimension(3, 2) == 8
    # floor variant still satisfies 4n < r(k-1) when r does not divide 4n
    assert isotropy_free_dimension(3, 5) == 4
    assert 4 * 3 < 5 * (4 - 1)


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
