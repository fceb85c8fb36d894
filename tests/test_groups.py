"""Heisenberg groups: presentation, commutator law, abelian-subgroup oracles."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from pgroupcert import groups
from pgroupcert.groups import (
    HeisenbergElement,
    brute_force_lambda,
    enumerate_group,
    gen_a,
    gen_b,
    gen_f,
    group_law,
    group_order,
    identity,
    max_abelian_exponent,
    max_abelian_order,
)
from pgroupcert.symplectic import BudgetExceeded, SymplecticForm

CASES = [(1, 3), (1, 5), (2, 3)]


@pytest.mark.parametrize("n,p", CASES)
def test_presentation_relations(n, p):
    e = identity(n, p)
    f = gen_f(n, p)
    a = [gen_a(n, p, i) for i in range(1, n + 1)]
    b = [gen_b(n, p, i) for i in range(1, n + 1)]
    for g in a + b + [f]:
        assert g**p == e
    for i in range(n):
        for j in range(n):
            assert a[i].commutator(a[j]) == e
            assert b[i].commutator(b[j]) == e
            if i != j:
                assert a[i].commutator(b[j]) == e
        assert a[i].commutator(b[i]) == f
        assert a[i].commutator(f) == e
        assert b[i].commutator(f) == e


@pytest.mark.parametrize("n,p", CASES)
def test_group_axioms_on_random_triples(n, p):
    rng = random.Random(5)
    elements = enumerate_group(n, p)
    assert len(elements) == group_order(n, p) == p ** (2 * n + 1)
    e = identity(n, p)
    for _ in range(200):
        g, h, k = (rng.choice(elements) for _ in range(3))
        assert (g * h) * k == g * (h * k)
        assert g * e == e * g == g
        assert g * g.inverse() == e
        # elements have order p or 1 for odd p
        assert g**p == e


def test_mul_mismatched_parameters():
    with pytest.raises(ValueError):
        gen_f(1, 3) * gen_f(1, 5)
    with pytest.raises(ValueError):
        gen_f(1, 3) * gen_f(2, 3)


@pytest.mark.parametrize("n,p", CASES)
def test_commutator_symplectic_law_random(n, p):
    rng = random.Random(13)
    elements = enumerate_group(n, p)
    form = SymplecticForm.standard(n, p)
    f = gen_f(n, p)
    for _ in range(300):
        g, h = rng.choice(elements), rng.choice(elements)
        assert g.commutator(h) == f ** form.evaluate(g.eta(), h.eta())


def test_eta_is_homomorphism_with_central_kernel():
    n, p = 2, 3
    elements = enumerate_group(n, p)
    rng = random.Random(4)
    for _ in range(200):
        g, h = rng.choice(elements), rng.choice(elements)
        gh = g * h
        assert gh.eta() == tuple((x + y) % p for x, y in zip(g.eta(), h.eta()))
    kernel = [g for g in elements if g.eta() == (0,) * (2 * n)]
    f = gen_f(n, p)
    assert sorted(kernel, key=lambda g: g.z) == [f**z for z in range(p)]


@pytest.mark.parametrize(
    "n,p,expected_order,expected_lambda",
    [(1, 3, 9, Fraction(2, 3)), (1, 5, 25, Fraction(2, 3)), (2, 3, 27, Fraction(3, 5))],
)
def test_brute_force_lambda(n, p, expected_order, expected_lambda):
    order, lam = brute_force_lambda(n, p)
    assert order == expected_order == p ** (n + 1)
    assert lam == expected_lambda


@pytest.mark.parametrize("n,p", CASES)
def test_group_law_is_the_documented_cocycle(n, p):
    # (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + <x, y'>) mod p
    rng = random.Random(n * 100 + p)
    for _ in range(200):
        g, h = (tuple(rng.randrange(p) for _ in range(2 * n + 1)) for _ in range(2))
        x, y, z = g[:n], g[n : 2 * n], g[-1]
        x2, y2, z2 = h[:n], h[n : 2 * n], h[-1]
        expected = (
            tuple((a + b) % p for a, b in zip(x, x2))
            + tuple((a + b) % p for a, b in zip(y, y2))
            + ((z + z2 + sum(a * b for a, b in zip(x, y2))) % p,)
        )
        assert group_law(p, g, h) == expected
        product = HeisenbergElement.from_coords(n, p, g) * HeisenbergElement.from_coords(n, p, h)
        assert product.coords() == expected


@pytest.mark.parametrize("n,p", CASES)
def test_tuple_oracle_matches_the_element_route(n, p):
    order, _ = brute_force_lambda(n, p)
    assert order == max_abelian_order(enumerate_group(n, p), operator.mul)


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_lambda(3, 101)


def test_brute_force_work_is_bounded_by_the_squared_order():
    # 1331 elements fit the element budget; their 1331^2 products do not.
    with pytest.raises(BudgetExceeded, match="1771561 group-law calls"):
        brute_force_lambda(1, 11)


@pytest.mark.parametrize("n,p", [(1, 3), (2, 3), (2, 7), (3, 3)])
def test_structural_exponent(n, p):
    assert max_abelian_exponent(n, p) == n + 1


@pytest.mark.parametrize("n,p", CASES)
def test_structural_agrees_with_brute_force(n, p):
    order, _ = brute_force_lambda(n, p)
    assert order == p ** max_abelian_exponent(n, p)


def test_attainment_checks_the_group_law(monkeypatch):
    # The twist <x, x'> no longer vanishes on the span {(x, 0, z)}, so its
    # generators stop multiplying as coordinate addition.
    def twisted_law(p, g, h):
        n = len(g) // 2
        twist = sum(map(operator.mul, g[:n], h[:n]))
        return (*[(a + b) % p for a, b in zip(g[: 2 * n], h[: 2 * n])], (g[-1] + h[-1] + twist) % p)

    monkeypatch.setattr(groups, "group_law", twisted_law)
    with pytest.raises(RuntimeError, match="coordinate addition"):
        max_abelian_exponent(2, 7)


def test_abelian_bound_is_sharp_but_not_exceeded():
    # directly exhibit an abelian subgroup of order p^(n+1): the preimage of
    # the standard Lagrangian, enumerated and checked pairwise
    n, p = 2, 3
    members = [
        HeisenbergElement(n, p, x, (0,) * n, z)
        for x in itertools.product(range(p), repeat=n)
        for z in range(p)
    ]
    assert len(members) == p ** (n + 1)
    for g, h in itertools.combinations(members, 2):
        assert g.commutes_with(h)
