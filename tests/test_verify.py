"""Producer-checker consistency and mutation rejection."""

import json
import random
import time
from fractions import Fraction

import pytest

from pgroupcert import certdoc, products, verify
from pgroupcert.exterior import MAX_SYMMETRIZATION_N
from pgroupcert.groups import BRUTE_WORK_BUDGET, MAX_GROUP_N, brute_force_lambda, group_order, max_abelian_exponent
from pgroupcert.products import ProductSubgroupSpec, identity_matrix, olshanskii_search, product_subgroup_bound
from pgroupcert.solver import certify, compute_M, epsilon_witness, find_prime, lambda_table
from pgroupcert.symplectic import BudgetExceeded, SymplecticForm, enumerate_isotropic, random_invertible
from pgroupcert.verify import verify_document


def construction_doc(n, r, p):
    cert = certify(n, r, p)
    return certdoc.build_document(
        "construction",
        "certify",
        {"n": n, "r": r, "p": p, "lifts": "nonneg"},
        certdoc.construction_payload(cert),
    )


def group_doc(n, p, mode="brute", budget=10_000):
    structural = max_abelian_exponent(n, p)
    if mode == "brute":
        max_order, lam = brute_force_lambda(n, p, budget=budget)
        agree = max_order == p**structural
    else:
        max_order, lam = p**structural, Fraction(structural, 2 * n + 1)
        agree = None
    return certdoc.build_document(
        "group",
        "group",
        {"n": n, "p": p, "mode": mode, "budget": budget},
        certdoc.group_report_payload(
            n, p, mode, group_order(n, p), max_order, structural, lam, budget, agree
        ),
    )


def olshanskii_doc(n, r, p, seed=7):
    spec = olshanskii_search(n, r, p, seed=seed)
    bound = product_subgroup_bound(spec) if spec.certified else None
    return certdoc.build_document(
        "olshanskii",
        "olshanskii",
        {"n": n, "r": r, "p": p, "seed": seed},
        certdoc.olshanskii_payload(spec, bound),
        seed=seed,
    )


def reserialize(doc):
    return certdoc.parse_document(certdoc.serialize_document(doc))


# -- acceptance of honest documents ------------------------------------------------


@pytest.mark.parametrize("n,r,p", [(1, 1, 3), (2, 1, 7), (1, 2, 3)])
def test_construction_documents_verify(n, r, p):
    report = verify_document(reserialize(construction_doc(n, r, p)))
    assert report.ok, report.failures()


@pytest.mark.parametrize("mode", ["brute", "structural"])
def test_group_documents_verify(mode):
    report = verify_document(reserialize(group_doc(1, 3, mode=mode)))
    assert report.ok, report.failures()


def test_olshanskii_document_verifies():
    report = verify_document(reserialize(olshanskii_doc(1, 2, 3)))
    assert report.ok, report.failures()


def lambda_table_doc(max_n, max_r):
    rows = lambda_table(max_n, max_r)
    eps = Fraction(2, 3)
    return certdoc.build_document(
        "lambda_table",
        "lambda-table",
        {"max_n": max_n, "max_r": max_r},
        certdoc.lambda_table_payload(max_n, max_r, rows, eps, epsilon_witness(rows, eps)),
    )


def test_lambda_table_document_verifies():
    report = verify_document(reserialize(lambda_table_doc(3, 2)))
    assert report.ok, report.failures()


def test_prime_document_verifies():
    p = find_prime(2, h=7)
    doc = certdoc.build_document(
        "prime",
        "find-prime",
        {"n": 2, "h": 7, "min": 1, "ceiling": 10**6},
        certdoc.prime_payload(2, 7, 1, 10**6, p, compute_M(2)),
    )
    report = verify_document(reserialize(doc))
    assert report.ok, report.failures()


# -- rejection of dishonest documents -----------------------------------------------


def mutate(doc, path, delta):
    """Return a deep copy with one numeric field shifted; digest left stale."""
    copy = json.loads(json.dumps(doc))
    node = copy["certificate"]
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = certdoc.decode_int(node[path[-1]]) + delta
    return copy


def fix_digest(doc):
    doc = json.loads(json.dumps(doc))
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    return doc


def test_stale_digest_is_rejected():
    doc = construction_doc(1, 1, 3)
    bad = mutate(doc, ["delta", 0], 1)
    report = verify_document(bad)
    assert not report.ok
    assert any(r.name == "document_digest" for r in report.failures())


def test_delta_mutation_fails_math_even_with_fixed_digest():
    doc = construction_doc(2, 1, 7)
    bad = fix_digest(mutate(doc, ["delta", 1], 1))
    report = verify_document(bad)
    assert not report.ok
    assert any(r.name == "chern_product" for r in report.failures())


def test_lift_mutation_fails_roots_or_sigma():
    doc = construction_doc(2, 1, 7)
    bad = fix_digest(mutate(doc, ["a", 0], 3))
    report = verify_document(bad)
    assert not report.ok
    assert any(r.name in ("roots", "sigma_divisibility") for r in report.failures())


def test_M_mutation_fails_recomputation():
    doc = construction_doc(1, 1, 3)
    bad = fix_digest(mutate(doc, ["M"], 1))
    report = verify_document(bad)
    assert not report.ok
    assert any(r.name == "M" for r in report.failures())


def test_matrix_mutation_fails_congruence_or_digest():
    doc = olshanskii_doc(1, 2, 3)
    bad = fix_digest(mutate(doc, ["mats", 1, 0, 0], 1))
    report = verify_document(bad)
    assert not report.ok


def test_residue_mutation_fails_roots():
    doc = construction_doc(2, 1, 7)
    bad = fix_digest(mutate(doc, ["residues", 1], 1))
    report = verify_document(bad)
    assert not report.ok
    assert any(r.name == "roots" for r in report.failures())


def test_unknown_kind_rejected():
    doc = certdoc.build_document("nonsense", "x", {}, {})
    report = verify_document(doc)
    assert not report.ok


def prime_doc(n):
    p = find_prime(n)
    return certdoc.build_document(
        "prime",
        "find-prime",
        {"n": n, "h": 1, "min": 1, "ceiling": 10**6},
        certdoc.prime_payload(n, 1, 1, 10**6, p, compute_M(n)),
    )


@pytest.mark.parametrize("make_doc", [lambda: construction_doc(2, 1, 7), lambda: prime_doc(2)])
@pytest.mark.parametrize("n", [10**9, MAX_SYMMETRIZATION_N + 1, 0, -3])
def test_out_of_range_n_is_rejected_before_any_arithmetic(make_doc, n):
    doc = make_doc()
    doc["certificate"]["n"] = n
    bad = fix_digest(doc)
    start = time.perf_counter()
    report = verify_document(bad)
    elapsed = time.perf_counter() - start
    assert not report.ok
    assert report.results[0].name == "document_digest" and report.results[0].passed
    assert elapsed < 1.0


@pytest.mark.parametrize("r", [10**7, 0])
def test_construction_r_is_bounded(r):
    # a huge r must not be raised to p ** (2n + r); r = 0 must not divide by zero
    doc = construction_doc(2, 2, 7)
    doc["certificate"]["r"] = r
    doc["certificate"]["group"]["order_exponent"] = 4 + r
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert report.results[0].name == "document_digest" and report.results[0].passed
    failed = {result.name for result in report.failures()}
    assert failed == ({"group_bounds"} if r > 1 else {"params"})


def test_group_stored_exponent_is_bounded():
    doc = group_doc(1, 3, mode="structural")
    doc["certificate"]["max_abelian_exponent"] = 10**9
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert "lambda_arithmetic" in {result.name for result in report.failures()}


@pytest.mark.parametrize(
    "n,p",
    [(10**6, 3), (MAX_GROUP_N + 1, 3), (0, 3), (1, 0), (1, 4), (1, 9), (1, 2**89 - 1), (MAX_GROUP_N, 10**50 + 1)],
)
def test_group_params_are_rejected_before_any_arithmetic(monkeypatch, n, p):
    def refuse(*args, **kwargs):
        raise AssertionError("bound recomputed for out-of-range parameters")

    monkeypatch.setattr(verify, "max_abelian_exponent", refuse)
    doc = group_doc(1, 3, mode="structural")
    doc["certificate"]["n"] = n
    doc["certificate"]["p"] = p
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["params"]


def test_forms_that_belong_to_no_matrix_are_rejected():
    # Nine identity matrices share 40 isotropic planes; three extra stored
    # forms that no matrix pulls back to would hide every one of them.
    n, r, p = 2, 9, 3
    spec = ProductSubgroupSpec(n=n, p=p, r=r, k=2, mats=(identity_matrix(4),) * r, certified=False)
    assert len(enumerate_isotropic(list(spec.forms), 2)) == 40
    rng = random.Random(0)
    standard = SymplecticForm.standard(n, p)
    extra = [standard.pullback(random_invertible(4, p, rng)) for _ in range(3)]
    assert enumerate_isotropic(list(spec.forms) + extra, 2) == []
    doc = certdoc.build_document(
        "olshanskii", "olshanskii", {"n": n, "r": r, "p": p}, certdoc.olshanskii_payload(spec, None)
    )
    doc["certificate"]["certified"] = True
    doc["certificate"]["forms"] += [certdoc.encode_matrix(f.matrix) for f in extra]
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    assert "form_congruence" in {result.name for result in report.failures()}


@pytest.mark.parametrize("shift", [3 * 2**40, 3 * 2**60, 3 * 2**70])
def test_unreduced_matrix_entries_are_exact(shift):
    # The same residues mod p must give the same verdict, however large the entries.
    doc = olshanskii_doc(1, 2, 3)
    reduced = verify_document(reserialize(doc))
    assert reduced.ok, reduced.failures()
    bad = fix_digest(mutate(doc, ["mats", 1, 1, 0], shift))
    assert verify_document(reserialize(bad)).ok == reduced.ok


def _ragged(cert):
    cert["mats"][1][1] = cert["mats"][1][1][:1]


@pytest.mark.parametrize(
    "edit",
    [
        {"p": 0},
        {"p": 9},
        {"p": 2**89 - 1},  # prime, but beyond the deterministic primality range
        {"r": 0},
        {"n": 10**6},
        _ragged,
    ],
    ids=["p=0", "p=9", "p=2^89-1", "r=0", "n=10^6", "ragged"],
)
def test_olshanskii_params_are_rejected_before_any_arithmetic(monkeypatch, edit):
    def refuse(*args, **kwargs):
        raise AssertionError("standard form built for out-of-range parameters")

    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    if callable(edit):
        edit(doc["certificate"])
    else:
        doc["certificate"].update(edit)
    monkeypatch.setattr(SymplecticForm, "standard", refuse)
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["params"]


@pytest.mark.parametrize("n,p", [(3, 1000000009), (4, 1000000021), (6, 1000000009)])
def test_construction_at_a_large_prime_is_quick(n, p):
    # Finding a generator of (Z/p^n)* must factor only p - 1: trial division
    # of phi = (p - 1) p^(n-1) would run up to p.
    start = time.perf_counter()
    report = verify_document(reserialize(construction_doc(n, 1, p)))
    assert time.perf_counter() - start < 2.0
    assert report.ok, report.failures()


def test_brute_group_report_runs_under_the_verifiers_budget():
    doc = group_doc(1, 3, mode="brute")
    doc["certificate"]["p"] = 101
    doc["certificate"]["budget"] = 10**100
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    failed = {result.name: result.detail for result in report.failures()}
    assert "budget is 10000" in failed["bound_recomputation"]


def test_structural_only_abelian_bound_says_so():
    doc = reserialize(construction_doc(2, 1, 7))
    full = {result.name: result for result in verify_document(doc).results}
    assert full["abelian_bound_structural"].passed and full["abelian_bound_structural"].detail == ""
    # gaussian_binomial(4, 3, 7) = 400 subspaces
    over = {result.name: result for result in verify_document(doc, budget=399).results}
    assert over["abelian_bound_structural"].passed
    assert over["abelian_bound_structural"].detail == "structural-only: 400 subspaces over budget 399"


def _refuse_enumeration(*args, **kwargs):
    raise AssertionError("enumerate_isotropic called")


def _count_enumerations(monkeypatch):
    """Patch the verifier's enumerate_isotropic to record each k it is called with."""
    calls = []

    def counting(forms, k, budget):
        calls.append(k)
        return enumerate_isotropic(forms, k, budget=budget)

    monkeypatch.setattr(verify, "enumerate_isotropic", counting)
    return calls


def _flip_certified(doc):
    doc = json.loads(json.dumps(doc))
    doc["certificate"]["certified"] = not doc["certificate"]["certified"]
    return fix_digest(doc)


def test_k_above_n_is_verified_by_nondegeneracy(monkeypatch):
    monkeypatch.setattr(products, "enumerate_isotropic", _refuse_enumeration)
    monkeypatch.setattr(verify, "enumerate_isotropic", _refuse_enumeration)
    spec = olshanskii_search(4, 4, 3, seed=7)
    doc = certdoc.build_document(
        "olshanskii", "olshanskii", {"n": 4, "r": 4, "p": 3, "seed": 7}, certdoc.olshanskii_payload(spec, None)
    )
    report = verify_document(reserialize(doc))
    assert report.ok, report.failures()
    checks = {result.name: result for result in report.results}
    assert checks["isotropic_enumeration"].detail == "nondegeneracy: k=6 > n=4"
    flipped = verify_document(_flip_certified(doc))
    assert [result.name for result in flipped.failures()] == ["isotropic_enumeration"]


def test_k_at_most_n_is_verified_by_enumeration(monkeypatch):
    doc = olshanskii_doc(3, 7, 3, seed=1)
    calls = _count_enumerations(monkeypatch)
    assert verify_document(reserialize(doc)).ok
    assert calls[0] == 3
    calls.clear()
    flipped = verify_document(_flip_certified(doc))
    assert [result.name for result in flipped.failures()] == ["isotropic_enumeration"]
    assert calls[0] == 3


def test_exact_dimension_is_searched_from_n_down(monkeypatch):
    doc = olshanskii_doc(2, 2, 3, seed=1)  # k = 6, and two forms share an isotropic plane
    assert doc["certificate"]["bound"]["max_common_isotropic_dim"] == 2
    calls = _count_enumerations(monkeypatch)
    assert verify_document(reserialize(doc)).ok
    assert calls == [2]


def test_singular_matrix_fails_invertibility():
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    doc["certificate"]["mats"][1] = [[1, 2], [2, 1]]
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    failed = [result.name for result in report.failures()]
    assert failed == ["matrices_invertible", "form_congruence", "isotropic_enumeration"]


def test_tall_matrix_fails_params():
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    doc["certificate"]["mats"][1].append([1, 1])  # 3 x 2
    report = verify_document(fix_digest(doc))
    assert [result.name for result in report.failures()] == ["params"]


def test_checks_computed_before_a_malformed_field_are_kept():
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    doc["certificate"]["k"] = -1
    report = verify_document(fix_digest(doc))
    names = [result.name for result in report.results]
    assert names == [
        "document_digest",
        "params",
        "k_choice",
        "matrices_invertible",
        "form_congruence",
        "bound_exponents",
        "well_formed",
    ]
    assert [result.name for result in report.failures()] == ["k_choice", "bound_exponents", "well_formed"]


@pytest.mark.parametrize("p", [0, 1, -3])
def test_construction_p_is_rejected_by_params(p):
    doc = construction_doc(2, 1, 7)
    doc["certificate"]["p"] = p
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["params"]


def _set_row_r(doc, r):
    doc["certificate"]["rows"][1]["r"] = r


def _set_max_n(doc, max_n):
    doc["certificate"]["max_n"] = max_n


def _duplicate_row(doc):
    rows = doc["certificate"]["rows"]
    rows[1] = dict(rows[0])


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: _set_row_r(doc, 0),  # used to raise ZeroDivisionError
        lambda doc: _set_row_r(doc, -1),
        lambda doc: _set_max_n(doc, 10**9),
        lambda doc: _set_max_n(doc, 0),
        _duplicate_row,
    ],
)
def test_lambda_table_params_are_checked_before_any_arithmetic(edit):
    doc = json.loads(json.dumps(lambda_table_doc(3, 2)))
    edit(doc)
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["params"]


@pytest.mark.parametrize("n,p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_brute_group_reports_within_the_work_budget_verify(n, p):
    report = verify_document(reserialize(group_doc(n, p, mode="brute")))
    assert report.ok, report.failures()


def test_brute_group_report_is_bounded_by_its_squared_order():
    # 13^3 = 2197 elements fit the element budget, but the oracle's product
    # table would take 2197^2 group-law calls (about 13 s).
    doc = group_doc(1, 3, mode="brute")
    doc["certificate"].update(p=13, order=13**3, max_abelian_order=13**2)
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    failed = {result.name: result.detail for result in report.failures()}
    assert list(failed) == ["bound_recomputation"]
    assert failed["bound_recomputation"] == str(
        BudgetExceeded(13**6, BRUTE_WORK_BUDGET, what="group-law calls")
    )
