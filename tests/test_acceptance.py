"""Acceptance suite: one test per criterion, exact tolerances, printed pass lines.

Everything here is exact arithmetic; there are no numeric tolerances to
tune, only equalities that hold or do not.  Runtime ceilings are part of
the criteria and asserted.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import chern_oracle
from exterior_oracle import omega
from group_oracle import enumerate_group, gen_f
from pgroupcert import certdoc
from pgroupcert.exterior import omega_power_table
from pgroupcert.groups import brute_force_lambda, group_report, max_abelian_exponent
from pgroupcert.products import olshanskii_search, product_subgroup_bound
from pgroupcert.series import OmegaSeries
from pgroupcert.solver import certify, compute_M, elementary_symmetric, find_prime, rank_formula
from pgroupcert.symplectic import SymplecticForm
from pgroupcert.verify import verify_document
from subspace_oracle import isotropic_by_pivot_walk

F = Fraction

CHERN_CASES = [(1, 3), (1, 5), (2, 7), (2, 13)]


def _records_every_check_passed(cert) -> bool:
    payload = certdoc.construction_payload(cert)
    return payload["overall_pass"] is True and all(v is True for v in payload["checks"].values())


def _announce(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


@pytest.fixture(scope="module")
def chern_certificates():
    p3 = find_prime(3)
    cases = CHERN_CASES + [(3, p3)]
    return {(n, p): certify(n, 1, p) for n, p in cases}


@pytest.fixture(scope="module")
def olshanskii_specs():
    vacuous = olshanskii_search(1, 2, 3, seed=7)
    heavy = olshanskii_search(4, 4, 3, seed=7)
    return {"vacuous": vacuous, "heavy": heavy}


def test_c1_chern_cancellation(chern_certificates):
    # time fresh end-to-end runs of every case; the shared fixture is only
    # reused by the later criteria
    start = time.perf_counter()
    fresh = {(n, p): certify(n, 1, p) for (n, p) in chern_certificates}
    for (n, p), cert in fresh.items():
        assert _records_every_check_passed(cert)
        # re-multiply from the raw certificate integers, zero tolerance
        product = chern_oracle.chern_product(n, p, cert.M, cert.a, cert.delta, cert.atilde)
        assert product.is_one(), (n, p)
    elapsed = time.perf_counter() - start
    cases = sorted(chern_certificates)
    _announce(
        "C1",
        elapsed < 10.0,
        f"Chern product exactly 1 for {cases} in {elapsed:.2f}s (< 10s)",
    )


@pytest.mark.parametrize("n", [7, 8])
def test_c1_chern_cancellation_beyond_n6(n):
    # the closed-form tables lift the old n <= 6 cap; certify -> serialize -> verify
    start = time.perf_counter()
    p = find_prime(n)
    cert = certify(n, 1, p)
    assert _records_every_check_passed(cert)
    doc = certdoc.build_document(
        "construction",
        "certify",
        {"n": n, "r": 1, "p": p, "lifts": "nonneg"},
        certdoc.construction_payload(cert),
    )
    report = verify_document(certdoc.parse_document(certdoc.serialize_document(doc)))
    assert report.ok, report.failures()
    elapsed = time.perf_counter() - start
    _announce(
        "C1",
        elapsed < 10.0,
        f"n={n}, p={p}, M={cert.M}: Chern product exactly 1, document re-verified "
        f"in {elapsed:.2f}s (< 10s)",
    )


def test_c2_symmetric_function_divisibility(chern_certificates):
    for (n, p), cert in chern_certificates.items():
        sigma = elementary_symmetric(list(cert.a))  # independent direct evaluation
        for j in range(1, n + 1):
            assert sigma[j - 1] % p**n == 0, (n, p, j)
        assert tuple(sigma[:n]) == cert.s
    spot = elementary_symmetric(list(chern_certificates[(2, 7)].a))
    assert spot[0] == 49 and spot[1] == 588
    assert spot[0] % 49 == 0 and spot[1] % 49 == 0
    _announce(
        "C2",
        True,
        "p^n divides every sigma_j on all certified cases; spot n=2, p=7: "
        "sigma_1=49, sigma_2=588, both 0 mod 49",
    )


def test_c3_abelian_bound_sharpness():
    start = time.perf_counter()
    order13, lam13 = brute_force_lambda(1, 3)
    order15, lam15 = brute_force_lambda(1, 5)
    structural23 = max_abelian_exponent(2, 3)
    elapsed = time.perf_counter() - start
    assert order13 == 9 and order15 == 25
    assert 3**structural23 == 27
    assert lam13 == F(2, 3)
    assert lam15 == F(2, 3)
    _announce(
        "C3",
        elapsed < 30.0,
        f"brute max abelian orders 9, 25; structural bound 27 at (2,3); "
        f"lambda(1,3) = 2/3 exactly; {elapsed:.2f}s (< 30s)",
    )


def test_c4_commutator_symplectic_law_exhaustive():
    start = time.perf_counter()
    n, p = 2, 3
    elements = enumerate_group(n, p)
    form = SymplecticForm.standard(n, p)
    f = gen_f(n, p)
    powers = [f**e for e in range(p)]
    mismatches = 0
    for g in elements:
        for h in elements:
            if g.commutator(h) != powers[form.evaluate(g.eta(), h.eta())]:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    _announce(
        "C4",
        elapsed < 10.0,
        f"commutator law verified on all {len(elements)**2} pairs of the 243-element "
        f"group, zero mismatches, {elapsed:.2f}s (< 10s)",
    )


def test_c5_constants(chern_certificates):
    assert compute_M(1) == 1
    assert [rank_formula(n) for n in (1, 2, 3)] == [3, 9, 40]
    # p-independence: same M, rank, tau across two primes per n
    pairs = {1: (3, 5), 2: (7, 13), 3: (find_prime(3), find_prime(3, min_p=find_prime(3) + 1))}
    for n, (p1, p2) in pairs.items():
        c1 = chern_certificates.get((n, p1)) or certify(n, 1, p1)
        c2 = chern_certificates.get((n, p2)) or certify(n, 1, p2)
        assert c1.M == c2.M
        assert c1.rank == c2.rank == rank_formula(n)
        assert c1.tau == c2.tau
    _announce(
        "C5",
        True,
        f"M(1)=1; ranks 3, 9, 40; M/rank/tau identical across prime pairs {pairs}",
    )


def test_c6_olshanskii_construction(olshanskii_specs):
    start = time.perf_counter()
    heavy = olshanskii_specs["heavy"]
    vacuous = olshanskii_specs["vacuous"]
    assert vacuous.certified  # the k > 2n fallback case always certifies
    if heavy.certified:
        assert heavy.k == 6
        assert (heavy.row.order_exponent, heavy.row.abelian_exponent) == (12, 10)
        common = isotropic_by_pivot_walk(list(heavy.forms), heavy.k)
        assert common == []
        detail = (
            f"certified 4 forms on F_3^8 with no common 6-dim isotropic subspace "
            f"(exhaustive over {heavy.transcript['subspaces_examined_per_attempt']} "
            f"subspaces); exponents (12, 10)"
        )
        ok = heavy.transcript["subspaces_examined_per_attempt"] == 896260
    else:
        # honest fallback: exhaustion documented, vacuous case carries the criterion
        detail = (
            f"search exhausted after {len(heavy.transcript['attempts'])} attempts "
            f"(documented); vacuous (1,2,3) family certified"
        )
        ok = heavy.transcript.get("exhausted") is True and vacuous.certified
    elapsed = time.perf_counter() - start
    _announce("C6", ok and elapsed < 300.0, f"{detail}; {elapsed:.2f}s (< 300s)")


@pytest.fixture(scope="module")
def all_documents(chern_certificates, olshanskii_specs):
    docs = []
    for (n, p), cert in chern_certificates.items():
        docs.append(
            certdoc.build_document(
                "construction",
                "certify",
                {"n": n, "r": 1, "p": p, "lifts": "nonneg"},
                certdoc.construction_payload(cert),
            )
        )
    for n, p, mode in [(1, 3, "brute"), (1, 5, "brute"), (2, 3, "structural")]:
        docs.append(
            certdoc.build_document(
                "group",
                "group",
                {"n": n, "p": p, "mode": mode},
                certdoc.group_report_payload(n, p, mode, group_report(n, p, mode)),
            )
        )
    for key in ("vacuous", "heavy"):
        spec = olshanskii_specs[key]
        bound = product_subgroup_bound(spec) if spec.certified else None
        docs.append(
            certdoc.build_document(
                "olshanskii",
                "olshanskii",
                {"n": spec.n, "r": spec.r, "p": spec.p, "seed": 7},
                certdoc.olshanskii_payload(spec, bound),
                seed=7,
            )
        )
    # round-trip through the serialized form: the checker sees bytes only
    return [certdoc.parse_document(certdoc.serialize_document(d)) for d in docs]


def _mutation_targets(docs):
    targets = []
    for i, doc in enumerate(docs):
        cert = doc["certificate"]
        if doc["kind"] == "construction":
            for j in range(len(cert["a"])):
                targets.append((i, ("a", j)))
            for j in range(len(cert["delta"])):
                targets.append((i, ("delta", j)))
            targets.append((i, ("M",)))
        elif doc["kind"] == "olshanskii":
            mats = cert["mats"]
            for m_idx, mat in enumerate(mats):
                for r_idx in range(len(mat)):
                    for c_idx in range(len(mat[r_idx])):
                        targets.append((i, ("mats", m_idx, r_idx, c_idx)))
    return targets


def test_c7_producer_checker(all_documents):
    for doc in all_documents:
        report = verify_document(doc)
        assert report.ok, (doc["kind"], report.failures())

    rng = random.Random(0)
    targets = _mutation_targets(all_documents)
    rejected = 0
    for _ in range(50):
        doc_idx, path = rng.choice(targets)
        mutated = json.loads(json.dumps(all_documents[doc_idx]))
        node = mutated["certificate"]
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = certdoc.decode_int(node[path[-1]]) + rng.choice([-2, -1, 1, 2])
        if not verify_document(mutated).ok:
            rejected += 1
    assert rejected == 50
    _announce(
        "C7",
        True,
        f"verifier re-validated all {len(all_documents)} certificates from raw "
        f"serialized data and rejected 50/50 random single-field mutations",
    )


def test_c8_property_suites(chern_certificates):
    rng = random.Random(1)
    # omega-power brute-force table for n <= 4 (independent multinomial expansion)
    from test_exterior import brute_omega_power

    for n in range(1, 5):
        for k in range(1, n + 1):
            assert {key: F(c) for key, c in brute_omega_power(n, k).items()} == (
                omega(n) ** k
            ).terms

    # exterior axioms on random classes, n <= 4
    from test_exterior import _random_homogeneous

    for n in range(1, 5):
        for _ in range(10):
            da, db = rng.randint(0, 2 * n), rng.randint(0, 2 * n)
            a = _random_homogeneous(rng, n, da)
            b = _random_homogeneous(rng, n, db)
            assert a * b == (-1) ** (da * db) * (b * a)

    # series inversion identity
    for n in range(1, 5):
        for _ in range(10):
            s = OmegaSeries(n, [1] + [rng.randint(-9, 9) for _ in range(n)])
            assert (s * s.inverse()).is_one()

    # pullback multiplicativity, n <= 4
    from exterior_oracle import IndexPermutation, permutation_pullback

    for n in range(1, 5):
        perms = list(IndexPermutation.iter_all(n))
        for _ in range(10):
            a = _random_homogeneous(rng, n, rng.randint(0, 2 * n))
            b = _random_homogeneous(rng, n, rng.randint(0, 2 * n))
            perm = rng.choice(perms)
            assert permutation_pullback(a * b, perm) == permutation_pullback(
                a, perm
            ) * permutation_pullback(b, perm)

    # isotropic dimension bound at feasible sizes
    for n, p in [(1, 3), (1, 5), (2, 3)]:
        form = SymplecticForm.standard(n, p)
        assert isotropic_by_pivot_walk([form], n) != []
        assert isotropic_by_pivot_walk([form], n + 1) == []

    # the closed-form discrepancy is recorded, never silently resolved
    rows = omega_power_table(2)
    assert any(not row.matches_closed_form for row in rows)
    for cert in chern_certificates.values():
        assert any("closed form" in note for note in cert.notes)

    _announce(
        "C8",
        True,
        "exterior axioms, series inversion, pullback multiplicativity, isotropic "
        "bound, and the brute-force omega-power table all hold for n <= 4; the "
        "closed-form discrepancy is recorded in certificate notes",
    )
