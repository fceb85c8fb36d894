"""Producer-checker consistency and mutation rejection."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

import chern_oracle
from pgroupcert import certdoc, primes, products, symplectic, verify
from pgroupcert.exterior import MAX_SYMMETRIZATION_N, atilde_table
from pgroupcert.groups import BRUTE_WORK_BUDGET, MAX_GROUP_N, epsilon_witness, group_report
from pgroupcert.products import ProductSubgroupSpec, identity_matrix, olshanskii_search, product_subgroup_bound
from pgroupcert.solver import certify, compute_M, find_prime, lambda_table
from pgroupcert.symplectic import (
    MAX_FORM_FAMILY_ENTRIES,
    BudgetExceeded,
    SymplecticForm,
    enumerate_isotropic,
    random_invertible,
)
from pgroupcert.verify import verify_document


def construction_doc(n, r, p, lift="nonneg"):
    cert = certify(n, r, p, lift=lift)
    return certdoc.build_document(
        "construction",
        "certify",
        {"n": n, "r": r, "p": p, "lifts": lift},
        certdoc.construction_payload(cert),
    )


def group_doc(n, p, mode="brute"):
    return certdoc.build_document(
        "group", "group", {"n": n, "p": p, "mode": mode}, certdoc.group_report_payload(n, p, mode, group_report(n, p, mode))
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


def test_olshanskii_count_past_2_53_is_a_decimal_string():
    # gb(14, 9, 3) subspaces per attempt: beyond 2^53, so the document holds it as a string
    doc = reserialize(olshanskii_doc(7, 4, 3))
    assert doc["certificate"]["transcript"]["subspaces_examined_per_attempt"] == "5263390747480701708292"
    report = verify_document(doc)
    assert report.ok, report.failures()


def lambda_table_doc(max_n, max_r):
    rows = lambda_table(max_n, max_r)
    eps = Fraction(2, 3)
    return certdoc.build_document(
        "lambda_table",
        "lambda-table",
        {"max_n": max_n, "max_r": max_r, "epsilon": "2/3"},
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
        {"n": 2, "h": 7, "min": 1},
        certdoc.prime_payload(2, 7, 1, p, compute_M(2)),
    )
    report = verify_document(reserialize(doc))
    assert report.ok, report.failures()


def _prime_doc_with(h, p, n=2, min_p=1):
    certificate = certdoc.prime_payload(n, h, min_p, p, compute_M(n))
    params = {key: certificate[key] for key in ("n", "h", "min")}
    return reserialize(certdoc.build_document("prime", "find-prime", params, certificate))


def test_a_prime_found_just_below_the_primality_limit_verifies():
    # The search stops at its first qualifying prime, long before its last candidate passes the limit.
    min_p = primes.DETERMINISTIC_LIMIT - 10**4
    report = verify_document(_prime_doc_with(1, find_prime(2, min_p=min_p), min_p=min_p))
    assert report.ok, report.failures()


@pytest.mark.parametrize(
    "min_p", [primes.DETERMINISTIC_LIMIT - 10**4, 2**524_000], ids=["just-below-the-limit", "524001-bit"]
)
def test_a_walk_that_reaches_the_primality_limit_is_refused_before_testing_past_it(monkeypatch, min_p):
    # No candidate below the limit qualifies here, so the walk reaches it, where find_prime would refuse.
    doc = _prime_doc_with(7, primes.DETERMINISTIC_LIMIT + 4, min_p=min_p)

    def no_prime_below_the_limit(c):
        assert c < primes.DETERMINISTIC_LIMIT, f"{c} was tested"
        return False

    monkeypatch.setattr(primes, "is_prime", no_prime_below_the_limit)
    failed = {result.name: result.detail for result in verify_document(doc).failures()}
    assert list(failed) == ["payload"]
    assert "past is_prime's range" in failed["payload"]


def test_a_prime_past_the_candidates_the_search_examines_fails_minimality():
    # At n = 2 the candidates are 4, 7, 10, ...; h divides out every prime among
    # the first MAX_PRIME_CANDIDATES, so the least qualifying prime lies past them.
    examined = range(4, 4 + 3 * primes.MAX_PRIME_CANDIDATES, 3)
    qualifying = [c for c in examined if c % 2 and primes.is_prime(c)]
    h = math.prod(qualifying)
    beyond = next(c for c in itertools.count(examined[-1] + 3, 3) if c % 2 and primes.is_prime(c))
    start = time.perf_counter()
    report = verify_document(_prime_doc_with(h, beyond))
    assert time.perf_counter() - start < 1.0
    failed = {result.name: result.detail for result in report.failures()}
    assert list(failed) == ["payload"]
    assert failed["payload"] == f"no prime qualifies among the {primes.MAX_PRIME_CANDIDATES} candidates the search examines"
    # The last candidate the search examines is still its answer when h spares it.
    report = verify_document(_prime_doc_with(h // qualifying[-1], qualifying[-1]))
    assert report.ok, report.failures()


@pytest.mark.parametrize(
    "make_doc, field, value",
    [(lambda: group_doc(1, 3), "budget", 10**8), (lambda: _prime_doc_with(7, 13), "ceiling", 5)],
    ids=["group budget", "prime ceiling"],
)
def test_a_document_that_records_a_retired_bound_fails_its_command_check(make_doc, field, value):
    # Written as documents of these kinds once were: the bound in params and in the certificate,
    # which is then not the payload the verifier rebuilds.
    doc = json.loads(json.dumps(make_doc()))
    assert verify_document(doc).ok
    doc["command"]["params"][field] = doc["certificate"][field] = value
    report = verify_document(fix_digest(doc))
    assert [result.name for result in report.failures()] == ["payload", "command"]


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
    assert_payload_alone_failed(verify_document(bad), "delta")


def test_lift_mutation_fails_roots_or_sigma():
    doc = construction_doc(2, 1, 7)
    bad = fix_digest(mutate(doc, ["a", 0], 3))
    report = verify_document(bad)
    assert not report.ok
    assert any(r.name in ("roots", "sigma_divisibility") for r in report.failures())


def test_M_mutation_fails_recomputation():
    doc = construction_doc(1, 1, 3)
    bad = fix_digest(mutate(doc, ["M"], 1))
    assert_payload_alone_failed(verify_document(bad), "M")


@pytest.mark.parametrize("n", [6, 7])
def test_an_M_from_the_other_branch_of_the_closed_form_fails_M(n):
    # 6! in place of M(6) = 5! and of M(7) = 7!: verify derives M by its own
    # recursion, so a value the producer's formula would give for the wrong branch fails.
    doc = json.loads(json.dumps(construction_doc(n, 1, find_prime(n))))
    doc["certificate"]["M"] = 720
    report = verify_document(fix_digest(doc))
    assert_payload_alone_failed(report, "M")
    assert report.failures()[0].detail == f"certificate.M is 720, rebuilt {compute_M(n)}"


def test_a_stored_M_of_half_a_million_bits_fails_M_alone_at_once():
    # The line product is built with the verifier's own M, so the stored one costs
    # only its decoding; with the stored M it took seconds at n = 10.
    doc = json.loads(json.dumps(construction_doc(10, 1, 363067)))
    doc["certificate"]["M"] = "0x" + "f" * certdoc.MAX_HEX_DIGITS
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert_payload_alone_failed(report, "M")


def test_matrix_mutation_fails_congruence_or_digest():
    doc = olshanskii_doc(1, 2, 3)
    bad = fix_digest(mutate(doc, ["mats", 1, 0, 0], 1))
    report = verify_document(bad)
    assert not report.ok


def assert_roots_alone_failed(report):
    """roots failed, and the checks on what the lifts derive, which need its window on every lift, did not run."""
    assert report.results[0].passed
    assert [(result.name, result.detail) for result in report.failures()][1:] == [
        (name, "not run: roots failed") for name in ("sigma_divisibility", "b_series", "chern_product", "payload")
    ]
    assert report.failures()[0].name == "roots"


def assert_payload_alone_failed(report, field):
    """payload failed alone, and its detail names the stored field that is not the rebuilt one."""
    assert report.results[0].passed
    failed = {result.name: result.detail for result in report.failures()}
    assert list(failed) == ["payload"]
    assert failed["payload"].startswith(f"certificate.{field} "), failed["payload"]


def test_residue_mutation_fails_roots():
    doc = construction_doc(2, 1, 7)
    bad = fix_digest(mutate(doc, ["residues", 1], 1))
    report = verify_document(bad)
    assert not report.ok
    assert any(r.name == "roots" for r in report.failures())


def test_a_residue_stored_unreduced_fails_roots():
    # The same residue mod q = 49, stored as itself plus q: it is still a distinct
    # root of x^3 = 1 mod q that its lift reduces to, so only the requirement
    # that a stored residue be reduced, 0 <= alpha < q, tells it apart.
    doc = construction_doc(2, 1, 7)
    bad = fix_digest(mutate(doc, ["residues", 1], 49))
    assert_roots_alone_failed(verify_document(bad))


def test_roots_of_unity_modulo_a_composite_fail_roots_as_well_as_prime():
    # 4 and 11 both square to 1 mod 15, but 4 * 11 = 14 does not: the cyclicity
    # argument that stands in for a closure check needs p to be a prime.
    doc = json.loads(json.dumps(construction_doc(1, 1, 3)))
    doc["certificate"].update(p=15, residues=[4, 11], a=[4, 11])
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    failed = [result.name for result in report.failures()]
    assert "prime" in failed and "roots" in failed


@pytest.mark.parametrize("sign", [1, -1], ids=["plus-one", "minus-one"])
@pytest.mark.parametrize("n,k", [(n, k) for n in (4, 6) for k in range(1, n + 1)])
def test_a_bumped_delta_fails_chern_product_alone(n, k, sign):
    # The verifier derives each delta by the logarithm identity, so a stored delta
    # that is not the derived one fails payload; the multiply-out oracle must see
    # every such document's Chern product as not one as well.
    p = find_prime(n)
    doc = fix_digest(mutate(construction_doc(n, 1, p), ["delta", k - 1], sign))
    cert = doc["certificate"]
    lifts, delta = certdoc.decode_int_list(cert["a"]), certdoc.decode_int_list(cert["delta"])
    assert not chern_oracle.chern_product(n, p, compute_M(n), lifts, delta, atilde_table(n)).is_one()
    assert_payload_alone_failed(verify_document(doc), "delta")


@pytest.mark.parametrize("edit", ["drop", "pad"])
@pytest.mark.parametrize("field", ["a", "residues", "s", "b", "delta"])
def test_a_list_whose_length_n_does_not_fix_fails_the_series_checks(field, edit):
    # A short b or delta used to raise IndexError out of verify, and a padded one
    # verified: only the first n entries were read.  n + 1 roots are part of roots;
    # s, b and delta are derived, and the stored lists must be the derived ones.
    doc = json.loads(json.dumps(construction_doc(2, 1, 7)))
    values = doc["certificate"][field]
    if edit == "drop":
        values.pop()
    else:
        values.append(0)
    report = verify_document(fix_digest(doc))
    if field in ("a", "residues"):
        assert_roots_alone_failed(report)
    else:
        assert_payload_alone_failed(report, field)


def test_a_construction_with_a_thousand_lifts_is_rejected_at_once():
    # n = 2 fixes three lifts; the symmetric functions of these 1000 took about 100 s.
    doc = json.loads(json.dumps(construction_doc(2, 1, 7)))
    rng = random.Random(1)
    doc["certificate"]["a"] = certdoc.encode_int_list(rng.getrandbits(560) for _ in range(1000))
    doc = fix_digest(doc)
    start = time.perf_counter()
    report = verify_document(doc)
    assert time.perf_counter() - start < 1.0
    assert_roots_alone_failed(report)


def test_lifts_at_the_decoders_limit_fail_roots_at_once():
    # Outside their window the lifts drive no series arithmetic: with 16,000 hex
    # digits each, the series checks alone took more than a second at n = 10.
    doc = json.loads(json.dumps(construction_doc(10, 1, 363067)))
    doc["certificate"]["a"] = ["0x" + "f" * certdoc.MAX_HEX_DIGITS] * 11
    doc = fix_digest(doc)
    start = time.perf_counter()
    report = verify_document(doc)
    assert time.perf_counter() - start < 1.0
    assert_roots_alone_failed(report)


def test_stored_chern_product_must_be_the_unit_series_at_n():
    # A unit series of the wrong length used to pass: only is_one() was asked of it.
    doc = construction_doc(2, 1, 13)
    doc["certificate"]["chern_product"] = {"n": 0, "coeffs": [{"num": "1", "den": "1"}]}
    assert_payload_alone_failed(verify_document(fix_digest(doc)), "chern_product")


@pytest.mark.parametrize(
    "edit",
    [
        lambda product: product["coeffs"][1].update(den="2"),
        lambda product: product["coeffs"][0].update(num="2", den="2"),
        lambda product: product.update(n="2"),
    ],
    ids=["0/2", "2/2", "n-as-a-string"],
)
def test_a_chern_product_that_decodes_to_one_must_be_written_as_certdoc_writes_it(edit):
    # Each of these decoded to the unit series and verified: one content had many digests.
    doc = json.loads(json.dumps(construction_doc(2, 1, 13)))
    edit(doc["certificate"]["chern_product"])
    assert_payload_alone_failed(verify_document(fix_digest(doc)), "chern_product")


@pytest.mark.parametrize(
    "lift,convention",
    [("nonneg", "symmetric"), ("symmetric", "nonneg"), ("nonneg", "shifted"), ("nonneg", ["nonneg"])],
    ids=["nonneg-stated-symmetric", "symmetric-stated-nonneg", "unknown", "not-a-string"],
)
def test_lifts_must_lie_in_the_range_of_their_stated_convention(lift, convention):
    # The stored convention used to go unread, so a misstated one verified.
    doc = construction_doc(2, 1, 13, lift=lift)
    assert verify_document(doc).ok
    doc["certificate"]["lift_convention"] = convention
    assert_roots_alone_failed(verify_document(fix_digest(doc)))


def test_a_lift_just_outside_the_symmetric_range_fails_roots():
    doc = construction_doc(1, 1, 3, lift="symmetric")  # q = 3: lifts in [-1, 1]
    lifts = doc["certificate"]["a"]
    lifts[lifts.index(-1)] = 2  # the same residue mod 3
    report = verify_document(fix_digest(doc))
    assert "roots" in [result.name for result in report.failures()]


@pytest.mark.parametrize(
    "edit",
    [lambda assumptions: assumptions.clear(), lambda assumptions: assumptions.pop(), lambda assumptions: assumptions.reverse()],
    ids=["dropped", "one-dropped", "reordered"],
)
def test_stored_assumptions_must_be_the_cited_ones(edit):
    doc = construction_doc(2, 1, 7)
    edit(doc["certificate"]["assumptions"])
    assert_payload_alone_failed(verify_document(fix_digest(doc)), "assumptions")


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda cert: cert.update(notes=["anything"]), "notes"),
        (lambda cert: cert.update(tau_note="x"), "tau_note"),
        (lambda cert: cert["notes"].pop(0), "notes"),
        (lambda cert: cert["notes"].__setitem__(-1, "lifts are symmetric representatives in (-p^n/2, p^n/2)"), "notes"),
    ],
    ids=["notes-replaced", "tau-note-replaced", "note-dropped", "lift-note-misstated"],
)
def test_stored_notes_must_be_the_ones_the_certificate_gives(edit, field):
    # notes and tau_note used to go unread, so any text verified.
    doc = construction_doc(2, 1, 13)
    assert doc["certificate"]["notes"][-1] == "lifts are least nonnegative representatives"
    edit(doc["certificate"])
    assert_payload_alone_failed(verify_document(fix_digest(doc)), field)


@pytest.mark.parametrize(
    "edit",
    [lambda checks: checks.clear(), lambda checks: checks.popitem(), lambda checks: checks.update(extra=True)],
    ids=["none", "one-dropped", "unknown"],
)
def test_recorded_checks_must_name_exactly_the_established_identities(edit):
    # An empty checks object used to verify: only the recorded values were read.
    doc = construction_doc(2, 1, 13)
    edit(doc["certificate"]["checks"])
    assert_payload_alone_failed(verify_document(fix_digest(doc)), "checks")


@pytest.mark.parametrize(
    "make_doc,path",
    [
        (lambda: construction_doc(2, 1, 7), ["atilde", 0, "value"]),
        (lambda: construction_doc(2, 1, 7), ["chern_product", "coeffs", 0]),
        (lambda: group_doc(1, 3, mode="structural"), ["lambda"]),
        (lambda: lambda_table_doc(3, 2), ["rows", 0, "bound"]),
    ],
    ids=["atilde-value", "chern_product-coeff", "group-lambda", "lambda_table-bound"],
)
def test_a_zero_denominator_is_a_parse_error(make_doc, path):
    # Fraction(num, 0) used to raise ZeroDivisionError out of verify_document.
    doc = json.loads(json.dumps(make_doc()))
    node = doc["certificate"]
    for step in path:
        node = node[step]
    node["den"] = "0"
    with pytest.raises(certdoc.ParseError, match="nonzero den"):
        verify_document(fix_digest(doc))


def test_chern_product_needs_the_exponential_shape_of_the_verifiers_table(monkeypatch):
    # The logarithm identity reads only atilde_{k,1}; the other entries enter
    # through the shape atilde_{k,j} = atilde_{k,1}^j / j!, which must be checked.
    real_table, real_chain = verify._rederive_atilde, verify.m_chain

    def bent_table(n):
        table = real_table(n)
        table[(1, 2)] *= 2
        return table

    monkeypatch.setattr(verify, "_rederive_atilde", bent_table)
    monkeypatch.setattr(verify, "m_chain", lambda n, table: real_chain(n, real_table(n)))
    report = verify_document(construction_doc(2, 1, 7))
    failed = {result.name: result.detail for result in report.failures()}
    assert list(failed) == ["chern_product", "payload"]
    assert "table exponential: False" in failed["chern_product"]
    assert failed["payload"].startswith("certificate.atilde ")


def test_atilde_mutation_fails_the_table_check():
    # The verifier derives M and every delta from its own table, so the stored
    # table is caught by the payload comparison alone.
    doc = json.loads(json.dumps(construction_doc(2, 1, 7)))
    entry = doc["certificate"]["atilde"][1]
    assert (entry["k"], entry["j"]) == (1, 2)
    entry["value"]["num"] = str(int(entry["value"]["num"]) + 1)
    assert_payload_alone_failed(verify_document(fix_digest(doc)), "atilde")


def _integer_paths(value, path=()):
    """The path of every integer in a JSON value: a bare one, or a string that decodes as one."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _integer_paths(item, path + (key,))
    elif not isinstance(value, bool):
        try:
            certdoc.decode_int(value)
        except certdoc.ParseError:
            return
        yield path


def test_an_integer_re_encoded_fails_payload_alone():
    # decode_int_list took "5" for 5, so a construction with a list entry written as
    # a string verified: one content had many digests.  Every integer, M and the
    # entries of a, residues, s, b and delta among them, has one encoding.
    doc = construction_doc(2, 1, 7)
    paths = list(_integer_paths(doc["certificate"]))
    assert len(paths) > 40
    for path in paths:
        edited = json.loads(json.dumps(doc))
        parent = edited["certificate"]
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        parent[path[-1]] = str(value) if isinstance(value, int) else certdoc.decode_int(value)
        assert_payload_alone_failed(verify_document(fix_digest(edited)), path[0])


def test_unknown_kind_rejected():
    doc = certdoc.build_document("nonsense", "x", {}, {})
    report = verify_document(doc)
    assert not report.ok


def prime_doc(n):
    p = find_prime(n)
    return certdoc.build_document(
        "prime",
        "find-prime",
        {"n": n, "h": 1, "min": 1},
        certdoc.prime_payload(n, 1, 1, p, compute_M(n)),
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
    # r is bounded with the group order p^(2n+r) a document can hold
    assert {result.name for result in report.failures()} == {"params"}


def test_group_stored_exponent_is_bounded():
    doc = group_doc(1, 3, mode="structural")
    doc["certificate"]["max_abelian_exponent"] = 10**9
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert "payload" in {result.name for result in report.failures()}


@pytest.mark.parametrize(
    "n,p",
    [(10**6, 3), (MAX_GROUP_N + 1, 3), (0, 3), (1, 0), (1, 4), (1, 9), (1, 2**89 - 1), (MAX_GROUP_N, 10**50 + 1)],
)
def test_group_params_are_rejected_before_any_arithmetic(monkeypatch, n, p):
    def refuse(*args, **kwargs):
        raise AssertionError("bound recomputed for out-of-range parameters")

    monkeypatch.setattr(verify, "group_report", refuse)
    doc = group_doc(1, 3, mode="structural")
    for fields in (doc["certificate"], doc["command"]["params"]):
        fields.update(n=n, p=p)
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


def _identity_family_doc(r):
    """A (1, r, 3) family of identity matrices, consistent in every field but its size."""
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    cert = doc["certificate"]
    identity, standard = cert["mats"][0], cert["forms"][0]
    cert.update(r=r, k=2, mats=[identity] * r, forms=[standard] * r, order_exponent=r + 2, abelian_exponent=r + 2)
    del cert["bound"]
    return fix_digest(doc)


def test_olshanskii_family_size_is_bounded():
    r = MAX_FORM_FAMILY_ENTRIES // 4
    report = verify_document(_identity_family_doc(r))
    assert report.ok, report.failures()
    report = verify_document(_identity_family_doc(r + 1))
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["params"]


@pytest.mark.parametrize("n,p", [(3, 1000000009), (4, 1000000021), (6, 1000000009)])
def test_construction_at_a_large_prime_is_quick(n, p):
    # Finding the roots of unity must factor only n + 1: trial division of
    # phi = (p - 1) p^(n-1) would run up to p.
    start = time.perf_counter()
    report = verify_document(reserialize(construction_doc(n, 1, p)))
    assert time.perf_counter() - start < 2.0
    assert report.ok, report.failures()


def test_brute_group_report_runs_under_the_verifiers_budget():
    # The work bound is the library's, shared with the producer: a report stores none.
    doc = group_doc(1, 3, mode="brute")
    assert "budget" not in doc["certificate"] and "budget" not in doc["command"]["params"]
    for fields in (doc["certificate"], doc["command"]["params"]):
        fields["p"] = 101
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    failed = {result.name: result.detail for result in report.failures()}
    assert failed["payload"] == str(BudgetExceeded(101**6, BRUTE_WORK_BUDGET, what="group-law calls"))


def test_abelian_bound_runs_in_full_under_any_budget():
    doc = reserialize(construction_doc(2, 1, 7))
    # gaussian_binomial(4, 3, 7) = 400 subspaces, but no 3-space is isotropic by the rank argument
    for budget in (10**7, 399):
        checks = {result.name: result for result in verify_document(doc, budget=budget).results}
        assert checks["abelian_bound_structural"] == ("abelian_bound_structural", True, "")


def _refuse_search(*args, **kwargs):
    raise AssertionError("isotropic search run")


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
    monkeypatch.setattr(symplectic, "_isotropic_with_pivots", _refuse_search)
    spec = olshanskii_search(4, 4, 3, seed=7)
    doc = certdoc.build_document(
        "olshanskii", "olshanskii", {"n": 4, "r": 4, "p": 3, "seed": 7}, certdoc.olshanskii_payload(spec, None)
    )
    report = verify_document(reserialize(doc), budget=1)
    assert report.ok, report.failures()
    checks = {result.name: result for result in report.results}
    assert checks["isotropic_enumeration"].detail == ""
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
    searched = []
    search = symplectic._isotropic_with_pivots

    def recording(normals, dim, p, pivots):
        searched.append(len(pivots))
        return search(normals, dim, p, pivots)

    monkeypatch.setattr(symplectic, "_isotropic_with_pivots", recording)
    assert verify_document(reserialize(doc)).ok
    # k = 6 and the dimensions 5..3 above n are settled without a search
    assert set(searched) == {2}


def test_singular_matrix_fails_invertibility():
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    doc["certificate"]["mats"][1] = [[1, 2], [2, 1]]
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    failed = [result.name for result in report.failures()]
    assert failed == ["matrices_invertible", "form_congruence", "isotropic_enumeration", "exact_abelian_bound"]


@pytest.mark.parametrize("stored_bound", [True, False], ids=["bound", "no-bound"])
@pytest.mark.parametrize(
    "fault, reason",
    [
        ("digest", "document already failed integrity"),
        ("forms", "forms invalid"),
        ("A_1", "forms invalid"),
        ("k", "k invalid"),
    ],
)
def test_unsearchable_document_reports_its_search_checks_not_run(fault, reason, stored_bound):
    # Every check the document asks for is reported: a stored bound is
    # checked by exact_abelian_bound, so it is not run, never dropped.
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    if not stored_bound:
        del doc["certificate"]["bound"]
    if fault == "forms":
        doc["certificate"]["forms"][0] = [[0, 2], [1, 0]]
    if fault == "A_1":  # symplectic, so every stored form is still its pullback
        doc["certificate"]["mats"][0][0][1] = 1
    if fault == "k":
        doc["certificate"]["k"] = 0
    doc = fix_digest(doc)
    if fault == "digest":
        doc["digest"] = "0" * 64
    report = verify_document(doc)
    names = ["isotropic_enumeration", "exact_abelian_bound"][: 1 + stored_bound]
    assert report.results[-len(names):] == [verify.CheckResult(name, False, f"not run: {reason}") for name in names]
    assert report.results[-len(names) - 1].name == "bound_exponents"


@pytest.mark.parametrize("bound", [[1], "x", 5])
def test_bound_that_is_not_an_object_fails_well_formed(bound):
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    doc["certificate"]["bound"] = bound
    report = verify_document(fix_digest(doc))
    assert report.results[-1].name == "well_formed"
    assert report.results[-1].detail.startswith("malformed certificate: bound must be an object")
    assert [result.name for result in report.failures()] == ["well_formed"]


def test_tall_matrix_fails_params():
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    doc["certificate"]["mats"][1].append([1, 1])  # 3 x 2
    report = verify_document(fix_digest(doc))
    assert [result.name for result in report.failures()] == ["params"]


def test_checks_computed_before_a_malformed_field_are_kept():
    doc = json.loads(json.dumps(olshanskii_doc(1, 2, 3)))
    del doc["certificate"]["bound"]["abelian_exponent"]
    report = verify_document(fix_digest(doc))
    names = [result.name for result in report.results]
    assert names == [
        "document_digest",
        "params",
        "k_choice",
        "matrices_invertible",
        "form_congruence",
        "well_formed",
    ]
    assert [result.name for result in report.failures()] == ["well_formed"]


@pytest.mark.parametrize(
    "make_doc,field,check",
    [
        (lambda: olshanskii_doc(1, 2, 3), "r", "params"),
        (lambda: construction_doc(2, 1, 7), "n", "params"),
        (lambda: construction_doc(2, 1, 7), "M", "payload"),
        (lambda: group_doc(1, 3, mode="structural"), "n", "params"),
        (lambda: group_doc(1, 3, mode="structural"), "max_abelian_exponent", "payload"),
        (lambda: lambda_table_doc(3, 2), "max_n", "params"),
        (lambda: prime_doc(2), "n", "params"),
        (lambda: prime_doc(2), "prime", "payload"),
    ],
    ids=[
        "olshanskii-r", "construction-n", "construction-M", "group-n", "group-max_abelian_exponent",
        "lambda_table-max_n", "prime-n", "prime-prime",
    ],
)
def test_integers_past_the_digit_limit_fail_their_named_check(make_doc, field, check):
    # str() refuses integers past 4300 digits, so a detail naming one shows its bit length
    doc = make_doc()
    doc["certificate"][field] = hex(10**5000)
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    failed = {result.name: result.detail for result in report.failures()}
    assert "well_formed" not in failed, failed
    assert "16610-bit integer" in failed[check]
    if field == "M":  # every check after payload still runs
        assert report.results[-1].name == "abelian_bound_structural"


@pytest.mark.parametrize("p", [0, 1, -3])
def test_construction_p_is_rejected_by_params(p):
    doc = construction_doc(2, 1, 7)
    doc["certificate"]["p"] = p
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["params"]


@pytest.mark.parametrize(
    "p", [primes.DETERMINISTIC_LIMIT, 2**524_000 + 1], ids=["at-the-limit", "524001-bit"]
)
def test_construction_p_past_the_primality_range_is_rejected_by_params_at_once(p):
    # Every series check does arithmetic in p, so params refuses such a p before any of them.
    doc = construction_doc(10, 1, find_prime(10))
    doc["certificate"]["p"] = certdoc.encode_int(p)
    doc = fix_digest(doc)
    start = time.perf_counter()
    report = verify_document(doc)
    elapsed = time.perf_counter() - start
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["params"]
    assert elapsed < 1.0


# Each edit returns the checks it fails: max_n is a param of the command too, and
# the rows are compared with the rest of the rebuilt payload.


def _set_row_r(doc, r):
    doc["certificate"]["rows"][1]["r"] = r
    return ["payload"]


def _set_max_n(doc, max_n):
    doc["certificate"]["max_n"] = max_n
    return ["params", "command"]


def _duplicate_row(doc):
    rows = doc["certificate"]["rows"]
    rows[1] = dict(rows[0])
    return ["payload"]


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
    expected = edit(doc)
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == expected


def test_lambda_table_over_the_row_limit_fails_params():
    # A real 101 x 100 grid, built past the producer's own refusal.
    rows = [products.lambda_row(n, r) for n in range(1, 102) for r in range(1, 101)]
    doc = certdoc.build_document(
        "lambda_table",
        "lambda-table",
        {"max_n": 101, "max_r": 100, "epsilon": None},
        certdoc.lambda_table_payload(101, 100, rows, None, None),
    )
    report = verify_document(reserialize(doc))
    assert report.results[0].passed
    failed = {r.name: r.detail for r in report.failures()}
    assert list(failed) == ["params"]
    assert f"at most {certdoc.MAX_LAMBDA_TABLE_ROWS} rows" in failed["params"]


@pytest.mark.parametrize("n,p", [(1, 3), (1, 5), (1, 7), (2, 3)])
def test_brute_group_reports_within_the_work_budget_verify(n, p):
    report = verify_document(reserialize(group_doc(n, p, mode="brute")))
    assert report.ok, report.failures()


def test_brute_group_report_is_bounded_by_its_squared_order():
    # The oracle's product table on 13^3 = 2197 elements would take 2197^2
    # group-law calls (about 13 s).
    doc = group_doc(1, 3, mode="brute")
    doc["certificate"].update(p=13, order=13**3, max_abelian_order=13**2)
    doc["command"]["params"]["p"] = 13
    start = time.perf_counter()
    report = verify_document(fix_digest(doc))
    assert time.perf_counter() - start < 1.0
    failed = {result.name: result.detail for result in report.failures()}
    assert list(failed) == ["payload"]
    assert failed["payload"] == str(
        BudgetExceeded(13**6, BRUTE_WORK_BUDGET, what="group-law calls")
    )


@pytest.mark.parametrize(
    "fields, deleted, failures",
    [
        ({"max_common_isotropic_dim": None, "exact_abelian_exponent": 2}, None, ["exact_abelian_bound"]),
        ({"max_common_isotropic_dim": None}, None, ["exact_abelian_bound"]),
        ({}, "exact_abelian_exponent", ["exact_abelian_bound"]),
        ({"exact_abelian_exponent": None}, None, ["exact_abelian_bound"]),
        ({"max_common_isotropic_dim": None, "exact_abelian_exponent": None}, None, []),
    ],
    ids=["dimension null", "only the dimension null", "exponent deleted", "exponent null", "search skipped"],
)
def test_an_exact_bound_needs_both_its_fields(fields, deleted, failures):
    # A skipped exact search stores both fields null and claims nothing; either field alone claims the bound.
    doc = json.loads(json.dumps(olshanskii_doc(2, 2, 3, seed=1)))
    bound = doc["certificate"]["bound"]
    assert (bound["max_common_isotropic_dim"], bound["exact_abelian_exponent"]) == (2, 4)
    bound.update(fields)
    bound.pop(deleted, None)
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == failures


def test_olshanskii_stored_bound_exponents_are_checked():
    doc = json.loads(json.dumps(olshanskii_doc(2, 2, 3, seed=1)))
    doc["certificate"]["bound"].update(order_exponent=999, abelian_exponent=-5)
    report = verify_document(fix_digest(doc))
    assert report.results[0].passed
    assert [result.name for result in report.failures()] == ["bound_exponents"]
