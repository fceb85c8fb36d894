"""Exact JSON encoding, canonical serialization, digests, round-trips."""

import json
import re
from fractions import Fraction

import pytest

import chern_oracle
from cli_documents import KIND_COMMANDS, document_text
from pgroupcert import certdoc
from pgroupcert.cli import main
from pgroupcert.products import olshanskii_search, product_subgroup_bound
from pgroupcert.solver import certify
from pgroupcert.symplectic import DEFAULT_SUBSPACE_BUDGET
from pgroupcert.verify import verify_document


def test_int_encoding_small_and_big():
    assert certdoc.encode_int(42) == 42
    assert certdoc.encode_int(-(2**53)) == -(2**53)
    big = 2**53 + 1
    assert certdoc.encode_int(big) == str(big)
    assert certdoc.decode_int(certdoc.encode_int(big)) == big
    assert certdoc.decode_int(certdoc.encode_int(-big)) == -big
    assert certdoc.decode_int(7) == 7


def test_int_decoding_rejects_junk():
    with pytest.raises(certdoc.ParseError):
        certdoc.decode_int("7.5")
    with pytest.raises(certdoc.ParseError):
        certdoc.decode_int(True)
    with pytest.raises(certdoc.ParseError):
        certdoc.decode_int(1.5)


def test_int_encoding_is_hex_past_the_digit_limit():
    edge = 10**certdoc.MAX_INT_DIGITS
    for value in (edge - 1, -(edge - 1)):
        encoded = certdoc.encode_int(value)
        assert "x" not in encoded and len(encoded.lstrip("-")) == certdoc.MAX_INT_DIGITS
        assert certdoc.decode_int(encoded) == value
    for value in (edge, -edge, 7**20_000):
        encoded = certdoc.encode_int(value)
        assert encoded == hex(value)
        assert certdoc.decode_int(encoded) == value
    frac = Fraction(edge + 1, 3)
    assert certdoc.encode_fraction(frac) == {"num": hex(edge + 1), "den": "3"}
    assert certdoc.decode_fraction(certdoc.encode_fraction(frac)) == frac
    assert certdoc.decode_fraction(certdoc.encode_fraction(1 / frac)) == 1 / frac


def test_oversize_hex_integer_is_a_parse_error():
    digits = certdoc.MAX_HEX_DIGITS
    assert certdoc.decode_int("0x" + "f" * digits) == 16**digits - 1
    assert certdoc.decode_int("-0x" + "f" * digits) == 1 - 16**digits
    for text in ("0x" + "f" * (digits + 1), "-0x" + "1" * (digits + 1)):
        with pytest.raises(certdoc.ParseError, match="exceeds the limit"):
            certdoc.decode_int(text)
    with pytest.raises(certdoc.ParseError):
        certdoc.decode_int("0xfg")


def test_bool_decoding_accepts_only_json_booleans():
    assert certdoc.decode_bool(True) is True and certdoc.decode_bool(False) is False
    for junk in ("false", "true", 0, 1, None, [True]):
        with pytest.raises(certdoc.ParseError, match="expected a boolean"):
            certdoc.decode_bool(junk)


def test_fraction_round_trip():
    for value in (Fraction(2, 3), Fraction(-355348, 1), Fraction(10**20, 3)):
        assert certdoc.decode_fraction(certdoc.encode_fraction(value)) == value
    assert certdoc.encode_fraction(Fraction(1, 2)) == {"num": "1", "den": "2"}


def test_no_floats_anywhere_in_documents():
    cert = certify(2, 1, 7)
    doc = certdoc.build_document(
        "construction", "certify", {"n": 2, "r": 1, "p": 7}, certdoc.construction_payload(cert)
    )

    def walk(node):
        assert not isinstance(node, float), node
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)


def test_document_round_trip_and_digest():
    cert = certify(1, 1, 3)
    doc = certdoc.build_document(
        "construction", "certify", {"n": 1, "r": 1, "p": 3}, certdoc.construction_payload(cert)
    )
    text = certdoc.serialize_document(doc)
    parsed = certdoc.parse_document(text)
    assert parsed == doc
    assert certdoc.compute_digest(certdoc.document_digestable(parsed)) == parsed["digest"]
    # serialization is deterministic apart from the timestamp
    again = certdoc.build_document(
        "construction", "certify", {"n": 1, "r": 1, "p": 3}, certdoc.construction_payload(cert)
    )
    assert again["digest"] == doc["digest"]


def test_digest_changes_on_payload_change():
    cert = certify(1, 1, 3)
    payload = certdoc.construction_payload(cert)
    doc = certdoc.build_document("construction", "certify", {}, payload)
    mutated = json.loads(certdoc.serialize_document(doc))
    mutated["certificate"]["M"] = 99
    assert certdoc.compute_digest(certdoc.document_digestable(mutated)) != doc["digest"]


def test_parse_errors():
    with pytest.raises(certdoc.ParseError):
        certdoc.parse_document("not json at all")
    with pytest.raises(certdoc.ParseError):
        certdoc.parse_document("[1, 2, 3]")
    with pytest.raises(certdoc.ParseError):
        certdoc.parse_document(json.dumps({"schema_version": "99"}))
    with pytest.raises(certdoc.ParseError):
        certdoc.parse_document(json.dumps({"schema_version": "1", "kind": "x"}))


def test_sorted_keys_in_serialization():
    doc = certdoc.build_document(
        "prime",
        "find-prime",
        {"n": 1},
        {"n": 1, "prime": 3, "M": 1, "h": 1, "min": 1},
    )
    key_orders = []

    def record(pairs):
        key_orders.append([key for key, _ in pairs])
        return dict(pairs)

    json.loads(certdoc.serialize_document(doc), object_pairs_hook=record)
    # The certificate, the command, its params and the document itself.
    assert len(key_orders) == 4
    assert key_orders[-1] == ["certificate", "command", "digest", "generated_at", "kind", "schema_version", "seed"]
    for keys in key_orders:
        assert keys and keys == sorted(keys)


@pytest.mark.parametrize("kind", sorted(KIND_COMMANDS))
def test_a_document_is_written_in_its_canonical_form(kind):
    doc = json.loads(document_text(kind))
    text = certdoc.serialize_document(doc)
    assert text == certdoc.canonical_json(doc) + "\n"
    assert text == document_text(kind)
    parsed = certdoc.parse_document(text)
    assert parsed == doc
    assert verify_document(parsed).results[0] == ("document_digest", True, "")


@pytest.mark.parametrize("depth", [1000, 2000, 100_000])
def test_a_document_nested_past_the_recursion_limit_is_a_parse_error(depth):
    with pytest.raises(certdoc.ParseError, match="nested too deeply"):
        certdoc.parse_document("[" * depth + "]" * depth)


def test_a_document_too_deep_to_encode_is_a_parse_error():
    # One that parsed just under the decoder's limit can exhaust it in the digest's encoder.
    deep = []
    for _ in range(5000):
        deep = [deep]
    doc = json.loads(document_text("prime"))
    doc["certificate"]["n"] = deep
    with pytest.raises(certdoc.ParseError, match="nested too deeply"):
        verify_document(doc)


def test_generated_at_is_a_utc_timestamp_in_seconds():
    doc = certdoc.build_document("prime", "find-prime", {"n": 1}, {"n": 1})
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", doc["generated_at"])


# Full digests of the construction documents, pinned so that changes to how
# the tables are computed cannot silently change a certificate.
GOLDEN_DIGESTS = {
    (1, 1, 3, "nonneg"): "bba3f0f97ecaba7ed511618a5324d176c3e96b428dac56e8682a94a10d4fde4b",
    (1, 2, 3, "symmetric"): "be00fd00d0d73804150ecacb2078a79c5ce094f67a15c908a0b92f6e11e2f20d",
    (2, 1, 7, "nonneg"): "b1a7f9d3d403357f69fc6eb95fac9ab3e3cf92964fcd90db08c41aa9847d622f",
    (2, 2, 7, "symmetric"): "db0ff455c0d438bf3cf31601609a7ca1cd487d575d4b8c349727ca7a94e9fa0c",
    (3, 1, 13, "nonneg"): "679f4549336efb6ff7c822ef4622aba562b5567b9289ea10bac02071eef5719d",
    (3, 2, 13, "symmetric"): "b9ab0919c17390d26062d477e872de746267bfd7445f81e413107af564a1680d",
    (4, 1, 11, "nonneg"): "531118041d5889ace8f758c0247485d2ef6c63d8dc50a76bcc8654aa9998137e",
    (4, 2, 11, "symmetric"): "05d6b0f9179bf4e32386acbddba6f353b725f2e8d4193e5b0b246ebee5aafc82",
    (5, 1, 127, "nonneg"): "90a24c6441d3828eb3d20fccc67c1738a4ed1c69992a35993c6726819d61c790",
    (5, 2, 127, "symmetric"): "d47bc563927556e1dccd3306e4a30bf4960c390aef73e340e0bb31fd24ce03fe",
    (6, 1, 127, "nonneg"): "8bf00038b6375489e0feedde44322a6b45ddacaba2f5a667a1fe406ff1c8ab74",
    (6, 2, 127, "symmetric"): "f250382b5915a01c06fb079991ab5a1476d3d02b2132d37ebb8c2476460627d8",
    # p = find_prime(n), up to the top of the cap.
    (8, 1, 5059, "nonneg"): "93cfcfa56ea7c9cd1939507ae959c554e99732b84d8b41d059f3b40551f7b3c1",
    (8, 1, 5059, "symmetric"): "6d9e47ea18a2c4e25910358f2aa927809d0d4f2160f43fe3f922894af518c5e6",
    (8, 2, 5059, "nonneg"): "dfee76ceb0f860d3db814af3bc8c56f243c791c1e41d7dd5375a9c8f01c718d9",
    (8, 2, 5059, "symmetric"): "d3a371c915330af672f718a8128e3b5557e06631fd28f981584c7c2081d0897c",
    (10, 1, 363067, "nonneg"): "6c449dbab60163dac353174a3ec58df90e4958dce1f3eade0cf79b7a1629d5f3",
    (10, 1, 363067, "symmetric"): "71e3eaaaea351750d55c8f1fe7024eb5213476d0875ceb51abbc84a81baaa532",
    (10, 2, 363067, "nonneg"): "f92de22c51b99cd1d3dce6abf0b58ac23b35421b53d7f385d34480fb92e8c04a",
    (10, 2, 363067, "symmetric"): "8c2b1903edc5e1be5554b09cc02e611fc38025579b27160ec5831228fa6ea072",
}


def _golden_construction_doc(n, r, p, lift):
    return certdoc.build_document(
        kind="construction",
        command="certify",
        params={"n": n, "r": r, "p": p, "lifts": lift},
        certificate=certdoc.construction_payload(certify(n, r, p, lift=lift)),
    )


@pytest.mark.parametrize("n,r,p,lift", sorted(GOLDEN_DIGESTS))
def test_golden_construction_digests(n, r, p, lift):
    doc = _golden_construction_doc(n, r, p, lift)
    assert doc["digest"] == GOLDEN_DIGESTS[(n, r, p, lift)]


@pytest.mark.parametrize("n,r,p,lift", sorted(GOLDEN_DIGESTS))
def test_golden_construction_documents_verify_and_multiply_out_to_one(n, r, p, lift):
    # verify decides chern_product by the logarithm; the oracle multiplies every class out.
    doc = certdoc.parse_document(certdoc.serialize_document(_golden_construction_doc(n, r, p, lift)))
    report = verify_document(doc)
    assert report.ok, report.failures()
    cert = doc["certificate"]
    atilde = {(e["k"], e["j"]): certdoc.decode_fraction(e["value"]) for e in cert["atilde"]}
    product = chern_oracle.chern_product(
        n, p, certdoc.decode_int(cert["M"]), certdoc.decode_int_list(cert["a"]),
        certdoc.decode_int_list(cert["delta"]), atilde,
    )
    assert product.is_one()


# Full digests of olshanskii documents as the CLI builds them (default budget
# and attempts), pinned so that changes to the isotropic enumeration cannot
# silently change a certificate or its transcript.
GOLDEN_OLSHANSKII_DIGESTS = {
    (2, 2, 3, 1): "2a90932720041aca62767be7d5f3061f1d62e8518fe04516bcc3dfeed3ef76cf",
    (4, 4, 3, 7): "4d8e5366a4ee0e8e84c1f1197e5b825e1ea297bd3f34835ea967b9daf1e6359a",
}


@pytest.mark.parametrize("n,r,p,seed", sorted(GOLDEN_OLSHANSKII_DIGESTS))
def test_golden_olshanskii_digests(n, r, p, seed):
    budget, attempts = DEFAULT_SUBSPACE_BUDGET, 20
    spec = olshanskii_search(n, r, p, seed=seed, budget=budget, attempts=attempts)
    bound = product_subgroup_bound(spec, exact_budget=budget) if spec.certified else None
    doc = certdoc.build_document(
        kind="olshanskii",
        command="olshanskii",
        params={"n": n, "r": r, "p": p, "seed": seed, "budget": budget, "attempts": attempts},
        certificate=certdoc.olshanskii_payload(spec, bound),
        seed=seed,
    )
    assert doc["digest"] == GOLDEN_OLSHANSKII_DIGESTS[(n, r, p, seed)]


# Full digests of the documents the abelian-bound rule feeds, as the CLI
# builds them, pinned so that rewiring the rule cannot change a document.
GOLDEN_CLI_DIGESTS = {
    "lambda-table --max-n 12 --max-r 12 --epsilon 1/2": "79048b099284e988a7758fb8bc69a01945f5da388d647c876f8a537871741e52",
    "group --n 2 --p 7": "6f698ce442f238ac5cb5529e8323134b8e4f54d37af449deaaa15c924e297b85",
    "group --n 1 --p 5 --mode brute": "341d5c97a35397bb736fa8287f54f8287ca367797e3f9ecf64d892bdbc17f084",
    "certify --n 2 --r 1 --p 13": "cd34393cc5d128f940ede1a6bc43aeca662b4bab04d121ec8641fb6f3a7b9e77",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI_DIGESTS))
def test_golden_cli_digests(command, tmp_path):
    out = tmp_path / "doc.json"
    assert main([*command.split(), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["digest"] == GOLDEN_CLI_DIGESTS[command]
