"""Exact JSON encoding, canonical serialization, digests, round-trips."""

import json
import re
from fractions import Fraction

import pytest

from pgroupcert import certdoc
from pgroupcert.cli import main
from pgroupcert.products import olshanskii_search, product_subgroup_bound
from pgroupcert.series import OmegaSeries
from pgroupcert.solver import certify
from pgroupcert.symplectic import DEFAULT_SUBSPACE_BUDGET
from pgroupcert.verify import decode_series


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


def test_fraction_round_trip():
    for value in (Fraction(2, 3), Fraction(-355348, 1), Fraction(10**20, 3)):
        assert certdoc.decode_fraction(certdoc.encode_fraction(value)) == value
    assert certdoc.encode_fraction(Fraction(1, 2)) == {"num": "1", "den": "2"}


def test_series_round_trip():
    s = OmegaSeries(3, (1, Fraction(-2, 3), 0, 10**20))
    assert decode_series(certdoc.encode_series(s)) == s


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
        {"n": 1, "prime": 3, "M": 1, "h": 1, "min": 1, "ceiling": 10},
    )
    text = certdoc.serialize_document(doc)
    lines = [line.strip() for line in text.splitlines() if line.strip().startswith('"')]
    keys = [line.split('"')[1] for line in lines]
    top_level = [
        k
        for k in keys
        if k in ("certificate", "command", "digest", "generated_at", "kind", "schema_version", "seed")
    ]
    assert top_level == sorted(top_level)


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
}


@pytest.mark.parametrize("n,r,p,lift", sorted(GOLDEN_DIGESTS))
def test_golden_construction_digests(n, r, p, lift):
    doc = certdoc.build_document(
        kind="construction",
        command="certify",
        params={"n": n, "r": r, "p": p, "lifts": lift},
        certificate=certdoc.construction_payload(certify(n, r, p, lift=lift)),
    )
    assert doc["digest"] == GOLDEN_DIGESTS[(n, r, p, lift)]


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
    "group --n 2 --p 7": "5d3bf2257b10861861e7ae6f8a9ae5bb6696295981aae771c2a5c2001ef5e9d5",
    "group --n 1 --p 5 --mode brute": "db9711cd7aa4bfe6af0daf5efe075725410469db0f4bb4876db247cb5bc741c8",
    "certify --n 2 --r 1 --p 13": "cd34393cc5d128f940ede1a6bc43aeca662b4bab04d121ec8641fb6f3a7b9e77",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI_DIGESTS))
def test_golden_cli_digests(command, tmp_path):
    out = tmp_path / "doc.json"
    assert main([*command.split(), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["digest"] == GOLDEN_CLI_DIGESTS[command]
