"""Fuzz the verifier with single-field edits of re-digested documents of every kind.

Each edit deletes a key, changes a value's type, bumps an integer, sets a
zero or a huge value, pads or truncates a list, or nests a value deeply;
the document is then re-digested, so only the verifier's own checks can
refuse it.  Raw bytes, UTF-8 or not, are fuzzed too.  Every case must end
in a VerificationReport or a ParseError, which the command line reports as
exit 0 or 1 and as exit 2, within a time bound: never in another exception.
Extreme values are tested by their rejection, so none is ever run.
Group, prime and lambda-table documents are checked in every field, so
there every deterministic single-field edit must also fail verification;
in a construction document only the declared unchecked fields may take one.
"""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_documents import KIND_COMMANDS, document_text
from pgroupcert import certdoc
from pgroupcert.cli import main
from pgroupcert.verify import verify_document

#: Seconds one case may take, the in-process verification and the command line together.
TIME_BOUND = 10.0

#: Values of another JSON type than the one edited.
OTHER_TYPES = (None, True, "x", 1.5, [], {}, 0)

#: Integers a producer would refuse long before running them.
HUGE = (10**9, 2**64 + 1, 10**4000, -(10**4000), 16**certdoc.MAX_HEX_DIGITS - 1)

#: Depths a value is nested to; the last is past the JSON decoder's recursion limit.
NEST_DEPTHS = (2, 100, 500, 5000)

#: Stands in for a value nested past the encoder's limit until the text is written.
_MARKER = "nested-value-marker"


def _paths(value, path=()):
    """The path of every value inside ``value``, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _edits(value):
    """The names of the edits that apply to ``value``."""
    names = ["delete", "retype", "zero", "huge", "nest"]
    if isinstance(value, int) and not isinstance(value, bool):
        names.append("bump")
    if isinstance(value, str):
        try:
            certdoc.decode_int(value)
            names.append("bump")
        except certdoc.ParseError:
            pass
    if isinstance(value, list):
        names += ["pad", "truncate"] if value else ["pad"]
    return names


@st.composite
def edited_documents(draw):
    """(kind, path, edit, text) for one single-field edit of a re-digested document."""
    kind = draw(st.sampled_from(sorted(KIND_COMMANDS)))
    doc = json.loads(document_text(kind))
    paths = [p for p in _paths(doc) if p[0] not in ("digest", "generated_at")]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    edit = draw(st.sampled_from(_edits(value)))
    deep = None
    if edit == "delete":
        del parent[key]
    elif edit == "retype":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif edit == "zero":
        parent[key] = draw(st.sampled_from([0, "0"]))
    elif edit == "huge":
        parent[key] = certdoc.encode_int(draw(st.sampled_from(HUGE)))
    elif edit == "bump":
        parent[key] = certdoc.encode_int(certdoc.decode_int(value) + draw(st.sampled_from([-2, -1, 1, 2])))
    elif edit == "pad":
        filler = copy.deepcopy(value[-1]) if value else 0
        parent[key] = value + [filler] * draw(st.sampled_from([1, 1000]))
    elif edit == "truncate":
        parent[key] = value[: draw(st.integers(0, len(value) - 1))]
    else:
        depth = draw(st.sampled_from(NEST_DEPTHS))
        if depth < 1000:
            for _ in range(depth):
                value = [value]
            parent[key] = value
        else:
            deep, parent[key] = depth, _MARKER
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    text = certdoc.serialize_document(doc)
    if deep is not None:
        text = text.replace(json.dumps(_MARKER), "[" * deep + "]" * deep)
    return kind, path, edit, text


def _verify_in_process(text):
    """0 or 1 by the report, 2 on a ParseError: the exit status the command line owes."""
    try:
        report = verify_document(certdoc.parse_document(text))
    except certdoc.ParseError:
        return 2
    return 0 if report.ok else 1


def _verify_at_the_command_line(path):
    """The exit status of ``verify PATH``; any exception but SystemExit propagates out of main."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", str(path)])


_FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    """The file each case writes its document to."""
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@_FUZZ
@given(case=edited_documents())
def test_an_edited_document_ends_in_a_report_or_a_parse_error(doc_path, case):
    kind, path, edit, text = case
    doc_path.write_text(text, encoding="ascii")
    start = time.perf_counter()
    status = _verify_in_process(text)
    assert _verify_at_the_command_line(doc_path) == status
    assert time.perf_counter() - start < TIME_BOUND, (kind, path, edit)


@_FUZZ
@given(
    kind=st.sampled_from(sorted(KIND_COMMANDS)),
    at=st.floats(0, 1),
    junk=st.binary(min_size=1, max_size=8),
)
def test_raw_bytes_end_in_a_report_or_a_parse_error(doc_path, kind, at, junk):
    data = document_text(kind).encode("ascii")
    cut = int(at * len(data))
    data = data[:cut] + junk + data[cut:]
    doc_path.write_bytes(data)
    start = time.perf_counter()
    status = _verify_at_the_command_line(doc_path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        assert status == 2
    else:
        assert status == _verify_in_process(text)
    assert time.perf_counter() - start < TIME_BOUND, (kind, cut, junk)


#: What a field is replaced by: null, zero, and a value of each JSON type.
REPLACEMENTS = (None, 0, "0", True, "x", 1.5, [], {})

#: Stands for deleting the field.
_DELETE = object()


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _single_field_edits(text):
    """(path, new value, edited text) for every deletion, replacement, +-1 and re-encoding of one field.

    An integer is re-encoded as the same value in the other JSON form: a bare
    integer as a decimal string, and a string as a bare integer.

    The digest is recomputed, so only the verifier's own checks can refuse the
    edit.  ``generated_at`` lies outside the digest by design and is left out,
    and so is a replacement that leaves the field as it was.
    """
    for path in _paths(json.loads(text)):
        if path[0] in ("digest", "generated_at"):
            continue
        value = _at(json.loads(text), path)
        news = [_DELETE, *REPLACEMENTS]
        if "bump" in _edits(value):
            news += [certdoc.encode_int(certdoc.decode_int(value) + step) for step in (-1, 1)]
            news.append(str(value) if isinstance(value, int) else certdoc.decode_int(value))
        for new in news:
            if new is not _DELETE and certdoc.canonical_json(new) == certdoc.canonical_json(value):
                continue
            doc = json.loads(text)
            parent = _at(doc, path[:-1])
            if new is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(new)
            doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
            yield path, "delete" if new is _DELETE else new, certdoc.serialize_document(doc)


#: The top-level fields of a document kind that no check reads yet, with the reason.
UNCHECKED_FIELDS = {
    # perfbench/test_perfbench.py builds its construction document with params={} and
    # requires it to verify, so a construction's command check waits for a benchmark change.
    "construction": ("command", "seed"),
}


@pytest.mark.parametrize("kind", ["group", "prime", "lambda_table", "construction"])
def test_every_single_field_edit_of_a_group_or_prime_document_fails(kind):
    text = document_text(kind)
    assert _verify_in_process(text) == 0
    edits = list(_single_field_edits(text))
    assert len(edits) > 100
    accepted = [(path, new) for path, new, edited in edits if _verify_in_process(edited) == 0]
    unchecked = UNCHECKED_FIELDS.get(kind, ())
    assert [(path, new) for path, new in accepted if path[0] not in unchecked] == []
