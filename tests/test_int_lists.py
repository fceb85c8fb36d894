"""encode_int_list and decode_int_list agree with encode_int and decode_int, entry by entry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgroupcert import certdoc

EDGE = 2**53

# Plain ints on both sides of the 2**53 bound, and every other kind of entry
# a document or a caller may hand over.
ENTRIES = [
    0, 1, -1, 7, EDGE, -EDGE, EDGE + 1, -(EDGE + 1), 10**certdoc.MAX_INT_DIGITS,
    True, False, 1.0, -2.5,
    "12", "-12", "9007199254740993", "0x1f", "-0x1f", "1.5", "",
    [1, 2], None,
]


def _outcome(f, value):
    """The typed result of f(value), or the type of what it raised."""
    try:
        result = f(value)
    except Exception as exc:  # the exception type is what is compared
        return "raises", type(exc)
    if isinstance(result, list):
        return "value", [(type(x), x) for x in result]
    return "value", (type(result), result)


def _entrywise(f, values):
    """f applied to each entry in turn: the typed results, or the first exception type."""
    out = []
    for value in values:
        kind, result = _outcome(f, value)
        if kind == "raises":
            return kind, result
        out.append(result)
    return "value", out


def _name(entry):
    # repr refuses an int past CPython's digit limit, so such an entry is named by its size.
    big = type(entry) is int and abs(entry) >= certdoc.DECIMAL_LIMIT
    return f"<{entry.bit_length()}-bit int>" if big else repr(entry)


@pytest.mark.parametrize("entry", ENTRIES, ids=_name)
def test_one_entry_lists_agree_with_the_scalar_codec(entry):
    assert _outcome(certdoc.encode_int_list, [entry]) == _entrywise(certdoc.encode_int, [entry])
    assert _outcome(certdoc.decode_int_list, [entry]) == _entrywise(certdoc.decode_int, [entry])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from(ENTRIES), max_size=6))
def test_mixed_lists_agree_with_the_scalar_codec(values):
    assert _outcome(certdoc.encode_int_list, values) == _entrywise(certdoc.encode_int, values)
    assert _outcome(certdoc.decode_int_list, values) == _entrywise(certdoc.decode_int, values)


def test_int_lists_are_copies():
    values = [1, 2, 3]
    for codec in (certdoc.encode_int_list, certdoc.decode_int_list):
        result = codec(values)
        assert result == values and result is not values
    assert certdoc.encode_int_list((1, EDGE + 1)) == [1, str(EDGE + 1)]
    assert certdoc.encode_int_list([]) == certdoc.decode_int_list([]) == []
