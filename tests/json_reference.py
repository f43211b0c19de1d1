"""Hypothesis strategies for decoded JSON lists and a reference copy of the
JSON object reader, shared by the workload and schedule file tests."""

import json
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from capsched.workload import INT64_MAX, INT64_MIN, _read_json_object

INT64 = st.integers(INT64_MIN, INT64_MAX)
# ints at and just beyond the int64 bounds, and far beyond them
EDGE_INTS = st.sampled_from([INT64_MIN - 1, INT64_MIN, INT64_MAX, INT64_MAX + 1,
                             -10 ** 30, 10 ** 30])
NON_INTS = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=3),
                     st.lists(INT64, max_size=2))


def json_lists(size: int):
    """Lists of size decoded JSON values: small counts, int64 and edge ints,
    or any of those mixed with values that are not ints."""
    return st.one_of(*(st.lists(entries, min_size=size, max_size=size) for entries in (
        st.integers(0, 9), st.one_of(INT64, EDGE_INTS),
        st.one_of(st.integers(0, 9), EDGE_INTS, NON_INTS))))


class _Pairs(list):
    """A decoded JSON object's (name, value) pairs, in text order."""


def _reference_read_json_object(text, noun, error, scalars, lists):
    """_read_json_object with every list entry checked in a Python loop, each
    name checked for a repeat by a scan of the names after it, and the lists
    returned as decoded."""
    try:
        pairs = json.loads(text, object_pairs_hook=_Pairs)
    except (ValueError, RecursionError) as exc:
        raise error(f"{noun} text is not valid JSON: {exc}") from exc
    if not isinstance(pairs, _Pairs):
        raise error(f"{noun} text must be a JSON object")
    doc = dict(pairs)
    fields = scalars + lists
    missing = [f for f in fields if f not in doc]
    if missing:
        raise error(f"missing {noun} field: {missing[0]}")
    for k, (name, _) in enumerate(pairs):
        if any(later == name for later, _ in pairs[k + 1:]):
            raise error(f"duplicate {noun} field: {name if name.isprintable() else repr(name)}")
    unknown = [f for f in doc if f not in fields]
    if unknown:
        name = unknown[0]
        raise error(f"unknown {noun} field: {name if name.isprintable() else repr(name)}")
    for f in scalars:
        if type(doc[f]) is not int:
            raise error(f"field {f} must be an integer")
    for f in lists:
        if type(doc[f]) is not list:
            raise error(f"field {f} must be a list")
        for k, v in enumerate(doc[f]):
            if type(v) is not int:
                raise error(f"{f} has a non-integer entry at slot {k + 1}")
            if not INT64_MIN <= v <= INT64_MAX:
                raise error(f"{f} has an entry outside the int64 range at slot {k + 1}")
    return doc


def assert_reads_alike(text, noun, error, scalars, lists):
    """_read_json_object returns the reference's fields, each list as an
    int64 array, or raises the reference's error with the same message."""
    try:
        expected = _reference_read_json_object(text, noun, error, scalars, lists)
    except error as exc:
        with pytest.raises(error) as info:
            _read_json_object(text, noun, error, scalars, lists)
        assert str(info.value) == str(exc)
        return
    got = _read_json_object(text, noun, error, scalars, lists)
    assert list(got) == list(expected)
    assert {f: got[f] for f in scalars} == {f: expected[f] for f in scalars}
    for f in lists:
        assert got[f].dtype == np.int64 and got[f].tolist() == expected[f]


_INTEGER = re.compile(r"-?[0-9]+")
# integers past the layout's edge (leading zeros, a sign, 19 digits within
# int64 and beyond it) and at it (18 digits)
_ODD_ENTRIES = ["00", "01", "-01", "-0", "+1", "-00", str(10 ** 18), str(-10 ** 18),
                str(INT64_MIN), str(INT64_MAX), str(INT64_MAX + 1), "9" * 19, "9" * 18]


@st.composite
def edited(draw, text):
    """text, _write_json_object's text, with one edit: a digit swapped for a
    non-ASCII one, an integer rewritten (leading zero, "-0", "+1", 19
    digits, the int64 bounds), a character other than a digit dropped, a
    space added, CRLF line ends, no final newline, two fields swapped, a
    field given twice, or a list emptied."""
    numbers = list(_INTEGER.finditer(text))
    # half the integer edits go to a scalar, the integers before the first list
    scalars = [number for number in numbers if number.end() < text.index("[")]
    number = draw(st.sampled_from(draw(st.sampled_from([scalars, numbers]))))
    fields = re.split(r',\n(?=  ")', text[2:-3])
    kind = draw(st.sampled_from(["digit", "integer", "drop", "space", "crlf", "final",
                                 "swap", "repeat", "empty"]))
    if kind == "digit":
        at = draw(st.integers(number.start(), number.end() - 1).filter(lambda k: text[k] != "-"))
        return text[:at] + draw(st.sampled_from(["\u0661", "\uff13"])) + text[at + 1:]
    if kind == "integer":
        return text[:number.start()] + draw(st.sampled_from(_ODD_ENTRIES)) + text[number.end():]
    if kind == "drop":
        at = draw(st.sampled_from([k for k, c in enumerate(text) if not c.isdigit()]))
        return text[:at] + text[at + 1:]
    if kind == "space":
        at = draw(st.integers(0, len(text)))
        return text[:at] + " " + text[at:]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "final":
        return text[:-1]
    if kind == "empty":
        name = draw(st.sampled_from([f for f in fields if f.endswith("]")]))
        fields[fields.index(name)] = name[:name.index("[")] + "[]"
    else:
        i, j = draw(st.permutations(range(len(fields))))[:2]
        if kind == "swap":
            fields[i], fields[j] = fields[j], fields[i]
        else:
            fields.insert(j, fields[i])
    return "{\n" + ",\n".join(fields) + "\n}\n"
