"""``render_json`` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True) + "\\n"``; the golden slices are checked in
``tests/test_golden.py``, arbitrary documents here."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from piclass.reporting import render_json
from piclass.suite import VerdictReport

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True),
    # escapes, control characters, non-ASCII and astral code points
    st.text(alphabet=st.characters(codec="utf-8")),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "ß", "€", "😀"]),
)
keys = st.one_of(st.text(alphabet=st.characters(codec="utf-8")), st.sampled_from(["", "a", "é"]))
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=20,
)


@given(documents)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "d": [{"e": None}]})
@example({"é": " ", "😀": ["퟿"]})
def test_render_json_matches_json_dumps(doc):
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    {2: "int keys", 1: [-3]}, {2.5: "float keys", float("nan"): 0.1}, {True: 1, False: 0},
    {None: "null key"}, [float("inf"), -float("inf"), 1e300, -0.0],
])
def test_render_json_writes_scalar_keys_and_floats_as_json_dumps(doc):
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{1: "a", "b": 2}, {"a": object()}, [{1, 2}], {(1,): 0}])
def test_render_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        render_json(doc)


def test_render_json_refuses_a_record():
    """A record is a tuple, which ``json.dumps`` writes as an array; the
    renderer names its type instead, and writes its ``as_dict``."""
    report = VerdictReport("selftest-fixed-value", "S3", (2,), "fail", {"d_pi": "1/2"})
    with pytest.raises(TypeError, match="VerdictReport"):
        render_json({"r": report})
    with pytest.raises(TypeError, match="VerdictReport"):
        render_json([(report,)])
    doc = {"r": report.as_dict()}
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
