"""Document parsing, serialization, and the lattice input path."""

import json

import pytest

from hibi import (
    DocumentError,
    NotDistributive,
    parse_poset_document,
    poset_isomorphic,
    serialize_poset_document,
)
from hibi.corpus import antichain
from hibi.documents import PosetDocument

P1_TEXT = """
{
  "name": "P1",
  "elements": ["x0", "w", "x", "z", "y", "v"],
  "covers": [["x0", "w"], ["x0", "x"], ["w", "y"], ["x", "z"], ["z", "y"], ["x", "v"]],
  "bottom": "x0"
}
"""

DIAMOND_BLOCK = """
{
  "name": "pair",
  "lattice": {
    "elements": ["0", "a", "b", "1"],
    "order": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]
  }
}
"""

M3_BLOCK = """
{
  "name": "m3",
  "lattice": {
    "elements": ["0", "a", "b", "c", "1"],
    "order": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]]
  }
}
"""


def test_parse_p1(poset1):
    doc = parse_poset_document(P1_TEXT)
    assert doc.name == "P1"
    assert doc.poset == poset1
    assert doc.lattice is None


def test_round_trip_is_idempotent():
    doc = parse_poset_document(P1_TEXT)
    text = serialize_poset_document(doc)
    again = parse_poset_document(text)
    assert again.poset == doc.poset
    assert serialize_poset_document(again) == text


def test_serialized_form_is_canonical(poset1):
    text = serialize_poset_document(PosetDocument("P1", poset1))
    payload = json.loads(text)
    assert list(payload) == ["name", "elements", "covers", "bottom"]
    assert payload["elements"] == list(poset1.elements)
    assert text.endswith("\n")


def test_syntax_error_carries_location():
    with pytest.raises(DocumentError) as err:
        parse_poset_document('{\n  "name": "x",\n  "elements": [}\n}')
    assert "line 3" in str(err.value)
    assert "column" in str(err.value)


def test_non_object_document():
    with pytest.raises(DocumentError):
        parse_poset_document("[1, 2]")


def test_missing_and_unknown_keys():
    with pytest.raises(DocumentError):
        parse_poset_document('{"elements": [], "covers": [], "bottom": "x0"}')
    with pytest.raises(DocumentError):
        parse_poset_document(
            '{"name": "x", "elements": ["x0"], "covers": [], "bottom": "x0", "extra": 1}'
        )


def test_malformed_pair():
    with pytest.raises(DocumentError) as err:
        parse_poset_document(
            '{"name": "x", "elements": ["x0", "a"], "covers": [["x0"]], "bottom": "x0"}'
        )
    assert "covers" in str(err.value)


def test_non_string_ids():
    with pytest.raises(DocumentError):
        parse_poset_document('{"name": "x", "elements": [1], "covers": [], "bottom": "x0"}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"name": 5}', "'name' must be a string"),
        ('{"name": "x", "elements": 3, "covers": [], "bottom": "x0"}', "'elements' must be a list"),
        ('{"name": "x", "elements": ["x0"], "covers": {}, "bottom": "x0"}', "'covers' must be a list"),
        ('{"name": "x", "elements": ["x0"], "covers": [], "bottom": 0}', "'bottom' must be a string"),
        ('{"name": "x", "lattice": []}', "'lattice' must be an object"),
        ('{"name": "x", "lattice": {"elements": "a", "order": []}}', "'elements' must be a list"),
    ],
)
def test_mistyped_keys_name_the_key_and_the_type(text, message):
    with pytest.raises(DocumentError) as err:
        parse_poset_document(text)
    assert str(err.value) == message


def test_lattice_block_yields_join_irreducibles():
    doc = parse_poset_document(DIAMOND_BLOCK)
    assert doc.lattice is not None
    assert poset_isomorphic(doc.poset, antichain(2))


def test_lattice_block_must_be_distributive():
    with pytest.raises(NotDistributive):
        parse_poset_document(M3_BLOCK)


def test_lattice_block_rejects_stray_keys():
    with pytest.raises(DocumentError):
        parse_poset_document(
            '{"name": "x", "lattice": {"elements": [], "order": []}, "covers": []}'
        )
    with pytest.raises(DocumentError):
        parse_poset_document('{"name": "x", "lattice": {"elements": [], "rows": []}}')


def test_lattice_document_serializes_as_poset():
    doc = parse_poset_document(DIAMOND_BLOCK)
    text = serialize_poset_document(doc)
    payload = json.loads(text)
    assert set(payload) == {"name", "elements", "covers", "bottom"}
    assert parse_poset_document(text).poset == doc.poset
