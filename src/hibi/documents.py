"""Reading and writing poset description files.

One JSON-shaped format with a canonical pretty form.  A document either
spells out a poset (elements, covers, bottom) or carries a lattice block
(elements, order); lattice input is converted to its poset of
join-irreducibles, so parsing always yields a poset.  Serialization
always emits the poset form, making serialize(parse(text)) idempotent.
"""

import json
from collections import namedtuple

from .errors import DocumentError
from .poset import build_poset


class PosetDocument(namedtuple("PosetDocument", "name poset lattice", defaults=(None,))):
    """Named poset parsed from a document; keeps the lattice when given one."""

    __slots__ = ()


def _want(payload, key, kind, kindname):
    if key not in payload:
        raise DocumentError(f"missing key {key!r}")
    value = payload[key]
    if not isinstance(value, kind):
        raise DocumentError(f"{key!r} must be {kindname}")
    return value


def _id_list(payload, key):
    values = _want(payload, key, list, "a list")
    for v in values:
        if not isinstance(v, str):
            raise DocumentError(f"entries of {key!r} must be strings, got {v!r}")
    return values


def _pair_list(payload, key):
    values = _want(payload, key, list, "a list")
    pairs = []
    for v in values:
        if not (isinstance(v, list) and len(v) == 2 and all(isinstance(s, str) for s in v)):
            raise DocumentError(f"entries of {key!r} must be two-element string lists, got {v!r}")
        pairs.append((v[0], v[1]))
    return pairs


def parse_poset_document(text):
    """Parse a document; syntax errors carry the line and column.

    Semantic problems (bad keys, invalid poset data, a lattice block that
    is not a distributive lattice) raise the specific validation error.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    name = _want(payload, "name", str, "a string")

    if "lattice" in payload:
        extra = set(payload) - {"name", "lattice"}
        if extra:
            raise DocumentError(f"unexpected key {sorted(extra)[0]!r} beside a lattice block")
        block = _want(payload, "lattice", dict, "an object")
        extra = set(block) - {"elements", "order"}
        if extra:
            raise DocumentError(f"unexpected key {sorted(extra)[0]!r} in lattice block")
        from .birkhoff import build_dist_lattice, join_irreducibles  # for lattice blocks only

        lattice = build_dist_lattice(_id_list(block, "elements"), _pair_list(block, "order"))
        return PosetDocument(name, join_irreducibles(lattice), lattice)

    extra = set(payload) - {"name", "elements", "covers", "bottom"}
    if extra:
        raise DocumentError(f"unexpected key {sorted(extra)[0]!r}")
    elements = _id_list(payload, "elements")
    covers = _pair_list(payload, "covers")
    bottom = _want(payload, "bottom", str, "a string")
    return PosetDocument(name, build_poset(elements, covers, bottom))


def serialize_poset_document(doc):
    """Canonical pretty form: poset fields only, covers in canonical order."""
    p = doc.poset
    idx = p.index
    covers = sorted(p.covers, key=lambda ab: (idx[ab[0]], idx[ab[1]]))
    payload = {
        "name": doc.name,
        "elements": list(p.elements),
        "covers": [list(ab) for ab in covers],
        "bottom": p.bottom,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
