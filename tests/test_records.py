"""Value records: hashing, printing, immutability, validation and import cost."""

import importlib

import pytest

import hibi
from conftest import hibi_probe, python_probe
from hibi.birkhoff import DistLattice, lattice_from_poset
from hibi.cones import ConeSection, build_C
from hibi.corpus import antichain, builtin, chain, p1
from hibi.documents import PosetDocument, parse_poset_document
from hibi.errors import InvalidPoset, NotALattice
from hibi.frobenius import Budget, TComplexityTable, t_piece, tcx_report
from hibi.labelings import Labeling, truncate, zero_labeling
from hibi.poset import TOP, Poset, qdist
from hibi.sequences import CondNSeq, q_value, witness_sequence

# Field names in declaration order, written out so that a record which
# gained, lost or reordered a field fails here.
FIELDS = {
    Poset: ("elements", "covers", "bottom"),
    Labeling: ("poset", "values"),
    CondNSeq: ("poset", "items"),
    ConeSection: (
        "poset",
        "epsilon",
        "seq",
        "equalities",
        "inequalities",
        "g_parts",
        "g_set",
        "f_set",
    ),
    DistLattice: ("elements", "up", "down"),
    PosetDocument: ("name", "poset", "lattice"),
    Budget: ("max_prime", "max_e", "max_piece"),
    TComplexityTable: ("prime", "target", "rows", "estimate", "last_ratio"),
}


def _records():
    p = p1()
    p.index, p.up_covers  # fill cached properties; they must not show anywhere
    lattice = lattice_from_poset(p)
    lattice.bottom
    return [
        p,
        zero_labeling(p),
        CondNSeq(p, ("y", "x")),
        build_C(p, -1, ()),
        lattice,
        PosetDocument("P1", p, lattice),
        Budget(max_prime=3),
        tcx_report(p, (2,), 2)[0],
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_hash_repr_and_immutability(record):
    names = FIELDS[type(record)]
    fields = tuple(getattr(record, name) for name in names)
    assert hash(record) == hash(fields)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
    assert repr(record) == f"{type(record).__name__}({shown})"
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in names) == fields


def test_every_record_is_covered():
    assert set(FIELDS) == {type(r) for r in _records()}


def _raises(kind, text, build):
    with pytest.raises(kind) as info:
        build()
    assert type(info.value) is kind
    assert str(info.value) == text


def test_labeling_validation():
    p = p1()
    _raises(ValueError, "labeling needs one value per poset element", lambda: Labeling(p, (0,) * 5))
    big = 1 << 63
    _raises(
        OverflowError,
        f"labeling value {big} exceeds the 64-bit range",
        lambda: Labeling(p, (0, 0, big, 0, 0, 0)),
    )
    assert Labeling(p, (-big, 0, 0, 0, 0, big - 1)).values[0] == -big


def test_sequence_validation():
    p = p1()
    _raises(ValueError, "alternating sequence must have even length", lambda: CondNSeq(p, ("y",)))
    _raises(InvalidPoset, "unknown element id 'q'", lambda: CondNSeq(p, ("y", "q")))
    _raises(InvalidPoset, f"unknown element id {TOP!r}", lambda: CondNSeq(p, (TOP, "x")))
    _raises(
        ValueError,
        "the bottom element cannot appear in a sequence",
        lambda: CondNSeq(p, ("y", "x0")),
    )


# Refusals of the library's own entry points, each with its exact type and text.
REFUSALS = {
    "leq": (InvalidPoset, "unknown element id 'nope'", lambda: p1().leq("nope", "x0")),
    "qdist": (InvalidPoset, "unknown element id 'nope'", lambda: qdist(p1(), 1, "x0", "nope")),
    "interval": (InvalidPoset, "'a1' is not below 'x0'", lambda: chain(2).interval("a1", "x0")),
    "q_value": (
        ValueError,
        "zig-zag needs pairs (w_0, z_0, ..., w_l, z_l)",
        lambda: q_value(p1(), 1, ("x0",)),
    ),
    "witness_sequence": (
        ValueError,
        "n must be nonzero",
        lambda: witness_sequence(p1(), 0, zero_labeling(p1())),
    ),
    # the zero labeling lies in T^(-1), and so does every 0 - 1_I
    "truncate": (
        ValueError,
        "labeling is not a minimal element of T^(n)",
        lambda: truncate(p1(), zero_labeling(p1()), -1, 1),
    ),
    "chain": (ValueError, "chain length must be at least 1", lambda: chain(0)),
    "antichain": (ValueError, "antichain width must be at least 1", lambda: antichain(0)),
    "builtin": (ValueError, "unknown built-in poset 'nope'", lambda: builtin("nope")),
    "bottom": (
        NotALattice,
        "no minimum element",
        lambda: DistLattice(("a", "b"), (1, 2), (1, 2)).bottom,
    ),
    "top": (
        NotALattice,
        "no maximum element",
        lambda: DistLattice(("a", "b"), (1, 2), (1, 2)).top,
    ),
    # t_piece lists a fiber cone's piece only; a section is no target of it
    "t_piece section": (
        TypeError,
        "target must be a Poset",
        lambda: t_piece(build_C(p1(), -1, ()), 2, 1),
    ),
    "t_piece str": (TypeError, "target must be a Poset", lambda: t_piece("nope", 2, 1)),
}


@pytest.mark.parametrize("kind, text, build", REFUSALS.values(), ids=REFUSALS)
def test_library_refusals(kind, text, build):
    _raises(kind, text, build)


def test_defaults():
    assert Budget() == Budget(5, 3, 1_000_000)
    assert (Budget().max_prime, Budget().max_e, Budget().max_piece) == (5, 3, 1_000_000)
    assert Budget(max_piece=7) == Budget(5, 3, 7)
    doc = PosetDocument("P1", p1())
    assert doc.lattice is None
    text = '{"name": "two", "elements": ["a", "b"], "covers": [["a", "b"]], "bottom": "a"}'
    assert parse_poset_document(text).lattice is None


def test_cli_import_skips_dataclasses_and_fractions():
    watched = "sorted(m for m in ('dataclasses', 'fractions') if m in sys.modules)"
    proc = hibi_probe(
        ["level", "P1"],
        before=f"import hibi.cli\nfirst = {watched}\n",
        after=f"after = {watched}\nprint(first, after, code)\n",
    )
    assert "level: true" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[] [] 0"


def test_analyze_loads_neither_frobenius_nor_birkhoff():
    names = ("hibi.frobenius", "hibi.birkhoff", "hibi.cli")
    after = f"print(sorted(m for m in {names!r} if m in sys.modules), code)\n"
    lines = hibi_probe(["analyze", "P1"], after=after).stdout.splitlines()
    assert "generators (n=1): 4, degrees 4..4" in lines
    assert lines[-1] == "['hibi.cli'] 0"


def test_lattice_documents_load_birkhoff_only_when_parsed():
    probe = (
        "import sys\n"
        "from hibi.documents import parse_poset_document\n"
        "before = 'hibi.birkhoff' in sys.modules\n"
        "parse_poset_document('{\"name\": \"two\", \"lattice\": "
        "{\"elements\": [\"a\", \"b\"], \"order\": [[\"a\", \"b\"]]}}')\n"
        "print(before, 'hibi.birkhoff' in sys.modules)\n"
    )
    assert python_probe(probe).stdout.splitlines() == ["False True"]


def test_every_public_name_is_the_object_its_module_defines():
    modules = ("birkhoff", "cones", "corpus", "documents", "errors", "fiber")
    modules += ("frobenius", "labelings", "poset", "sequences")
    defined = {"TOP": hibi.poset.TOP, "BUILTIN_NAMES": hibi.corpus.BUILTIN_NAMES}
    for module in map(importlib.import_module, (f"hibi.{m}" for m in modules)):
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) == module.__name__:
                defined[name] = value
    for name in hibi.__all__:
        assert getattr(hibi, name) is defined[name], name
    assert set(hibi.__all__) <= set(dir(hibi))
    with pytest.raises(AttributeError):
        hibi.no_such_name
