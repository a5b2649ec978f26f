"""Command-line front end: exit codes, output determinism, file input."""

import ast
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hibi
import hibi.cli as cli
from conftest import bench_workloads, generators_report, hibi_probe, small_posets
from hibi.cli import main, run_command
from hibi.documents import PosetDocument, serialize_poset_document
from hibi.errors import DocumentError
from hibi.fiber import _first_sections, _ordered_runs
from hibi.labelings import INT64_MAX

P1_TEXT = """{
  "name": "mine",
  "elements": ["x0", "w", "x", "z", "y", "v"],
  "covers": [["x0", "w"], ["x0", "x"], ["w", "y"], ["x", "z"], ["z", "y"], ["x", "v"]],
  "bottom": "x0"
}
"""


def test_spread_is_a_bare_number():
    code, text = run_command(["spread", "P1", "--eps", "-1"])
    assert code == 0
    assert text == "3"


def test_spread_both_signs():
    assert run_command(["spread", "P2", "--eps", "-1"]) == (0, "6")
    assert run_command(["spread", "P3", "--eps", "-1"]) == (0, "6")
    assert run_command(["spread", "P2", "--eps", "1"]) == (0, "4")


def test_generators_table_lists_three(capsys):
    code = main(["generators", "P1", "--n", "-1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("x0=") == 3
    assert "3 generators" in out
    assert "x0=-2 w=-1 x=-2 z=-1 y=0 v=-1" in out


def test_generators_json_parses():
    code, text = run_command(["generators", "P1", "--n", "-1", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == 3
    assert len(payload["generators"]) == 3


def test_analyze_json_parses():
    code, text = run_command(["analyze", "P1", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["pure"] is False
    assert payload["level"] is True
    assert payload["anticanonical_level"] is False
    assert payload["spread"] == {"1": 3, "-1": 3}
    assert payload["degree_range"]["-1"] == [-3, -2]


def test_sequences_table(capsys):
    code = main(["sequences", "P2", "--eps", "-1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "()" in out
    assert "(y0, x1, y1, x2)" in out


def test_polytope_dimensions(capsys):
    code = main(["polytope", "P1", "--eps", "-1", "--n", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dim 1" in out
    assert "dim 2" in out


def test_polytope_single_section(capsys):
    code = main(["polytope", "P1", "--eps", "-1", "--seq", "y,x"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dim 2" in out
    assert "points(n=1) 3" in out


def test_polytope_intersection():
    code, text = run_command(
        ["polytope", "P2", "--eps", "-1", "--seq", "y0,x1", "--intersect", "y1,x2"]
    )
    assert code == 0
    assert "share 4 points" in text


def test_intersection_matches_empty_section():
    code, text = run_command(
        [
            "polytope",
            "P2",
            "--eps",
            "-1",
            "--seq",
            "y0,x1",
            "--intersect",
            "y1,x2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    both = json.loads(text)
    code, text = run_command(
        ["polytope", "P2", "--eps", "-1", "--seq", "", "--format", "json"]
    )
    assert code == 0
    empty = json.loads(text)
    assert len(both["points"]) == empty["sections"][0]["points"]

    from hibi import build_C, lattice_points
    from hibi.corpus import p2

    direct = [nu.as_dict() for nu in lattice_points(build_C(p2(), -1, ()), 1)]
    got = [{k: v for k, v in pt.items() if k != "∞"} for pt in both["points"]]
    want = [{k: v for k, v in pt.items() if k != "∞"} for pt in direct]
    assert sorted(got, key=str) == sorted(want, key=str)


def test_level_flags(capsys):
    code = main(["level", "P1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "level: true" in out
    assert "anticanonical level: false" in out


def test_frobenius_table(capsys):
    code = main(["frobenius", "P1", "--prime", "2,3", "--emax", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "prime 2" in out
    assert "prime 3" in out
    assert "desk readings" in out


def test_frobenius_budget_exit():
    code, text = run_command(["frobenius", "P1", "--budget", "2"])
    assert code == 4
    assert "budget" in text.lower()


def test_frobenius_negative_budget_is_invalid_input():
    # it exited 4 with "dilation 1 has more than -5 lattice points" before
    assert run_command(["frobenius", "P1", "--prime", "2", "--budget", "-5"]) == (
        2,
        "invalid input: --budget must be at least 0",
    )
    code, text = run_command(["frobenius", "P1", "--prime", "2", "--budget", "0"])
    assert (code, text) == (4, "budget exceeded: dilation 1 has more than 0 lattice points")


def test_frobenius_budget_stops_a_large_piece_early():
    # the uncapped e=2 piece at prime 5 has about 1.5 million points
    code, text = run_command(["frobenius", "P2", "--prime", "2,5", "--emax", "2", "--budget", "5000"])
    assert code == 4
    assert text.startswith("budget exceeded:")


def test_frobenius_rejects_composite_prime():
    code, text = run_command(["frobenius", "P1", "--prime", "4"])
    assert code == 2
    assert "prime" in text


def test_frobenius_past_64_bits_is_a_budget_exit():
    # the e = 3 piece of chain3 would hold values near -4 * 1000000007**3
    assert run_command(["frobenius", "chain3", "--prime", "1000000007", "--emax", "3"]) == (
        4,
        "budget exceeded: exponent 3 takes the dilation past the 64-bit range",
    )


def test_an_exponent_past_64_bits_builds_no_piece(tmp_path, monkeypatch):
    import hibi.frobenius as frobenius
    from hibi.corpus import chain

    built = []
    piece = frobenius._piece

    def recording(runs, n, cap, packing):
        built.append(n)
        return piece(runs, n, cap, packing)

    monkeypatch.setattr(frobenius, "_piece", recording)
    # a fresh chain3, so no row kept by the built-in is reused
    doc = tmp_path / "chain3.json"
    doc.write_text(serialize_poset_document(PosetDocument("chain3-pieces", chain(3))))
    assert run_command(["frobenius", str(doc), "--prime", "2", "--emax", "1000000"]) == (
        4,
        "budget exceeded: exponent 62 takes the dilation past the 64-bit range",
    )
    # rows e = 1 .. 61 build pieces 1 .. e each; the row of e = 62 builds none
    assert len(built) == 61 * 62 // 2
    assert max(built) == 2**61 - 1


def test_frobenius_large_prime_is_checked_quickly():
    start = time.perf_counter()
    code, text = run_command(["frobenius", "chain3", "--prime", "1000000000000000003", "--emax", "1"])
    assert code == 0
    assert "prime 1000000000000000003" in text
    big = str(10**24)
    assert run_command(["frobenius", "chain3", "--prime", big]) == (
        2,
        f"invalid input: {big} is out of the 64-bit range",
    )
    assert run_command(["frobenius", "chain3", "--prime", "1000000000000000001"]) == (
        2,
        "invalid input: 1000000000000000001 is not prime",
    )
    assert time.perf_counter() - start < 1.0


def test_lattice_summary(capsys):
    code = main(["lattice", "P1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ideal lattice with 12 elements" in out
    assert "join-irreducibles recover the poset: true" in out


def test_usage_errors_exit_one():
    code, text = run_command(["generators", "P1"])
    assert code == 1
    code, _ = run_command(["nope"])
    assert code == 1
    code, _ = run_command(["spread", "P1", "--eps", "2"])
    assert code == 1


def test_shared_parser_carries_nothing_between_calls(capsys):
    default_emax = ["frobenius", "P1", "--prime", "2"]
    polytope = ["polytope", "P1", "--eps", "-1", "--seq", "y,x"]
    calls = [
        default_emax,
        ["frobenius", "P1", "--prime", "2", "--emax", "1"],
        default_emax,
        polytope,
        ["polytope", "P1", "--bogus"],
        ["polytope", "--help"],
        polytope,
    ]
    first = {tuple(argv): run_command(argv) for argv in calls}
    capsys.readouterr()
    results = [run_command(argv) for argv in calls]
    assert results == [first[tuple(argv)] for argv in calls]
    assert cli.build_parser() is not cli.build_parser()
    # the default --emax 2 still applies after an explicit --emax 1
    assert "    2     10      1" in results[2][1]
    assert "    2 " not in results[1][1]
    assert results[4][0] == 1 and results[5] == (0, "")
    assert "usage: hibi polytope" in capsys.readouterr().out


# Command lines whose parsing reaches every branch of the parser: help at
# both levels, usage errors, unknown and misplaced words, and abbreviations.
PARSER_BATTERY = (
    [[name, "-h"] for name in cli.COMMANDS]
    + [
        [],
        ["-h"],
        ["--help"],
        ["-h", "level"],
        ["bogus"],
        ["bogus", "P1"],
        ["--", "level", "P1"],
        ["--format", "json", "level", "P1"],
        ["level"],
        ["level", "--h"],
        ["level", "-h", "P1"],
        ["level", "P1"],
        ["level", "P1", "extra"],
        ["level", "P1", "--bogus"],
        ["level", "P1", "--form", "json"],
        ["level", "P1", "--format", "xml"],
        ["generators", "P1"],
        ["generators", "P1", "--n", "x"],
        ["generators", "P1", "--n=-1", "--fo", "json"],
        ["spread", "P1", "--eps", "2"],
        ["spread", "P1", "--ep=1"],
        ["polytope", "P1", "--eps", "-1", "--se", "y,x", "--int", ""],
        ["frobenius", "P1", "--emax", "x"],
        ["frobenius", "P1", "--prime", "2", "--em", "1", "--bud", "10"],
        ["frobenius", "P1", "--prime"],
        ["selftest", "P1"],
        ["selftest", "--form", "json", "--format", "bad"],
        ["level", "--", "P1"],
        ["level", "P1", "--"],
        ["level", "P1", "--format", "json", "--format", "table"],
        ["level", "P1", "--format=json"],
        ["level", ""],
        ["level", "-"],
        ["level", "-1"],
        ["level", "P1", "-x"],
        ["generators", "P1", "--n="],
        ["generators", "P1", "--n", "-\u0661"],
        ["generators", "P1", "--n", "-1.5"],
        ["generators", "--n", " -1 ", "P1"],
        ["spread", "P1", "--eps", "+1"],
        ["spread", "P1", "--eps", "-1 "],
        ["polytope", "P1", "--seq", "-x y"],
        ["frobenius", "P1", "--prime", "-2"],
    ]
)

# SHA-256 of (exit code, report text, stdout, stderr) for each line of
# PARSER_BATTERY at 80 columns, as the argparse-only command line gave them.
PARSER_BATTERY_DIGESTS = (
    "1fb25080aa178884646ba6de3faf2c42e131bd0979be69f3c669abf233f86d2f",
    "33d327542a0e7a3208d6a6daafdb6af8827cc88740fdd7099df97a462674f79e",
    "5fd85a33443dddabb344dea594a4915791ef37fe688640e2a58513dc2152a768",
    "f3ef8c29884bfddd93cdcc8502a5abc5558dcf1a0428e979cc3ad311e06fd4bf",
    "5cd4e8011bd767cb9cd14f7c4dd454d6052e6ef691c7981c9ff0d88a8b26b825",
    "62e3aa2dc70ae8ad1625874509bd9186c1f92416f8e096c8832a72b63470d502",
    "96420ef7c07a4909ec2ca4a797be6921e78e9160076d0e006b94e72042b358c9",
    "d8701ed0619a38283a8a4587ed0893880cd6e20c54f5d5aada68e45ef9e69342",
    "b8f613c671e90826681e692182904c0a6be56e19eeffbe7a0e9d6c8e8ed66e83",
    "66a9dd645bdbf85cbc03cec2bbc96c1feb7d026e3ac59b12ca52f961683cb0f1",
    "35db19b3b722c3b0acd49a21e1d11199fb46a49949b4c1f60d32f60323e7c72f",
    "35db19b3b722c3b0acd49a21e1d11199fb46a49949b4c1f60d32f60323e7c72f",
    "35db19b3b722c3b0acd49a21e1d11199fb46a49949b4c1f60d32f60323e7c72f",
    "c7310b511a277db2b1ac9e43ed5719664c503a47391b1ba7fb7fb2340330f871",
    "c7310b511a277db2b1ac9e43ed5719664c503a47391b1ba7fb7fb2340330f871",
    "31ee42abc1d02a05fb556bf5da0b104614f56d957de51ff1e81ca4615728e4c3",
    "2a22c1636309ada364b2c4909e4eabc14297fb8e5fbb4cf6cbf3dd4a218eb926",
    "c8be38e780df2190466b5bc84c4f2f114cb7afc03ca5a725491f05e6de13f8b3",
    "62e3aa2dc70ae8ad1625874509bd9186c1f92416f8e096c8832a72b63470d502",
    "62e3aa2dc70ae8ad1625874509bd9186c1f92416f8e096c8832a72b63470d502",
    "2fd7945bc0e913f1e5afc1557a518ef5fd2c34301ded0894c0ba9d81e319400a",
    "feddc86b0eeef13140a504bcac9b385a4d7b725a1687e0d03d26d0ba9a6b765f",
    "605b8e767ee4233e48510a6035a472f35813a9c2cd267d1e5e1e00e110e7b104",
    "979b115e1b989d49fcf07bfbfa7cf5bde03c3204e28f071730f4c98620e10cb4",
    "51cc616f824be73f3b39cd1cc68aadb151231926b4302a90b00abfc229f30459",
    "3a14faf520a15f48b7e7b0287cca559f65b34a882569d3debad004e8f95b39cb",
    "85b65f290a1b72029379bf2147fd5ee42568c1daaa7f3892ca758e8986dc5e40",
    "68c978cff34447afb4124a52054052e094be44e4140a5bc7fbf79a596531ec53",
    "2fe0108f773a8cfa0e78df3b1dbbebf17ccb92c67c988d743a374739fcaa4f5e",
    "23478edce3d799bc2e6050dd835bffdf646f9e1ea2c0dab722835aa26f23ebec",
    "b0184312b5071a699733fabaacc05cc63e3e28528403399e895b555423527937",
    "34253c5311ece305df52b84b2865049fd6306f3def453674b39fe5f856467e64",
    "57f51d8630d5ef37d7eee8b79978542525b960098b02b1eeff97702139d21027",
    "223f784536c2b5f980a8607c36d0532d87112e4b732690ca856a28772e68c618",
    "8dbe72b644ac3d69b0885887b6cb0e0a5be6835744bfa8c08e7e96610a2c1895",
    "bb58dce649ecc368fc0774fc12bc7e11ff6a82b3da6e1fc876156178c7ac5cd3",
    "2fd7945bc0e913f1e5afc1557a518ef5fd2c34301ded0894c0ba9d81e319400a",
    "2fd7945bc0e913f1e5afc1557a518ef5fd2c34301ded0894c0ba9d81e319400a",
    "2fd7945bc0e913f1e5afc1557a518ef5fd2c34301ded0894c0ba9d81e319400a",
    "979b115e1b989d49fcf07bfbfa7cf5bde03c3204e28f071730f4c98620e10cb4",
    "fbc53eab40b545899ec1030212488c101285bea018acd860a29afe171d82da47",
    "8c9ec918c588a7d44464ec2d3200b2c35d8efeeb85fd5e73b8e3250da6fb484a",
    "a90bb8e9114c21cda0fc7275b6a52ecda10cc09b4e6695e056c14d67cc5ab702",
    "82130916f6249260a2167642a1bf05e5a4f1221979f0a1439354d1586bbb6dbf",
    "8b10aa143fbf2b0497a925bd088df229e9428abad4034e96944417d427a6c688",
    "55bdcd697fae0126e093bc75743f1c06b5924500e9beb005e395e1902ccf1841",
    "bf4c2eb073594b5456aefc25a1696471f741b64f73f3cb21da6beafccc7808fc",
    "55bdcd697fae0126e093bc75743f1c06b5924500e9beb005e395e1902ccf1841",
    "23478edce3d799bc2e6050dd835bffdf646f9e1ea2c0dab722835aa26f23ebec",
    "23478edce3d799bc2e6050dd835bffdf646f9e1ea2c0dab722835aa26f23ebec",
    "57f3f32bf694f8786133dc1c2a7f2dcb152254da15612805c1a2a9e9d53a02cb",
    "91b9e83ef4ea77e82f8132a03127c3ebd171242a01064deddd8356954fb7a82b",
)


def _battery_digest(argv, capsys):
    result = run_command(argv), capsys.readouterr()
    return hashlib.sha256(repr(result).encode()).hexdigest()


def test_parser_battery_output_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    battery = [tuple(argv) for argv in PARSER_BATTERY]
    got = [_battery_digest(list(argv), capsys) for argv in battery]
    assert list(zip(battery, got)) == list(zip(battery, PARSER_BATTERY_DIGESTS))


def test_a_valid_line_never_builds_a_parser(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["level", "P1"], ["spread", "P1"], ["level", "P2", "--format=json"]):
        assert run_command(argv)[0] == 0
    assert built == []
    assert run_command(["level", "-h"]) == (0, "")
    assert "usage: hibi level" in capsys.readouterr().out
    assert run_command(["level", "P1", "--bogus"])[0] == 1
    assert run_command(["spread", "P1", "--eps", "2"])[0] == 1
    assert run_command(["level", "P1", "--form", "json"])[0] == 0
    code, text = run_command(["bogus"])
    assert code == 1 and all(repr(name) in text for name in cli.COMMANDS)
    assert len(built) == 5


# Words beside each option's own values: signs, spaces, Unicode digits
# (Arabic-Indic, fullwidth, superscript), dashes, help and option words.
ODD_WORDS = (
    "", " 1 ", "+1", "-0", "01", "1_0", "-1_0", "-1.5", ".5", "x", "-x y", "a=b", "=",
    "-1 ", "-1\n", "\n1", "\u0661", "-\u0661\u0662", "\uff11", "-\u00b2",
    "-", "--", "-h", "--help", "--bogus", "-x", "json", "P1",
)


def _good_values(spec):
    if "choices" in spec:
        return [str(choice) for choice in spec["choices"]]
    if spec.get("type") is int:
        return ["-12", "-1", "0", "1", "3"]
    return ["P1", "", "2,3", "y,x"]


@st.composite
def command_lines(draw):
    """(argv, clean): a line of the COMMANDS grammar, perhaps perturbed;
    clean when it uses the grammar exactly, as the table parser must accept."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, takes_poset, options = cli.COMMANDS[name]
    odd = st.sampled_from(ODD_WORDS)
    chunks, clean = [], True
    for flag, spec in options.items():
        times = draw(st.sampled_from((0, 0, 1, 1, 1, 1, 1, 2)))
        clean &= times == 1 or (times == 0 and not spec.get("required"))
        for _ in range(times):
            value = draw(st.sampled_from(_good_values(spec)))
            if draw(st.integers(0, 9)) == 0:
                value, clean = draw(odd), False
            word = flag
            if draw(st.integers(0, 9)) == 0:
                word = flag[: draw(st.integers(2, len(flag)))]
                clean &= word == flag
            if draw(st.booleans()):
                chunks.append([f"{word}={value}"])
            else:
                chunks.append([word, value])
    count = draw(st.sampled_from((0, 1, 1, 1, 1, 1, 1, 2) if takes_poset else (0,) * 7 + (1,)))
    clean &= count == int(takes_poset)
    for _ in range(count):
        word = draw(st.sampled_from(("P1", "chain3", "")))
        if draw(st.integers(0, 9)) == 0:
            word, clean = draw(odd), False
        chunks.append([word])
    extra = draw(st.lists(odd, max_size=2)) if draw(st.integers(0, 9)) == 0 else []
    clean &= not extra
    chunks += [[word] for word in extra]
    argv = [word for chunk in draw(st.permutations(chunks)) for word in chunk]
    if draw(st.integers(0, 9)) == 0:
        return argv[:1] + [name] + argv[1:], False
    return [name] + argv, clean


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example((["level", "-\u00b2"], False))  # a superscript is a digit, not a decimal
@example((["frobenius", "P1", "--prime", "-\u00b2"], False))
@example((["polytope", "P1", "--seq=--"], False))  # argparse drops this "--"
@example((["generators", "--n=-\u0661\u0662", "-1"], False))
def test_table_parser_agrees_with_argparse(line):
    argv, clean = line
    fields = cli._parse_exact(argv)
    if fields is None:
        assert not clean, argv
        return
    try:
        want = cli.build_parser().parse_args(argv)
    except (cli.UsageError, SystemExit) as exc:
        pytest.fail(f"argparse rejects {argv!r}: {exc!r}")
    assert vars(fields) == vars(want), argv


# python -m hibi loads these only for the reports and errors that need them
WATCHED_MODULES = ("json", "hibi.documents", "argparse", "gettext", "locale")


def _modules_loaded_by(argv):
    """(exit code, watched modules loaded before hibi, after) for python -m hibi argv."""
    proc = hibi_probe(
        argv,
        before=f"watched = {WATCHED_MODULES!r}\n"
        "before = {m for m in watched if m in sys.modules}\n",
        after="sys.stderr.write(repr((code, before, {m for m in watched if m in sys.modules})))\n",
    )
    return ast.literal_eval(proc.stderr)


def test_commands_import_json_and_documents_only_when_used(tmp_path):
    code, before, after = _modules_loaded_by(["frobenius", "P1", "--prime", "2", "--emax", "1"])
    assert code == 0 and not {"json", "hibi.documents"} & (after - before)
    path = tmp_path / "mine.json"
    path.write_text(P1_TEXT, encoding="utf-8")
    code, _, after = _modules_loaded_by(["level", str(path)])
    assert code == 0 and {"json", "hibi.documents"} <= after
    code, _, after = _modules_loaded_by(["level", "P1", "--format", "json"])
    assert code == 0 and "json" in after and "hibi.documents" not in after


def test_only_the_process_command_line_freezes_the_collector():
    # python -m hibi freezes every object once its report is out
    proc = hibi_probe(
        ["level", "P1"],
        before="import gc\nfrozen = gc.get_freeze_count()\n",
        after="sys.stderr.write(repr((code, frozen, gc.get_freeze_count() > 0)))\n",
    )
    assert ast.literal_eval(proc.stderr) == (0, 0, True)
    assert proc.stdout == run_command(["level", "P1"])[1] + "\n"
    # an in-process caller keeps a live collector
    frozen = gc.get_freeze_count()
    assert main(["level", "P1"]) == 0
    assert main(["frobenius", "P1", "--prime", "2", "--emax", "1"]) == 0
    assert run_command(["frobenius", "P1", "--prime", "2", "--emax", "1"])[0] == 0
    assert gc.get_freeze_count() == frozen


def test_valid_command_lines_never_import_argparse(tmp_path):
    path = tmp_path / "mine.json"
    path.write_text(P1_TEXT, encoding="utf-8")
    parsing = {"argparse", "gettext", "locale"}
    for argv in (
        ["level", "P1"],
        ["generators", str(path), "--n", "-1"],
        ["frobenius", "P1", "--prime", "2"],
    ):
        code, before, after = _modules_loaded_by(argv)
        assert code == 0 and not parsing & (after - before), argv
    for argv, want in ((["level", "-h"], 0), (["spread", "P1", "--eps", "2"], 1)):
        code, _, after = _modules_loaded_by(argv)
        assert code == want and "argparse" in after, argv


def test_poset_references_resolve_like_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    assert run_command(["level", ""]) == (2, "invalid input: no file or built-in poset named ''")
    assert run_command(["level", "."]) == (2, "cannot read input: [Errno 21] Is a directory: '.'")
    assert run_command(["level", "dir/"]) == (
        2,
        "cannot read input: [Errno 21] Is a directory: 'dir/'",
    )
    p1 = run_command(["level", "P1"])
    assert p1[0] == 0
    assert run_command(["level", "P1.json"]) == p1
    # a reference with a directory part names a file, never a built-in
    for ref in ("P1/", "nope/P1.json", "nope/Q1"):
        assert run_command(["level", ref]) == (
            2,
            f"invalid input: no file or built-in poset named {ref!r}",
        )


LEVEL_FLAGS = "\n  pure: false\n  gorenstein: false\n  level: true\n  anticanonical level: false"


def test_load_reads_every_reference_as_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file.json").write_text(P1_TEXT)
    (tmp_path / "latin.json").write_bytes(P1_TEXT.replace("mine", "m\xe9").encode("latin-1"))
    # a syntax error on line 3, in a document with CRLF line ends
    (tmp_path / "crlf.json").write_bytes(b'{\r\n  "name": "crlf",\r\n  "elements": [,]\r\n}\r\n')
    folder = "cannot read input: [Errno 21] Is a directory: {!r}".format
    no_file = "invalid input: no file or built-in poset named {!r}".format
    # a directory is named as typed
    refs = {
        "": (2, no_file("")),
        ".": (2, folder(".")),
        "dir": (2, folder("dir")),
        "dir/": (2, folder("dir/")),
        "./dir": (2, folder("./dir")),
        "dir//": (2, folder("dir//")),
        f"{tmp_path}/dir/": (2, folder(f"{tmp_path}/dir/")),
        "missing.json": (2, no_file("missing.json")),
        "file.json/x": (2, no_file("file.json/x")),
        "file.json/": (2, no_file("file.json/")),
        "file.json": (0, "poset mine:" + LEVEL_FLAGS),
        "./file.json": (0, "poset mine:" + LEVEL_FLAGS),
        str(tmp_path / "file.json"): (0, "poset mine:" + LEVEL_FLAGS),
        "file\0.json": (2, no_file("file\0.json")),
        "latin.json": (
            2,
            "invalid input: 'utf-8' codec can't decode byte 0xe9 in position 14: "
            "invalid continuation byte",
        ),
        "crlf.json": (2, "invalid input: Expecting value (line 3, column 16)"),
        "P1.json": (0, "poset P1:" + LEVEL_FLAGS),
        "P1/": (2, no_file("P1/")),
        "sub/P1.json": (2, no_file("sub/P1.json")),
        "P1.json/": (2, no_file("P1.json/")),
    }
    assert {ref: run_command(["level", ref]) for ref in refs} == refs


def test_each_command_resolves_its_poset_once(monkeypatch):
    calls = []
    real = cli._load

    def counted(ref):
        calls.append(ref)
        return real(ref)

    monkeypatch.setattr(cli, "_load", counted)
    for name, (_, _, takes_poset, _) in cli.COMMANDS.items():
        argv = [name, "P1"] if takes_poset else [name]
        if name == "generators":
            argv += ["--n", "1"]
        calls.clear()
        assert run_command(argv)[0] == 0, argv
        assert calls == (["P1"] if takes_poset else []), argv


def test_a_document_rewritten_in_place_is_read_again(tmp_path):
    doc = tmp_path / "rewritten.json"
    doc.write_text(P1_TEXT.replace('"mine"', '"before"'))
    stat = doc.stat()
    first = run_command(["sequences", str(doc)])
    assert first[0] == 0 and first[1].startswith("poset before: ")
    # the same size and modification time: only the bytes tell the texts apart
    doc.write_text(P1_TEXT.replace('"mine"', '"after!"'))
    os.utime(doc, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (doc.stat().st_size, doc.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert run_command(["sequences", str(doc)]) == (0, first[1].replace("before", "after!", 1))


def test_validation_errors_exit_two(tmp_path):
    code, text = run_command(["analyze", "NoSuchPoset"])
    assert code == 2
    assert "invalid input" in text
    missing = tmp_path / "missing.json"
    code, _ = run_command(["analyze", str(missing)])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"')
    code, _ = run_command(["analyze", str(bad)])
    assert code == 2


# Reports and input errors that no other test reaches, as (argv, exit code, text).
PINNED_LINES = (
    (
        ["frobenius", "P1", "--prime", "2,3", "--emax", "2", "--format", "json"],
        0,
        json.dumps(
            {
                "name": "P1",
                "target": "fiber cone",
                "tables": [
                    {
                        "prime": 2,
                        "rows": [[1, 3, 3], [2, 10, 1]],
                        "estimate": 0.0,
                        "last_ratio": -1.5849625007211563,
                    },
                    {
                        "prime": 3,
                        "rows": [[1, 6, 6], [2, 45, 9]],
                        "estimate": 1.0,
                        "last_ratio": 0.3690702464285425,
                    },
                ],
            },
            indent=2,
        ),
    ),
    (
        ["frobenius", "chain1", "--prime", "2", "--emax", "2", "--format", "json"],
        0,
        json.dumps(
            {
                "name": "chain1",
                "target": "fiber cone",
                "tables": [
                    {
                        "prime": 2,
                        "rows": [[1, 1, 1], [2, 1, 0]],
                        "estimate": None,
                        "last_ratio": None,
                    }
                ],
            },
            indent=2,
        ),
    ),
    (["spread", "P1", "--format", "json"], 0, '{\n  "name": "P1",\n  "eps": -1,\n  "spread": 3\n}'),
    (
        ["frobenius", "P1", "--prime", "2,x"],
        2,
        "invalid input: --prime expects comma-separated integers, got '2,x'",
    ),
    (
        ["frobenius", "P1", "--prime="],
        2,
        "invalid input: --prime expects comma-separated integers, got ''",
    ),
    (["frobenius", "P1", "--prime", "2", "--emax", "0"], 2, "invalid input: --emax must be at least 1"),
    (["polytope", "P1", "--n", "0"], 2, "invalid input: --n must be a positive dilation factor"),
    (
        ["polytope", "P1", "--intersect", "y,x"],
        2,
        "invalid input: --intersect needs --seq for the first section",
    ),
    (["polytope", "P2", "--seq", "y1,x2,y0,x1"], 2, "invalid input: sequence violates condition N"),
)


@pytest.mark.parametrize("argv, code, text", PINNED_LINES, ids=[" ".join(a) for a, _, _ in PINNED_LINES])
def test_reports_and_input_errors_are_pinned(argv, code, text):
    assert run_command(argv) == (code, text)


def test_generators_at_zero_is_the_origin():
    code, text = run_command(["generators", "P1", "--n", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == 1
    assert set(payload["generators"][0]["values"].values()) == {0}


def test_file_input(tmp_path):
    doc = tmp_path / "mine.json"
    doc.write_text(P1_TEXT)
    code, text = run_command(["spread", str(doc), "--eps", "-1"])
    assert code == 0
    assert text == "3"


def test_documents_are_interned_by_text(tmp_path):
    doc = tmp_path / "mine.json"
    doc.write_text(P1_TEXT)
    name, first = cli._load(str(doc))
    assert cli._load(str(doc)) == (name, first)
    assert cli._load(str(doc))[1] is first
    before = run_command(["sequences", str(doc)])
    doc.write_text(P1_TEXT.replace('["x", "v"]', '["w", "v"]'))
    changed = cli._load(str(doc))[1]
    assert changed is not first and changed != first
    after = run_command(["sequences", str(doc)])
    assert after[0] == 0 and after != before
    doc.write_text('{"name": "x"')
    for _ in range(2):
        with pytest.raises(DocumentError):
            cli._load(str(doc))
        assert run_command(["sequences", str(doc)])[0] == 2


def test_builtin_stem_resolution(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text = run_command(["spread", "P1.json", "--eps", "-1"])
    assert code == 0
    assert text == "3"


def test_output_is_deterministic():
    for argv in (
        ["analyze", "P2"],
        ["generators", "P1", "--n", "-2", "--format", "json"],
        ["polytope", "P3", "--eps", "-1", "--n", "2"],
        ["frobenius", "P1", "--prime", "2,3", "--emax", "2"],
    ):
        first = run_command(list(argv))
        second = run_command(list(argv))
        assert first == second


def test_selftest_passes(capsys):
    code = main(["selftest"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "FAIL" not in out


def test_selftest_detects_breakage(monkeypatch):
    monkeypatch.setattr(cli, "dim_formula", lambda c: 99)
    code, text = run_command(["selftest"])
    assert code == 3
    assert "FAIL" in text


def test_selftest_names_the_first_failing_section(monkeypatch):
    # P1's first section of sign 1 is the empty sequence's
    monkeypatch.setattr(cli, "is_standard", lambda c, n_max: False)
    code, text = run_command(["selftest"])
    assert code == 3
    assert "FAIL P1: standardness (seq () eps 1)" in text.splitlines()


def test_selftest_names_failing_witnesses_and_a_check_without_detail(monkeypatch):
    monkeypatch.setattr(cli, "is_minimal", lambda p, n, nu: False)
    code, text = run_command(["selftest"])
    assert code == 3
    lines = text.splitlines()
    assert "FAIL P1: witnesses (seq () eps 1)" in lines
    assert "FAIL P1: decomposition" in lines


def test_selftest_json_lists_every_check():
    code, text = run_command(["selftest", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["passed"] is True
    table = run_command(["selftest"])[1].splitlines()
    assert len(payload["checks"]) == len(table) - 1
    first = payload["checks"][0]
    assert first == {"poset": "P1", "check": "round-trip", "ok": True, "detail": ""}
    assert table[0] == "ok   P1: round-trip"


def test_selftest_json_reports_breakage(monkeypatch):
    monkeypatch.setattr(cli, "dim_formula", lambda c: 99)
    code, text = run_command(["selftest", "--format", "json"])
    assert code == 3
    payload = json.loads(text)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert failed and all(c["check"] == "dimension" and c["detail"] for c in failed)


def test_closed_stdout_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(hibi.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hibi", "generators", "P1", "--n", "-1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 0


def test_running_out_of_memory_is_a_budget_exit(tmp_path):
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000))

    # P2 has four sections at n < 0, whose rows are sorted; rooted14b has
    # one, whose 260,856,155 rows at n = -3 are formatted run by run
    path = tmp_path / "rooted14b.json"
    path.write_text(json.dumps(bench_workloads().rooted(14, "b")))
    env = dict(os.environ, PYTHONPATH=str(Path(hibi.__file__).parents[1]))
    for ref, n in (("P2", "-24"), (str(path), "-3")):
        proc = subprocess.run(
            [sys.executable, "-m", "hibi", "generators", ref, "--n", n],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert "Traceback" not in proc.stderr, ref
        assert (proc.returncode, proc.stdout) == (4, "budget exceeded: out of memory\n"), ref


def test_deep_recursion_is_a_budget_exit(tmp_path):
    names = [f"c{i}" for i in range(1500)]
    doc = {
        "name": "chain1500",
        "elements": names,
        "covers": [[a, b] for a, b in zip(names, names[1:])],
        "bottom": "c0",
    }
    path = tmp_path / "chain1500.json"
    path.write_text(json.dumps(doc))
    code, text = run_command(["lattice", str(path)])
    assert code == 4
    assert text.startswith("budget exceeded:")


def test_lattice_of_too_many_down_sets_is_a_budget_exit(tmp_path):
    # a bottom under 40 incomparable elements has 2^40 down-sets
    names = ["x0"] + [f"e{i}" for i in range(40)]
    covers = [["x0", z] for z in names[1:]]
    doc = {"name": "fan41", "elements": names, "covers": covers, "bottom": "x0"}
    path = tmp_path / "fan41.json"
    path.write_text(json.dumps(doc))
    assert run_command(["lattice", str(path)]) == (
        4,
        f"budget exceeded: poset fan41 has more than {cli.MAX_DOWN_SETS} down-sets",
    )


# Random rooted poset with 350 nonempty down-sets (the benchmark's rooted16a shape).
ROOTED16A = {
    "name": "rooted16a",
    "elements": ["x0"] + [f"e{i}" for i in range(1, 16)],
    "covers": [
        ["e1", "e2"], ["e1", "e3"], ["e1", "e4"], ["e10", "e12"], ["e12", "e13"], ["e14", "e15"],
        ["e2", "e3"], ["e2", "e4"], ["e2", "e7"], ["e3", "e11"], ["e3", "e14"], ["e3", "e5"],
        ["e3", "e8"], ["e4", "e6"], ["e5", "e12"], ["e6", "e10"], ["e6", "e8"], ["e6", "e9"],
        ["x0", "e1"], ["x0", "e10"], ["x0", "e2"], ["x0", "e5"], ["x0", "e7"],
    ],
    "bottom": "x0",
}


def _output_digest(argvs):
    h = hashlib.sha256()
    for argv in argvs:
        code, text = run_command(argv)
        h.update(f"{code}\n{text}\n".encode())
    return h.hexdigest()


def test_lattice_and_selftest_outputs_are_pinned(tmp_path):
    """Exit codes and texts, hashed, as the scan-and-triple-loop lattice code gave them."""
    rooted = tmp_path / "rooted16a.json"
    rooted.write_text(json.dumps(ROOTED16A))
    block = tmp_path / "p3lattice.json"
    h = hibi.lattice_from_poset(hibi.corpus.p3())
    order = sorted([a, b] for a in h.elements for b in h.elements if a != b and h.leq(a, b))
    lattice = {"elements": list(h.elements), "order": order}
    block.write_text(json.dumps({"name": "P3lattice", "lattice": lattice}))
    formats = ("table", "json")
    groups = {
        "corpus": [
            ["lattice", name, "--format", f] for name in hibi.corpus.BUILTIN_NAMES for f in formats
        ],
        "rooted16a": [["lattice", str(rooted), "--format", f] for f in formats],
        "selftest": [["selftest", "--format", "json"]],
        "lattice block": [[c, str(block)] for c in ("lattice", "analyze")],
    }
    assert len(hibi.poset_ideals(cli._load(str(rooted))[1])) == 350
    assert {k: _output_digest(v) for k, v in groups.items()} == {
        "corpus": "3a21ee55d0723a9c8b5730638b2777851a11b70dc2f85cda5a949665ba1a0342",
        "rooted16a": "776fb660a92e5a859ab16b322813c7e6a252ed903362575754ea0c14ff082485",
        "selftest": "90df6cad543e06b34eea807c97cdbc4b10628ff9b09e2f2aef8eebeba178e00f",
        "lattice block": "08381799ccf7b7d4ad556acc79190e571e897aec86d5450faf9567debf28baf3",
    }


def test_lattice_searches_the_down_sets_twice(tmp_path, monkeypatch):
    import hibi.birkhoff as birkhoff
    import hibi.poset as poset

    searched = []
    real = poset.down_set_masks

    def counted(required):
        searched.append(len(required))
        return real(required)

    for module in (poset, birkhoff):
        monkeypatch.setattr(module, "down_set_masks", counted)
    doc = tmp_path / "rooted.json"
    doc.write_text(json.dumps({**ROOTED16A, "name": "rooted16a-searched"}))  # a fresh poset
    # one search for the down-sets of P, kept for the cap and the lattice,
    # and one for Birkhoff's count on the join-irreducibles
    assert run_command(["lattice", str(doc)])[0] == 0
    assert searched == [16, 16]
    # P keeps its down-sets and its lattice, which keeps its join-irreducibles
    assert run_command(["lattice", str(doc)])[0] == 0
    assert searched == [16, 16]


def test_a_repeated_lattice_or_frobenius_walks_and_searches_nothing(tmp_path, monkeypatch):
    import hibi.birkhoff as birkhoff
    import hibi.cones as cones
    import hibi.fiber as fiber
    import hibi.poset as poset

    work = []
    walk, search = cones._section_runs, poset.down_set_masks

    def walked(*args):
        work.append("walk")
        return walk(*args)

    def searched(required):
        work.append("search")
        return search(required)

    for module in (cones, fiber):
        monkeypatch.setattr(module, "_section_runs", walked)
    for module in (poset, birkhoff):
        monkeypatch.setattr(module, "down_set_masks", searched)
    doc = tmp_path / "p1.json"
    doc.write_text(P1_TEXT.replace('"mine"', '"p1-repeated"'))  # a fresh poset
    commands = (["lattice", str(doc)], ["frobenius", str(doc), "--prime", "2,3", "--emax", "3"])
    first = [run_command(argv) for argv in commands]
    assert "walk" in work and "search" in work
    work.clear()
    assert [run_command(argv) for argv in commands] == first
    # a smaller cap is refused from the kept rows
    assert run_command(commands[1] + ["--budget", "2"]) == (
        4,
        "budget exceeded: dilation 1 has more than 2 lattice points",
    )
    assert work == []


# Commands that share P1 and what it keeps: its sections and their plans.
KEPT_DATA_BATTERY = (
    ["analyze", "P1"],
    ["generators", "P1", "--n", "1"],
    ["generators", "P1", "--n", "-1"],
    ["generators", "P1", "--n", "2"],
    ["generators", "P1", "--n", "-2"],
    ["polytope", "P1", "--n", "1"],
    ["polytope", "P1", "--n", "2"],
    ["polytope", "P1", "--eps", "1", "--n", "2", "--format", "json"],
    ["polytope", "P1", "--eps", "-1", "--n", "2", "--seq", "y,x", "--intersect", ""],
    ["frobenius", "P1", "--prime", "2,3", "--emax", "3"],
    ["selftest"],
)


def _results_in_one_process(argvs):
    """(exit code, text) of each command line, run in order in a new process."""
    code = (
        "import json, sys\n"
        "from hibi.cli import run_command\n"
        "results = [run_command(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(results))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hibi.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(result) for result in json.loads(proc.stdout.splitlines()[-1])]


def test_commands_read_the_same_kept_data_in_any_order():
    battery = [list(argv) for argv in KEPT_DATA_BATTERY]
    fresh = [_results_in_one_process([argv])[0] for argv in battery]
    # forwards each command follows those before it, backwards all the others
    shared = _results_in_one_process(battery + battery[::-1])
    assert shared == fresh + fresh[::-1]
    assert [code for code, _ in fresh] == [0] * len(battery)


def test_a_dilation_past_64_bits_leaves_the_kept_plans_as_they_were():
    first = run_command(["generators", "P1", "--n", "1"])
    huge = run_command(["generators", "P1", "--n", "99999999999999999999"])
    text = "invalid input: labeling value 399999999999999999996 exceeds the 64-bit range"
    assert huge == (2, text)
    assert run_command(["generators", "P1", "--n", "1"]) == first
    assert first[0] == 0


def test_polytope_intersections_are_pinned():
    """Exit codes and texts, hashed, as listing both sections and filtering gave them."""
    digests = {}
    for name in ("P1", "P2"):
        p = hibi.corpus.builtin(name)
        for f in ("table", "json"):
            argvs = [
                ["polytope", name, "--eps", str(eps), "--n", str(n), "--format", f]
                + ["--seq", ",".join(a.seq.items), "--intersect", ",".join(b.seq.items)]
                for eps in (1, -1)
                for a in hibi.cones._sections(p, eps)
                for b in hibi.cones._sections(p, eps)
                for n in (1, 2, 3)
            ]
            digests[name, f] = len(argvs), _output_digest(argvs)
    assert digests == {
        ("P1", "table"): (15, "abcccebacdaf05b46a061b9a407fa07251f8afeea2c1e49d9a52332254ada8d7"),
        ("P1", "json"): (15, "dc2a38d4ddc441b1ee9fb12b9f586c8c09fde85f8c3a54e59c3e98a773513d6e"),
        ("P2", "table"): (60, "76dd30005636e95f7f0c60fdcc57e2ef98c890c11bd1b37c111c12a082f311da"),
        ("P2", "json"): (60, "3e8337cf83a868c92947d0445215008252d485ac35c44785db30c73450610abf"),
    }


def _fan_document(tmp_path, size=1100):
    """A bottom x0 covered by size - 1 incomparable elements."""
    names = ["x0"] + [f"e{i}" for i in range(1, size)]
    doc = {
        "name": f"fan{size}",
        "elements": names,
        "covers": [["x0", z] for z in names[1:]],
        "bottom": "x0",
    }
    path = tmp_path / f"fan{size}.json"
    path.write_text(json.dumps(doc))
    return path


def test_wide_fan_generators_do_not_recurse(tmp_path):
    path = _fan_document(tmp_path)
    for n in ("1", "-1"):
        code, text = run_command(["generators", str(path), "--n", n])
        assert code == 0
        assert text.startswith(f"poset fan1100: 1 generators for n = {n}\n")


def test_wide_fan_polytope_does_not_recurse(tmp_path):
    code, text = run_command(["polytope", str(_fan_document(tmp_path))])
    assert code == 0
    assert text.splitlines()[1].split() == ["seq", "()", "dim", "0", "free", "-", "points(n=1)", "1"]


def test_values_past_64_bits_are_invalid_input():
    # chain3 has the one point n * (4, 3, 2, 1) for eps = 1, its negative for -1
    down = (2, "invalid input: labeling value -9223372036854775812 exceeds the 64-bit range")
    up = (2, "invalid input: labeling value 9223372036854775808 exceeds the 64-bit range")
    n_down, n_up = "2305843009213693953", "2305843009213693952"
    assert run_command(["generators", "chain3", "--n", "-" + n_down]) == down
    assert run_command(["generators", "chain3", "--n", n_up]) == up
    for eps, n, want in (("-1", n_down, down), ("1", n_up, up)):
        polytope = ["polytope", "chain3", "--eps", eps, "--n", n]
        assert run_command(polytope) == want
        assert run_command(polytope + ["--seq", "", "--intersect", ""]) == want
        assert run_command(polytope + ["--format", "json"]) == want
    # P2's section of y1,x1 leaves the range at this dilation, and its
    # common points with the empty sequence's section do not
    n = str(INT64_MAX // 4)
    meet = ["polytope", "P2", "--eps", "1", "--n", n, "--seq", "y1,x1", "--intersect", ""]
    text = "invalid input: labeling value 11529215046068469755 exceeds the 64-bit range"
    assert run_command(meet) == (2, text)


def _generators_agree(name, p, ref):
    for n in range(-3, 4):
        for fmt in ("table", "json"):
            argv = ["generators", ref, "--n", str(n), "--format", fmt]
            assert run_command(argv) == (0, generators_report(name, p, n, fmt)), (name, n, fmt)


def test_generators_report_matches_the_labeling_rendering(corpus, tmp_path):
    for name, p in corpus:
        _generators_agree(name, p, name)
    path = _odd_document(tmp_path)
    doc = cli._document(Path(path).read_text(encoding="utf-8"))
    _generators_agree(doc.name, doc.poset, path)
    # one element: its rows have one column, the degree
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"name": "point", "elements": ["x0"], "covers": [], "bottom": "x0"}))
    doc = cli._document(point.read_text(encoding="utf-8"))
    _generators_agree(doc.name, doc.poset, str(point))


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_generators_report_matches_the_labeling_rendering_random(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_poset_document(PosetDocument("drawn", p)))
        _generators_agree("drawn", p, path)


def test_generators_table_formats_runs_like_the_labeling_rendering(corpus, tmp_path):
    # benchmark shapes with runs that move a first-half column (rooted5g,
    # 6f and 7d at n > 0) and with five sections (rooted12a at n < 0); the
    # corpus, P2 with several sections among it, is checked above
    targets = [(name, p, name) for name, p in corpus]
    for size, tag in ((5, "g"), (6, "f"), (7, "d"), (12, "a")):
        doc = bench_workloads().rooted(size, tag)
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        name, p = cli._load(str(path))
        _generators_agree(name, p, str(path))
        targets.append((name, p, str(path)))
    # the table's three routes: unit runs of several sections' sorted rows,
    # runs formatted a block at a time, and runs formatted row by row
    routes = {"unit": 0, "block": 0, "row": 0}
    for _, p, _ in targets:
        half = (len(p.elements) + 1) // 2
        for n in range(-3, 4):
            if n and len(_first_sections(p, 1 if n > 0 else -1)) > 1:
                routes["unit"] += 1
                continue
            for _, moving, length in _ordered_runs(p, n):
                if moving and moving[0] < half:
                    routes["row"] += 1
                elif length > 1:
                    routes["block"] += 1
    assert min(routes.values()) > 0, routes


def test_a_one_section_table_expands_and_sorts_no_row(monkeypatch):
    import hibi.cones as cones
    import hibi.fiber as fiber

    calls = []
    real = cones._run_values

    def counted_values(runs):
        calls.append("_run_values")
        return real(runs)

    def counted_sorted(*args, **kwargs):
        calls.append("sorted")
        return sorted(*args, **kwargs)

    for module in (cones, fiber, cli):
        monkeypatch.setattr(module, "_run_values", counted_values)
    for module in (fiber, cli):  # the walk in cones sorts the values of one level
        monkeypatch.setattr(module, "sorted", counted_sorted, raising=False)
    for name, n in (("filters3", -3), ("P3", 3), ("P1", 2)):
        p = hibi.corpus.builtin(name)
        assert len(_first_sections(p, 1 if n > 0 else -1)) == 1
        assert any(length > 1 for _, _, length in _ordered_runs(p, n))
        code, text = run_command(["generators", name, "--n", str(n)])
        assert code == 0 and text.count("\n") == fiber._generator_count(p, n)
        assert calls == [], name
    # a JSON report expands the runs once, and several sections sort once
    assert run_command(["generators", "P3", "--n", "3", "--format", "json"])[0] == 0
    assert calls == ["_run_values"]
    calls.clear()
    assert run_command(["generators", "P3", "--n", "-3"])[0] == 0
    assert calls == ["_run_values", "sorted"]


# P1 with ids that a format string or a %-template would misread
ODD_IDS = {"x0": "b{0}", "w": "w}", "x": "%s=", "z": "{x}", "y": "q%d{", "v": "=="}


def _odd_document(tmp_path):
    p = hibi.corpus.p1()
    doc = {
        "name": "odd{0}",
        "elements": [ODD_IDS[z] for z in p.elements],
        "covers": [[ODD_IDS[a], ODD_IDS[b]] for a, b in sorted(p.covers)],
        "bottom": ODD_IDS[p.bottom],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _values_text(p, nu):
    """The per-value rendering the reports are checked against."""
    return " ".join(f"{z}={v}" for z, v in zip(p.elements, nu.values))


def test_generators_table_with_percent_ids_matches_per_row_formatting(tmp_path):
    # P3 with a % in ids of both halves of the columns
    p = hibi.corpus.p3()
    rename = {z: z + ("%d" if i % 2 else "%%") for i, z in enumerate(p.elements)}
    path = tmp_path / "percent.json"
    payload = {
        "name": "per%cent",
        "elements": [rename[z] for z in p.elements],
        "covers": [[rename[a], rename[b]] for a, b in sorted(p.covers)],
        "bottom": rename[p.bottom],
    }
    path.write_text(json.dumps(payload))
    _, q = cli._load(str(path))
    half = (len(q.elements) + 1) // 2
    shared = 0
    for n in range(-3, 4):
        rows = hibi.fiber._generator_values(q, n)
        shared += len(rows) - len({v[half:] for v in rows})
        lines = [f"poset per%cent: {len(rows)} generators for n = {n}"]
        lines += [
            "  degree %4d  %s" % (v[0], " ".join("%s=%d" % zv for zv in zip(q.elements, v)))
            for v in rows
        ]
        assert run_command(["generators", str(path), "--n", str(n)]) == (0, "\n".join(lines))
    assert shared > 0  # second halves recur, so the kept tail texts are read


def test_reports_render_odd_ids_like_per_value_text(tmp_path):
    path = _odd_document(tmp_path)
    _, p = cli._load(path)
    for n in (-2, -1, 1, 2):
        gens = hibi.generators(p, n)
        lines = [f"poset odd{{0}}: {len(gens)} generators for n = {n}"]
        lines += [f"  degree {nu.degree:>4}  {_values_text(p, nu)}" for nu in gens]
        assert run_command(["generators", path, "--n", str(n)]) == (0, "\n".join(lines))
        payload = {
            "name": "odd{0}",
            "n": n,
            "count": len(gens),
            "generators": [{"degree": nu.degree, "values": nu.as_dict()} for nu in gens],
        }
        want = json.dumps(payload, indent=2, ensure_ascii=False)
        assert run_command(["generators", path, "--n", str(n), "--format", "json"]) == (0, want)
    shared = 0
    for eps in (1, -1):
        seqs = hibi.enumerate_N(p, eps)
        for a in seqs:
            for b in seqs:
                for n in (1, 2):
                    second = set(hibi.lattice_points(hibi.build_C(p, eps, b), n))
                    common = [
                        nu for nu in hibi.lattice_points(hibi.build_C(p, eps, a), n) if nu in second
                    ]
                    shared += len(common)
                    lines = [
                        f"poset odd{{0}}: {cli._render_seq(a)} and {cli._render_seq(b)} share "
                        f"{len(common)} points at n={n}"
                    ]
                    lines += [f"  {_values_text(p, nu)}" for nu in common]
                    argv = ["polytope", path, "--eps", str(eps), "--n", str(n)]
                    argv += ["--seq", ",".join(a.items), "--intersect", ",".join(b.items)]
                    assert run_command(argv) == (0, "\n".join(lines))
    assert shared > 0
    assert len(hibi.enumerate_N(p, -1)) == 2
