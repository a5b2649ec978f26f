"""Command-line front end: exit codes, output determinism, file input."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hibi
import hibi.cli as cli
from hibi.cli import main, run_command
from hibi.errors import DocumentError

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


def test_frobenius_budget_stops_a_large_piece_early():
    # the uncapped e=2 piece at prime 5 has about 1.5 million points
    code, text = run_command(["frobenius", "P2", "--prime", "2,5", "--emax", "2", "--budget", "5000"])
    assert code == 4
    assert text.startswith("budget exceeded:")


def test_frobenius_rejects_composite_prime():
    code, text = run_command(["frobenius", "P1", "--prime", "4"])
    assert code == 2
    assert "prime" in text


def test_frobenius_overflow_is_invalid_input():
    # the e = 3 piece of chain3 has values near -4 * 1000000007**3
    code, text = run_command(["frobenius", "chain3", "--prime", "1000000007", "--emax", "3"])
    assert code == 2
    assert text.startswith("invalid input: labeling value -4000000084")
    assert text.endswith("exceeds the 64-bit range")


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
    first = {}
    for argv in calls:
        cli.build_parser.cache_clear()
        first[tuple(argv)] = run_command(argv)
    capsys.readouterr()
    cli.build_parser.cache_clear()
    results = [run_command(argv) for argv in calls]
    assert results == [first[tuple(argv)] for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    # the default --emax 2 still applies after an explicit --emax 1
    assert "    2     10      1" in results[2][1]
    assert "    2 " not in results[1][1]
    assert results[4][0] == 1 and results[5] == (0, "")
    assert "usage: hibi polytope" in capsys.readouterr().out


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
