"""Command-line front end: exit codes, output determinism, file input."""

import hashlib
import json
import os
import resource
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


def test_running_out_of_memory_is_a_budget_exit():
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000))

    env = dict(os.environ, PYTHONPATH=str(Path(hibi.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hibi", "generators", "P2", "--n", "-24"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (4, "budget exceeded: out of memory\n")


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
    order = sorted([a, b] for a, b in h.order if a != b)
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
