"""Command line interface.

Subcommand reports are pure projections of library results: running the
same command twice on the same input produces byte-identical text.  Exit
codes: 0 success, 1 usage, 2 invalid input (a value past the 64-bit range
counts as one), 3 self-test violation, 4 budget exceeded (recursion too
deep counts as one, and so does running out of memory).
"""

import argparse
import json
import os
import sys
from functools import cache, lru_cache
from pathlib import Path

from .birkhoff import (
    hibi_generators,
    join_irreducibles,
    lattice_from_poset,
    poset_isomorphic,
)
from .cones import (
    _run_count,
    _section_runs,
    _sections,
    build_C,
    dim_bruteforce,
    dim_formula,
    is_standard,
    lattice_points,
)
from .corpus import BUILTIN_NAMES, UPWARD_PURE_NAMES, all_builtins, builtin, upward_pure
from .documents import parse_poset_document
from .errors import BudgetExceeded
from .fiber import (
    analytic_spread,
    degree_range,
    fiber_hilbert,
    is_anticanonical_level,
    is_gorenstein,
    is_level,
)
from .frobenius import Budget, tcx_report
from .labelings import generators, in_T, is_minimal
from .poset import count_ideals, is_pure
from .sequences import as_seq, enumerate_N, nu_down, nu_up, q0, q_max

# hibi lattice builds join and meet tables with one entry per pair of
# down-sets, so it refuses a poset with more down-sets than this
MAX_DOWN_SETS = 1000


class UsageError(Exception):
    """Bad command line; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _bool(value):
    return "true" if value else "false"


def _json_text(payload):
    return json.dumps(payload, indent=2, ensure_ascii=False)


@lru_cache(maxsize=32)
def _document(text):
    """The parsed document of a text, interned by the text.

    A poset read again is then the same object and keeps the data it owns.
    A text that fails to parse raises on every call: errors are not kept.
    """
    return parse_poset_document(text)


def _load(ref):
    """Resolve a poset reference: built-in name, then file, then file stem."""
    if ref in BUILTIN_NAMES:
        return ref, builtin(ref)
    path = Path(ref)
    if path.exists():
        doc = _document(path.read_text(encoding="utf-8"))
        return doc.name, doc.poset
    stem = path.name[:-5] if path.name.endswith(".json") else path.name
    if stem in BUILTIN_NAMES:
        return stem, builtin(stem)
    raise ValueError(f"no file or built-in poset named {ref!r}")


def _row_format(p, head):
    """One format string for a row of values: head, then id=value per element.

    Element ids are brace-escaped, so format(*values) fills in the values
    and nothing else; {0} in head is the bottom's value.
    """
    ids = (z.replace("{", "{{").replace("}", "}}") for z in p.elements)
    return head + " ".join(f"{z}={{{i}}}" for i, z in enumerate(ids))


def _render_seq(seq):
    return "(" + ", ".join(str(z) for z in seq.items) + ")"


def _parse_seq_flag(p, text):
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    return as_seq(p, items)


def _parse_primes(text):
    try:
        primes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"--prime expects comma-separated integers, got {text!r}") from None
    if not primes:
        raise ValueError("--prime expects at least one prime")
    return primes


def _cmd_analyze(args):
    name, p = _load(args.poset)
    ranges = {n: (q0(p, n), q_max(p, n)) for n in (1, -1)}
    counts = {n: fiber_hilbert(p, n, 1) for n in (1, -1)}
    if args.format == "json":
        payload = {
            "name": name,
            "elements": len(p.elements),
            "covers": len(p.covers),
            "pure": is_pure(p),
            "gorenstein": is_gorenstein(p),
            "level": is_level(p),
            "anticanonical_level": is_anticanonical_level(p),
            "spread": {"1": analytic_spread(p, 1), "-1": analytic_spread(p, -1)},
            "generators": {"1": counts[1], "-1": counts[-1]},
            "degree_range": {"1": list(ranges[1]), "-1": list(ranges[-1])},
        }
        return 0, _json_text(payload)
    lines = [
        f"poset {name}: {len(p.elements)} elements, {len(p.covers)} covers",
        f"pure: {_bool(is_pure(p))}",
        f"gorenstein: {_bool(is_gorenstein(p))}",
        f"level: {_bool(is_level(p))}",
        f"anticanonical level: {_bool(is_anticanonical_level(p))}",
        f"analytic spread (eps=1): {analytic_spread(p, 1)}",
        f"analytic spread (eps=-1): {analytic_spread(p, -1)}",
        f"generators (n=1): {counts[1]}, degrees {ranges[1][0]}..{ranges[1][1]}",
        f"generators (n=-1): {counts[-1]}, degrees {ranges[-1][0]}..{ranges[-1][1]}",
    ]
    return 0, "\n".join(lines)


def _cmd_generators(args):
    name, p = _load(args.poset)
    gens = generators(p, args.n)
    if args.format == "json":
        payload = {
            "name": name,
            "n": args.n,
            "count": len(gens),
            "generators": [
                {"degree": nu.degree, "values": nu.as_dict()} for nu in gens
            ],
        }
        return 0, _json_text(payload)
    row = _row_format(p, "  degree {0:>4}  ").format
    lines = [f"poset {name}: {len(gens)} generators for n = {args.n}"]
    lines += [row(*nu.values) for nu in gens]
    return 0, "\n".join(lines)


def _cmd_sequences(args):
    name, p = _load(args.poset)
    seqs = enumerate_N(p, args.eps)
    if args.format == "json":
        payload = {
            "name": name,
            "eps": args.eps,
            "count": len(seqs),
            "sequences": [{"t": seq.t, "items": list(seq.items)} for seq in seqs],
        }
        return 0, _json_text(payload)
    lines = [f"poset {name}: {len(seqs)} reduced sequences for eps = {args.eps}"]
    for seq in seqs:
        lines.append(f"  t={seq.t}  {_render_seq(seq)}")
    return 0, "\n".join(lines)


def _cmd_polytope(args):
    name, p = _load(args.poset)
    if args.n < 1:
        raise ValueError("--n must be a positive dilation factor")
    if args.intersect is not None:
        if args.seq is None:
            raise ValueError("--intersect needs --seq for the first section")
        return _polytope_intersection(name, p, args)
    if args.seq is None:
        sections = _sections(p, args.eps)
    else:
        sections = (build_C(p, args.eps, _parse_seq_flag(p, args.seq)),)
    rows = [
        (c.seq, dim_formula(c), c.f_set, _run_count(_section_runs(c, args.n))) for c in sections
    ]
    if args.format == "json":
        payload = {
            "name": name,
            "eps": args.eps,
            "n": args.n,
            "sections": [
                {
                    "seq": list(seq.items),
                    "dim": d,
                    "free": [z for z in p.elements if z in free],
                    "points": count,
                }
                for seq, d, free, count in rows
            ],
        }
        return 0, _json_text(payload)
    lines = [f"poset {name}: polytope sections for eps = {args.eps}"]
    for seq, d, free, count in rows:
        free_text = ",".join(z for z in p.elements if z in free) or "-"
        lines.append(
            f"  seq {_render_seq(seq)}  dim {d}  free {free_text}  points(n={args.n}) {count}"
        )
    return 0, "\n".join(lines)


def _polytope_intersection(name, p, args):
    """Common lattice points of two sections at one dilation."""
    first = _parse_seq_flag(p, args.seq)
    second = _parse_seq_flag(p, args.intersect)
    points_a = lattice_points(build_C(p, args.eps, first), args.n)
    points_b = set(lattice_points(build_C(p, args.eps, second), args.n))
    common = tuple(nu for nu in points_a if nu in points_b)
    if args.format == "json":
        payload = {
            "name": name,
            "eps": args.eps,
            "n": args.n,
            "seq": list(first.items),
            "intersect": list(second.items),
            "points": [nu.as_dict() for nu in common],
        }
        return 0, _json_text(payload)
    lines = [
        f"poset {name}: {_render_seq(first)} and {_render_seq(second)} share "
        f"{len(common)} points at n={args.n}"
    ]
    row = _row_format(p, "  ").format
    lines += [row(*nu.values) for nu in common]
    return 0, "\n".join(lines)


def _cmd_spread(args):
    name, p = _load(args.poset)
    value = analytic_spread(p, args.eps)
    if args.format == "json":
        return 0, _json_text({"name": name, "eps": args.eps, "spread": value})
    return 0, str(value)


def _cmd_level(args):
    name, p = _load(args.poset)
    flags = {
        "pure": is_pure(p),
        "gorenstein": is_gorenstein(p),
        "level": is_level(p),
        "anticanonical_level": is_anticanonical_level(p),
    }
    if args.format == "json":
        return 0, _json_text({"name": name, **flags})
    lines = [f"poset {name}:"]
    lines += [f"  {key.replace('_', ' ')}: {_bool(value)}" for key, value in flags.items()]
    return 0, "\n".join(lines)


def _cmd_frobenius(args):
    name, p = _load(args.poset)
    primes = _parse_primes(args.prime)
    if args.emax < 1:
        raise ValueError("--emax must be at least 1")
    budget = Budget(max_prime=max(primes), max_e=args.emax, max_piece=args.budget)
    tables = tcx_report(p, primes, args.emax, budget)
    if args.format == "json":
        payload = {
            "name": name,
            "target": tables[0].target,
            "tables": [
                {
                    "prime": tab.prime,
                    "rows": [list(row) for row in tab.rows],
                    "estimate": None if tab.estimate == float("-inf") else tab.estimate,
                    "last_ratio": tab.last_ratio,
                }
                for tab in tables
            ],
        }
        return 0, _json_text(payload)
    lines = [f"poset {name}: twisted-piece counts, target {tables[0].target}"]
    for tab in tables:
        lines.append(f"prime {tab.prime}")
        lines.append("    e  dim_e    c_e  log_p(c_e)/e")
        for (e, dim_e, c_e), row_est in zip(tab.rows, tab.row_estimates):
            est_text = "   n/a" if row_est is None else f"{row_est:.4f}"
            lines.append(f"  {e:>3}  {dim_e:>5}  {c_e:>5}  {est_text:>12}")
        est = "-inf" if tab.estimate == float("-inf") else f"{tab.estimate:.6f}"
        ratio = "n/a" if tab.last_ratio is None else f"{tab.last_ratio:.6f}"
        lines.append(f"  estimate {est}  last ratio {ratio}  (desk readings, not limits)")
    return 0, "\n".join(lines)


def _cmd_lattice(args):
    name, p = _load(args.poset)
    if count_ideals(p, MAX_DOWN_SETS) > MAX_DOWN_SETS:
        raise BudgetExceeded(f"poset {name} has more than {MAX_DOWN_SETS} down-sets")
    h = lattice_from_poset(p)
    roundtrip = poset_isomorphic(p, join_irreducibles(h))
    if args.format == "json":
        payload = {
            "name": name,
            "size": len(h.elements),
            "elements": list(h.elements),
            "roundtrip": roundtrip,
        }
        return 0, _json_text(payload)
    lines = [f"poset {name}: ideal lattice with {len(h.elements)} elements"]
    lines += [f"  {label}" for label in h.elements]
    lines.append(f"join-irreducibles recover the poset: {_bool(roundtrip)}")
    return 0, "\n".join(lines)


def _selftest_checks(name, p):
    """(check name, ok, detail) triples for one poset."""
    checks = []
    h = lattice_from_poset(p)
    checks.append(("round-trip", poset_isomorphic(p, join_irreducibles(h)), ""))
    ok = all(in_T(p, 0, nu) and nu.degree == 1 for nu in hibi_generators(p))
    checks.append(("monomial generators", ok, ""))
    ok = is_gorenstein(p) == (fiber_hilbert(p, 1, 1) == 1)
    checks.append(("gorenstein criterion", ok, ""))

    results = {"dimension": (True, ""), "standardness": (True, ""), "witnesses": (True, "")}

    def mark(key, eps, seq):
        if results[key][0]:
            results[key] = (False, f"seq {_render_seq(seq)} eps {eps}")

    for eps in (1, -1):
        for c in _sections(p, eps):
            seq = c.seq
            if dim_formula(c) != dim_bruteforce(c):
                mark("dimension", eps, seq)
            if not is_standard(c, 2):
                mark("standardness", eps, seq)
            down, up = nu_down(p, eps, seq), nu_up(p, eps, seq)
            if not (is_minimal(p, eps, down) and is_minimal(p, eps, up)):
                mark("witnesses", eps, seq)
    for key, (ok, detail) in results.items():
        checks.append((key, ok, detail))

    for key, ok in (
        ("decomposition", all(is_minimal(p, n, nu) for n in (1, -1) for nu in generators(p, n))),
        ("degree range", all(degree_range(p, n)[2] for n in (1, -1))),
    ):
        checks.append((key, ok, ""))

    if name in UPWARD_PURE_NAMES:
        ok = upward_pure(p) and is_level(p) and is_anticanonical_level(p)
        checks.append(("pure filters level", ok, ""))
    return checks


def _cmd_selftest(args):
    checks = [
        (name, check, ok, detail)
        for name, p in all_builtins()
        for check, ok, detail in _selftest_checks(name, p)
    ]
    failures = sum(not ok for _, _, ok, _ in checks)
    code = 3 if failures else 0
    if args.format == "json":
        payload = {
            "passed": not failures,
            "checks": [
                {"poset": name, "check": check, "ok": ok, "detail": detail}
                for name, check, ok, detail in checks
            ],
        }
        return code, _json_text(payload)
    lines = [
        f"ok   {name}: {check}" if ok else f"FAIL {name}: {check} ({detail})"
        for name, check, ok, detail in checks
    ]
    lines.append(f"selftest failed: {failures} violation(s)" if failures else "selftest passed")
    return code, "\n".join(lines)


def _add_common(sub, poset=True, eps=False, n=None):
    sub.add_argument("--format", choices=("table", "json"), default="table")
    if eps:
        sub.add_argument("--eps", type=int, choices=(1, -1), default=-1)
    if n is not None:
        sub.add_argument("--n", type=int, **n)
    if poset:
        sub.add_argument("poset", help="built-in name or document file")


@cache
def build_parser():
    """The one parser of the process; parse_args returns a fresh Namespace per call."""
    parser = _Parser(prog="hibi", description="poset divisor calculators")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub = commands.add_parser("analyze", help="one-page summary of a poset")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_analyze)

    sub = commands.add_parser("generators", help="minimal generators of the n-th twist")
    _add_common(sub, n={"required": True})
    sub.set_defaults(handler=_cmd_generators)

    sub = commands.add_parser("sequences", help="reduced alternating sequences")
    _add_common(sub, eps=True)
    sub.set_defaults(handler=_cmd_sequences)

    sub = commands.add_parser("polytope", help="polytope sections and lattice points")
    _add_common(sub, eps=True, n={"default": 1})
    sub.add_argument("--seq", help="comma-separated sequence items (empty for the empty sequence)")
    sub.add_argument("--intersect", help="second sequence; report the common lattice points")
    sub.set_defaults(handler=_cmd_polytope)

    sub = commands.add_parser("spread", help="analytic spread of the chosen side")
    _add_common(sub, eps=True)
    sub.set_defaults(handler=_cmd_spread)

    sub = commands.add_parser("level", help="levelness and Gorenstein flags")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_level)

    sub = commands.add_parser("frobenius", help="twisted-piece complexity tables")
    _add_common(sub)
    sub.add_argument("--prime", default="2", help="comma-separated primes")
    sub.add_argument("--emax", type=int, default=2)
    sub.add_argument("--budget", type=int, default=1_000_000, help="piece size cap")
    sub.set_defaults(handler=_cmd_frobenius)

    sub = commands.add_parser("lattice", help="lattice of nonempty down-sets")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_lattice)

    sub = commands.add_parser("selftest", help="run the invariant battery on the corpus")
    sub.add_argument("--format", choices=("table", "json"), default="table")
    sub.set_defaults(handler=_cmd_selftest)

    return parser


def run_command(argv):
    """Run one command line; returns (exit code, report text)."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return 1, str(exc)
    except SystemExit as exc:
        return (exc.code or 0), ""
    try:
        return args.handler(args)
    except (BudgetExceeded, RecursionError) as exc:
        return 4, f"budget exceeded: {exc}"
    except MemoryError:
        return 4, "budget exceeded: out of memory"
    except (ValueError, OverflowError) as exc:
        return 2, f"invalid input: {exc}"
    except OSError as exc:
        return 2, f"cannot read input: {exc}"


def main(argv=None):
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe (as `| head` does).  Point stdout at
            # devnull so the flush at interpreter exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
