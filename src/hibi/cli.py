"""Command line interface.

Subcommand reports are pure projections of library results: running the
same command twice on the same input produces byte-identical text.  Exit
codes: 0 success, 1 usage, 2 invalid input (a value past the 64-bit range
counts as one), 3 self-test violation, 4 budget exceeded (recursion too
deep counts as one, and so do running out of memory and a frobenius
exponent whose dilation leaves the 64-bit range).
"""

import gc
import os
import sys
from functools import lru_cache
from types import SimpleNamespace

from .cones import (
    _dilation,
    _meet,
    _point_count,
    _run_values,
    _sections,
    build_C,
    dim_bruteforce,
    dim_formula,
    is_standard,
    lattice_points,
)
from .corpus import BUILTIN_NAMES, UPWARD_PURE_NAMES, all_builtins, builtin, upward_pure
from .errors import BudgetExceeded
from .fiber import (
    _ordered_runs,
    analytic_spread,
    degree_range,
    fiber_hilbert,
    is_anticanonical_level,
    is_gorenstein,
    is_level,
)
from .labelings import generators, in_T, is_minimal
from .poset import TOP, _down_sets, is_pure
from .sequences import as_seq, enumerate_N, nu_down, nu_up, q0, q_max

# hibi lattice checks the join of every pair of down-sets, so it refuses
# a poset with more down-sets than this
MAX_DOWN_SETS = 1000


class UsageError(Exception):
    """Bad command line; reported with exit code 1."""


def _bool(value):
    return "true" if value else "false"


def _json_text(payload):
    # imported here: a table report never loads json
    import json

    return json.dumps(payload, indent=2, ensure_ascii=False)


@lru_cache(maxsize=32)
def _document(text):
    """The parsed document of a text, interned by the text.

    A poset read again is then the same object and keeps the data it owns.
    A text that fails to parse raises on every call: errors are not kept.
    The documents module is imported here, so a command on a built-in
    poset never loads it.
    """
    from .documents import parse_poset_document

    return parse_poset_document(text)


def _load(ref):
    """Resolve a poset reference: built-in name, then file, then bare file stem.

    A file is read with one open.  A reference that names no file (open
    finds nothing there, a file stands where a directory must, or the
    path has a NUL byte) is a bare built-in stem, as P1.json is, or is
    refused.  Any other error of the open or the read is raised as it is.
    """
    if ref in BUILTIN_NAMES:
        return ref, builtin(ref)
    try:
        fh = open(ref, encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError, ValueError):
        stem = ref.removesuffix(".json")
        if not os.path.dirname(ref) and stem in BUILTIN_NAMES:
            return stem, builtin(stem)
        raise ValueError(f"no file or built-in poset named {ref!r}") from None
    with fh:
        doc = _document(fh.read())
    return doc.name, doc.poset


def _row_template(ids):
    """One %-template for a row of values: id=value per element id.

    Element ids are %-escaped, so template % values fills in the values
    and nothing else.
    """
    return " ".join(z.replace("%", "%%") + "=%d" for z in ids)


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
    return primes


def _cmd_analyze(args, name, p):
    ranges = {n: (q0(p, n), q_max(p, n)) for n in (1, -1)}
    counts = {n: fiber_hilbert(p, n, 1) for n in (1, -1)}
    flags = _flags(p)
    if args.format == "json":
        payload = {
            "name": name,
            "elements": len(p.elements),
            "covers": len(p.covers),
            **flags,
            "spread": {"1": analytic_spread(p, 1), "-1": analytic_spread(p, -1)},
            "generators": {"1": counts[1], "-1": counts[-1]},
            "degree_range": {"1": list(ranges[1]), "-1": list(ranges[-1])},
        }
        return 0, _json_text(payload)
    lines = [
        f"poset {name}: {len(p.elements)} elements, {len(p.covers)} covers",
        *[f"{key.replace('_', ' ')}: {_bool(value)}" for key, value in flags.items()],
        f"analytic spread (eps=1): {analytic_spread(p, 1)}",
        f"analytic spread (eps=-1): {analytic_spread(p, -1)}",
        f"generators (n=1): {counts[1]}, degrees {ranges[1][0]}..{ranges[1][1]}",
        f"generators (n=-1): {counts[-1]}, degrees {ranges[-1][0]}..{ranges[-1][1]}",
    ]
    return 0, "\n".join(lines)


def _cmd_generators(args, name, p):
    runs = _ordered_runs(p, args.n)
    if args.format == "json":
        rows = _run_values(runs)
        payload = {
            "name": name,
            "n": args.n,
            "count": len(rows),
            # a row's first value, the bottom's, is its degree
            "generators": [
                {"degree": v[0], "values": {**dict(zip(p.elements, v)), TOP: 0}} for v in rows
            ],
        }
        return 0, _json_text(payload)
    # The table is formatted a run at a time, from runs in row order
    # (fiber._ordered_runs), and expands no run.  A row is the degree with
    # the first half of the columns, then the second half.  Along a run only
    # its moving columns rise.  When they all lie in the second half, the
    # first half is formatted once per run (once per distinct one, as runs
    # in order share them), and the second halves of its rows, one block,
    # once per distinct (second half, moving, length), as blocks recur
    # across first halves.  A run of one row keeps its second half as one
    # text.  The rare run that moves a first-half column goes row by row.
    half = (len(p.elements) + 1) // 2
    head = "  degree %4d  " + _row_template(p.elements[:half])
    tail = " " + _row_template(p.elements[half:]) if half < len(p.elements) else ""
    lines = [None]
    prefix, tails, blocks = None, {}, {}
    for row, moving, length in runs:
        if moving and moving[0] < half:
            prefix = None
            v = list(row)
            for _ in range(length):
                lines.append(head % (v[0], *v[:half]) + tail % tuple(v[half:]))
                for i in moving:
                    v[i] += 1
            continue
        if row[:half] != prefix:
            prefix = row[:half]
            text = head % (row[0], *prefix)
        if length == 1:
            rest = row[half:]
            tail_text = tails.get(rest)
            if tail_text is None:
                tail_text = tails[rest] = tail % rest
            lines.append(text + tail_text)
            continue
        key = row[half:], moving, length
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _tail_block(tail, half, *key)
        lines += map(text.__add__, block)
    lines[0] = f"poset {name}: {len(lines) - 1} generators for n = {args.n}"
    return 0, "\n".join(lines)


def _tail_block(tail, half, rest, moving, length):
    """The second-half texts of the rows of a run that moves only columns from half on."""
    step = list(rest)
    block = [tail % rest]
    for _ in range(length - 1):
        for i in moving:
            step[i - half] += 1
        block.append(tail % tuple(step))
    return tuple(block)


def _cmd_sequences(args, name, p):
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


def _cmd_polytope(args, name, p):
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
    rows = [(c.seq, dim_formula(c), c.f_set, _point_count(c, args.n)) for c in sections]
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
    a, b = build_C(p, args.eps, first), build_C(p, args.eps, second)
    for c in (a, b):  # a section past 64 bits is invalid input, whatever the meet's range
        _dilation(c, args.n)
    common = lattice_points(_meet(a, b), args.n)
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
    row = _row_template(p.elements)
    lines += ["  " + row % nu.values for nu in common]
    return 0, "\n".join(lines)


def _cmd_spread(args, name, p):
    value = analytic_spread(p, args.eps)
    if args.format == "json":
        return 0, _json_text({"name": name, "eps": args.eps, "spread": value})
    return 0, str(value)


def _flags(p):
    """The purity, Gorenstein and level flags that analyze and level report."""
    return {
        "pure": is_pure(p),
        "gorenstein": is_gorenstein(p),
        "level": is_level(p),
        "anticanonical_level": is_anticanonical_level(p),
    }


def _cmd_level(args, name, p):
    flags = _flags(p)
    if args.format == "json":
        return 0, _json_text({"name": name, **flags})
    lines = [f"poset {name}:"]
    lines += [f"  {key.replace('_', ' ')}: {_bool(value)}" for key, value in flags.items()]
    return 0, "\n".join(lines)


def _cmd_frobenius(args, name, p):
    from .frobenius import Budget, tcx_report

    primes = _parse_primes(args.prime)
    if args.emax < 1:
        raise ValueError("--emax must be at least 1")
    if args.budget < 0:
        raise ValueError("--budget must be at least 0")
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


def _cmd_lattice(args, name, p):
    from .birkhoff import join_irreducibles, lattice_from_poset, poset_isomorphic

    if _down_sets(p, MAX_DOWN_SETS) is None:
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
    from .birkhoff import hibi_generators, join_irreducibles, lattice_from_poset, poset_isomorphic

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
    lines = []
    for name, check, ok, detail in checks:
        note = f" ({detail})" if detail else ""
        lines.append(f"ok   {name}: {check}" if ok else f"FAIL {name}: {check}{note}")
    lines.append(f"selftest failed: {failures} violation(s)" if failures else "selftest passed")
    return code, "\n".join(lines)


_FORMAT = {"--format": {"choices": ("table", "json"), "default": "table"}}
_EPS = {"--eps": {"type": int, "choices": (1, -1), "default": -1}}

# The command-line grammar, in the order of hibi -h: name -> (help, handler,
# whether it takes the poset positional, options); run_command passes a handler
# the fields, and the name and poset it resolves where the command takes one.
# Options map each flag to its add_argument keywords; one left out has argparse's
# default: no type (the text itself), no choices, default None, not required.
COMMANDS = {
    "analyze": ("one-page summary of a poset", _cmd_analyze, True, _FORMAT),
    "generators": (
        "minimal generators of the n-th twist",
        _cmd_generators,
        True,
        {**_FORMAT, "--n": {"type": int, "required": True}},
    ),
    "sequences": ("reduced alternating sequences", _cmd_sequences, True, {**_FORMAT, **_EPS}),
    "polytope": (
        "polytope sections and lattice points",
        _cmd_polytope,
        True,
        {
            **_FORMAT,
            **_EPS,
            "--n": {"type": int, "default": 1},
            "--seq": {"help": "comma-separated sequence items (empty for the empty sequence)"},
            "--intersect": {"help": "second sequence; report the common lattice points"},
        },
    ),
    "spread": ("analytic spread of the chosen side", _cmd_spread, True, {**_FORMAT, **_EPS}),
    "level": ("levelness and Gorenstein flags", _cmd_level, True, _FORMAT),
    "frobenius": (
        "twisted-piece complexity tables",
        _cmd_frobenius,
        True,
        {
            **_FORMAT,
            "--prime": {"default": "2", "help": "comma-separated primes"},
            "--emax": {"type": int, "default": 2},
            "--budget": {"type": int, "default": 1_000_000, "help": "piece size cap"},
        },
    ),
    "lattice": ("lattice of nonempty down-sets", _cmd_lattice, True, _FORMAT),
    "selftest": ("run the invariant battery on the corpus", _cmd_selftest, False, _FORMAT),
}


def _is_value(word):
    """Whether argparse reads word as a value: no leading dash, or a negative integer."""
    return word[:1] != "-" or word[1:].isdecimal()


def _parse_exact(argv):
    """The fields argparse parses argv to, if argv uses the COMMANDS table exactly.

    Exactly: the command first; each option by its full flag, at most once,
    as --flag value or --flag=value, with a value its type and choices take;
    the poset positional once where the command takes one, and no other
    word.  Otherwise None, and argparse parses the line: it prints help and
    names every usage error.  A value or positional that begins with a dash
    must be a negative integer, which argparse reads as a value, not as an
    option; argparse also drops a value "--", which is deferred with them.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, takes_poset, options = COMMANDS[argv[0]]
    given, positionals = {}, []
    words = iter(argv[1:])
    for word in words:
        if word[:2] == "--":
            flag, equals, value = word.partition("=")
            value = value if equals else next(words, None)
            if flag not in options or flag in given or value is None or not _is_value(value):
                return None
            given[flag] = value
        elif _is_value(word):
            positionals.append(word)
        else:
            return None
    if len(positionals) != int(takes_poset):
        return None
    fields = {"command": argv[0], "handler": handler}
    if takes_poset:
        fields["poset"] = positionals[0]
    for flag, spec in options.items():
        if flag not in given:
            if spec.get("required"):
                return None
            fields[flag[2:]] = spec.get("default")
            continue
        value = given[flag]
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        fields[flag[2:]] = value
    return SimpleNamespace(**fields)


def build_parser():
    """The hibi argparse parser, built from COMMANDS.

    Built afresh for each command line that _parse_exact leaves to it:
    one that asks for help, has a usage error or abbreviates an option.
    """
    import argparse  # a command line that needs no help or usage error never loads it

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(f"{self.prog}: error: {message}")

    parser = Parser(prog="hibi", description="poset divisor calculators")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, handler, takes_poset, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for flag, spec in options.items():
            sub.add_argument(flag, **spec)
        if takes_poset:
            sub.add_argument("poset", help="built-in name or document file")
        sub.set_defaults(handler=handler)
    return parser


def run_command(argv):
    """Run one command line; returns (exit code, report text)."""
    args = _parse_exact(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except UsageError as exc:
            return 1, str(exc)
        except SystemExit as exc:
            return (exc.code or 0), ""
    try:
        loaded = _load(args.poset) if COMMANDS[args.command][2] else ()
        return args.handler(args, *loaded)
    except (BudgetExceeded, RecursionError) as exc:
        return 4, f"budget exceeded: {exc}"
    except MemoryError:
        return 4, "budget exceeded: out of memory"
    except (ValueError, OverflowError) as exc:
        return 2, f"invalid input: {exc}"
    except OSError as exc:
        return 2, f"cannot read input: {exc}"


def main(argv=None):
    """Run one command line, print its report and return its exit code.

    With no argv the command line is the process's own (python -m hibi,
    the hibi script), and the process ends once main returns.  Every
    object is then frozen (gc.freeze), so the collection the interpreter
    runs at exit skips them; atexit handlers and the stdio flush still
    run.  A caller that passes argv keeps a live collector.
    """
    own = argv is None
    code, text = run_command(sys.argv[1:] if own else argv)
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe (as `| head` does).  Point stdout at
            # devnull so the flush at interpreter exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if own:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
