"""Outside-only tracing of the hibi package, and the per-layer metrics.

Tracing rebinds each spanned function's name in every ``hibi.*`` module
namespace to a wrapper that records a span: name, start, end, parent span
and the job the span belongs to.  Rebinding every namespace matters:
``from .x import f`` copies the reference into other modules, and recursive
or same-module calls look the name up in module globals.  No file of the
package changes.  Spans stay in memory and are written out at the end.

Run as a script, it traces one command line the way ``python -m hibi``
would run it:

    python perfbench/spans.py SPANS.json analyze P1
"""

import functools
import importlib
import json
import sys
import time

# layer -> spanned functions.  corpus and errors do no measurable work.
SPANNED = {
    "cli": ("run_command",),
    "documents": ("parse_poset_document",),
    "poset": ("build_poset", "poset_ideals", "is_pure"),
    "sequences": ("enumerate_N", "is_q_reduced", "q_max", "mu", "nu_down", "nu_up"),
    "labelings": ("generators", "is_minimal"),
    "cones": ("build_C", "lattice_points", "dim_bruteforce", "is_standard"),
    "fiber": (
        "analytic_spread",
        "degree_range",
        "generators_via_sequences",
        "is_level",
        "is_anticanonical_level",
    ),
    "frobenius": ("tcx_report", "t_piece", "c_e_fiber"),
    "birkhoff": (
        "lattice_from_poset",
        "join_irreducibles",
        "is_distributive",
        "poset_isomorphic",
        "hibi_generators",
    ),
}
LAYERS = tuple(SPANNED)

# A span is the list [name, job, parent, start, end, size, repeat, error]:
# parent is the index of the enclosing span or -1, size the length of the
# result where it has one, repeat whether the same arguments (by value) came
# before in this process, error the exception class name or None.
NAME, JOB, PARENT, START, END, SIZE, REPEAT, ERROR = range(8)


def _size(result):
    if isinstance(result, (tuple, list)):
        return len(result)
    elements = getattr(result, "elements", None)
    return len(elements) if isinstance(elements, tuple) else None


def _arg_key(name, args, kwargs):
    key = (name, args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Span recorder; ``install`` wraps the package in place."""

    def __init__(self):
        self.spans = []
        self.job = 0
        self._stack = []
        self._seen = set()

    def _wrap(self, fn, name):
        spans, stack, seen = self.spans, self._stack, self._seen

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = _arg_key(name, args, kwargs)
            repeat = key in seen
            seen.add(key)
            span = [name, self.job, stack[-1] if stack else -1, 0.0, 0.0, None, repeat, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            span[SIZE] = _size(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        wrapped = {}
        for layer, names in SPANNED.items():
            module = importlib.import_module(f"hibi.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrapped[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname == "hibi" or modname.startswith("hibi."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        setattr(module, attr, wrapped[id(value)])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans):
    """Per-layer metrics from the spans of one traced pass.

    Work counts (kept, points, piece_points, ideals, lattice_size) count a
    call's result only the first time its arguments are seen, which is when
    the program computes rather than reuses it.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    repeats = dict.fromkeys(LAYERS, 0)
    inclusive = {}
    count = {}
    out_sum = {}
    new_out = {}
    candidates = section_points = rejections = 0
    for i, s in enumerate(spans):
        name, layer, dur = s[NAME], _layer(s[NAME]), s[END] - s[START]
        self_s[layer] += dur - child_time[i]
        calls[layer] += 1
        repeats[layer] += s[REPEAT]
        inclusive[name] = inclusive.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        size = s[SIZE] or 0
        out_sum[name] = out_sum.get(name, 0) + size
        if not s[REPEAT]:
            new_out[name] = new_out.get(name, 0) + size
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "sequences.is_q_reduced" and parent == "sequences.enumerate_N":
            candidates += 1
        if name == "cones.lattice_points" and parent == "fiber.generators_via_sequences":
            section_points += size
        if s[ERROR] == "BudgetExceeded" and layer == "frobenius" and _layer(parent or "") != "frobenius":
            rejections += 1
    total = inclusive.get("cli.run_command", 0.0)
    kept = new_out.get("sequences.enumerate_N", 0)
    gens = out_sum.get("labelings.generators", 0)
    points = out_sum.get("cones.lattice_points", 0)
    distinct = out_sum.get("fiber.generators_via_sequences", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.share"] = (ratio(self_s[layer], total), "ratio")
        metrics[f"{layer}.repeat_share"] = (ratio(repeats[layer], calls[layer]), "ratio")
    metrics.update(
        {
            "cli.run_command_s": (total, "s"),
            "sequences.enumerate_calls": (count.get("sequences.enumerate_N", 0), "count"),
            "sequences.candidates": (candidates, "count"),
            "sequences.kept": (kept, "count"),
            "sequences.kept_ratio": (ratio(kept, candidates), "ratio"),
            "labelings.generators_calls": (count.get("labelings.generators", 0), "count"),
            "labelings.generators_out": (gens, "count"),
            "labelings.generators_out_per_s": (
                ratio(gens, inclusive.get("labelings.generators", 0.0)),
                "1/s",
            ),
            "cones.lattice_points_calls": (count.get("cones.lattice_points", 0), "count"),
            "cones.points": (points, "count"),
            "cones.points_per_s": (ratio(points, inclusive.get("cones.lattice_points", 0.0)), "1/s"),
            "fiber.section_points": (section_points, "count"),
            "fiber.distinct_points": (distinct, "count"),
            "fiber.distinct_ratio": (ratio(distinct, section_points), "ratio"),
            "frobenius.piece_points": (new_out.get("frobenius.t_piece", 0), "count"),
            "frobenius.budget_rejections": (rejections, "count"),
            "poset.ideals": (new_out.get("poset.poset_ideals", 0), "count"),
            "birkhoff.lattice_size": (new_out.get("birkhoff.lattice_from_poset", 0), "count"),
            "birkhoff.distributive_s": (inclusive.get("birkhoff.is_distributive", 0.0), "s"),
        }
    )
    return metrics


def main(argv):
    tracer = Tracer()
    tracer.install()
    from hibi.cli import main as hibi_main

    try:
        return hibi_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
