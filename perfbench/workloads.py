"""Job catalogs of the four benchmark workloads, and their seeded inputs.

Every poset shape is fixed by this file: chains, grids, and random rooted
posets drawn from string seeds of their own.  The workload seed changes
what the program is given, not how much work it does:

- every element of every poset document gets a fresh random name, and the
  cover list is shuffled (the element list keeps its order, so the
  program's canonical element order, and with it every output line, is the
  same up to the renaming);
- the job order is shuffled;
- the order of the session-mix repeats is drawn from it.

Because work does not depend on the seed, runs with different seeds have
comparable times, and because outputs map back to the catalog's own names,
one committed reference per catalog job checks every seed.
"""

import random
import re

# --- poset shapes ----------------------------------------------------------


def chain(length):
    elements = ["x0"] + [f"a{i}" for i in range(1, length + 1)]
    covers = [[elements[i], elements[i + 1]] for i in range(length)]
    return {"name": f"chain{length}", "elements": elements, "covers": covers, "bottom": "x0"}


def grid(rows, cols):
    """Product of two chains; the bottom corner is g0_0."""
    elements = [f"g{i}_{j}" for i in range(rows) for j in range(cols)]
    covers = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                covers.append([f"g{i}_{j}", f"g{i + 1}_{j}"])
            if j + 1 < cols:
                covers.append([f"g{i}_{j}", f"g{i}_{j + 1}"])
    return {"name": f"grid{rows}x{cols}", "elements": elements, "covers": covers, "bottom": "g0_0"}


def rooted(size, tag):
    """Random rooted poset: each new element covers one or two earlier ones.

    Drawn from the string seed ``tag``, so the shape is part of the catalog.
    """
    rng = random.Random(f"rooted/{size}/{tag}")
    elements = ["x0"] + [f"e{i}" for i in range(1, size)]
    covers = set()
    for i in range(1, size):
        for j in rng.sample(range(i), min(i, 1 if rng.random() < 0.6 else 2)):
            covers.add((elements[j], elements[i]))
    return {
        "name": f"rooted{size}{tag}",
        "elements": elements,
        "covers": [list(c) for c in sorted(covers)],
        "bottom": "x0",
    }


# --- cold workloads --------------------------------------------------------
#
# A job is an argv list; "@<doc name>" stands for the path of that
# document's seeded copy.  Budget-rejected jobs are checked by exit code 4
# and message prefix only.

BUDGET_PREFIX = "budget exceeded:"


def _seq_scale():
    all_three = ("sequences --eps -1", "spread --eps 1", "level")
    plan = [
        (chain(10), all_three),
        (chain(11), ("sequences --eps -1", "level")),
        (chain(12), ("sequences --eps -1", "level")),
        (grid(3, 3), ("sequences --eps -1",)),
        (grid(3, 4), ("sequences --eps -1", "level")),
        (grid(2, 6), ("sequences --eps 1", "spread --eps -1", "level")),
    ]
    plan += [(rooted(n, "a"), all_three) for n in (12, 14, 15, 16)]
    docs = [doc for doc, _ in plan]
    jobs = [cmd.split() + ["@" + doc["name"]] for doc, cmds in plan for cmd in cmds]
    return docs, jobs


def _gen_box():
    analyzed = [rooted(13, "a"), rooted(13, "c"), rooted(14, "b")]
    expanded = [rooted(11, "g"), rooted(12, "a"), rooted(12, "b")]
    jobs = [["analyze", "@" + doc["name"]] for doc in analyzed]
    jobs += [["generators", "@" + doc["name"], "--n", "-2"] for doc in expanded]
    jobs.append(["generators", "@" + rooted(11, "g")["name"], "--n", "-3"])
    for name, ns in (("P2", (-2, 3)), ("P3", (-3, -2))):
        jobs += [["generators", name, "--n", str(n)] for n in ns]
    return analyzed + expanded, jobs


def _frob_pieces():
    jobs = [
        "P1 --prime 5 --emax 2",
        "P1 --prime 3 --emax 4",
        "P1 --prime 5 --emax 3",
        "P1 --prime 2,3 --emax 4",
        "P1 --prime 2,3,5 --emax 3",
        "P2 --prime 3 --emax 1",
        "P2 --prime 5 --emax 1",
        "P3 --prime 2 --emax 3",
        "P3 --prime 7 --emax 1",
        "filters1 --prime 3 --emax 4",
        "filters1 --prime 5 --emax 3",
        "filters1 --prime 2,3 --emax 3",
        "filters1 --prime 5 --emax 2",
        "filters2 --prime 5 --emax 2",
        "filters2 --prime 2 --emax 4",
        "filters2 --prime 2 --emax 5",
        "filters3 --prime 3 --emax 2",
        "filters3 --prime 2 --emax 3",
        "filters3 --prime 2,3 --emax 2",
        "filters3 --prime 5 --emax 1",
        "chain3 --prime 2,3,5 --emax 3",
        "chain4 --prime 5 --emax 3",
        "antichain3 --prime 2,3 --emax 3",
        "antichain3 --prime 5 --emax 3",
        "P3 --prime 3 --emax 2 --budget 5000",
    ]
    return [], [["frobenius"] + j.split() for j in jobs]


# --- warm workload ---------------------------------------------------------

SESSION_BUILTINS = (
    "P1", "P2", "P3", "chain3", "chain4", "antichain3", "filters1", "filters2", "filters3",
)

# (argv template, repeats per stream); "@" is a drawn poset, "%" a drawn
# built-in one.  Templates whose every call is expensive get no repeats and
# only their one catalog run per poset: generators at n = -2 on P2 takes
# 0.17 s each time and selftest 0.1 s, so a seeded number of them would
# decide the stream's tail.  frobenius draws built-ins only: on a
# 10-element random poset it takes 1.7 s.
SESSION_MIX = (
    ("analyze @", 30),
    ("analyze @ --format json", 10),
    ("generators @ --n 1", 24),
    ("generators @ --n -1", 24),
    ("generators @ --n -2", 0),
    ("sequences @ --eps 1", 20),
    ("sequences @ --eps -1 --format json", 20),
    ("polytope @ --eps -1", 16),
    ("polytope @ --eps 1 --n 2", 12),
    ("spread @ --eps 1", 16),
    ("spread @ --eps -1", 16),
    ("level @", 24),
    ("frobenius % --prime 2 --emax 2", 16),
    ("lattice @", 16),
    ("selftest", 0),
)


def _session_docs():
    docs = [chain(n) for n in (5, 7)] + [grid(2, 3), grid(2, 4), grid(3, 3)]
    docs += [rooted(n, t) for n in (7, 8, 9, 10) for t in "ab"]
    return docs


def _session_posets():
    """Posets in fixed popularity order, most popular first."""
    names = [d["name"] for d in _session_docs()]
    order = []
    for i in range(max(len(names), len(SESSION_BUILTINS))):
        if i < len(SESSION_BUILTINS):
            order.append(SESSION_BUILTINS[i])
        if i < len(names):
            order.append("@" + names[i])
    return order


def _pool(template):
    """The posets a template draws from, most popular first."""
    argv = template.split()
    if "@" in argv:
        return _session_posets()
    if "%" in argv:
        return list(SESSION_BUILTINS)
    return [None]


def _fill(template, poset):
    return [poset if a in ("@", "%") else a for a in template.split()]


def session_catalog():
    """Every command the session stream can draw."""
    return [_fill(t, poset) for t, _ in SESSION_MIX for poset in _pool(t)]


def _zipf_counts(total, size):
    """Split total repeats over ranks 1..size in proportion to 1/rank^1.1."""
    weights = [1 / (rank + 1) ** 1.1 for rank in range(size)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(size), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def session_stream(seed):
    """The whole catalog once in a fixed order, then the repeats in seeded order.

    The catalog part carries the first-time work (cache misses).  The
    repeats follow the fixed popularity order, a Zipf-like 1/rank^1.1 share
    of each template's repeat count per poset.  Both parts are the same
    multiset for every seed, so the stream's cost and its slowest commands
    do not depend on the seed; the seed orders the repeats.
    """
    stream = session_catalog()
    random.Random("session/catalog").shuffle(stream)
    repeats = []
    for template, times in SESSION_MIX:
        posets = _pool(template)
        for poset, count in zip(posets, _zipf_counts(times, len(posets))):
            repeats += [_fill(template, poset)] * count
    random.Random(f"session/{seed}").shuffle(repeats)
    return stream + repeats


# --- workload table --------------------------------------------------------

COLD = {"seq-scale": _seq_scale, "gen-box": _gen_box, "frob-pieces": _frob_pieces}
WORKLOADS = tuple(COLD) + ("session-mix",)


def catalog(workload):
    """(documents, jobs) of a workload, in catalog names and order."""
    if workload == "session-mix":
        return _session_docs(), session_catalog()
    return COLD[workload]()


def job_key(argv):
    return " ".join(argv)


# --- seeded copies ---------------------------------------------------------

_NAME_CHARS = "0123456789abcdef"


def relabel(doc, rng, taken):
    """Copy of doc with fresh element names; returns (copy, new -> old map).

    A new name is a letter and five hex digits, at least one a digit, so it
    can never be read as a word of the program's output.
    """
    rename = {}
    for z in doc["elements"]:
        while True:
            new = rng.choice("ghjkmnpqrstuvwxyz") + "".join(rng.choice(_NAME_CHARS) for _ in range(5))
            if new not in taken and any(ch.isdigit() for ch in new):
                break
        taken.add(new)
        rename[z] = new
    covers = [[rename[a], rename[b]] for a, b in doc["covers"]]
    rng.shuffle(covers)
    copy = {
        "name": doc["name"],
        "elements": [rename[z] for z in doc["elements"]],
        "covers": covers,
        "bottom": rename[doc["bottom"]],
    }
    return copy, {new: old for old, new in rename.items()}


_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def canonical(text, back):
    """Output text with seeded element names mapped back to catalog names."""
    if not back:
        return text
    return _TOKEN.sub(lambda m: back.get(m.group(0), m.group(0)), text)


def seeded_inputs(workload, seed):
    """(documents, jobs, back): seeded document copies, job order, name map."""
    rng = random.Random(f"{workload}/{seed}")
    docs, jobs = catalog(workload)
    taken = set()
    back = {}
    copies = []
    for doc in docs:
        copy, names = relabel(doc, rng, taken)
        copies.append(copy)
        back.update(names)
    if workload == "session-mix":
        jobs = session_stream(seed)
    else:
        jobs = list(jobs)
        rng.shuffle(jobs)
    return copies, jobs, back
