"""hibi benchmark: four seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload seq-scale --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: one job at a time from this
process.  A cold job spawns ``python -m hibi ...``; the warm workload runs
its whole command stream in one session process.  The job list is run in
passes until ``--seconds`` is used up; each job's latency is its median time
over the passes, each time scaled to a reference machine speed by the probe in
speed.py, timed right before and after the job.  With ``--trace 1`` the run
makes one untraced and one traced pass and reports per-layer metrics instead
(see NOTES.md).

Every job's exit code and output are checked against references.json.  The
last line of standard output is the result object; the line before it holds
the run's context, and perfbench/_work/results/ keeps per-job digests.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

JOB_WALL_CAP_S = 60.0  # per job (per pass for the session process)
JOB_MEMORY_CAP = 1 << 30  # address space, bytes
RUN_DEADLINE_S = 150.0  # no job starts later than this into the run
SETUP_REPEATS = 7  # at least; one more before every pass
TAIL_BEYOND = 10
TAIL_PASSES = 4
# The run and every child it starts stay on this CPU, so that the speed
# probes see what the jobs see (see speed.py).
BENCH_CPU = max(os.sched_getaffinity(0))

SETUP_CODE = (
    "import sys, hibi.cli\n"
    "from hibi.documents import parse_poset_document\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_poset_document(fh.read())\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def check_checkout(env):
    """Stop unless hibi imports from this checkout's src/."""
    if not (SRC / "hibi" / "__init__.py").is_file():
        raise BenchError(f"no hibi package under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import hibi; print(hibi.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import hibi: {probe.stderr.strip()}")
    found = Path(probe.stdout.strip()).resolve()
    if SRC.resolve() not in found.parents:
        raise BenchError(f"hibi resolves to {found}, not under {SRC}")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (JOB_MEMORY_CAP, JOB_MEMORY_CAP))


def spawn(argv, env, cwd, out_path, err_path, cap_s):
    """Run one child under the wall and memory caps.

    Returns (seconds, peak RSS in MB, exit code or None when killed at the
    wall cap).  Peak RSS comes from os.wait4 on this child alone.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=cwd, preexec_fn=_limit_memory
        )
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(max(cap_s, 0.0), kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        with lock:
            state["reaped"] = True
        seconds = time.perf_counter() - start
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if state["killed"] else proc.returncode
    return seconds, usage.ru_maxrss / 1024, code


def capped(code, err_path):
    """Whether a child hit its wall cap (killed) or its memory cap."""
    return code is None or b"MemoryError" in err_path.read_bytes()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict(ref, code, text, back):
    """(ok, sha256 of the output as printed, sha256 in catalog names)."""
    raw = digest(text)
    canon = digest(workloads.canonical(text, back))
    if ref is None or code != ref["exit"]:
        return False, raw, canon
    if "prefix" in ref:
        return text.startswith(ref["prefix"]), raw, canon
    return canon == ref["sha256"], raw, canon


class Run:
    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.env = child_env()
        self.work = HERE / "_work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
        self.start = time.perf_counter()
        self.probes = []
        self.setups = []
        with open(REFERENCES, encoding="utf-8") as fh:
            self.refs = json.load(fh)[workload]
        docs, self.jobs, self.back = workloads.seeded_inputs(workload, seed)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.doc_paths = {}
        for doc in docs:
            path = self.work / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            self.doc_paths["@" + doc["name"]] = str(path)

    def argv(self, job):
        return [self.doc_paths.get(a, a) for a in job]

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def cap(self):
        return min(JOB_WALL_CAP_S, self.remaining())

    def record(self, job, seconds, rss, code, text, status=None, scale=1.0):
        key = workloads.job_key(job)
        if status is None:
            ok, raw, canon = verdict(self.refs.get(key), code, text, self.back)
            status = "ok" if ok else "wrong"
        else:
            raw = canon = None
        return {"job": key, "seconds": seconds, "scale": scale, "rss_mb": rss, "exit": code,
                "status": status, "sha256": raw, "canonical_sha256": canon}

    def probe(self):
        self.probes.append(speed.probe())
        return self.probes[-1]

    def cold_pass(self, traced):
        out, err = self.work / "stdout", self.work / "stderr"
        span_path = self.work / "spans.json"
        records, trace_spans = [], []
        before = self.probe()
        for job in self.jobs:
            if self.remaining() <= 0:
                records.append(self.record(job, 0.0, 0.0, None, "", "skipped"))
                continue
            if traced:
                argv = [sys.executable, str(HERE / "spans.py"), str(span_path)]
            else:
                argv = [sys.executable, "-m", "hibi"]
            seconds, rss, code = spawn(argv + self.argv(job), self.env, self.work, out, err, self.cap())
            after = self.probe()
            status = "exceeded" if capped(code, err) else None
            text = out.read_bytes().decode("utf-8", "replace")
            if text.endswith("\n"):
                text = text[:-1]
            records.append(self.record(job, seconds, rss, code, text, status,
                                       speed.scale(before, after)))
            before = after
            if traced and code is not None:
                job_spans = json.loads(span_path.read_text(encoding="utf-8"))
                offset = len(trace_spans)
                for s in job_spans:
                    s[spans.JOB] = len(records) - 1
                    if s[spans.PARENT] >= 0:
                        s[spans.PARENT] += offset
                trace_spans += job_spans
        return records, trace_spans

    def session_pass(self, traced):
        stream_path = self.work / "stream.json"
        results_path = self.work / "session-results.json"
        span_path = self.work / "spans.json"
        stream_path.write_text(json.dumps([self.argv(j) for j in self.jobs]), encoding="utf-8")
        argv = [sys.executable, str(HERE / "session.py"), str(stream_path), str(results_path)]
        if traced:
            argv.append(str(span_path))
        if self.remaining() <= 0:
            return [self.record(j, 0.0, 0.0, None, "", "skipped") for j in self.jobs], []
        err = self.work / "stderr"
        _, rss, code = spawn(argv, self.env, self.work, self.work / "stdout", err, self.cap())
        if code != 0:
            status = "exceeded" if capped(code, err) else "crashed"
            return [self.record(j, 0.0, rss, code, "", status) for j in self.jobs], []
        results = json.loads(results_path.read_text(encoding="utf-8"))
        self.probes += results["probes"]
        records = [self.record(j, s, rss, c, t, None, f)
                   for j, (s, c, t, f) in zip(self.jobs, results["commands"])]
        trace_spans = json.loads(span_path.read_text(encoding="utf-8")) if traced else []
        return records, trace_spans

    def one_pass(self, traced):
        if self.workload == "session-mix":
            return self.session_pass(traced)
        return self.cold_pass(traced)

    def timed(self, argv, what):
        seconds, _, code = spawn(argv, self.env, self.work, self.work / "stdout",
                                 self.work / "stderr", self.cap())
        if code != 0:
            raise BenchError(f"{what} failed: "
                             + (self.work / "stderr").read_text(errors="replace"))
        return seconds

    def setup(self):
        """Time a fresh interpreter that imports hibi.cli and parses the documents."""
        argv = [sys.executable, "-c", SETUP_CODE, *self.doc_paths.values()]
        before = self.probe()
        seconds = self.timed(argv, "set-up probe")
        self.setups.append(seconds * speed.scale(before, self.probe()))


def weighted_percentile(times, percentile):
    """Percentile over every run of every job, each job weighing the same.

    A job's runs share its weight, so the result does not depend on how
    many passes the run managed.
    """
    runs = sorted((t, 1 / len(column)) for column in times for t in column)
    target = len(times) * percentile / 100
    seen = 0.0
    for t, weight in runs:
        seen += weight
        if seen >= target - 1e-9:
            return t
    return runs[-1][0]


def latency_summary(passes, scaled=True):
    """wall_s: the sum of each job's median time over the passes.

    job_p50_s and job_tail_s are weighted percentiles over every job run.
    The tail percentile is the highest whole one (at most 99) that leaves
    TAIL_BEYOND runs beyond it in TAIL_PASSES passes, so it is fixed per
    workload: p90 for 25 jobs, p77 for 11, p99 for the 540-command session.
    """
    times = [[r["seconds"] * (r["scale"] if scaled else 1.0) for r in column]
             for column in zip(*passes)]
    tail_percentile = min(99, math.floor(100 * (1 - TAIL_BEYOND / (TAIL_PASSES * len(times)))))
    return {
        "wall_s": sum(statistics.median(column) for column in times),
        "job_p50_s": weighted_percentile(times, 50),
        "job_tail_s": weighted_percentile(times, tail_percentile),
        "tail_percentile": tail_percentile,
        "samples": sum(len(column) for column in times),
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return probe.stdout.strip() or None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "hibi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(workload, seed, seconds, trace):
    check_checkout(child_env())
    os.sched_setaffinity(0, {BENCH_CPU})
    r = Run(workload, seed, trace)
    try:
        r.setup()
        if trace:
            untraced, _ = r.one_pass(False)
            traced, trace_spans = r.one_pass(True)
            passes = [untraced, traced]
        else:
            passes, longest = [], 0.0
            measure_start = time.perf_counter()
            while not passes or time.perf_counter() - measure_start + longest <= seconds:
                pass_start = time.perf_counter()
                r.setup()
                passes.append(r.one_pass(False)[0])
                longest = max(longest, time.perf_counter() - pass_start)
                if r.remaining() <= 0:
                    break
        while len(r.setups) < SETUP_REPEATS:
            r.setup()
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    pass_walls = [sum(x["seconds"] for x in p) for p in passes]
    attempted = sum(len(p) for p in passes)
    failed = sum(x["status"] != "ok" for p in passes for x in p)
    summary = latency_summary(passes[:1] if trace else passes)
    unscaled = latency_summary(passes[:1] if trace else passes, scaled=False)
    setup_s = statistics.median(r.setups)
    peak_rss = max(x["rss_mb"] for p in passes for x in p)
    if trace:
        metrics = spans.layer_metrics(trace_spans)
        scaled = [sum(x["seconds"] * x["scale"] for x in p) for p in passes]
        metrics["trace.overhead_s"] = (scaled[1] - scaled[0], "s")
    else:
        metrics = {
            "wall_s": (summary["wall_s"], "s"),
            "job_p50_s": (summary["job_p50_s"], "s"),
            "job_tail_s": (summary["job_tail_s"], "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_s": (setup_s, "s"),
        }
    context = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "samples": summary["samples"],
        "tail_percentile": summary["tail_percentile"],
        "failed_frac": failed / attempted if attempted else 1.0,
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "cpu": BENCH_CPU,
        "probe_median_s": statistics.median(r.probes),
        "probe_samples": len(r.probes),
        "probe_reference_s": speed.REFERENCE_S,
        "unscaled_s": {k: unscaled[k] for k in ("wall_s", "job_p50_s", "job_tail_s")},
    }
    results_dir = HERE / "_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    report = dict(context, metrics={k: v[0] for k, v in metrics.items()},
                  probes=r.probes, setups=r.setups, jobs=passes)
    name = f"{workload}-seed{seed}-trace{trace}-{int(time.time())}-{os.getpid()}.json"
    (results_dir / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"context": context}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
