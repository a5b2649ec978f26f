"""Regenerate references.json: exit code and output digest of every catalog job.

    python3 perfbench/make_references.py

Cold jobs run as ``python -m hibi`` on the catalog documents (catalog
element names); the session catalog runs once through session.py.  A job
that exits 4 (budget exceeded) is checked by exit code and message prefix
only, since its message carries a piece size that work-bounding budgets
will legitimately change.
"""

import json
import shutil
import sys

import run
import workloads


def reference(code, text):
    if code == 4:
        return {"exit": 4, "prefix": workloads.BUDGET_PREFIX}
    return {"exit": code, "sha256": run.digest(text)}


def main():
    env = run.child_env()
    run.check_checkout(env)
    work = run.HERE / "_work" / "references"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = {}
    try:
        for name in workloads.WORKLOADS:
            docs, jobs = workloads.catalog(name)
            paths = {}
            for doc in docs:
                path = work / f"{doc['name']}.json"
                path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
                paths["@" + doc["name"]] = str(path)
            argvs = [[paths.get(a, a) for a in job] for job in jobs]
            out, err = work / "stdout", work / "stderr"
            refs[name] = {}
            if name == "session-mix":
                stream, results = work / "stream.json", work / "results.json"
                stream.write_text(json.dumps(argvs), encoding="utf-8")
                argv = [sys.executable, str(run.HERE / "session.py"), str(stream), str(results)]
                _, _, code = run.spawn(argv, env, work, out, err, 600)
                if code != 0:
                    raise SystemExit(f"session catalog failed: {err.read_text()}")
                commands = json.loads(results.read_text())["commands"]
                outcomes = [(c, t) for _, c, t, _ in commands]
            else:
                outcomes = []
                for argv in argvs:
                    _, _, code = run.spawn([sys.executable, "-m", "hibi", *argv], env, work, out, err, 600)
                    text = out.read_text(encoding="utf-8")
                    outcomes.append((code, text[:-1] if text.endswith("\n") else text))
            for job, (code, text) in zip(jobs, outcomes):
                refs[name][workloads.job_key(job)] = reference(code, text)
            print(name, len(jobs), "jobs", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
