"""Every benchmark catalog job still prints its committed reference output.

The four catalogs of perfbench/workloads.py run here in process, through
run_command, on their catalog documents.  A job must give the exit code
and the SHA-256 of the output recorded in perfbench/references.json; a
budget rejection (exit 4) is checked by exit code and message prefix, as
the benchmark checks it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from hibi.cli import run_command

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_jobs_match_their_references(tmp_path):
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
    checked, wrong = 0, []
    for name in workloads.WORKLOADS:
        docs, jobs = workloads.catalog(name)
        paths = {}
        for doc in docs:
            path = tmp_path / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            paths["@" + doc["name"]] = str(path)
        for job in jobs:
            ref = refs[name][workloads.job_key(job)]
            code, text = run_command([paths.get(a, a) for a in job])
            if code == 4:
                got = {"exit": 4, "prefix": workloads.BUDGET_PREFIX}
                ok = text.startswith(workloads.BUDGET_PREFIX)
            else:
                got = {"exit": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
                ok = True
            if not ok or got != ref:
                wrong.append((name, workloads.job_key(job), code, text[:200]))
            checked += 1
    assert wrong == []
    assert checked == sum(len(jobs) for jobs in refs.values()) == 357
