"""Warm session: run a stream of hibi command lines in one process.

    python perfbench/session.py STREAM.json RESULTS.json [SPANS.json]

STREAM.json is a list of argv lists.  Each command is one
``hibi.cli.run_command(argv)`` call.  The speed probe of speed.py is timed
before the first command and after every PROBE_EVERY commands.
RESULTS.json receives the probe times and, per command, its latency in
seconds, exit code, report text and the speed scale of its stretch of
commands.  With SPANS.json the package is traced and the spans are written
there, one job per command.
"""

import json
import sys
import time

import speed

PROBE_EVERY = 20


def main(argv):
    stream_path, results_path = argv[:2]
    tracer = None
    if len(argv) > 2:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from hibi.cli import run_command

    with open(stream_path, encoding="utf-8") as fh:
        stream = json.load(fh)
    results, probes = [], [speed.probe()]
    for first in range(0, len(stream), PROBE_EVERY):
        stretch = []
        for job in range(first, min(first + PROBE_EVERY, len(stream))):
            if tracer is not None:
                tracer.job = job
            start = time.perf_counter()
            code, text = run_command(stream[job])
            stretch.append((time.perf_counter() - start, code, text))
        probes.append(speed.probe())
        factor = speed.scale(probes[-2], probes[-1])
        results += [(seconds, code, text, factor) for seconds, code, text in stretch]
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"probes": probes, "commands": results}, fh)
    if tracer is not None:
        tracer.dump(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
