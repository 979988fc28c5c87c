"""One ``dagranger run`` plus ``dagranger eval``, in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names the package source directory, both argument lists, whether to
trace, and where to write the result. The run is timed around
``dagranger.cli.main`` only, so interpreter start and imports are outside it;
peak RSS is read before the eval, from this process alone.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from dagranger import cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)

    start = time.perf_counter()
    if tracer is None:
        exit_code = cli.main(job["run_argv"])
    else:
        exit_code = tracer.run_span(cli.main, job["run_argv"])
    wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    eval_code = cli.main(job["eval_argv"]) if exit_code == 0 else None
    result = {
        "exit_code": exit_code,
        "eval_exit_code": eval_code,
        "wall_s": wall_s,
        "peak_rss_kb": peak_rss_kb,
        "trace": tracer.export() if tracer is not None else None,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
