"""One benchmark process: start cold, do one job, write a JSON result.

Usage: python3 bench/child.py SPEC.json

The spec names the job: ``prepare`` (make a workload's inputs),
``call`` or ``traced`` (one timed ``spdcmet`` CLI call, the latter with
spans around every layer), or ``probe`` (direct layer timings).
``ready`` in the result is the monotonic clock just before the timed
call, which the parent compares with the time it spawned this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    import workloads
    from spdcmet import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"spdcmet imported from {cli.__file__}, not from {src}")
    job, work = spec["job"], Path(spec["work"])
    result = {}
    if job == "prepare":
        result["ready"] = time.perf_counter()
        result["prepared"] = workloads.WORKLOADS[spec["workload"]].prepare(spec["seed"], work)
        result["prepare_s"] = time.perf_counter() - result["ready"]
    elif job == "probe":
        import probes
        result["probes"] = probes.run()
    else:
        workload = workloads.WORKLOADS[spec["workload"]]
        prepared = json.loads(Path(spec["prepared"]).read_text())
        out = Path(spec["out"])

        def timed_call():
            return cli.main(workload.call(prepared, work, out))

        recorder = None
        if job == "traced":
            import spans
            recorder = spans.SpanRecorder()
            result["absent"] = spans.install(recorder)
            timed_call = recorder.wrap("bench.call", timed_call)
        result["ready"] = time.perf_counter()
        result["rc"] = timed_call()
        result["wall_s"] = time.perf_counter() - result["ready"]
        if recorder is not None:
            Path(spec["spans"]).write_text(json.dumps(recorder.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
