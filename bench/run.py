"""spdcmet benchmark: cold CLI calls on seeded workloads, checked and timed.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed call is a fresh ``python3 bench/child.py`` process, one at a
time (a closed loop with a single client), because every ``spdcmet``
invocation starts cold for its user.  Calls repeat until ``--seconds``
have passed.  Each call's output is checked; a nonzero exit or a failed
check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls, then runs the direct layer probes, and
reports the per-layer metrics.  The last line of
stdout is one JSON object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
MIN_CALLS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("wall_s", "s"), ("records_per_s", "records/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
COUNTERS = ("fock.matrix_builds", "detectors.table_builds", "engine.family_evals",
            "engine.tensor_evals", "engine.sector_evals", "estimation.fisher_points",
            "estimation.fringe_fits", "heralding.points")
PROBES = ("fock.matrix_s_n5", "fock.matrix_s_n12", "fock.matrix_s_n46",
          "engine.family_eval_s", "estimation.ml_rep_s")
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    **{name: "count" for name in COUNTERS},
    **{name: "s" for name in PROBES},
    "estimation.clipped_fraction": "fraction",
    "timetags.parse_records_per_s": "records/s",
    "timetags.count_records_per_s": "records/s",
    "timetags.generate_s": "s",
    "timetags.serialize_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Runner:
    """Spawns benchmark processes one at a time inside a scratch directory."""

    def __init__(self, work, workload, seed, started):
        self.work, self.workload, self.seed = work, workload, seed
        self.deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work),
                        PYTHONHASHSEED="0",
                        **{var: "1" for var in THREAD_VARS})
        self.spawned = 0

    def spawn(self, job, **extra):
        """Run one child to completion; return (result or None, spawn time)."""
        self.spawned += 1
        tag = f"{job}-{self.spawned}"
        spec = {"job": job, "workload": self.workload.name, "seed": self.seed,
                "src": str(SRC), "work": str(self.work),
                "result": str(self.work / f"{tag}.result.json"), **extra}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        spawned = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(spec_path)],
                                  cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(self.deadline - spawned, 1.0))
        except subprocess.TimeoutExpired:
            print(f"{tag}: timed out", file=sys.stderr)
            return None, spawned
        if proc.returncode != 0:
            print(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None, spawned
        return json.loads(Path(spec["result"]).read_text()), spawned

    def calls(self, jobs, prepared_path, prepared, seconds):
        """Timed calls, cycling through ``jobs``, until ``seconds`` pass and
        each job ran MIN_CALLS times; one dict per call.  Alternating the
        traced and untraced jobs keeps drifts in machine speed out of the
        tracing overhead."""
        out = []
        start = time.perf_counter()
        while (len(out) < MIN_CALLS * len(jobs)
               or time.perf_counter() - start < seconds):
            if time.perf_counter() > self.deadline:
                break
            n = len(out)
            job = jobs[n % len(jobs)]
            output = self.work / f"out-{n}.json"
            trace_path = self.work / f"spans-{n}.json"
            result, spawned = self.spawn(job, prepared=str(prepared_path),
                                         out=str(output), spans=str(trace_path))
            call = {"job": job, "ok": False, "problems": []}
            if result is None:
                call["problems"].append("workload process failed")
            elif result["rc"] != 0:
                call["problems"].append(f"spdcmet exited with {result['rc']}")
            else:
                call.update(wall_s=result["wall_s"], setup_s=result["ready"] - spawned,
                            peak_rss_mb=result["peak_rss_mb"])
                text = output.read_text()
                call["problems"] = workloads.check_output(self.workload, text, prepared)
                call["ok"] = not call["problems"]
                if call["ok"]:
                    call["notes"] = self.workload.notes(json.loads(text))
                if job == "traced":
                    call["absent"] = result["absent"]
                    call["trace"] = spans.summarize(json.loads(trace_path.read_text()))
                    trace_path.unlink()
                output.unlink()
            out.append(call)
        return out


def tail_percentile(n):
    """Highest reported percentile that has at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if round(n * (100.0 - p) / 100.0, 6) >= 10.0:
            return p
    return None


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered))) - 1))]


def end_to_end_metrics(calls, prep, records):
    """Medians over the completed calls.  ``setup_s`` is the one-off input
    preparation plus the median start-up (interpreter and imports up to
    the timed call) over every process of the run, the preparing one too."""
    timed = [c for c in calls if "wall_s" in c]
    wall = median(c["wall_s"] for c in timed)
    startup = median([prep["setup_s"]] + [c["setup_s"] for c in timed])
    return {
        "wall_s": wall,
        "records_per_s": records / wall,
        "setup_s": prep["prepare_s"] + startup,
        "peak_rss_mb": median(c["peak_rss_mb"] for c in timed),
    }


def per_layer_metrics(untraced, traced, probes):
    traces = [c["trace"] for c in traced if "trace" in c]

    def per_call(fn):
        return median(fn(t) for t in traces)

    def rate(key):
        return lambda t: (t["amounts"][key] / t["inclusive_s"][key]
                          if t["inclusive_s"].get(key) else 0.0)

    metrics = {f"{layer}.self_s": per_call(lambda t, layer=layer: t["self_s"][layer])
               for layer in spans.LAYERS}
    metrics.update({name: per_call(lambda t, name=name: t["counts"].get(name, 0))
                    for name in COUNTERS})
    metrics.update(probes)
    metrics["estimation.clipped_fraction"] = per_call(
        lambda t: (t["amounts"].get("estimation.fisher_points", 0)
                   / t["counts"]["estimation.fisher_points"]
                   if t["counts"].get("estimation.fisher_points") else 0.0))
    metrics["timetags.parse_records_per_s"] = per_call(rate("timetags.parse"))
    metrics["timetags.count_records_per_s"] = per_call(rate("timetags.count"))
    metrics["timetags.generate_s"] = per_call(
        lambda t: t["inclusive_s"].get("timetags.generate", 0.0))
    metrics["timetags.serialize_s"] = per_call(
        lambda t: t["inclusive_s"].get("timetags.serialize", 0.0))
    metrics["trace.overhead_ratio"] = (
        median(c["wall_s"] for c in traced if "wall_s" in c)
        / median(c["wall_s"] for c in untraced if "wall_s" in c))
    return metrics


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report_header(args, numpy_version):
    print(f"spdcmet benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: python {platform.python_version()}, numpy {numpy_version}, "
          f"nproc {os.cpu_count()}, cpu {cpu_model()}; BLAS/OpenMP threads pinned to 1; "
          f"one workload process at a time")


def report_calls(calls, metrics, units):
    timed = [c["wall_s"] for c in calls if "wall_s" in c and c["job"] == "call"]
    failed = sum(not c["ok"] for c in calls)
    p = tail_percentile(len(timed))
    tail = (f"p{p:g} {nearest_rank(timed, p):.4f} s" if p and p > 50.0 else
            "no percentile above the median has 10 calls beyond it")
    print(f"calls: {len(calls)} attempted, {failed} failed, "
          f"error_rate {failed / len(calls):.4f}")
    if timed:
        print(f"wall_s: median over {len(timed)} untraced calls; {tail}; per call: "
              + " ".join(f"{w:.3f}" for w in timed))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    seen = set()
    for c in calls:
        for line in c["problems"] + c.get("notes", []):
            if line not in seen:
                seen.add(line)
                print(f"  {'FAILED' if line in c['problems'] else 'note'}: {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    if not (SRC / "spdcmet" / "cli.py").is_file():
        print(f"error: no spdcmet sources under {SRC}", file=sys.stderr)
        return 2
    import numpy

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, workload, args.seed, started)
        report_header(args, numpy.__version__)
        result, spawned = runner.spawn("prepare")
        if result is None:
            print("error: input preparation failed", file=sys.stderr)
            return 1
        prep = {"setup_s": result["ready"] - spawned, "prepare_s": result["prepare_s"]}
        prepared = result["prepared"]
        prepared_path = work / "prepared.json"
        prepared_path.write_text(json.dumps(prepared))
        records = workload.records(prepared)

        if args.trace:
            calls = runner.calls(("call", "traced"), prepared_path, prepared, args.seconds)
            untraced = [c for c in calls if c["job"] == "call"]
            traced = [c for c in calls if c["job"] == "traced"]
            probed, _ = runner.spawn("probe")
            if probed is None or not any("trace" in c for c in traced):
                print("error: traced run produced no trace", file=sys.stderr)
                return 1
            metrics = per_layer_metrics(untraced, traced, probed["probes"])
            absent = sorted({name for c in traced for name in c.get("absent", [])})
            print(f"trace: {len(traced)} traced calls; absent: {', '.join(absent) or 'none'}")
            units = PER_LAYER_UNITS
        else:
            calls = runner.calls(("call",), prepared_path, prepared, args.seconds)
            if not any("wall_s" in c for c in calls):
                print("error: no call completed", file=sys.stderr)
                return 1
            metrics = end_to_end_metrics(calls, prep, records)
            units = dict(END_TO_END)
        report_calls(calls, metrics, units)
        failed = sum(not c["ok"] for c in calls)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(calls),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
