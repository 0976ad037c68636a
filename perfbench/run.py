"""iqhall benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload hall_word --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports ``src/iqhall`` and reads
``scripts/quivers``).  Workloads: hall_word, enumerate, suites, warm_cache
(see perfbench/README.md).  Every job's output is reduced to an id-free
canonical form and its sha256 compared with ``perfbench/references.json``.

Untraced (``--trace 0``) it prints the end-to-end metrics; traced
(``--trace 1``) it runs the job list once untraced and once with every
layer wrapped, and prints the per-layer metrics.  The line before the
result is a stamp with the run's provenance and failure accounting; the
full record, and the spans of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import canon
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = {"hall_word": 10, "enumerate": 10, "suites": 10, "warm_cache": 3}
TAIL_BEYOND = 10


def tail(samples):
    """(percentile, value) of the highest order statistic with at least
    ``TAIL_BEYOND`` samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def git_sha():
    """HEAD of the enclosing git checkout, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "iqhall").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs jobs, checks digests and keeps per-job records."""

    def __init__(self, references):
        self.references = references
        self.labels = canon.Labels()
        self.records = []

    def run(self, job, tracer=None):
        """Time one job; returns its duration in seconds."""
        record = {"key": job.key}
        gc.collect()   # each job starts, like a fresh ``iq`` process, with no garbage
        if tracer:
            tracer.active = True
            idx = tracer.open(tracing.JOB)
        start = time.perf_counter()
        try:
            finish = job.run()
        except Exception as err:  # every failure is counted, by kind
            finish = None
            frame = traceback.extract_tb(err.__traceback__)[-1]
            record["error"] = type(err).__name__
            record["message"] = str(err)[:200]
            record["raised_at"] = f"{Path(frame.filename).name}:{frame.lineno}"
        finally:
            record["seconds"] = time.perf_counter() - start
            if tracer:
                tracer.close(idx)
                tracer.active = False
        if finish is not None:
            record["digest"] = canon.digest(finish(self.labels))
            want = self.references.get(job.key)
            record["status"] = ("new" if want is None else
                                "ok" if want == record["digest"] else "mismatch")
        else:
            record["status"] = "error"
        self.records.append(record)
        return record

    def run_passes(self, jobs, seconds, tracer=None, max_passes=None):
        """Run the job list in passes while another pass fits in ``seconds``;
        returns the job times of each pass."""
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append([self.run(job, tracer)["seconds"] for job in jobs])
            elapsed = time.perf_counter() - begin
            if len(passes) == max_passes or elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "iqhall" / "__init__.py").is_file() or \
            not (ROOT / "scripts" / "quivers").is_dir():
        print(f"run from a source tree: {ROOT} has no src/iqhall or scripts/quivers",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    references = json.loads((HERE / "references.json").read_text())
    work = OUT / f"work-{os.getpid()}"
    try:
        setup_samples = []
        for rep in range(SETUP_REPS[args.workload]):
            shutil.rmtree(work, ignore_errors=True)
            gc.collect()
            start = time.perf_counter()
            state = workloads.setup(args.workload, ROOT, work)
            setup_samples.append(time.perf_counter() - start)
        gc.collect()
        gc.freeze()   # what set-up built lives on; the collections before jobs skip it
        runner = Runner(references)
        frontier = workloads.enumerate_frontier(state)
        defects = {}
        if args.workload == "hall_word":
            probe = Runner(references)
            for spec in workloads.KNOWN_DEFECTS:
                probe.run(workloads.hall_job(state, *spec))
            defects = {r["key"]: r.get("error", r["status"]) for r in probe.records}
        jobs = workloads.jobs(args.workload, args.seed, state)

        if args.trace:
            passes = runner.run_passes(jobs, args.seconds, max_passes=1)
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                traced = runner.run_passes(jobs, args.seconds, tracer, max_passes=1)
            finally:
                tracing.uninstall(undo)
        else:
            passes = runner.run_passes(jobs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if r["status"] in ("error", "mismatch")]
    walls = [sum(times) for times in passes]
    errors_by_kind = {}
    for r in failed:
        kind = r.get("error", "DigestMismatch")
        errors_by_kind[kind] = errors_by_kind.get(kind, 0) + 1
    known_failed = sum(1 for v in defects.values() if v not in ("new", "ok"))
    tails = [tail(times) for times in passes]
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_samples_s": setup_samples, "passes": len(walls), "pass_walls_s": walls,
        "jobs_per_pass": len(jobs), "job_tail_percentile": tails[0][0],
        "job_p50_s": statistics.median(map(statistics.median, passes)),
        "job_tail_s": statistics.median(value for _, value in tails),
        "errors_by_kind": errors_by_kind,
        "newly_passing": sorted({r["key"] for r in records if r["status"] == "new"}),
        "known_defects": defects,
        "failed_ratio": (len(failed) + known_failed) / (len(records) + len(defects)),
        "enumerate_frontier": frontier,
    }
    if args.trace:
        spans = tracer.span_tuples()
        layer = tracing.layer_metrics(spans, tracer.counters)
        layer["trace.overhead"] = sum(traced[0]) / walls[0]
        layer["modules.enumerate_frontier"] = frontier
        layer["jobs.failed_ratio"] = stamp["failed_ratio"]
        layer["jobs.known_defect_failures"] = known_failed
        stamp["trace_overhead"] = layer["trace.overhead"]
        stamp["layer_inclusive_s"] = tracing.inclusive_totals(spans)
        spans_file = OUT / f"spans-{args.workload}"
        tracer.write(spans_file)
        stamp["spans_file"] = str(spans_file.relative_to(ROOT)) + ".{json,bin}"
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps({"stamp": stamp, "result": result, "jobs": records},
                                      indent=1, sort_keys=True))
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
