"""Recompute perfbench/references.json: the digest of every job any seed
can draw.  Run it only on a tree whose answers are trusted; a job that
raises gets no reference and is listed on stderr.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import canon  # noqa: E402
import workloads  # noqa: E402


def all_jobs(state):
    specs = [(n, q, w) for (n, q), words in sorted(workloads.WORD_POOLS.items())
             for w in words]
    specs += workloads.TARGETS
    out = [workloads.hall_job(state, *spec) for spec in dict.fromkeys(specs)]
    out += [workloads.enumerate_job(state, *spec) for spec in workloads.enumerate_specs()]
    return out + workloads.suite_jobs(state)


def main():
    work = HERE / "out" / "references-work"
    state = workloads.setup("hall_word", ROOT, work)
    refs = {}
    labels = canon.Labels()
    try:
        for job in all_jobs(state):
            try:
                refs[job.key] = canon.digest(job.run()(labels))
            except Exception as err:  # no reference for a failing job
                print(f"{job.key}: {type(err).__name__}: {err}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} references written")


if __name__ == "__main__":
    main()
