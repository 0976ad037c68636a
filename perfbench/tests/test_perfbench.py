"""Fast checks of the benchmark itself: id-free digests, span self time, and
a tiny job list per workload run end to end, untraced and traced.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import canon  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text())


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    return workloads.setup("warm_cache", ROOT, tmp_path_factory.mktemp("work"))


def _engine(state, quiver, q):
    m = workloads.mods()
    iq = m["quivers"].validate_iquiver(state.iq[quiver])
    return m["hall"].IHallAlgebra(m["algebra"].iquiver_algebra(iq), q)


def _shuffled_classes(ctx, dims_list, seed):
    """Representatives of every iso class of the given dims, shuffled."""
    reps = [ctx.rep(mid) for dims in dims_list
            for mid in ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims)))]
    random.Random(seed).shuffle(reps)
    return reps


def test_hall_digest_ignores_interning_order(state):
    word = "2,1,3,2,1".split(",")
    plain = _engine(state, "a3tau", 2)
    plain_elem = plain.word_product(word)
    shuffled = _engine(state, "a3tau", 2)
    for rep in _shuffled_classes(_engine(state, "a3tau", 2).ctx,
                                 [(1, 1, 0), (0, 2, 1), (1, 1, 1)], 5):
        shuffled.ctx.intern(rep)
    shuffled_elem = shuffled.word_product(word)
    assert sorted(plain_elem.terms) != sorted(shuffled_elem.terms)   # ids moved
    assert (canon.digest(canon.element_output(plain, plain_elem, canon.Labels()))
            == canon.digest(canon.element_output(shuffled, shuffled_elem, canon.Labels())))


def test_enumerate_digest_ignores_interning_order(state):
    dims = (2, 1)
    plain = _engine(state, "a2split", 2).ctx
    mids = plain.enumerate_iso_classes({"1": 2, "2": 1})
    shuffled = type(plain)(plain.algebra, plain.p)
    for rep in _shuffled_classes(_engine(state, "a2split", 2).ctx, [(1, 1), (2, 1), (0, 2)], 9):
        shuffled.intern(rep)
    shuffled_mids = shuffled.enumerate_iso_classes({"1": 2, "2": 1})
    assert mids != shuffled_mids
    assert (canon.digest(canon.classes_output(plain, dims, mids, canon.Labels()))
            == canon.digest(canon.classes_output(shuffled, dims, shuffled_mids, canon.Labels())))


def test_self_time_on_nested_spans():
    spans = [("job", 0, 100, -1),
             ("outer", 10, 70, 0),
             ("inner", 20, 30, 1),
             ("inner", 40, 45, 1),
             ("leaf", 22, 28, 2),
             ("outer", 80, 90, 0)]
    assert tracing.self_times(spans) == [100 - 60 - 10, 60 - 10 - 5, 10 - 6, 5, 6, 10]
    calls, self_s = tracing.layer_totals(spans)
    assert calls["inner"] == 2 and self_s["outer"] == pytest.approx((45 + 10) / 1e9)


def test_tracer_wrappers_nest_and_uninstall():
    tr = tracing.Tracer()

    def leaf():
        return 1

    wrapped_leaf = tr.wrap("leaf", leaf)
    wrapped_outer = tr.wrap("outer", lambda: wrapped_leaf() + wrapped_leaf())
    assert wrapped_outer() == 2 and not tr.spans      # inactive: nothing recorded
    tr.active = True
    idx = tr.open("job")
    assert wrapped_outer() == 2
    tr.close(idx)
    names = [name for name, *_ in tr.span_tuples()]
    parents = [parent for *_, parent in tr.span_tuples()]
    assert names == ["job", "outer", "leaf", "leaf"] and parents == [-1, 0, 1, 1]
    assert all(t >= 0 for t in tracing.self_times(tr.span_tuples()))


def _tiny(jobs, n=2):
    """The ``n`` cheapest-looking jobs: products of few letters, small dims."""
    return sorted(jobs, key=lambda j: (len(j.key), j.key))[:n]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_job_list_end_to_end(tmp_path, workload):
    state = workloads.setup(workload, ROOT, tmp_path)
    jobs = _tiny(workloads.jobs(workload, 3, state))
    runner = run.Runner(REFERENCES)
    passes = runner.run_passes(jobs, seconds=0, max_passes=1)
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        runner.run_passes(jobs, seconds=0, tracer=tr, max_passes=1)
    finally:
        tracing.uninstall(undo)
    assert sum(passes[0]) > 0
    assert [r["status"] for r in runner.records] == ["ok"] * 4
    assert runner.records[0]["digest"] == runner.records[2]["digest"]
    metrics = tracing.layer_metrics(tr.span_tuples(), tr.counters)
    # sub-millisecond jobs spend a visible share in job set-up; full runs
    # are checked for 90% coverage, not this smoke test
    assert metrics["trace.layer_coverage"] > 0.5
    m = workloads.mods()
    assert not hasattr(m["linalg"].FpMatrix.__matmul__, "__wrapped__")
    assert not hasattr(m["hall"].iquiver_algebra, "__wrapped__")


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert run.tail([3.0, 1.0]) == (100.0, 3.0)
