"""The four workloads: their set-up, job lists and probes.

Each job models one ``iq`` invocation: a fresh engine or ModuleContext and
one operation.  ``Job.run`` performs the timed part and returns a function
that builds the job's canonical output afterwards, outside the timing, from
a ``canon.Labels``.
Calls go through module attributes (``hall.IHallAlgebra``,
``cache.save_engine``, ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

import canon

WORKLOADS = ("hall_word", "enumerate", "suites", "warm_cache")
QUIVERS = ("a1", "a2split", "a3split", "a3tau", "d4split", "swap")
LAYERS = ("algebra", "cache", "dynkin", "errors", "hall", "linalg", "modules",
          "quivers", "scalars", "verify")

# Words per (quiver, q); the seed draws from each pool.  Words in one pool
# cost about the same, so that runs with different seeds do the same work.
WORD_POOLS: Dict[tuple, List[str]] = {
    ("a1", 2): ["1,1,1", "1,1,1,1", "1,1,1,1,1"],
    ("a1", 3): ["1,1,1", "1,1,1,1"],
    ("a1", 5): ["1,1,1"],
    ("a2split", 2): ["1,2,2,1", "2,2,1,2", "1,2,1,1", "2,2,2,1,1", "2,1,1,2", "1,1,1,2"],
    ("a2split", 3): ["1,1,2,2", "2,2,1,2", "2,1,2,2"],
    ("a2split", 5): ["1,1,1", "2,2,2", "2,1,1,1", "2,2,2,1,1"],
    ("a3split", 2): ["1,2,2,1", "3,3,3,2,1", "1,1,1,3", "3,3,1,3,2", "2,1,1,1", "3,2,2,2"],
    ("a3split", 3): ["3,2,2,2,1", "1,3,3,2,2", "2,2,2,1,1", "1,3,3,3,2", "1,2,2,3", "3,1,3,3"],
    ("a3split", 5): ["2,2,2", "2,3,1,3", "1,2,2,3", "3,3,3,1"],
    ("a3tau", 2): ["2,2,1,1,3", "1,2,3,1,1", "2,2,2,3,3", "3,1,3,1,3", "3,3,3,2,3", "3,3,3,1,3"],
    ("a3tau", 3): ["3,3,2,1,1", "2,3,2,3,1", "1,3,3,2,3", "1,2,1,3,3", "1,3,1,2,1", "2,1,2,1,3"],
    ("a3tau", 5): ["2,2,2,1,3", "1,3,3,2", "2,2,2", "2,2,2,1,1"],
    ("d4split", 2): ["0,3,1,3,1", "0,3,3,3", "3,0,3,1,2", "3,0,2,1,1", "1,2,3,1,2", "0,3,1,0"],
    ("d4split", 3): ["1,2,3,1,1", "1,2,3,3,3", "3,1,1,2,1", "3,1,3,3,1", "0,2,1,2,2", "0,2,2,3,2"],
    ("d4split", 5): ["2,1,1,0", "1,2,1,0", "1,3,1,0", "2,1,2,0"],
    ("swap", 2): ["1,1,1,2,1", "2,2,1,1,2", "1,2,1,2,2", "2,1,1,2,2", "1,2,2,1,1", "2,1,1,2,1"],
    ("swap", 3): ["1,2,1,1,2", "2,1,1,1,2", "2,2,1,2,1", "1,1,2,1,2", "2,1,2,2,1", "1,2,2,2,1"],
    ("swap", 5): ["1,1,1,2,1", "2,2,2,1", "2,2,2,1,2", "1,1,1,2"],
}
# words hall_word draws from each pool, by q
HALL_DRAWS = {2: 3, 3: 3, 5: 1}
# the product whose q=7 cost dominates ``hall generic``, and its q=5 match
TARGETS = [("a3tau", 5, "2,1,3,2,1"), ("a3tau", 7, "2,1,3,2,1")]
KNOWN_DEFECTS = [("a3split", 2, "1,2,3,2"), ("a3split", 3, "1,2,3,2")]
FRONTIER = [("a2split", 2, (2, 3)), ("a2split", 3, (2, 2))]
WARM_Q5 = TARGETS[0]
WARM_ENUM_SLOT = ("a2split", 2)
WARM_ENUM_TOTAL = 3
# times each job appears in a pass, so that a pass is long enough to be steady
ROUNDS = {"hall_word": 1, "enumerate": 1, "suites": 2, "warm_cache": 30}


@dataclass
class Job:
    key: str
    run: Callable[[], Callable[[canon.Labels], object]]


@dataclass
class State:
    """What set-up leaves behind for the jobs."""
    iq: dict
    work: Path
    cache_dirs: dict


def load_layers():
    """(Re-)import every iqhall layer, as a fresh ``iq`` process would."""
    for name in [n for n in sys.modules if n == "iqhall" or n.startswith("iqhall.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"iqhall.{name}") for name in LAYERS}


def mods():
    return {name: sys.modules[f"iqhall.{name}"] for name in LAYERS}


def dims_vectors(n, total):
    """Nonzero dimension vectors with entries summing to at most ``total``."""
    return [d for d in itertools.product(range(total + 1), repeat=n) if 0 < sum(d) <= total]


# -- jobs ---------------------------------------------------------------------------


def hall_job(state, quiver, q, word, cache_dir=None, warm=False):
    """A word product of simples; cold into ``cache_dir`` (a fresh one per
    job when None), or warm: load, multiply, save."""
    m = mods()

    def run():
        target = cache_dir or Path(tempfile.mkdtemp(dir=state.work, prefix="cold-"))
        engine = m["hall"].IHallAlgebra(
            m["algebra"].iquiver_algebra(m["quivers"].validate_iquiver(state.iq[quiver])), q)
        if warm:
            m["cache"].load_engine(engine, target)
        elem = engine.word_product(word.split(","))
        m["cache"].save_engine(engine, target)

        def finish(labels):
            if cache_dir is None:
                shutil.rmtree(target, ignore_errors=True)
            return canon.element_output(engine, elem, labels)
        return finish
    return Job(f"hall/{quiver}/q{q}/{word}", run)


def enumerate_job(state, quiver, q, dims):
    m = mods()

    def run():
        alg = m["algebra"].iquiver_algebra(m["quivers"].validate_iquiver(state.iq[quiver]))
        ctx = m["modules"].ModuleContext(alg, q)
        mids = ctx.enumerate_iso_classes(dict(zip(alg.vertices, dims)))
        return lambda labels: canon.classes_output(ctx, dims, mids, labels)
    return Job(f"enumerate/{quiver}/q{q}/{','.join(map(str, dims))}", run)


def suite_job(key, call, wrap=canon.report_output):
    def run():
        result = call()
        return lambda labels: wrap(result)
    return Job(f"suites/{key}", run)


def suite_jobs(state):
    m = mods()
    v, d, h = m["verify"], m["dynkin"], m["hall"]
    QSqrt = m["scalars"].QSqrt

    def iq(name):
        return m["quivers"].validate_iquiver(state.iq[name])

    jobs = [suite_job(f"rank2/q{q}", lambda q=q: v.rank2_identities(q)) for q in (2, 3, 5)]
    jobs += [suite_job(f"serre/{n}/q{q}", lambda n=n, q=q: v.serre_suite(iq(n), q))
             for n in QUIVERS for q in (2, 3)]
    jobs += [suite_job(f"bridgeland/{n}/q2", lambda n=n: v.bridgeland_suite(iq(n), 2))
             for n in ("a1", "a2split")]
    jobs += [suite_job(f"euler/{n}/q2", lambda n=n: v.euler_central_suite(iq(n), 2, sample_size=50))
             for n in ("a2split", "a3tau", "swap")]
    jobs.append(suite_job("reduced/a2split/q2/1=1,2=3/2", lambda: v.reduced_suite(
        iq("a2split"), 2, sigma={"1": QSqrt.of(1, 2), "2": QSqrt.of(Fraction(3, 2), 2)})))
    for kind, check in (("monomial", "monomial_basis_check"), ("pbw", "pbw_basis_check")):
        for n, cap in (("a2split", 4), ("a3tau", 3)):
            jobs.append(suite_job(f"{kind}/{n}/q2/cap{cap}",
                                  lambda n=n, cap=cap, check=check:
                                  getattr(d, check)(iq(n), 2, cap)))
    for word in ("2,1,1", "2,2,1,1"):
        jobs.append(suite_job(
            f"generic/a2split/2,3,5@7/{word}",
            lambda word=word: h.generic_structure_constants(
                iq("a2split"), lambda engine: engine.word_product(word.split(",")),
                [2, 3, 5], 7),
            wrap=canon.generic_output))
    return jobs


def enumerate_specs():
    """Dimension vectors of total 2 and up: a lone simple takes well under a
    millisecond, and a dozen of them put the median job at a gap in the
    cost distribution, where it jumped by a third between runs."""
    specs = [("a2split", 2, d) for d in dims_vectors(2, 4) if d not in ((4, 0), (0, 4))]
    specs += [("a2split", 3, d) for d in dims_vectors(2, 3)]
    specs += [(n, 2, d) for n in ("a3split", "a3tau", "swap")
              for d in dims_vectors(3 if n != "swap" else 2, 3)]
    return [spec for spec in specs if sum(spec[2]) > 1]


def hall_word_specs(rng):
    specs = []
    for n in QUIVERS:
        for q, draws in HALL_DRAWS.items():
            pool = WORD_POOLS[(n, q)]
            specs += [(n, q, w) for w in rng.sample(pool, min(draws, len(pool)))]
    return specs + TARGETS


def warm_specs():
    """(quiver, q, word) of the products the warm caches hold: one fixed word
    per pool, since the warm cost of a word depends on its registry."""
    specs = [(n, q, WORD_POOLS[(n, q)][0]) for n in QUIVERS for q in (2, 3)]
    return specs + [WARM_Q5]


# -- set-up ---------------------------------------------------------------------------


def setup(workload, root, work):
    """Imports, algebra construction and, for warm_cache, pre-filled caches."""
    m = load_layers()
    iq = {}
    for name in QUIVERS:
        with open(root / "scripts" / "quivers" / f"{name}.json") as fh:
            iq[name] = json.load(fh)
        quiver = m["quivers"].validate_iquiver(iq[name])
        m["algebra"].iquiver_algebra(quiver)
        m["algebra"].path_algebra(quiver)
    work.mkdir(parents=True, exist_ok=True)
    state = State(iq, work, {})
    if workload == "warm_cache":
        for quiver, q, word in warm_specs():
            cache_dir = work / f"warm-{quiver}-{q}"
            engine = m["hall"].IHallAlgebra(
                m["algebra"].iquiver_algebra(m["quivers"].validate_iquiver(iq[quiver])), q)
            engine.word_product(word.split(","))
            if (quiver, q) == WARM_ENUM_SLOT:
                for dims in dims_vectors(len(engine.vertices), WARM_ENUM_TOTAL):
                    engine.ctx.enumerate_iso_classes(dict(zip(engine.vertices, dims)))
            m["cache"].save_engine(engine, cache_dir)
            state.cache_dirs[(quiver, q)] = cache_dir
    return state


def jobs(workload, seed, state):
    """The fixed job list of one run, in the order the seed gives it."""
    rng = random.Random(seed)
    if workload == "hall_word":
        out = [hall_job(state, *spec) for spec in hall_word_specs(rng)]
    elif workload == "enumerate":
        out = [enumerate_job(state, *spec) for spec in enumerate_specs()]
    elif workload == "suites":
        out = suite_jobs(state)
    elif workload == "warm_cache":
        out = [hall_job(state, quiver, q, word, cache_dir=state.cache_dirs[(quiver, q)],
                        warm=True)
               for quiver, q, word in warm_specs()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out *= ROUNDS[workload]
    rng.shuffle(out)
    return out


# -- probes (run once per invocation, outside the timed jobs) ------------------------


def enumerate_frontier(state):
    """How many frontier vectors finish under the default caps."""
    m = mods()
    done = 0
    for quiver, q, dims in FRONTIER:
        alg = m["algebra"].iquiver_algebra(m["quivers"].validate_iquiver(state.iq[quiver]))
        try:
            m["modules"].ModuleContext(alg, q).enumerate_iso_classes(dict(zip(alg.vertices, dims)))
        except m["errors"].ResourceError:
            continue
        done += 1
    return done
