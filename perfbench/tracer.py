"""In-memory span tracer that wraps the public functions of each iqhall layer.

A span is (name, start_ns, end_ns, parent): the parent is the index of the
span that was open when it started, or -1.  Spans are kept in one flat
``array('q')`` while the run lasts and written out when it ends.  A span's
self time is its duration minus the part of it that its child spans cover.

Nothing under ``src/`` is changed: ``install`` replaces functions on the
imported iqhall modules (and every module-level alias of them) with timing
wrappers, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

SPAN_FIELDS = 4
JOB = "job"


class Tracer:
    """Wrappers record only while ``active`` is set (during a job), so the
    benchmark's own work, such as building digests, stays out of the trace."""

    def __init__(self):
        self.active = False
        self.names = []
        self._ids = {}
        self.spans = array("q")
        self.stack = []
        self.counters = defaultdict(int)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.spans) // SPAN_FIELDS
        self.spans.extend((self.name_id(name), time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx * SPAN_FIELDS + 2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Time every call of ``fn`` as a span called ``name``.  ``before``
        sees the call's arguments; ``after`` sees them, the result and what
        ``before`` returned, and may bump counters."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            idx = len(spans) // SPAN_FIELDS
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * SPAN_FIELDS + 2] = clock()
                stack.pop()
            if after:
                after(args, result, state)
            return result
        return traced

    def count(self, key, fn, before=None, after=None):
        """Count calls of ``fn`` without recording a span (for functions
        called millions of times, such as matrix construction)."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            counters[key] += 1
            result = fn(*args, **kwargs)
            if after:
                after(args, result, state)
            return result
        return counted

    def span_tuples(self):
        s = self.spans
        return [(self.names[s[i]], s[i + 1], s[i + 2], s[i + 3])
                for i in range(0, len(s), SPAN_FIELDS)]

    def write(self, stem):
        """Write the spans to ``stem.bin`` (int64 records of name id, start
        ns, end ns, parent index) with a JSON header in ``stem.json``."""
        stem = Path(stem)
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {"fields": ["name", "start_ns", "end_ns", "parent"], "names": self.names,
                  "count": len(self.spans) // SPAN_FIELDS,
                  "dtype": f"int64 {sys.byteorder}-endian"}
        stem.with_suffix(".json").write_text(json.dumps(header))
        with open(stem.with_suffix(".bin"), "wb") as fh:
            self.spans.tofile(fh)


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """Per span name: (calls, total self seconds)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own / 1e9
    return calls, self_s


def inclusive_totals(spans):
    """Per span name: seconds inside spans of that name, counting only
    spans with no ancestor of the same name, so recursion counts once."""
    out = defaultdict(float)
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] += (end - start) / 1e9
    return dict(out)


# -- wiring into iqhall ---------------------------------------------------------


def _replace_everywhere(owner, attr, new, static=False):
    """Set ``owner.attr`` to ``new`` and rebind every iqhall module global
    that aliases the original (``from .x import f`` copies)."""
    original = owner.__dict__[attr]
    target = original.__func__ if isinstance(original, staticmethod) else original
    setattr(owner, attr, staticmethod(new) if static else new)
    for name, mod in list(sys.modules.items()):
        if name.startswith("iqhall") and mod is not owner:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, new)
    return owner, attr, original, target


def install(tracer):
    """Wrap the layer functions; returns a handle for ``uninstall``."""
    from iqhall import (algebra, cache, dynkin, hall, linalg, modules,
                        quivers, scalars, verify)
    c = tracer.counters
    undo = []

    def put(owner, attr, name=None, counter=None, before=None, after=None):
        fn = owner.__dict__[attr]
        static = isinstance(fn, staticmethod)
        fn = fn.__func__ if static else fn
        new = (tracer.count(counter, fn, before, after) if counter else
               tracer.wrap(name, fn, before, after))
        undo.append(_replace_everywhere(owner, attr, new, static))

    # linalg
    def matmul_ops(args, result, _):
        a, b = args
        c["linalg.matmul.field_ops"] += a.rows * a.cols * b.cols
    put(linalg.FpMatrix, "__matmul__", "linalg.matmul", after=matmul_ops)
    put(linalg.FpMatrix, "__post_init__", counter="linalg.fpmatrix_new.calls")
    put(linalg, "rref", "linalg.rref")
    put(linalg, "kernel_basis", "linalg.kernel_basis")
    for attr in ("from_vectors", "contains_vector", "coords", "sum", "perp",
                 "intersect", "contains", "quotient_dim"):
        put(linalg.Subspace, attr, "linalg.subspace")

    # modules
    def intern_new(args, mid, size_before):
        if mid >= size_before:
            c["modules.intern.new"] += 1
    put(modules.ModuleContext, "intern", "modules.intern",
        before=lambda args: args[0].registry_size(), after=intern_new)
    put(modules, "hom_space", "modules.hom_space")
    put(modules.ModuleContext, "decompose", "modules.decompose")

    def ext_classes(args, cls, _):
        c["modules.ext1_classify.classes"] += args[0].p ** cls.ext_dim
    put(modules.ModuleContext, "ext1_classify", "modules.ext1_classify", after=ext_classes)

    def accepted(args, ok, _):
        if ok:
            c["modules.satisfies_relations.accepted"] += 1
    put(modules, "satisfies_relations", "modules.satisfies_relations", after=accepted)
    put(modules.ModuleContext, "enumerate_iso_classes", "modules.enumerate")

    # hall
    def term_pairs(args, result, _):
        c["hall.mul.term_pairs"] += len(args[1].terms) * len(args[2].terms)
    put(hall.IHallAlgebra, "mul", "hall.mul", after=term_pairs)
    put(hall.IHallAlgebra, "raw_product", "hall.raw_product")
    put(hall.IHallAlgebra, "normalize", "hall.normalize")

    def normal_hit(args, result, hit):
        if hit:
            c["hall.normal_memo.hits"] += 1
    put(hall.IHallAlgebra, "normalize_mid", counter="hall.normal_memo.lookups",
        before=lambda args: args[1] in args[0]._normal, after=normal_hit)
    put(hall, "generic_structure_constants", "hall.generic")

    # scalars
    for attr in ("__add__", "__sub__", "__neg__", "__mul__", "inverse",
                 "__truediv__", "__pow__"):
        put(scalars.QSqrt, attr, "scalars.qsqrt_ops")
    put(scalars, "laurent_fit", "scalars.laurent_fit")

    # cache
    def cache_files(engine, cache_dir):
        paths = cache.cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
        return sum(p.stat().st_size for p in paths if p.exists())

    def load_before(args):
        engine, cache_dir = args
        c["cache.bytes_read"] += cache_files(engine, cache_dir)
        return engine.ctx.registry_size()

    def load_after(args, found, size_before):
        c["cache.load.reinterned"] += args[0].ctx.registry_size() - size_before

    def save_after(args, result, _):
        c["cache.bytes_written"] += cache_files(*args)
    put(cache, "load_engine", "cache.load", before=load_before, after=load_after)
    put(cache, "save_engine", "cache.save", after=save_after)

    # suites, basis checks, algebra construction
    for attr in ("serre_suite", "reduced_suite", "rank2_identities",
                 "bridgeland_suite", "euler_central_suite"):
        put(verify, attr, "verify.suite")
    for attr in ("monomial_basis_check", "pbw_basis_check"):
        put(dynkin, attr, "dynkin.basis_check")
    for attr in ("iquiver_algebra", "path_algebra"):
        put(algebra, attr, "algebra.build")
    put(quivers, "validate_iquiver", "quivers.validate")
    return undo


def uninstall(undo):
    for owner, attr, original, target in reversed(undo):
        wrapper = owner.__dict__[attr]
        wrapper = wrapper.__func__ if isinstance(wrapper, staticmethod) else wrapper
        setattr(owner, attr, original)
        for name, mod in list(sys.modules.items()):
            if name.startswith("iqhall"):
                for key, value in list(vars(mod).items()):
                    if value is wrapper:
                        setattr(mod, key, target)


# -- per-layer metrics -------------------------------------------------------------

SPANS = ("linalg.matmul", "linalg.rref", "linalg.kernel_basis", "linalg.subspace",
         "modules.intern", "modules.hom_space", "modules.decompose",
         "modules.ext1_classify", "modules.satisfies_relations", "modules.enumerate",
         "hall.mul", "hall.raw_product", "hall.normalize", "hall.generic",
         "scalars.qsqrt_ops", "scalars.laurent_fit", "cache.load", "cache.save",
         "verify.suite", "dynkin.basis_check", "algebra.build", "quivers.validate")
COUNTERS = {"linalg.matmul.field_ops": "count", "linalg.fpmatrix_new.calls": "count",
            "modules.intern.new": "count", "modules.ext1_classify.classes": "count",
            "hall.mul.term_pairs": "count", "cache.bytes_read": "B",
            "cache.bytes_written": "B", "cache.load.reinterned": "count"}
# every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = dict(
    [(f"{name}.calls", "count") for name in SPANS]
    + [(f"{name}.self_s", "s") for name in SPANS]
    + list(COUNTERS.items())
    + [("modules.intern.hit_ratio", "ratio"),
       ("modules.satisfies_relations.accepted_ratio", "ratio"),
       ("hall.pair_memo.hit_ratio", "ratio"), ("hall.normal_memo.hit_ratio", "ratio"),
       ("trace.outside_layers_s", "s"), ("trace.layer_coverage", "ratio"),
       ("trace.spans", "count"), ("trace.overhead", "ratio"),
       ("modules.enumerate_frontier", "count"), ("jobs.failed_ratio", "ratio"),
       ("jobs.known_defect_failures", "count")])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, c):
    """The per-layer figures of one traced run from its spans and counters,
    keyed by metric name."""
    calls, self_s = layer_totals(spans)
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for key in COUNTERS:
        out[key] = c[key]
    out["modules.intern.hit_ratio"] = _ratio(calls["modules.intern"] - c["modules.intern.new"],
                                             calls["modules.intern"])
    out["modules.satisfies_relations.accepted_ratio"] = _ratio(
        c["modules.satisfies_relations.accepted"], calls["modules.satisfies_relations"])
    out["hall.pair_memo.hit_ratio"] = _ratio(
        c["hall.mul.term_pairs"] - calls["hall.raw_product"], c["hall.mul.term_pairs"])
    out["hall.normal_memo.hit_ratio"] = _ratio(c["hall.normal_memo.hits"],
                                               c["hall.normal_memo.lookups"])
    job_total = sum(end - start for name, start, end, _ in spans if name == JOB) / 1e9
    out["trace.outside_layers_s"] = self_s[JOB]
    out["trace.layer_coverage"] = _ratio(job_total - self_s[JOB], job_total)
    out["trace.spans"] = len(spans)
    return out
