"""Canonical job outputs and their digests.

Registry ids depend on the order in which modules were interned, so an
output that names modules by id would change digest whenever interning
order changes.  Every module is named here by prime-independent
invariants instead: the sorted dimension vectors of its indecomposable
summands and its predicate flags.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj):
    # the same encoding as iqhall.util.canonical_json, kept here so that a
    # change to the program cannot move the reference digests
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _sorted(items):
    return sorted(items, key=canonical_json)


class Labels:
    """Id-free names of registered modules, remembered by representation:
    a name depends only on the iso class, and repeated jobs meet the same
    representations, so each is split only once per run."""

    def __init__(self):
        self._by_rep = {}

    def __call__(self, ctx, mid):
        rep = ctx.rep(mid)
        if rep not in self._by_rep:
            self._by_rep[rep] = {
                "summands": sorted(list(ctx.rep(m).dims) for m in ctx.decompose(mid)),
                "flags": ctx.flags(mid)}
        return self._by_rep[rep]


def element_output(engine, elem, labels):
    """A Hall element: one entry per basis symbol [X] * E_alpha."""
    terms = [{"X": labels(engine.ctx, x), "alpha": list(alpha), "coeff": coeff.to_json()}
             for (x, alpha), coeff in elem.terms.items()]
    return {"q": engine.p, "terms": _sorted(terms)}


def classes_output(ctx, dims, mids, labels):
    """The iso classes of one dimension vector, with their End dimensions."""
    classes = [dict(labels(ctx, m), end_dim=ctx.end_dim(m)) for m in mids]
    return {"dims": list(dims), "count": len(mids), "classes": _sorted(classes)}


def report_output(report):
    """A verification report.  Residual terms lose their registry ids; a
    nonzero residual already fails the relation."""
    data = report.to_json()
    for rel in data.get("relations", ()):
        rel["residual"] = _sorted({k: v for k, v in term.items() if k != "X"}
                                  for term in rel["residual"])
    return data


def generic_output(out):
    """Generic Laurent constants keyed by root multiset and torus exponent."""
    return _sorted({"X": [list(r) for r in key.roots], "alpha": list(key.alpha),
                    "coeff": poly.to_json()} for key, poly in out.items())
