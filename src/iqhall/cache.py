"""Disk cache for module registries and Hall product memos.

cache_dir/{algebra-hash}/{p}.json is one snapshot of an engine (format 8):
the prime; the reps in id order, each [dims, [[arrow id, flat row-major
entries], ...]] over its nonzero maps; and the pair-product memo keyed by
their ids, each coefficient (an + bn sqrt p) / d as [an, bn, d].  It stores
no invariant derived from the reps: no Kostant partition, fingerprint or
class key, which the context computes from the exact keys when first needed.
A sha256 of its canonical JSON opens the file, which one atomic replace
writes; the algebra hash in the path makes stale entries unreachable.

A load builds no rep and computes no partition, fingerprint, class key or
split: the context builds a rep from its exact key when first asked.  Every
check runs on the plain integers before the engine changes: checksum,
format, prime; int dims and entries in range, arrows known and none twice,
each map as long as its shape; memo keys "x,y", int term ids, alphas of
naturals, one per vertex, and coefficients in lowest terms; memo ids in the
registry, no rep twice, the engine's registry a prefix of the file's.  A
file that fails a check is a miss that leaves the engine as it was."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from math import gcd
from pathlib import Path

from . import linalg
from .errors import IqError
from .hall import HallElement, IHallAlgebra
from .modules import ModuleContext
from .scalars import _raw

FORMAT = 8

_HEAD = '{"sha256":"%s",'
_HEAD_LEN = len(_HEAD % ("0" * 64))

_synced = weakref.WeakKeyDictionary()  # engine -> its _state at the last load or save


def _state(engine: IHallAlgebra, path: Path):
    # the registry and the pair memo only grow, so equal sizes mean nothing new
    return path, engine.ctx.registry_size(), len(engine._pair)


def cache_paths(cache_dir: Path, algebra_hash: str, p: int):
    return (Path(cache_dir) / algebra_hash / f"{p}.json",)


def seal(payload: dict) -> str:
    """The file text of a snapshot: its canonical JSON with the sha256 of
    that JSON as a leading "sha256" key."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _HEAD % hashlib.sha256(body.encode()).hexdigest() + body[1:]


def _unseal(raw: bytes) -> dict:
    body = b"{" + raw[_HEAD_LEN:]
    if raw[:_HEAD_LEN] != (_HEAD % hashlib.sha256(body).hexdigest()).encode():
        raise ValueError("checksum mismatch")
    return json.loads(body)


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _naturals(xs, bound=None) -> bool:
    """Whether xs is a list of ints (not bools) >= 0, and below ``bound`` if given."""
    return (type(xs) is list and set(map(type, xs)) <= {int}
            and (not xs or min(xs) >= 0 and (bound is None or max(xs) < bound)))


def decode_reps(ctx: ModuleContext, reps) -> list:
    """The exact keys (dims, map entries in arrow order) of stored reps, with
    no rep built; a malformed entry raises ValueError, KeyError or TypeError."""
    column = {aid: i for i, (aid, _, _) in enumerate(ctx.arrows)}
    keys = []
    for dims, maps in reps:
        if (not _naturals(dims) or len(dims) != len(ctx.algebra.vertices)
                or len({aid for aid, _ in maps}) != len(maps)):
            raise ValueError("malformed rep")
        datas = [((0,) * dims[s],) * dims[t] for _, s, t in ctx.arrows]
        for aid, flat in maps:
            _, s, t = ctx.arrows[column[aid]]
            if not _naturals(flat, ctx.p) or len(flat) != dims[t] * dims[s]:
                raise ValueError(f"malformed map for arrow {aid}")
            datas[column[aid]] = tuple(tuple(flat[r * dims[s]:(r + 1) * dims[s]])
                                       for r in range(dims[t]))
        keys.append((tuple(dims), tuple(datas)))
    return keys


def save_engine(engine: IHallAlgebra, cache_dir: Path):
    """Write the engine's snapshot unless nothing grew since its last load or save."""
    [path] = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    state = _state(engine, path)
    if _synced.get(engine) == state:
        return
    _atomic_write(path, seal({
        "format": FORMAT,
        "p": engine.p,
        "reps": [[list(dims), [[aid, [x for row in data for x in row]]
                               for (aid, _, _), data in zip(engine.ctx.arrows, datas)
                               if not linalg.all_zero([data])]]
                 for dims, datas in engine.ctx._registry],
        "pairs": {f"{x},{y}": [[z, list(alpha), [c.an, c.bn, c.d]]
                               for (z, alpha), c in sorted(elem.terms.items())]
                  for (x, y), elem in engine._pair.items()},
    }))
    _synced[engine] = state


def load_engine(engine: IHallAlgebra, cache_dir: Path) -> bool:
    """Warm an engine from disk; returns True when a usable cache was found.
    The file is checked in full first, so a miss leaves the engine as it was."""
    [path] = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    try:
        with open(path, "rb") as fh:
            data = _unseal(fh.read())
        if data["format"] != FORMAT or data["p"] != engine.p:
            return False
        keys = decode_reps(engine.ctx, data["reps"])
        pairs = {}
        for key, elem in data["pairs"].items():
            x, y = map(int, key.split(","))
            if key != f"{x},{y}":
                raise ValueError("a memo key not of the form x,y")
            terms = {}
            for z, alpha, (an, bn, d) in elem:
                if type(z) is not int or not _naturals(alpha) or len(alpha) != len(engine.vertices):
                    raise ValueError("a malformed memo term")
                if not (type(an) is type(bn) is type(d) is int and d > 0 and gcd(an, bn, d) == 1):
                    raise ValueError("a coefficient not in lowest terms")
                terms[(z, tuple(alpha))] = _raw(an, bn, d, engine.p)
            if not all(0 <= i < len(keys) for i in (x, y, *(z for z, _ in terms))):
                raise ValueError("a memo names an id beyond the registry")
            pairs[(x, y)] = HallElement(engine.p, terms)
        engine.ctx.restore(keys)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError, IqError):
        return False
    engine._pair.update(pairs)
    _synced[engine] = _state(engine, path)
    return True
