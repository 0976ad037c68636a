"""Disk cache for module registries and Hall product memos.

Layout: cache_dir/{algebra-hash}/{p}.json is one snapshot of an engine: a
format number, the interned representations in id order (re-interning them
reproduces the same ids), and the pair-product and normal-form memos keyed
by those ids.  One atomic replace (temp file then rename) writes it, so
registry and memos always come from the same run.  The algebra hash in the
path makes stale entries unreachable.  A file that cannot be read, has
another format, or names ids outside its registry is a miss, not an error.
"""

from __future__ import annotations

import json
import os
import tempfile
import weakref
from pathlib import Path

from .errors import IqError
from .hall import HallElement, IHallAlgebra
from .modules import rep_from_json
from .scalars import QSqrt

FORMAT = 1

_synced = weakref.WeakKeyDictionary()  # engine -> its _state at the last load or save


def _state(engine: IHallAlgebra, path: Path):
    # the registry and both memos only grow, so equal sizes mean nothing new
    return path, engine.ctx.registry_size(), len(engine._pair), len(engine._normal)


def cache_paths(cache_dir: Path, algebra_hash: str, p: int):
    return (Path(cache_dir) / algebra_hash / f"{p}.json",)


def _atomic_write(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_engine(engine: IHallAlgebra, cache_dir: Path):
    """Write the engine's snapshot unless nothing grew since its last load or save."""
    [path] = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    state = _state(engine, path)
    if _synced.get(engine) == state:
        return
    _atomic_write(path, {
        "format": FORMAT,
        "reps": [engine.ctx.rep(mid).to_json() for mid in range(engine.ctx.registry_size())],
        "pairs": {f"{x},{y}": [[z, list(alpha), coeff.to_json()]
                               for (z, alpha), coeff in sorted(elem.terms.items())]
                  for (x, y), elem in engine._pair.items()},
        "normal": {str(mid): [coeff.to_json(), [key[0], list(key[1])]]
                   for mid, (coeff, key) in engine._normal.items()},
    })
    _synced[engine] = state


def load_engine(engine: IHallAlgebra, cache_dir: Path) -> bool:
    """Warm an engine from disk; returns True when a usable cache was found.
    The file is checked in full first, so a miss leaves the engine cold."""
    [path] = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    try:
        with open(path) as fh:
            data = json.load(fh)
        reps = [rep_from_json(engine.algebra, rep) for rep in data["reps"]]
        pairs = {}
        for key, elem in data["pairs"].items():
            x, y = (int(t) for t in key.split(","))
            pairs[(x, y)] = HallElement(engine.p, {(int(z), tuple(alpha)): QSqrt.from_json(coeff)
                                                   for z, alpha, coeff in elem})
        normal = {int(mid): (QSqrt.from_json(coeff), (int(key[0]), tuple(key[1])))
                  for mid, (coeff, key) in data["normal"].items()}
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            ZeroDivisionError, IqError):
        return False
    ids = [i for pair in pairs for i in pair]
    ids += [x for elem in pairs.values() for x, _ in elem.terms]
    ids += [i for mid, (_, (x, _)) in normal.items() for i in (mid, x)]
    if (data.get("format") != FORMAT or any(r.p != engine.p for r in reps)
            or any(not 0 <= i < len(reps) for i in ids)):
        return False
    for rep in reps:
        engine.ctx.intern(rep)
    engine._pair.update(pairs)
    engine._normal.update(normal)
    _synced[engine] = _state(engine, path)
    return True
