"""Disk cache for module registries and Hall product memos.

Layout: cache_dir/{algebra-hash}/{p}.json is one snapshot of an engine: a
format number, the interned representations in id order, an index entry
per id (its fingerprint and its class key: "indecomposable", the sorted
summand ids, or null when never computed), and the pair-product memo keyed
by those ids; products intern no middle term, so there is no normal-form
memo (format 4).  The file opens with a sha256 of the canonical JSON of all
that, which follows it.  One atomic replace (temp file then rename) writes
it, so registry and memo always come from the same run.  The algebra hash
in the path makes stale entries unreachable.

A load adopts the registry as the index describes it, with no fingerprint
or Krull-Schmidt split recomputed.  Everything is checked before the engine
changes: the checksum, the format, the prime (of the registry and of every
pair coefficient), the index against the reps, that no rep appears twice,
that every id is in range, and that the engine's registry is a prefix of
the file's.  A file that fails a check is a miss, not an error, and leaves
the engine as it was; the run computes afresh and rewrites the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from pathlib import Path

from .errors import IqError
from .hall import HallElement, IHallAlgebra
from .modules import rep_from_json
from .scalars import QSqrt

FORMAT = 4

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


def save_engine(engine: IHallAlgebra, cache_dir: Path):
    """Write the engine's snapshot unless nothing grew since its last load or save."""
    [path] = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    state = _state(engine, path)
    if _synced.get(engine) == state:
        return
    _atomic_write(path, seal({
        "format": FORMAT,
        "reps": [engine.ctx.rep(mid).to_json() for mid in range(engine.ctx.registry_size())],
        "index": engine.ctx.index(),
        "pairs": {f"{x},{y}": [[z, list(alpha), coeff.to_json()]
                               for (z, alpha), coeff in sorted(elem.terms.items())]
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
        if data["format"] != FORMAT:
            return False
        reps = [rep_from_json(engine.algebra, rep) for rep in data["reps"]]
        pairs = {}
        for key, elem in data["pairs"].items():
            x, y = (int(t) for t in key.split(","))
            pairs[(x, y)] = HallElement(engine.p, {
                (int(z), tuple(alpha)): QSqrt.from_json(coeff, engine.p)
                for z, alpha, coeff in elem})
        ids = [i for pair in pairs for i in pair]
        ids += [x for elem in pairs.values() for x, _ in elem.terms]
        if any(not 0 <= i < len(reps) for i in ids):
            return False
        engine.ctx.restore(reps, data["index"])
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            ZeroDivisionError, IqError):
        return False
    engine._pair.update(pairs)
    _synced[engine] = _state(engine, path)
    return True
