"""Disk cache for module registries and Hall product memos.

Layout: cache_dir/{algebra-hash}/{p}/registry.json holds the interned
representations in insertion order (re-interning them reproduces the same
ids), and memo.json the pair-product and normal-form memos keyed by those
ids.  Files are written atomically (temp file then rename), so a crashed
run never leaves a torn cache.  The algebra hash in the path makes stale
entries unreachable after any change to the presentation.  A cache that
cannot be read or names ids outside its registry is a miss, not an error.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .errors import IqError
from .hall import HallElement, IHallAlgebra
from .modules import rep_from_json
from .scalars import QSqrt


def _element_to_json(elem: HallElement) -> list:
    return [[x, list(alpha), coeff.to_json()]
            for (x, alpha), coeff in sorted(elem.terms.items())]


def _element_from_json(q: int, data: list) -> HallElement:
    terms = {(int(x), tuple(alpha)): QSqrt.from_json(coeff) for x, alpha, coeff in data}
    return HallElement(q, terms)


def cache_paths(cache_dir: Path, algebra_hash: str, p: int):
    base = Path(cache_dir) / algebra_hash / str(p)
    return base / "registry.json", base / "memo.json"


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
    reg_path, memo_path = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    reps = [engine.ctx.rep(mid).to_json() for mid in range(engine.ctx.registry_size())]
    _atomic_write(reg_path, {"reps": reps})
    memo = {
        "pairs": {f"{x},{y}": _element_to_json(elem)
                  for (x, y), elem in engine._pair.items()},
        "normal": {str(mid): [coeff.to_json(), [key[0], list(key[1])]]
                   for mid, (coeff, key) in engine._normal.items()},
    }
    _atomic_write(memo_path, memo)


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def load_engine(engine: IHallAlgebra, cache_dir: Path) -> bool:
    """Warm an engine from disk; returns True when a usable cache was found.

    Both files are parsed and checked before the engine is touched.  A file
    that does not decode, lacks a key, or names a module id outside the
    registry makes the whole cache a miss, and the engine stays cold.
    """
    reg_path, memo_path = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    if not reg_path.exists():
        return False
    try:
        reps = [rep_from_json(engine.algebra, data) for data in _read_json(reg_path)["reps"]]
        memo = _read_json(memo_path) if memo_path.exists() else {}
        pairs = {}
        for key, data in memo.get("pairs", {}).items():
            x, y = (int(t) for t in key.split(","))
            pairs[(x, y)] = _element_from_json(engine.p, data)
        normal = {int(mid): (QSqrt.from_json(coeff), (int(key[0]), tuple(key[1])))
                  for mid, (coeff, key) in memo.get("normal", {}).items()}
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            ZeroDivisionError, IqError):
        return False
    ids = [i for pair in pairs for i in pair]
    ids += [x for elem in pairs.values() for x, _ in elem.terms]
    ids += [i for mid, (_, (x, _)) in normal.items() for i in (mid, x)]
    if any(r.p != engine.p for r in reps) or any(not 0 <= i < len(reps) for i in ids):
        return False
    for rep in reps:
        engine.ctx.intern(rep)
    engine._pair.update(pairs)
    engine._normal.update(normal)
    return True
