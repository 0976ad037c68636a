"""Small shared helpers: canonical JSON."""

from __future__ import annotations

import json


def canonical_json(obj) -> str:
    """Byte-stable encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
