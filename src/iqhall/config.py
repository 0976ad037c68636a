"""Runtime configuration: caps and the cache location."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import InputError
from .modules import Caps

ENV_CACHE_DIR = "IQ_CACHE_DIR"


@dataclass
class Config:
    cache_dir: Optional[Path] = None
    caps: Caps = field(default_factory=Caps)
    use_cache: bool = True

    def __post_init__(self):
        if self.cache_dir is None:
            env = os.environ.get(ENV_CACHE_DIR)
            self.cache_dir = Path(env) if env else Path.home() / ".cache" / "iqhall"
        else:
            self.cache_dir = Path(self.cache_dir)
        for name in ("hom_dim", "ext_dim", "end_dim", "submodule_budget"):
            if getattr(self.caps, name) <= 0:
                raise InputError(f"cap {name} must be positive")

    def to_json(self) -> dict:
        return {
            "cache_dir": str(self.cache_dir),
            "use_cache": self.use_cache,
            "caps": {
                "hom_dim": self.caps.hom_dim,
                "ext_dim": self.caps.ext_dim,
                "end_dim": self.caps.end_dim,
                "submodule_budget": self.caps.submodule_budget,
                "enum_budget": self.caps.enum_budget,
            },
        }
