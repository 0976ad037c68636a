"""Bound quiver algebras with an explicit path basis.

For an enriched quiver the normal form pushes every eps to the start of a
path (applied first): the commutation relation rewrites "arrow then eps"
into "eps then tau(arrow)", and any word containing two eps letters dies on
the nilpotent relation once they become adjacent.  The surviving basis is

    { p }  union  { p after eps_v : p a path of Q starting at tau(v) },

so dim = 2 * #paths(Q), and all structure constants are 0 or 1.  The same
machinery with the eps family empty presents the plain path algebra kQ,
which is needed for generic extensions over the Dynkin quiver itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import NonTerminatingRewrite
from .quivers import Arrow, EnrichedQuiver, IQuiver, enriched_quiver, plain_quiver

MAX_PATHS = 10000   # basis paths of Q before path enumeration gives up


@dataclass(frozen=True)
class BasisPath:
    """arrows: Q-arrow ids in application order; eps: vertex whose eps-arrow
    is applied before everything else, or None."""

    arrows: Tuple[str, ...]
    eps: Optional[str]
    src: str
    tgt: str

    def degree(self) -> int:
        return 0 if self.eps is None else 1

    def label(self) -> str:
        word = []
        if self.eps is not None:
            word.append(f"eps_{self.eps}")
        word.extend(self.arrows)
        return "*".join(reversed(word)) if word else f"e_{self.src}"


class BoundAlgebra:
    """A based algebra presented by an enriched quiver."""

    def __init__(self, eq: EnrichedQuiver):
        self.eq = eq
        self.vertices: Tuple[str, ...] = eq.vertices
        self.vidx: Dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        self.tau: Dict[str, str] = eq.tau_map()
        self.tau_arrows: Dict[str, str] = dict(eq.tau_arrows)
        self.arrow_map: Dict[str, Arrow] = {a.id: a for a in eq.all_arrows()}
        self.q_arrows: Tuple[Arrow, ...] = eq.q_arrows
        self.eps_arrows: Tuple[Arrow, ...] = eq.eps_arrows
        self.eps_ids = {a.id for a in eq.eps_arrows}
        self.eps_of_vertex: Dict[str, str] = {a.src: a.id for a in eq.eps_arrows}
        self.has_eps = bool(eq.eps_arrows)
        self.itau_reps: Tuple[str, ...] = eq.itau_reps

        paths = self._enumerate_paths()
        basis: List[BasisPath] = list(paths)
        if self.has_eps:
            for p in paths:
                # pre-compose with eps_v for the unique v with tau(v) = src(p)
                v = self.tau[p.src]
                basis.append(BasisPath(p.arrows, v, v, p.tgt))
        basis.sort(key=lambda b: (b.degree(), len(b.arrows), b.src, b.arrows, b.eps or ""))
        self.basis: Tuple[BasisPath, ...] = tuple(basis)
        # trivial paths at different vertices share (arrows, eps), so the
        # source is part of the lookup key
        self.index: Dict[Tuple[Tuple[str, ...], Optional[str], str], int] = {
            (b.arrows, b.eps, b.src): i for i, b in enumerate(self.basis)}
        self._mult: Dict[Tuple[int, int], Optional[int]] = {}
        self._hash: Optional[str] = None

    # -- construction helpers ------------------------------------------------

    def _enumerate_paths(self) -> List[BasisPath]:
        out: Dict[str, List[Arrow]] = {v: [] for v in self.vertices}
        for a in self.q_arrows:
            out[a.src].append(a)
        paths = [BasisPath((), None, v, v) for v in self.vertices]
        frontier = list(paths)
        while frontier:
            p = frontier.pop()
            for a in out[p.tgt]:
                ext = BasisPath(p.arrows + (a.id,), None, p.src, a.tgt)
                paths.append(ext)
                frontier.append(ext)
                if len(paths) > MAX_PATHS:
                    raise NonTerminatingRewrite(f"more than {MAX_PATHS} paths")
        return paths

    @property
    def dim(self) -> int:
        return len(self.basis)

    def trivial_index(self, v: str) -> int:
        return self.index[((), None, v)]

    # -- multiplication --------------------------------------------------------

    def _tau_path(self, arrows: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(self.tau_arrows[a] for a in arrows)

    def compose(self, second: BasisPath, first: BasisPath) -> Optional[BasisPath]:
        """Normal form of applying ``first`` then ``second`` (or None if 0)."""
        if first.tgt != second.src:
            return None
        if second.eps is None:
            arrows = first.arrows + second.arrows
            eps = first.eps
        elif first.eps is not None:
            return None  # two eps letters always vanish
        else:
            # slide second's eps to the front across all of first's arrows
            arrows = self._tau_path(first.arrows) + second.arrows
            eps = first.src
        idx = self.index.get((arrows, eps, first.src))
        return None if idx is None else self.basis[idx]

    def mult(self, i: int, j: int) -> Optional[int]:
        """Index of basis[i] * basis[j] (apply j first), or None if zero."""
        key = (i, j)
        if key not in self._mult:
            b = self.compose(self.basis[i], self.basis[j])
            self._mult[key] = None if b is None else self.index[(b.arrows, b.eps, b.src)]
        return self._mult[key]

    def arrow_basis_path(self, arrow_id: str) -> BasisPath:
        a = self.arrow_map[arrow_id]
        if arrow_id in self.eps_ids:
            return self.basis[self.index[((), a.src, a.src)]]
        return self.basis[self.index[((arrow_id,), None, a.src)]]

    # -- relation words for representation checks --------------------------------

    def relations(self):
        return self.eq.relations

    # -- identity -----------------------------------------------------------------

    def content_hash(self) -> str:
        if self._hash is None:
            payload = {
                "vertices": list(self.vertices),
                "arrows": [[a.id, a.src, a.tgt] for a in self.q_arrows],
                "eps": [[a.id, a.src, a.tgt] for a in self.eps_arrows],
                "relations": [[list(w), list(o) if o is not None else None]
                              for w, o in self.eq.relations],
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._hash

    def describe(self) -> dict:
        return {
            "dim": self.dim,
            "hash": self.content_hash(),
            "basis": [b.label() for b in self.basis],
        }


_ALGEBRA_CACHE: Dict[str, BoundAlgebra] = {}


def iquiver_algebra(iq: IQuiver) -> BoundAlgebra:
    """The fixed-point algebra of the doubled construction, built once per
    quiver and cached by content hash."""
    alg = BoundAlgebra(enriched_quiver(iq))
    return _ALGEBRA_CACHE.setdefault(alg.content_hash(), alg)


def path_algebra(iq: IQuiver) -> BoundAlgebra:
    """The plain path algebra kQ (no eps arrows, no relations)."""
    alg = BoundAlgebra(plain_quiver(iq))
    return _ALGEBRA_CACHE.setdefault(alg.content_hash(), alg)
