"""Modules over a bound quiver algebra.

A module is a vertex-indexed family of F_p vector spaces plus one matrix
per arrow (eps arrows included), required to kill every relation of the
algebra.  Everything downstream -- Hom spaces, Ext^1 with middle-term
classification, Krull-Schmidt splitting, the Gorenstein-projective and
finite-projective-dimension predicates, torus classes and Euler forms --
reduces to exact F_p linear algebra on these matrices.

A ModuleContext owns one (algebra, prime) pair and interns isomorphism
classes.  A rep with the same matrices as one seen before is found in an
exact memo.  Otherwise the fingerprint (dims, arrow ranks, socle/top dims)
picks a bucket, and within it each module is compared by one class key,
computed at most once per module: the sorted summand ids of its
Krull-Schmidt decomposition, or the rep itself when it is indecomposable.
``index`` and ``restore`` carry the registry, its fingerprints and the keys
computed so far to another context, so that nothing is recomputed there.
Both the split and the iso test of two indecomposables rest on Fitting's
lemma: the endomorphism ring of an indecomposable is local.  So a module
splits iff some line of its End space holds a map that is neither nilpotent
nor invertible, and two indecomposables are isomorphic iff some basis
element of the Hom space between them is invertible.  Neither step draws
random numbers, so every result depends on its input alone.

That makes three computations pure functions of their input's matrices, and
a context memoizes them, keyed by the exact (dims, maps) of each argument:
Hom spaces (``ModuleContext.hom``, which every context method uses), the
Krull-Schmidt split, whose recursion meets the same sub-representations
again and again, and syzygies, which every Ext^1 of the same module repeats.
A memo returns the object the first computation built, so answers and
registry ids are as without it.  The memos live and die with the context:
nothing is shared between contexts or written to disk.

The classes of one dimension vector are enumerated without walking every
matrix tuple.  The relations of the fixed-point algebra are
eps_{tau v} eps_v = 0, quadratic in the eps maps alone, and
eps_tgt M(a) = M(tau a) eps_src, linear in the Q-arrow maps once eps is
fixed.  So the eps maps are put in normal form per tau-orbit (Jordan blocks
of size <= 2 at a fixed vertex, a radical-square-zero module over the
2-cycle at a swapped pair), and for each normal form the Q-arrow maps are
the kernel of one F_p linear system.  Every kernel vector is interned; the
brute force over all tuples is left to the tests as an oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import BasisPath, BoundAlgebra
from .errors import (AlgebraMismatch, BudgetExceeded, CapExceeded, InputError,
                     NotFiniteDimensionHomological, PeelStuck, PresentationFailure)
from .linalg import FpMatrix, Subspace
from .quivers import Arrow


HOM_DIM_CAP = 10          # Hom dimension searched for an injective/surjective map
EXT_DIM_CAP = 8           # Ext^1 dimension whose p^d classes ext1_classify walks
END_DIM_CAP = 10          # End dimension for aut_count and the split's line search
SUBMODULE_BUDGET = 20000  # submodules one ``submodules`` call may list
ENUM_BUDGET = 400000      # candidate tuples of one enumeration, and lines of one split


@dataclass(frozen=True)
class Rep:
    algebra: BoundAlgebra
    p: int
    dims: Tuple[int, ...]                      # by algebra.vertices order
    maps: Tuple[Tuple[str, FpMatrix], ...]     # sorted by arrow id, complete

    def map(self, arrow_id: str) -> FpMatrix:
        for aid, m in self.maps:
            if aid == arrow_id:
                return m
        raise KeyError(arrow_id)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dims_by_name(self) -> Dict[str, int]:
        return {v: d for v, d in zip(self.algebra.vertices, self.dims)}

    def to_json(self) -> dict:
        return {"algebra": self.algebra.content_hash(), "p": self.p,
                "dims": self.dims_by_name(),
                "maps": {aid: [list(r) for r in m.data] for aid, m in self.maps
                         if not m.is_zero()}}


def make_rep(algebra: BoundAlgebra, p: int, dims_by_name: Dict[str, int],
             maps_by_id: Dict[str, FpMatrix]) -> Rep:
    dims = tuple(int(dims_by_name.get(v, 0)) for v in algebra.vertices)
    vidx = algebra.vidx
    full = {}
    for a in algebra.arrow_map.values():
        m = maps_by_id.get(a.id)
        want = (dims[vidx[a.tgt]], dims[vidx[a.src]])
        if m is None:
            m = FpMatrix.zeros(p, *want)
        if (m.rows, m.cols) != want or m.p != p:
            raise InputError(f"map for arrow {a.id} has wrong shape or modulus")
        full[a.id] = m
    return Rep(algebra, p, dims, tuple(sorted(full.items())))


def rep_from_json(algebra: BoundAlgebra, data: dict) -> Rep:
    p = int(data["p"])
    dims = {str(k): int(v) for k, v in data["dims"].items()}
    raw = data.get("maps", {})
    unknown = sorted(set(dims) - set(algebra.vertices)) + sorted(set(raw) - set(algebra.arrow_map))
    if unknown:
        raise InputError(f"module names unknown vertices or arrow ids: {', '.join(unknown)}")
    maps = {aid: FpMatrix.from_rows(p, rows, cols=len(rows[0]))
            for aid, rows in raw.items() if rows}
    return make_rep(algebra, p, dims, maps)


def zero_rep(algebra: BoundAlgebra, p: int) -> Rep:
    return make_rep(algebra, p, {}, {})


def word_matrix(rep: Rep, word: Sequence[str]) -> FpMatrix:
    """Matrix of a word of arrow ids in application order."""
    alg = rep.algebra
    src = alg.arrow_map[word[0]].src
    m = FpMatrix.identity(rep.p, rep.dims[alg.vidx[src]])
    for aid in word:
        m = rep.map(aid) @ m
    return m


def satisfies_relations(rep: Rep) -> bool:
    for word, other in rep.algebra.relations():
        lhs = word_matrix(rep, word)
        if other is None:
            if not lhs.is_zero():
                return False
        elif lhs != word_matrix(rep, other):
            return False
    return True


def path_action_matrix(rep: Rep, b: BasisPath) -> FpMatrix:
    """Matrix of a basis path acting on rep (eps applied first)."""
    alg = rep.algebra
    m = FpMatrix.identity(rep.p, rep.dims[alg.vidx[b.src]])
    if b.eps is not None:
        m = rep.map(alg.eps_of_vertex[b.eps]) @ m
    for aid in b.arrows:
        m = rep.map(aid) @ m
    return m


def direct_sum(reps: Sequence[Rep]) -> Rep:
    if not reps:
        raise InputError("direct sum of nothing; pass the zero rep explicitly")
    alg, p = reps[0].algebra, reps[0].p
    for r in reps:
        if r.algebra is not alg or r.p != p:
            raise AlgebraMismatch("direct sum across algebras or primes")
    n = len(alg.vertices)
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(n))
    vidx = alg.vidx
    maps = {}
    for a in alg.arrow_map.values():
        rows_total = dims[vidx[a.tgt]]
        cols_total = dims[vidx[a.src]]
        block = [[0] * cols_total for _ in range(rows_total)]
        ro = co = 0
        for r in reps:
            m = r.map(a.id)
            for i in range(m.rows):
                for j in range(m.cols):
                    block[ro + i][co + j] = m.data[i][j]
            ro += m.rows
            co += m.cols
        maps[a.id] = FpMatrix.from_rows(p, block, cols=cols_total)
    return Rep(alg, p, dims, tuple(sorted(maps.items())))


# -- distinguished small modules ----------------------------------------------


def make_simple(algebra: BoundAlgebra, p: int, v: str) -> Rep:
    return make_rep(algebra, p, {v: 1}, {})


def make_generalized_simple(algebra: BoundAlgebra, p: int, v: str) -> Rep:
    """k[eps]/(eps^2) at a tau-fixed vertex, or the two-vertex module with
    eps_v an isomorphism and eps_{tau v} zero."""
    tau = algebra.tau
    if not algebra.has_eps:
        raise InputError("generalized simples need the eps arrows")
    if tau[v] == v:
        eps = FpMatrix.from_rows(p, [[0, 0], [1, 0]])
        return make_rep(algebra, p, {v: 2}, {algebra.eps_of_vertex[v]: eps})
    one = FpMatrix.from_rows(p, [[1]])
    return make_rep(algebra, p, {v: 1, tau[v]: 1}, {algebra.eps_of_vertex[v]: one})


def regular_projective(algebra: BoundAlgebra, p: int, v: str) -> Rep:
    """The left module on basis paths starting at v, arrows acting by
    composition."""
    cols: Dict[str, List[int]] = {u: [] for u in algebra.vertices}
    for i, b in enumerate(algebra.basis):
        if b.src == v:
            cols[b.tgt].append(i)
    pos = {}
    for u, idxs in cols.items():
        for k, i in enumerate(idxs):
            pos[i] = (u, k)
    dims = {u: len(idxs) for u, idxs in cols.items()}
    maps = {}
    for a in algebra.arrow_map.values():
        m = [[0] * dims.get(a.src, 0) for _ in range(dims.get(a.tgt, 0))]
        apath = algebra.arrow_basis_path(a.id)
        aidx = algebra.index[(apath.arrows, apath.eps, apath.src)]
        for j, bi in enumerate(cols[a.src]):
            out = algebra.mult(aidx, bi)
            if out is not None:
                u, k = pos[out]
                m[k][j] = 1
        maps[a.id] = FpMatrix.from_rows(p, m, cols=dims.get(a.src, 0))
    return make_rep(algebra, p, dims, maps)


def pullback_kq(ilambda: BoundAlgebra, kq_rep: Rep) -> Rep:
    """View a path-algebra module as a module with all eps maps zero."""
    dims = kq_rep.dims_by_name()
    maps = {aid: m for aid, m in kq_rep.maps if aid not in kq_rep.algebra.eps_ids}
    return make_rep(ilambda, kq_rep.p, dims, maps)


def restrict_kq(rep: Rep, kq_algebra: BoundAlgebra) -> Rep:
    """Forget the eps maps; the result is a module over the path algebra."""
    dims = rep.dims_by_name()
    maps = {aid: m for aid, m in rep.maps if aid not in rep.algebra.eps_ids}
    return make_rep(kq_algebra, rep.p, dims, maps)


def restrict_H(rep: Rep, h_algebra: BoundAlgebra) -> Rep:
    """Keep only the eps maps; the result lives over the arrowless algebra."""
    dims = rep.dims_by_name()
    maps = {}
    for v, eid in rep.algebra.eps_of_vertex.items():
        maps[h_algebra.eps_of_vertex[v]] = rep.map(eid)
    return make_rep(h_algebra, rep.p, dims, maps)


# -- Hom spaces -----------------------------------------------------------------


@dataclass(frozen=True)
class HomSpace:
    source: Rep
    target: Rep
    basis: Tuple[Tuple[FpMatrix, ...], ...]   # each hom: one matrix per vertex

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_space(M: Rep, N: Rep) -> HomSpace:
    """Basis of the intertwiner space: f_tgt M(a) = N(a) f_src for all arrows."""
    if M.algebra is not N.algebra or M.p != N.p:
        raise AlgebraMismatch("Hom between different algebras or primes")
    alg, p = M.algebra, M.p
    n = len(alg.vertices)
    offsets = []
    total = 0
    for i in range(n):
        offsets.append(total)
        total += N.dims[i] * M.dims[i]
    if total == 0:
        return HomSpace(M, N, ())
    vidx = alg.vidx

    rows: List[List[int]] = []
    for a in alg.arrow_map.values():
        s, t = vidx[a.src], vidx[a.tgt]
        ma, na = M.map(a.id), N.map(a.id)
        # equation block: f_t M(a) - N(a) f_s = 0, entries (i, j)
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = [0] * total
                for k in range(M.dims[t]):
                    row[offsets[t] + i * M.dims[t] + k] = ma.data[k][j] % p
                for k in range(N.dims[s]):
                    row[offsets[s] + k * M.dims[s] + j] = (row[offsets[s] + k * M.dims[s] + j]
                                                           - na.data[i][k]) % p
                if any(row):
                    rows.append(row)
    if rows:
        system = FpMatrix.from_rows(p, rows, cols=total)
        ker = linalg.kernel_basis(system)
        vecs = list(ker.basis.data)
    else:
        vecs = list(FpMatrix.identity(p, total).data)

    basis = []
    for vec in vecs:
        mats = []
        for i in range(n):
            block = [[vec[offsets[i] + r * M.dims[i] + c] for c in range(M.dims[i])]
                     for r in range(N.dims[i])]
            mats.append(FpMatrix.from_rows(p, block, cols=M.dims[i])
                        if N.dims[i] else FpMatrix.zeros(p, 0, M.dims[i]))
        basis.append(tuple(mats))
    return HomSpace(M, N, tuple(basis))


def hom_combine(hs: HomSpace, coeffs: Sequence[int]) -> Tuple[FpMatrix, ...]:
    p = hs.source.p
    n = len(hs.source.algebra.vertices)
    mats = [FpMatrix.zeros(p, hs.target.dims[i], hs.source.dims[i]) for i in range(n)]
    for c, hom in zip(coeffs, hs.basis):
        if c % p:
            mats = [acc + m.scale(c) for acc, m in zip(mats, hom)]
    return tuple(mats)


def hom_is_injective(mats: Sequence[FpMatrix]) -> bool:
    return all(linalg.rank(m) == m.cols for m in mats)


def hom_is_surjective(mats: Sequence[FpMatrix]) -> bool:
    return all(linalg.rank(m) == m.rows for m in mats)


def hom_is_invertible(mats: Sequence[FpMatrix]) -> bool:
    return all(m.rows == m.cols and linalg.rank(m) == m.rows for m in mats)


# -- sub and quotient representations -------------------------------------------


def _coords_in(sub: Subspace, vec: tuple) -> tuple:
    coords = sub.coords(vec)
    if coords is None:
        raise InputError("vector escapes the subspace; closure broken")
    return coords


def subrep(M: Rep, subspaces: Sequence[Subspace]) -> Tuple[Rep, Tuple[FpMatrix, ...]]:
    """Restrict M to arrow-closed subspaces.

    Returns the sub-representation and the per-vertex inclusion matrices
    (ambient_dim x sub_dim).
    """
    alg, p = M.algebra, M.p
    vidx = alg.vidx
    dims = {v: subspaces[vidx[v]].dim for v in alg.vertices}
    maps = {}
    for a in alg.arrow_map.values():
        s, t = vidx[a.src], vidx[a.tgt]
        cols = []
        for bvec in subspaces[s].basis.data:
            img = M.map(a.id).apply(bvec)
            cols.append(_coords_in(subspaces[t], img))
        if cols:
            mat = FpMatrix.from_rows(p, [[col[r] for col in cols]
                                         for r in range(subspaces[t].dim)], cols=len(cols))
        else:
            mat = FpMatrix.zeros(p, subspaces[t].dim, 0)
        maps[a.id] = mat
    incl = tuple(FpMatrix(p, sub.ambient_dim, sub.dim,
                          tuple(tuple(sub.basis.data[j][i] for j in range(sub.dim))
                                for i in range(sub.ambient_dim)))
                 for sub in subspaces)
    return make_rep(alg, p, dims, maps), incl


def quotient(M: Rep, subspaces: Sequence[Subspace]) -> Tuple[Rep, Tuple[FpMatrix, ...]]:
    """Quotient of M by arrow-closed subspaces.

    Returns the quotient representation and the per-vertex projection
    matrices (quot_dim x ambient_dim): coordinates on the standard basis
    vectors at the non-pivot columns of each subspace's RREF.
    """
    alg, p = M.algebra, M.p
    vidx = alg.vidx
    projections = []
    frees = []
    for i, sub in enumerate(subspaces):
        amb = M.dims[i]
        piv = sub.pivots()
        free = [c for c in range(amb) if c not in piv]
        frees.append(free)
        rows = []
        for fpos in free:
            # functional: reduce a vector by the subspace, read coefficient at
            # fpos; each basis row r subtracts r[fpos] times its pivot entry
            row = [0] * amb
            row[fpos] = 1
            for r, c in zip(sub.basis.data, piv):
                row[c] = -r[fpos] % p
            rows.append(row)
        projections.append(FpMatrix.from_rows(p, rows, cols=amb) if rows
                           else FpMatrix.zeros(p, 0, amb))
    dims = {v: len(frees[vidx[v]]) for v in alg.vertices}
    maps = {}
    for a in alg.arrow_map.values():
        s, t = vidx[a.src], vidx[a.tgt]
        cols = []
        for fpos in frees[s]:
            lift = tuple(1 if k == fpos else 0 for k in range(M.dims[s]))
            img = M.map(a.id).apply(lift)
            cols.append(projections[t].apply(img))
        mat = FpMatrix.from_rows(p, [[col[r] for col in cols] for r in range(len(frees[t]))],
                                 cols=len(cols)) if cols else FpMatrix.zeros(p, len(frees[t]), 0)
        maps[a.id] = mat
    return make_rep(alg, p, dims, maps), tuple(projections)


def image_subspaces(M: Rep, mats: Sequence[FpMatrix]) -> List[Subspace]:
    return [linalg.image_basis(m) for m in mats]


def kernel_subspaces(mats: Sequence[FpMatrix]) -> List[Subspace]:
    return [linalg.kernel_basis(m) for m in mats]


# -- fingerprints -----------------------------------------------------------------


def fingerprint(M: Rep) -> tuple:
    """Cheap isomorphism invariants: dims, arrow ranks, socle and top dims."""
    alg = M.algebra
    ranks = tuple(sorted((aid, linalg.rank(m)) for aid, m in M.maps))
    soc = []
    top = []
    for i, v in enumerate(alg.vertices):
        outs = [M.map(a.id) for a in alg.arrow_map.values() if a.src == v]
        ins = [M.map(a.id) for a in alg.arrow_map.values() if a.tgt == v]
        if outs:
            stacked = linalg.vstack(outs)
            soc.append(M.dims[i] - linalg.rank(stacked))
        else:
            soc.append(M.dims[i])
        if ins:
            stacked = linalg.hstack(ins)
            top.append(M.dims[i] - linalg.rank(stacked))
        else:
            top.append(M.dims[i])
    return (M.dims, ranks, tuple(soc), tuple(top))


# -- the context: registry plus cached machinery ----------------------------------


@dataclass(frozen=True)
class ExtClassification:
    pairs: Tuple[Tuple[int, int], ...]   # (module id of middle term, count)
    hom_dim: int
    ext_dim: int

    def as_dict(self) -> Dict[int, int]:
        return dict(self.pairs)


class ModuleContext:
    """All module-level computations for one (algebra, prime) pair."""

    def __init__(self, algebra: BoundAlgebra, p: int):
        self.algebra = algebra
        self.p = p
        self._reps: List[Rep] = []
        self._buckets: Dict[tuple, List[int]] = {}
        self._exact: Dict[tuple, int] = {}
        self._keys: Dict[int, object] = {}
        # exact memos of pure computations, keyed by (dims, maps)
        self._homs: Dict[tuple, HomSpace] = {}
        self._splits: Dict[tuple, Tuple[Rep, ...]] = {}
        self._syzygies: Dict[tuple, Tuple[Rep, Tuple[FpMatrix, ...], Rep]] = {}
        self._flags: Dict[int, Dict[str, bool]] = {}
        self._torus: Dict[int, Tuple[int, ...]] = {}
        self._proj: Dict[str, Rep] = {}

    # -- basic objects -------------------------------------------------------

    def zero(self) -> Rep:
        return zero_rep(self.algebra, self.p)

    def simple(self, v: str) -> Rep:
        return make_simple(self.algebra, self.p, v)

    def gen_simple(self, v: str) -> Rep:
        return make_generalized_simple(self.algebra, self.p, v)

    def projective(self, v: str) -> Rep:
        if v not in self._proj:
            self._proj[v] = regular_projective(self.algebra, self.p, v)
        return self._proj[v]

    # -- registry --------------------------------------------------------------

    def intern(self, rep: Rep, key=None) -> int:
        """Registry id of rep; ``key`` is its class key when already known."""
        if rep.algebra is not self.algebra or rep.p != self.p:
            raise AlgebraMismatch("rep belongs to a different context")
        exact = (rep.dims, rep.maps)
        mid = self._exact.get(exact)
        if mid is not None:
            return mid
        bucket = self._buckets.setdefault(fingerprint(rep), [])
        for mid in bucket:
            # the member's summands are interned before the newcomer's,
            # which keeps registry ids in their established order
            known = self._key_of(mid)
            if key is None:
                key = self._class_key(rep)
            if self._keys_match(known, key):
                break
        else:
            mid = len(self._reps)
            self._reps.append(rep)
            bucket.append(mid)
            if key is not None:
                self._keys[mid] = key
        self._exact[exact] = mid
        return mid

    def rep(self, mid: int) -> Rep:
        return self._reps[mid]

    def registry_size(self) -> int:
        return len(self._reps)

    def index(self) -> List[tuple]:
        """(fingerprint, class key) of each registry id, in id order; the key
        is None when never computed, "indecomposable", or the summand ids."""
        fingerprints = {mid: fp for fp, bucket in self._buckets.items() for mid in bucket}
        keys = [self._keys.get(mid) for mid in range(len(self._reps))]
        return [(fingerprints[mid], "indecomposable" if isinstance(key, Rep) else key)
                for mid, key in enumerate(keys)]

    def restore(self, reps: Sequence[Rep], index: Sequence[tuple]) -> None:
        """Adopt the registry that ``reps`` and their ``index()`` (or its
        JSON round trip) describe, computing no fingerprint or class key.
        It must extend this registry: the same reps first, then new classes.
        Raises ValueError, changing nothing, on any other snapshot."""
        known, size = len(self._reps), len(reps)
        exact = {(rep.dims, rep.maps): mid for mid, rep in enumerate(reps)}
        prefix = [(rep.dims, rep.maps) for rep in self._reps]
        if (len(index) != size or len(exact) != size
                or [(rep.dims, rep.maps) for rep in reps[:known]] != prefix):
            raise ValueError("the snapshot does not extend this registry")
        entries = []
        for rep, ((dims, ranks, soc, top), key) in zip(reps, index):
            if key == "indecomposable":
                key = rep
            elif key is not None:
                key = tuple(key)
            if (rep.algebra is not self.algebra or rep.p != self.p or tuple(dims) != rep.dims
                    or isinstance(key, tuple) and not all(0 <= i < size for i in key)):
                raise ValueError("malformed registry index entry")
            entries.append(((rep.dims, tuple(map(tuple, ranks)), tuple(soc), tuple(top)), key))
        for mid in range(known, size):
            fp, key = entries[mid]
            self._reps.append(reps[mid])
            self._buckets.setdefault(fp, []).append(mid)
            if key is not None:
                self._keys[mid] = key
        self._exact.update(exact)

    def end_dim(self, mid: int) -> int:
        rep = self._reps[mid]
        return self.hom(rep, rep).dim

    # -- Hom spaces ----------------------------------------------------------------

    def hom(self, M: Rep, N: Rep) -> HomSpace:
        """hom_space(M, N), memoized when both reps belong to this context;
        any other pair goes to hom_space, which refuses mixed algebras."""
        if (M.algebra is not self.algebra or N.algebra is not self.algebra
                or M.p != self.p or N.p != self.p):
            return hom_space(M, N)
        key = (M.dims, M.maps, N.dims, N.maps)
        hs = self._homs.get(key)
        if hs is None:
            hs = self._homs[key] = hom_space(M, N)
        return hs

    # -- isomorphism -------------------------------------------------------------

    def iso_test(self, M: Rep, N: Rep) -> bool:
        if M.dims != N.dims:
            return False
        if M.total_dim == 0:
            return True
        if fingerprint(M) != fingerprint(N):
            return False
        if M.maps == N.maps:
            return True
        return self._keys_match(self._class_key(M), self._class_key(N))

    def _class_key(self, rep: Rep):
        """The sorted summand ids of rep, or rep itself when indecomposable."""
        parts = self._split_raw(rep)
        if len(parts) == 1:
            return rep
        return tuple(sorted(self.intern(r, key=r) for r in parts))

    def _key_of(self, mid: int):
        if mid not in self._keys:
            self._keys[mid] = self._class_key(self._reps[mid])
        return self._keys[mid]

    def _keys_match(self, a, b) -> bool:
        # Krull-Schmidt: equal summand multisets, or isomorphic indecomposables
        if isinstance(a, tuple) or isinstance(b, tuple):
            return a == b
        return self._iso_indecomposable(a, b)

    def _iso_indecomposable(self, M: Rep, N: Rep) -> bool:
        """M and N indecomposable.  If phi: M -> N is an isomorphism, the
        non-isomorphisms in Hom(M, N) form the proper subspace phi rad End M,
        which cannot hold a basis; so some basis element is invertible."""
        return any(hom_is_invertible(f) for f in self.hom(M, N).basis)

    # -- automorphism count ----------------------------------------------------------

    def aut_count(self, M: Rep) -> int:
        if M.total_dim == 0:
            return 1
        es = self.hom(M, M)
        d = es.dim
        if d > END_DIM_CAP:
            raise CapExceeded(f"End dimension {d} above cap {END_DIM_CAP}")
        total = 0
        for coeffs in itertools.product(range(self.p), repeat=d):
            if hom_is_invertible(hom_combine(es, coeffs)):
                total += 1
        return total

    # -- Krull-Schmidt ------------------------------------------------------------------

    def decompose(self, rep_or_mid) -> Tuple[int, ...]:
        """Indecomposable summand ids with multiplicity, sorted."""
        mid = rep_or_mid if isinstance(rep_or_mid, int) else self.intern(rep_or_mid)
        key = self._key_of(mid)
        return key if isinstance(key, tuple) else (mid,)

    def _split_raw(self, rep: Rep) -> Tuple[Rep, ...]:
        """Indecomposable pieces as plain representations (no interning)."""
        exact = (rep.dims, rep.maps)
        parts = self._splits.get(exact)
        if parts is None:
            parts = self._splits[exact] = self._split(rep)
        return parts

    def _split(self, rep: Rep) -> Tuple[Rep, ...]:
        if rep.total_dim == 0:
            return ()
        es = self.hom(rep, rep)
        d = es.dim
        if d == 1:
            return (rep,)
        # Fitting: a map neither nilpotent nor invertible splits rep into the
        # image and kernel of a high power.  A nontrivial idempotent is such a
        # map, and so is every nonzero multiple, so rep is indecomposable iff
        # no line of End splits it.  The d basis lines come first; the caps
        # bound only the search over the other lines.
        basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        others = (c for c in linalg.iter_monic_vectors(self.p, d) if c not in basis)
        steps = max(1, rep.total_dim.bit_length())
        for k, coeffs in enumerate(itertools.chain(basis, others)):
            if k == d and (d > END_DIM_CAP or
                           (self.p ** d - 1) // (self.p - 1) > ENUM_BUDGET):
                raise CapExceeded(f"line search over End dimension {d} above caps")
            mats = hom_combine(es, coeffs)
            for _ in range(steps):
                mats = tuple(m @ m for m in mats)
            images = image_subspaces(rep, mats)
            isum = sum(s.dim for s in images)
            if 0 < isum < rep.total_dim:
                part1, _ = subrep(rep, images)
                part2, _ = subrep(rep, kernel_subspaces(mats))
                return self._split_raw(part1) + self._split_raw(part2)
        return (rep,)

    # -- projective presentations and Ext ------------------------------------------------

    def projective_cover(self, M: Rep) -> Tuple[Rep, Tuple[FpMatrix, ...]]:
        """(P0, pi) with pi: P0 ->> M the cover along top(M) = M / rad M."""
        alg, p = self.algebra, self.p
        summands: List[Tuple[str, tuple]] = []
        for i, v in enumerate(alg.vertices):
            ins = [M.map(a.id) for a in alg.arrow_map.values() if a.tgt == v]
            radv = linalg.image_basis(linalg.hstack(ins)) if ins else \
                Subspace.zero(p, M.dims[i])
            piv = set(radv.pivots())
            for c in range(M.dims[i]):
                if c not in piv:
                    lift = tuple(1 if k == c else 0 for k in range(M.dims[i]))
                    summands.append((v, lift))
        if not summands:
            if M.total_dim:
                raise PresentationFailure("nonzero module with empty top")
            z = self.zero()
            return z, tuple(FpMatrix.zeros(p, 0, 0) for _ in alg.vertices)
        parts = [self.projective(v) for v, _ in summands]
        P0 = direct_sum(parts)
        # assemble pi columns: each basis path of each summand lands where the
        # path acts on the chosen top lift
        cols_at: Dict[int, List[tuple]] = {i: [] for i in range(len(alg.vertices))}
        for (v, lift), part in zip(summands, parts):
            paths = [b for b in alg.basis if b.src == v]
            by_tgt: Dict[str, List[BasisPath]] = {}
            for b in paths:
                by_tgt.setdefault(b.tgt, []).append(b)
            for u in alg.vertices:
                for b in by_tgt.get(u, []):
                    vec = path_action_matrix(M, b).apply(lift)
                    cols_at[alg.vidx[u]].append(vec)
        pi = []
        for i, v in enumerate(alg.vertices):
            cols = cols_at[i]
            mat = FpMatrix.from_rows(p, [[col[r] for col in cols] for r in range(M.dims[i])],
                                     cols=len(cols)) if cols else FpMatrix.zeros(p, M.dims[i], 0)
            if linalg.rank(mat) != M.dims[i]:
                raise PresentationFailure("projective cover is not surjective")
            pi.append(mat)
        return P0, tuple(pi)

    def syzygy(self, M: Rep) -> Tuple[Rep, Tuple[FpMatrix, ...], Rep]:
        """(Omega, inclusion into P0, P0) for the cover P0 ->> M."""
        exact = (M.dims, M.maps)
        syz = self._syzygies.get(exact)
        if syz is None:
            P0, pi = self.projective_cover(M)
            omega, incl = subrep(P0, kernel_subspaces(pi))
            syz = self._syzygies[exact] = (omega, incl, P0)
        return syz

    def _flatten_hom(self, hom: Sequence[FpMatrix]) -> tuple:
        return tuple(x for m in hom for row in m.data for x in row)

    def ext1_data(self, M: Rep, N: Rep):
        """Shared Ext^1 plumbing: returns (omega, incl, P0, hom_ON basis,
        complement homs spanning Ext^1, dim Ext^1)."""
        if M.total_dim == 0:
            return None
        omega, incl, P0 = self.syzygy(M)
        hom_p0 = self.hom(P0, N)
        restricted = []
        for f in hom_p0.basis:
            restricted.append(tuple(fv @ iv for fv, iv in zip(f, incl)))
        hom_on = self.hom(omega, N)
        if hom_on.dim == 0:
            return (omega, incl, P0, hom_on, [], 0)
        veclen = len(self._flatten_hom(hom_on.basis[0])) if hom_on.dim else 0
        image_rows = [self._flatten_hom(r) for r in restricted]
        image_rows = [r for r in image_rows if any(r)]
        img = Subspace.from_vectors(self.p, veclen, image_rows) if veclen else \
            Subspace.zero(self.p, 0)
        complements = []
        span = img
        for hom in hom_on.basis:
            vec = self._flatten_hom(hom)
            if not span.contains_vector(vec):
                complements.append(hom)
                span = span.sum(Subspace.from_vectors(self.p, veclen, [vec]))
        ext_dim = hom_on.dim - img.dim
        assert len(complements) == ext_dim
        return (omega, incl, P0, hom_on, complements, ext_dim)

    def ext1_dim(self, M: Rep, N: Rep) -> int:
        data = self.ext1_data(M, N)
        return 0 if data is None else data[5]

    def ext2_dim(self, M: Rep, N: Rep) -> int:
        if M.total_dim == 0:
            return 0
        omega, _, _ = self.syzygy(M)
        return self.ext1_dim(omega, N)

    def ext1_classify(self, M: Rep, N: Rep) -> ExtClassification:
        """Count extensions of M by N (N the submodule) per middle term."""
        hom_dim = self.hom(M, N).dim
        data = self.ext1_data(M, N)
        if data is None:
            return ExtClassification(((self.intern(N), 1),), hom_dim, 0)
        omega, incl, P0, _, complements, ext_dim = data
        if ext_dim > EXT_DIM_CAP:
            raise CapExceeded(f"Ext dimension {ext_dim} above cap {EXT_DIM_CAP}")
        alg, p = self.algebra, self.p
        counts: Dict[int, int] = {}
        D = direct_sum([N, P0])
        for coeffs in itertools.product(range(p), repeat=ext_dim):
            xi = [FpMatrix.zeros(p, N.dims[i], omega.dims[i]) for i in range(len(alg.vertices))]
            for c, hom in zip(coeffs, complements):
                if c:
                    xi = [acc + m.scale(c) for acc, m in zip(xi, hom)]
            subspaces = []
            for i in range(len(alg.vertices)):
                vecs = []
                for j in range(omega.dims[i]):
                    top = tuple(xi[i].data[r][j] for r in range(N.dims[i]))
                    bot = tuple((-incl[i].data[r][j]) % p for r in range(P0.dims[i]))
                    vecs.append(top + bot)
                subspaces.append(Subspace.from_vectors(p, D.dims[i], vecs))
            E, _ = quotient(D, subspaces)
            mid = self.intern(E)
            counts[mid] = counts.get(mid, 0) + 1
        return ExtClassification(tuple(sorted(counts.items())), hom_dim, ext_dim)

    # -- homological predicates ------------------------------------------------------------

    def is_kq_module(self, M: Rep) -> bool:
        return all(M.map(eid).is_zero() for eid in self.algebra.eps_of_vertex.values())

    def is_gproj(self, M: Rep) -> bool:
        """Restriction test: for each vertex, the combined map from all
        original-arrow sources into it must be injective."""
        alg = M.algebra
        for v in alg.vertices:
            ins = [M.map(a.id) for a in alg.q_arrows if a.tgt == v]
            if not ins:
                continue
            stacked = linalg.hstack(ins)
            if linalg.rank(stacked) != stacked.cols:
                return False
        return True

    def is_p_leq1(self, M: Rep) -> bool:
        """Finite projective dimension: the eps complex is exact per orbit."""
        alg = M.algebra
        if not alg.has_eps:
            return True
        tau = alg.tau
        seen = set()
        for v in alg.vertices:
            if v in seen:
                continue
            seen |= {v, tau[v]}
            ev = M.map(alg.eps_of_vertex[v])
            if tau[v] == v:
                if linalg.kernel_basis(ev) != linalg.image_basis(ev):
                    return False
            else:
                ew = M.map(alg.eps_of_vertex[tau[v]])
                if linalg.kernel_basis(ev) != linalg.image_basis(ew):
                    return False
                if linalg.kernel_basis(ew) != linalg.image_basis(ev):
                    return False
        return True

    def predicates(self, M: Rep) -> Dict[str, bool]:
        gp = self.is_gproj(M)
        return {"is_kq_module": self.is_kq_module(M),
                "is_kq_projective_restriction": gp,
                "is_gproj": gp,
                "is_P_leq1": self.is_p_leq1(M)}

    def flags(self, mid: int) -> Dict[str, bool]:
        if mid not in self._flags:
            self._flags[mid] = self.predicates(self._reps[mid])
        return self._flags[mid]

    # -- torus classes -----------------------------------------------------------------------

    def find_injective_from(self, small: Rep, M: Rep) -> Optional[Tuple[FpMatrix, ...]]:
        return self._find_hom(self.hom(small, M), hom_is_injective)

    def find_surjective_to(self, M: Rep, small: Rep) -> Optional[Tuple[FpMatrix, ...]]:
        return self._find_hom(self.hom(M, small), hom_is_surjective)

    def _find_hom(self, hs: HomSpace, wanted) -> Optional[Tuple[FpMatrix, ...]]:
        """The first map of hs, over its monic coefficient vectors, that is
        ``wanted``; None when there is none."""
        d = hs.dim
        if d == 0:
            return None
        if d > HOM_DIM_CAP:
            raise CapExceeded(f"Hom dimension {d} above cap {HOM_DIM_CAP}")
        for coeffs in linalg.iter_monic_vectors(self.p, d):
            mats = hom_combine(hs, coeffs)
            if wanted(mats):
                return mats
        return None

    def torus_class(self, K: Rep, order: Optional[Sequence[str]] = None) -> Tuple[int, ...]:
        """Multiset of generalized-simple filtration factors, as a vector
        over the vertex set; peels E-submodules until nothing is left."""
        if not self.is_p_leq1(K):
            raise InputError("torus class only defined for P<=1 modules")
        alg = self.algebra
        alpha = [0] * len(alg.vertices)
        verts = list(order) if order is not None else list(alg.vertices)
        current = K
        while current.total_dim:
            progressed = False
            for v in verts:
                ev = self.gen_simple(v)
                mats = self.find_injective_from(ev, current)
                if mats is None:
                    continue
                images = image_subspaces(current, mats)
                current, _ = quotient(current, images)
                alpha[alg.vidx[v]] += 1
                progressed = True
                break
            if not progressed:
                raise PeelStuck("P<=1 module with no generalized-simple submodule")
        return tuple(alpha)

    def torus_class_of_mid(self, mid: int) -> Tuple[int, ...]:
        if mid not in self._torus:
            self._torus[mid] = self.torus_class(self._reps[mid])
        return self._torus[mid]

    # -- Euler forms ------------------------------------------------------------------------

    def euler_lambda(self, M: Rep, N: Rep) -> int:
        if not (self.is_p_leq1(N) or self.is_p_leq1(M)):
            raise NotFiniteDimensionHomological(
                "Euler form needs one argument of finite projective dimension")
        return self.hom(M, N).dim - self.ext1_dim(M, N)

    # -- submodule enumeration -----------------------------------------------------------------

    def submodule_closure(self, M: Rep, subspaces: List[Subspace],
                          seed: Tuple[int, tuple]) -> List[Subspace]:
        alg = M.algebra
        vidx = alg.vidx
        vecs: List[List[tuple]] = [list(s.basis.data) for s in subspaces]
        spans = list(subspaces)
        frontier = [seed]
        vecs[seed[0]].append(seed[1])
        spans[seed[0]] = Subspace.from_vectors(M.p, M.dims[seed[0]], vecs[seed[0]])
        while frontier:
            i, x = frontier.pop()
            v = alg.vertices[i]
            for a in alg.arrow_map.values():
                if a.src != v:
                    continue
                t = vidx[a.tgt]
                y = M.map(a.id).apply(x)
                if any(y) and not spans[t].contains_vector(y):
                    vecs[t].append(y)
                    spans[t] = Subspace.from_vectors(M.p, M.dims[t], vecs[t])
                    frontier.append((t, y))
        return spans

    def submodules(self, M: Rep) -> List[Tuple[Subspace, ...]]:
        """All submodules, as tuples of per-vertex subspaces (BFS closure of
        single added generators, deduplicated by canonical RREF bases)."""
        p = M.p
        zero = tuple(Subspace.zero(p, d) for d in M.dims)
        seen = {zero}
        queue = [zero]
        out = [zero]
        while queue:
            current = queue.pop()
            for i, d in enumerate(M.dims):
                for vec in linalg.iter_monic_vectors(p, d):
                    if current[i].contains_vector(vec):
                        continue
                    closed = tuple(self.submodule_closure(M, list(current), (i, vec)))
                    if closed not in seen:
                        seen.add(closed)
                        if len(seen) > SUBMODULE_BUDGET:
                            raise BudgetExceeded(f"more than {SUBMODULE_BUDGET} submodules")
                        queue.append(closed)
                        out.append(closed)
        return out

    def submodule_count_with(self, M: Rep, sub_mid: int, quot_mid: int) -> int:
        """Exact count of submodules U with U iso sub and M/U iso quot."""
        sub_rep = self._reps[sub_mid]
        quot_rep = self._reps[quot_mid]
        if tuple(a + b for a, b in zip(sub_rep.dims, quot_rep.dims)) != M.dims:
            return 0
        count = 0
        for subspaces in self.submodules(M):
            if tuple(s.dim for s in subspaces) != sub_rep.dims:
                continue
            inner, _ = subrep(M, subspaces)
            if self.intern(inner) != sub_mid:
                continue
            outer, _ = quotient(M, subspaces)
            if self.intern(outer) == quot_mid:
                count += 1
        return count

    # -- iso-class enumeration ------------------------------------------------------------------

    def enumerate_iso_classes(self, dims_by_name: Dict[str, int],
                              budget: Optional[int] = None) -> List[int]:
        """Intern every iso class of modules with the given dimension vector.

        Every module is isomorphic to one whose eps maps are in the normal
        form of ``_eps_normal_forms``.  For each normal form the relations
        are linear in the Q-arrow maps, so their solutions are the kernel of
        one F_p system, and every kernel vector is interned.  ``budget``
        bounds the number of such candidate tuples; it is checked before
        anything is interned.
        """
        alg, p = self.algebra, self.p
        budget = budget if budget is not None else ENUM_BUDGET
        dims = tuple(int(dims_by_name.get(v, 0)) for v in alg.vertices)
        sliding = _sliding_arrows(alg)
        forms = _eps_normal_forms(alg, p, dims, budget)
        arrows = sorted(alg.q_arrows, key=lambda a: a.id)
        vidx = alg.vidx
        shapes = [(dims[vidx[a.tgt]], dims[vidx[a.src]]) for a in arrows]
        # unknowns: the entries of every Q-arrow matrix, row-major, by arrow id
        offsets, width = {}, 0
        for a, (r, c) in zip(arrows, shapes):
            offsets[a.id] = width
            width += r * c
        kernels = []
        total = 0
        for eps in forms:
            system = FpMatrix.from_rows(p, _commutation_rows(alg, dims, eps, sliding, offsets,
                                                             width), cols=width)
            basis = linalg.kernel_basis(system).basis.data
            kernels.append((eps, basis))
            total += p ** len(basis)
            if total > budget:
                raise BudgetExceeded(f"{total} candidate tuples above budget {budget}")
        found = set()
        for eps, basis in kernels:
            for coeffs in itertools.product(range(p), repeat=len(basis)):
                vec = [sum(c * b[k] for c, b in zip(coeffs, basis)) % p for k in range(width)]
                maps = dict(eps)
                for a, (r, c) in zip(arrows, shapes):
                    off = offsets[a.id]
                    maps[a.id] = FpMatrix(p, r, c, tuple(tuple(vec[off + i * c:off + (i + 1) * c])
                                                         for i in range(r)))
                found.add(self.intern(Rep(alg, p, dims, tuple(sorted(maps.items())))))
        return sorted(found)


def _sliding_arrows(alg: BoundAlgebra) -> List[Arrow]:
    """Q-arrows a with the relation eps_tgt M(a) = M(tau a) eps_src.

    Enumeration relies on the relations of the fixed-point algebra: every
    eps_{tau v} eps_v vanishes, and the rest slide an eps past an arrow.  Any
    other relation, or a missing nilpotent one, would make the eps normal
    forms or the linear system wrong, so it raises instead.
    """
    eps, tau = alg.eps_of_vertex, alg.tau
    if alg.has_eps and (set(eps) != set(alg.vertices) or
                        any(alg.arrow_map[eid].tgt != tau[v] for v, eid in eps.items())):
        raise InputError("enumeration needs one eps arrow v -> tau(v) at every vertex")
    nilpotent = {(eps[v], eps[tau[v]]) for v in eps}
    sliding = {((a.id, eps[a.tgt]), (eps[a.src], alg.tau_arrows[a.id])): a
               for a in (alg.q_arrows if alg.has_eps else ())}
    seen = set()
    out = []
    for word, other in alg.relations():
        if other is None and word in nilpotent:
            seen.add(word)
        elif (word, other) in sliding:
            out.append(sliding[(word, other)])
        else:
            raise InputError(f"cannot enumerate modules under the relation {word} = {other}")
    if seen != nilpotent:
        raise InputError("enumeration needs eps_{tau v} eps_v = 0 at every vertex")
    return out


def _pattern(p: int, rows: int, cols: int, cells) -> FpMatrix:
    data = [[0] * cols for _ in range(rows)]
    for i, j in cells:
        data[i][j] = 1
    return FpMatrix.from_rows(p, data, cols=cols)


def _eps_normal_forms(alg: BoundAlgebra, p: int, dims: Tuple[int, ...],
                      budget: int) -> List[Dict[str, FpMatrix]]:
    """One eps tuple per GL(dims)-orbit of eps tuples with eps_{tau v} eps_v = 0.

    A tau-fixed vertex carries r Jordan blocks of size 2 (2r <= d).  A
    swapped pair (v, w) is a module over the 2-cycle with radical square
    zero: r1 copies of k -> k along eps_v, r2 along eps_w, and simples.
    """
    if not alg.has_eps:
        return [{}]
    eps, tau = alg.eps_of_vertex, alg.tau
    d = dict(zip(alg.vertices, dims))
    orbits = []
    for v in alg.vertices:
        w = tau[v]
        if v == w:
            orbits.append([{eps[v]: _pattern(p, d[v], d[v], [(r + i, i) for i in range(r)])}
                           for r in range(d[v] // 2 + 1)])
        elif v < w:
            m = min(d[v], d[w])
            orbits.append([{eps[v]: _pattern(p, d[w], d[v], [(i, i) for i in range(r1)]),
                            eps[w]: _pattern(p, d[v], d[w], [(i, i) for i in range(r1, r1 + r2)])}
                           for r1 in range(m + 1) for r2 in range(m + 1 - r1)])
    count = 1
    for choices in orbits:
        count *= len(choices)
    if count > budget:
        raise BudgetExceeded(f"{count} eps normal forms above budget {budget}")
    return [{k: m for part in combo for k, m in part.items()}
            for combo in itertools.product(*orbits)]


def _commutation_rows(alg: BoundAlgebra, dims: Tuple[int, ...], eps: Dict[str, FpMatrix],
                      sliding, offsets: Dict[str, int], width: int) -> List[List[int]]:
    """eps_t M(a) - M(tau a) eps_s = 0 for each sliding arrow a: s -> t, one
    row per matrix entry, over the concatenated Q-arrow entries."""
    vidx = alg.vidx
    eps_of, tau = alg.eps_of_vertex, alg.tau
    rows = []
    for a in sliding:
        b = alg.tau_arrows[a.id]
        ds, dt = dims[vidx[a.src]], dims[vidx[a.tgt]]
        dts, dtt = dims[vidx[tau[a.src]]], dims[vidx[tau[a.tgt]]]
        e_t, e_s = eps[eps_of[a.tgt]].data, eps[eps_of[a.src]].data
        for i in range(dtt):
            for j in range(ds):
                row = [0] * width
                for k in range(dt):
                    row[offsets[a.id] + k * ds + j] += e_t[i][k]
                for k in range(dts):
                    row[offsets[b] + i * dts + k] -= e_s[k][j]
                if any(row):
                    rows.append(row)
    return rows
