"""Modules over a bound quiver algebra.

A module is a vertex-indexed family of F_p vector spaces plus one matrix
per arrow (eps arrows included), required to kill every relation of the
algebra.  Everything downstream -- Hom spaces, Ext^1 with middle-term
classification, Krull-Schmidt splitting, the Gorenstein-projective and
finite-projective-dimension predicates, eps-homology and eps-ranks, and Euler
forms -- reduces to exact F_p linear algebra on these matrices.  One
coordinate rule, ``linalg.subquotient`` with ``linalg.induced_map``, reads a
submodule in the RREF basis of each subspace and a quotient on the unit
vectors at the non-pivot columns; ``subrep`` and the eps-homology share it.

Two invariants are read off identities rather than computed from
subspaces.  Every extension 0 -> N -> E -> M -> 0 is N_v + M_v at each vertex
with E(a) = [[N(a), f_a], [0, M(a)]], and E is a module iff f lies in the
cocycles Z(M,N), where each relation is linear in f.  The coboundaries
(delta g)_a = g_t M(a) - N(a) g_s give the same extension up to isomorphism,
and ker delta = Hom(M,N), so Ext^1(M,N) = Z / im delta has dimension
dim Z - sum_v dim M_v dim N_v + dim Hom(M,N).  One RREF of [delta | Z] gives
both a basis of Ext^1 and dim Hom(M,N), the C^0 columns without a pivot, so
``ext1_classify`` builds no Hom space, and ``euler_lambda`` needs one rank:
dim Hom - dim Ext^1 = dim C^0 - dim Z.  ``ext1_classify`` alone walks Ext^1,
and it walks lines: a class and its nonzero multiples have isomorphic middle
terms, so it builds the split one with weight 1 and one per line with weight
p - 1.  The algebra is 1-Gorenstein, so M has finite projective dimension
iff its eps complex is exact, and as im eps_{tau v} lies in ker eps_v that
reads dim M_v = rk eps_v + rk eps_{tau v}.  ``homology`` builds each
im eps_v, so it returns the eps-ranks with ker eps / im eps.  Like the walk,
it reads and writes exact keys, the plain (dims, map rows) data of the
registry, and builds no rep, subspace or checked matrix per middle term.

Word products of simples meet semisimple modules at most steps.  The
product of two is read off rank vectors (``hall``), each middle term's exact
key from ``semisimple_extensions``, which the walk's ``_extension_keys``
builds.  One routine reads a semisimple module off its dims: if every map is
zero, the Kostant partition is d_v times each simple root, with no reflection
(``SinkSchedule``); the tests hold the reflections as the oracle.

A ModuleContext owns one (algebra, prime) pair and interns isomorphism
classes.  A rep seen before is found in an exact memo keyed by plain data,
its dims and map entries.  A kQ-module (every eps map zero) of a Dynkin
quiver Q is named by its Kostant partition (``quivers.SinkSchedule``), by
Gabriel's theorem a complete invariant over every field: no split, no rep.
Any other module is bucketed by its fingerprint (dims, arrow ranks,
socle/top dims), and within a bucket compared by one class key, computed
by ``_class_key`` alone and at most once per module: the sorted summand ids
of its Krull-Schmidt decomposition, or "indecomposable", which leaves two
modules to the iso test below.  ``restore`` carries the registry (its exact
keys) to another context, which builds reps and class keys lazily; its
first exact-memo miss files the restored ids by partition or fingerprint,
since only a new module is compared with them.
Both the split and the iso test of two indecomposables rest on Fitting's
lemma: the endomorphism ring of an indecomposable is local.  So a module
splits iff some line of its End space holds a map that is neither nilpotent
nor invertible, and two indecomposables are isomorphic iff some basis
element of the Hom space between them is invertible.  After the basis lines
the split first tries to certify that End is local with residue field F_p
(each element a scalar plus a nilpotent); then no line splits the module.
No step draws random numbers, so every result depends on its input alone.

So the split, which ``decompose`` runs on demand for either kind, is a pure
function of its input's matrices.  A context memoizes it by the exact
(dims, maps) of the rep, since its recursion meets the same
sub-representations again and again; the memo lives and dies with the
context.  Hom spaces are not memoized: each is built where it is read.

The classes of one dimension vector are enumerated without walking every
matrix tuple.  The relations of the fixed-point algebra are
eps_{tau v} eps_v = 0, quadratic in the eps maps alone, and
eps_tgt M(a) = M(tau a) eps_src, linear in the Q-arrow maps once eps is
fixed.  So the eps maps are put in normal form per tau-orbit (Jordan blocks
of size <= 2 at a fixed vertex, a radical-square-zero module over the
2-cycle at a swapped pair), and for each normal form the Q-arrow maps are
the kernel of the relations linearized at R_eps (those eps maps, every
Q-arrow map zero) in the Q-arrow maps, one ``_cocycle_system`` as for Z.
Every kernel vector is interned.  The brute force over all tuples, and |Aut|
and the submodule lists of Riedtmann's formula, are left to the tests as
oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import BoundAlgebra
from .errors import (AlgebraMismatch, BudgetExceeded, CapExceeded, InputError, IqError,
                     NotFiniteDimensionHomological, PresentationFailure)
from .linalg import FpMatrix, Subspace
from .util import is_prime


ENUM_BUDGET = 400000  # tuples of one enumeration, lines of one walk of Ext^1 or End


def _check_walk(count: int, what: str) -> None:
    if count > ENUM_BUDGET:
        raise CapExceeded(f"{count} {what} above budget {ENUM_BUDGET}")


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
    def exact(self) -> tuple:
        """The exact key: dims and the rows of each map, by arrow id."""
        return self.dims, tuple(m.data for _, m in self.maps)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def dims_by_name(self) -> Dict[str, int]:
        return {v: d for v, d in zip(self.algebra.vertices, self.dims)}

    def to_json(self) -> dict:
        return {"algebra": self.algebra.content_hash(), "p": self.p,
                "dims": self.dims_by_name(),
                "maps": {aid: [list(r) for r in m.data] for aid, m in self.maps
                         if not m.is_zero()}}


def make_rep(algebra: BoundAlgebra, p: int, dims_by_name: Dict[str, int],
             maps_by_id: Dict[str, FpMatrix]) -> Rep:
    unknown = sorted(v for v in dims_by_name if v not in algebra.vidx)
    if unknown:
        raise InputError(f"module names unknown vertices: {', '.join(unknown)}")
    dims = tuple(int(dims_by_name.get(v, 0)) for v in algebra.vertices)
    vidx = algebra.vidx
    full = {}
    for a in algebra.arrow_map.values():
        want = (dims[vidx[a.tgt]], dims[vidx[a.src]])
        m = maps_by_id.get(a.id) or FpMatrix.zeros(p, *want)
        if (m.rows, m.cols) != want or m.p != p:
            raise InputError(f"map for arrow {a.id} has wrong shape or modulus")
        full[a.id] = m
    return Rep(algebra, p, dims, tuple(sorted(full.items())))


def _json_int(x, low: Optional[int] = None) -> int:
    if type(x) is not int or (low is not None and x < low):
        raise ValueError(f"{x!r} is not an integer" + ("" if low is None else f" >= {low}"))
    return x


def rep_from_json(algebra: BoundAlgebra, data: dict) -> Rep:
    """The rep of a module description as ``Rep.to_json`` writes it: JSON
    integers >= 0 for dimensions and JSON integers for matrix entries."""
    try:
        p = _json_int(data["p"], 2)
        dims = {str(k): _json_int(v, 0) for k, v in data["dims"].items()}
        raw = dict(data.get("maps", {}))
        maps = {aid: FpMatrix.from_rows(p, [[_json_int(x) for x in row] for row in rows],
                                        cols=len(rows[0]))
                for aid, rows in raw.items() if rows}
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise InputError(f"malformed module description: {err!r}") from None
    unknown = sorted(set(raw) - set(algebra.arrow_map))
    if unknown:
        raise InputError(f"module names unknown arrow ids: {', '.join(unknown)}")
    return make_rep(algebra, p, dims, maps)


def zero_rep(algebra: BoundAlgebra, p: int) -> Rep:
    return make_rep(algebra, p, {}, {})


def word_matrix(rep: Rep, word: Sequence[str]) -> FpMatrix:
    """The product of the maps along a nonempty word, in application order."""
    m = rep.map(word[0])
    for aid in word[1:]:
        m = rep.map(aid) @ m
    return m


def satisfies_relations(rep: Rep) -> bool:
    return all(word_matrix(rep, word).is_zero() if other is None
               else word_matrix(rep, word) == word_matrix(rep, other)
               for word, other in rep.algebra.relations())


def direct_sum(reps: Sequence[Rep]) -> Rep:
    """The block-diagonal sum: each rep folds onto the sum so far as a split extension."""
    if not reps:
        raise InputError("direct sum of nothing; pass the zero rep explicitly")
    for r in reps:
        _check_same_context("direct sum", reps[0], r)
    acc = reps[0]
    for r in reps[1:]:
        acc = extension(r, acc, (0,) * _arrow_offsets(r, acc)[1])
    return acc


# -- distinguished small modules ----------------------------------------------


def regular_projective(algebra: BoundAlgebra, p: int, v: str) -> Rep:
    """The left module on basis paths starting at v, arrows acting by
    composition."""
    cols: Dict[str, List[int]] = {u: [] for u in algebra.vertices}
    for i, b in enumerate(algebra.basis):
        if b.src == v:
            cols[b.tgt].append(i)
    pos = {i: k for idxs in cols.values() for k, i in enumerate(idxs)}
    dims = {u: len(idxs) for u, idxs in cols.items()}
    maps = {}
    for a in algebra.arrow_map.values():
        m = [[0] * dims.get(a.src, 0) for _ in range(dims.get(a.tgt, 0))]
        apath = algebra.arrow_basis_path(a.id)
        aidx = algebra.index[(apath.arrows, apath.eps, apath.src)]
        for j, bi in enumerate(cols[a.src]):
            out = algebra.mult(aidx, bi)
            if out is not None:
                m[pos[out]][j] = 1
        maps[a.id] = FpMatrix.from_rows(p, m, cols=dims.get(a.src, 0))
    return make_rep(algebra, p, dims, maps)


def change_algebra(rep: Rep, algebra: BoundAlgebra) -> Rep:
    """The same spaces and maps over another algebra on the same vertices:
    maps of arrows it lacks are dropped, arrows it adds act by zero.  So a
    path-algebra module pulls back to the enriched algebra with every eps map
    zero, and an enriched module restricts to the path algebra."""
    return make_rep(algebra, rep.p, rep.dims_by_name(), dict(rep.maps))


# -- Hom spaces -----------------------------------------------------------------


@dataclass(frozen=True)
class HomSpace:
    source: Rep
    target: Rep
    basis: Tuple[Tuple[FpMatrix, ...], ...]   # each hom: one matrix per vertex

    @property
    def dim(self) -> int:
        return len(self.basis)


def _vertex_offsets(M: Rep, N: Rep) -> Tuple[List[int], int]:
    """Where each g_v: M_v -> N_v starts in C^0, stored row-major one vertex
    after another, and dim C^0."""
    offsets = list(itertools.accumulate((n * m for m, n in zip(M.dims, N.dims)), initial=0))
    return offsets[:-1], offsets[-1]


def _delta_rows(M: Rep, N: Rep) -> Iterator[List[int]]:
    """The matrix of delta: C^0 -> C^1, (delta g)_a = g_t M(a) - N(a) g_s, one
    row per coordinate of C^1.  C^1 holds the tuples f of maps
    f_a: M_s(a) -> N_t(a), each row-major, arrows in the order of
    ``Rep.maps``.  Hom(M, N) = ker delta."""
    alg, p = M.algebra, M.p
    offsets, total = _vertex_offsets(M, N)
    vidx = alg.vidx
    for (aid, ma), (_, na) in zip(M.maps, N.maps):
        a = alg.arrow_map[aid]
        s, t = vidx[a.src], vidx[a.tgt]
        # entry (i, j) of g_t M(a) - N(a) g_s
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = [0] * total
                for k in range(M.dims[t]):
                    row[offsets[t] + i * M.dims[t] + k] = ma.data[k][j] % p
                for k in range(N.dims[s]):
                    row[offsets[s] + k * M.dims[s] + j] = (row[offsets[s] + k * M.dims[s] + j]
                                                           - na.data[i][k]) % p
                yield row


def _check_same_context(what: str, M: Rep, N: Rep) -> None:
    if M.algebra is not N.algebra or M.p != N.p:
        raise AlgebraMismatch(f"{what} of reps over different algebras or primes")


def hom_space(M: Rep, N: Rep) -> HomSpace:
    """Basis of the intertwiner space: f_tgt M(a) = N(a) f_src for all arrows."""
    _check_same_context("Hom", M, N)
    rows = [row for row in _delta_rows(M, N) if any(row)]
    ker = linalg.kernel_basis(FpMatrix.from_rows(M.p, rows, cols=_vertex_offsets(M, N)[1]))
    return HomSpace(M, N, tuple(linalg.blocks(M.p, vec, zip(N.dims, M.dims))
                                for vec in ker.basis.data))


def _arrow_offsets(M: Rep, N: Rep, arrows=None) -> Tuple[Dict[str, int], int]:
    """Where each f_a: M_s(a) -> N_t(a) starts in C^1 (see ``_delta_rows``),
    and dim C^1.  With ``arrows`` given, C^1 holds only their maps."""
    offsets, width = {}, 0
    for (aid, ma), (_, na) in zip(M.maps, N.maps):
        if arrows is None or aid in arrows:
            offsets[aid] = width
            width += na.rows * ma.cols
    return offsets, width


def _cocycle_system(M: Rep, N: Rep, arrows=None) -> FpMatrix:
    """The relations linearized at E_f in the maps f_a of ``arrows`` (every
    arrow by default), over the coordinates of ``_arrow_offsets``.  For a
    word a_1 ... a_k (a_1 applied first) the upper-right block of
    E_f(a_k) ... E_f(a_1) is the sum over the i with a_i in ``arrows`` of
    N(a_k ... a_{i+1}) f_{a_i} M(a_{i-1} ... a_1); a relation gives one row
    per entry of its block.  Over every arrow the kernel is Z(M, N); over
    the Q-arrows at M = N = R_eps (see ``enumerate_iso_classes``) it is the
    Q-arrow maps that make a module with the eps maps of R_eps."""
    alg, p = M.algebra, M.p
    offsets, width = _arrow_offsets(M, N, arrows)
    rows: List[List[int]] = []
    for word, other in alg.relations():
        src, tgt = alg.arrow_map[word[0]].src, alg.arrow_map[word[-1]].tgt
        ms, nt = M.dims[alg.vidx[src]], N.dims[alg.vidx[tgt]]
        other = other or ()
        if not ms or not nt or offsets.keys().isdisjoint(word + other):
            continue     # an empty block, or no unknown: the relation gives no row
        block = [[0] * width for _ in range(nt * ms)]
        for letters, sign in ((word, 1), (other, -1)):
            for i, aid in enumerate(letters):
                if aid not in offsets:
                    continue
                after = word_matrix(N, letters[i + 1:]) if letters[i + 1:] else FpMatrix.identity(p, nt)
                right = (word_matrix(M, letters[:i]) if i else FpMatrix.identity(p, ms)).data
                off, cols = offsets[aid], M.map(aid).cols
                # entry (r, c) of after f_a right: after[r][k] f_a[k][l] right[l][c]
                for r, lrow in enumerate(after.data):
                    for k, x in enumerate(lrow):
                        if x:
                            for c in range(ms):
                                row = block[r * ms + c]
                                for l in range(cols):
                                    row[off + k * cols + l] += sign * x * right[l][c]
        rows.extend(row for row in block if any(row))
    return FpMatrix.from_rows(p, rows, cols=width)


def _ext1_basis(M: Rep, N: Rep) -> Tuple[List[tuple], int]:
    """Cocycles whose classes form a basis of Ext^1(M, N) = Z / im delta, and
    dim Hom(M, N), both read off the pivots of one RREF of [delta | Z]: the
    basis vectors of Z outside the span of im delta and of the ones kept
    before, and dim ker delta, the C^0 columns that hold no pivot."""
    _check_same_context("Ext^1", M, N)
    c0 = _vertex_offsets(M, N)[1]
    cocycles = linalg.kernel_basis(_cocycle_system(M, N)).basis.data
    stacked = FpMatrix.from_rows(M.p, [row + [z[r] for z in cocycles]
                                       for r, row in enumerate(_delta_rows(M, N))],
                                 cols=c0 + len(cocycles))
    _, rank, pivots = linalg.rref(stacked)
    # a split extension satisfies the relations, so every coboundary is a
    # cocycle and im delta + Z is Z
    if rank != len(cocycles):
        raise PresentationFailure(f"a coboundary breaks the relations: im delta + Z has "
                                  f"dimension {rank}, Z has {len(cocycles)}")
    return [cocycles[c - c0] for c in pivots if c >= c0], c0 - sum(c < c0 for c in pivots)


def _extension_keys(arrows, M: tuple, N: tuple, only=None):
    """For the exact keys M and N over ``arrows`` (see ``_arrows``): the width
    of C^1, its nonzero blocks (s, t, offset, rows, cols), and tuple f -> the
    exact key of E_f, N_v + M_v at each vertex and E_f(a) = [[N(a), f_a], [0, M(a)]].
    C^1 holds the f_a: M_s -> N_t, row-major, of the arrows at the indices in
    ``only`` (all by default, as in ``_delta_rows``); the other f_a are 0."""
    (mdims, mdatas), (ndims, ndatas) = M, N
    dims = tuple(n + m for n, m in zip(ndims, mdims))
    parts, live, width = [], [], 0
    for col, ((_, s, t), mrows, nrows) in enumerate(zip(arrows, mdatas, ndatas)):
        cols = mdims[s] if nrows and (only is None or col in only) else 0
        bottom = tuple([(0,) * ndims[s] + mrow for mrow in mrows])
        if cols:
            live.append((s, t, width, len(nrows), cols))
        else:   # no f_a: E_f(a) is the same for every f
            bottom, nrows = tuple([nrow + (0,) * mdims[s] for nrow in nrows]) + bottom, ()
        parts.append((nrows, width, cols, bottom))
        width += len(nrows) * cols
    return width, live, lambda f: (dims, tuple(
        tuple([nrow + f[off + i * cols:off + (i + 1) * cols] for i, nrow in enumerate(top)])
        + bottom for top, off, cols, bottom in parts))


def extension(M: Rep, N: Rep, f: Sequence[int]) -> Rep:
    """E_f as a rep (see ``_extension_keys``)."""
    _, _, middle = _extension_keys(_arrows(M.algebra), M.exact, N.exact)
    return _from_exact(M.algebra, M.p, middle(tuple(f)))


def _arrows(algebra: BoundAlgebra) -> Tuple[Tuple[str, int, int], ...]:
    """(id, source index, target index) of each arrow, in the order of ``Rep.maps``."""
    return tuple((aid, algebra.vidx[a.src], algebra.vidx[a.tgt])
                 for aid, a in sorted(algebra.arrow_map.items()))


def _from_exact(algebra: BoundAlgebra, p: int, exact: tuple) -> Rep:
    """The rep of an exact key."""
    dims, datas = exact
    return Rep(algebra, p, dims, tuple((aid, linalg._raw(p, len(data), dims[s], data))
                                       for (aid, s, _), data in zip(_arrows(algebra), datas)))


def hom_combine(hs: HomSpace, coeffs: Sequence[int]) -> Tuple[FpMatrix, ...]:
    """The map sum_i coeffs[i] basis[i], one matrix per vertex, each built once."""
    p = hs.source.p
    terms = [(c, hom) for c, hom in zip(coeffs, hs.basis) if c % p]
    shapes = list(zip(hs.target.dims, hs.source.dims))
    vec = [sum(c * hom[v].data[i][j] for c, hom in terms) % p
           for v, (n, m) in enumerate(shapes) for i in range(n) for j in range(m)]
    return linalg.blocks(p, vec, shapes)


def hom_is_invertible(mats: Sequence[FpMatrix]) -> bool:
    return all(m.rows == m.cols and linalg.rank(m) == m.rows for m in mats)


# -- sub and quotient representations -------------------------------------------


def subrep(M: Rep, subspaces: Sequence[Subspace]) -> Rep:
    """Restrict M to arrow-closed subspaces, in the coordinates of their RREF
    bases: the subquotients U / 0 of ``linalg.induced_map``."""
    vidx, parts = M.algebra.vidx, [s.subquotient() for s in subspaces]
    return _from_exact(M.algebra, M.p, (tuple(s.dim for s in subspaces), tuple(
        linalg.induced_map(M.p, M.map(a.id).data, parts[vidx[a.src]], parts[vidx[a.tgt]])
        for _, a in sorted(M.algebra.arrow_map.items()))))


# -- fingerprints -----------------------------------------------------------------


def fingerprint(M: Rep) -> tuple:
    """Cheap isomorphism invariants: dims, arrow ranks in arrow order, socle
    and top dims."""
    alg = M.algebra
    ranks = tuple(linalg.rank(m) for _, m in M.maps)
    soc, top = [], []
    for d, v in zip(M.dims, alg.vertices):
        outs = [M.map(a.id) for a in alg.arrow_map.values() if a.src == v]
        ins = [M.map(a.id) for a in alg.arrow_map.values() if a.tgt == v]
        soc.append(d - (linalg.rank(linalg.vstack(outs)) if outs else 0))
        top.append(d - (linalg.rank(linalg.hstack(ins)) if ins else 0))
    return (M.dims, ranks, tuple(soc), tuple(top))


# -- the context: registry plus cached machinery ----------------------------------


@dataclass(frozen=True)
class ExtClassification:
    pairs: Tuple[tuple, ...]   # (label of middle term, count), sorted by label
    hom_dim: int
    ext_dim: int


class ModuleContext:
    """All module-level computations for one (algebra, prime) pair."""

    def __init__(self, algebra: BoundAlgebra, p: int):
        if not is_prime(p):
            raise InputError(f"the modulus {p} is not a prime")
        self.algebra = algebra
        self.p = p
        self.arrows = _arrows(algebra)
        cols = {aid: c for c, (aid, _, _) in enumerate(self.arrows)}
        eps = algebra.eps_of_vertex
        self._eps_cols = [cols[eps[v]] for v in algebra.vertices if v in eps]   # by vertex
        self._q_cols = [cols[a.id] for a in algebra.q_arrows]   # in schedule order
        self._registry: List[tuple] = []           # the exact key of each id
        self._reps: List[Optional[Rep]] = []       # each id's rep, once built
        self._classes: Dict[tuple, int] = {}       # Kostant partition -> id
        self._buckets: Dict[tuple, List[int]] = {}   # fingerprint -> ids
        self._unfiled: List[int] = []              # restored ids in neither, till a miss
        self._exact: Dict[tuple, int] = {}
        self._keys: Dict[int, object] = {}         # the _class_key of each id, once computed
        self._splits: Dict[tuple, Tuple[Rep, ...]] = {}   # keyed by (dims, maps)

    # -- basic objects -------------------------------------------------------

    def zero(self) -> Rep:
        return zero_rep(self.algebra, self.p)

    def simple(self, v: str) -> Rep:
        return make_rep(self.algebra, self.p, {v: 1}, {})

    def gen_simple(self, v: str) -> Rep:
        """k[eps]/(eps^2) at a tau-fixed vertex, or the two-vertex module with
        eps_v an isomorphism and eps_{tau v} zero."""
        alg, p = self.algebra, self.p
        if not alg.has_eps:
            raise InputError("generalized simples need the eps arrows")
        if alg.tau[v] == v:
            eps = FpMatrix.from_rows(p, [[0, 0], [1, 0]])
            return make_rep(alg, p, {v: 2}, {alg.eps_of_vertex[v]: eps})
        one = FpMatrix.from_rows(p, [[1]])
        return make_rep(alg, p, {v: 1, alg.tau[v]: 1}, {alg.eps_of_vertex[v]: one})

    def projective(self, v: str) -> Rep:
        return regular_projective(self.algebra, self.p, v)

    # -- registry --------------------------------------------------------------

    def exact(self, rep: Rep) -> tuple:
        """The exact key of a rep of this context: dims and map rows."""
        if not self._owns(rep):
            raise AlgebraMismatch("rep belongs to a different context")
        return rep.exact

    def exact_key(self, mid: int) -> tuple:
        """The exact key of a registry id."""
        return self._registry[mid]

    def intern(self, rep: Rep) -> int:
        """Registry id of rep."""
        return self._intern_exact(self.exact(rep), rep)

    def _intern_exact(self, exact: tuple, rep: Optional[Rep] = None) -> int:
        """Registry id of an exact key.  A class named by its partition
        stores no rep; only the fingerprint path builds one, if not given.
        The first miss after ``restore`` files the restored ids."""
        mid = self._exact.get(exact)
        if mid is not None:
            return mid
        if self._unfiled:
            self._file_restored()
        lam = self._partition(exact)
        if lam is not None:
            mid = self._classes.get(lam)
            if mid is None:
                mid = self._classes[lam] = self._add(exact, None)
        else:
            rep = rep or _from_exact(self.algebra, self.p, exact)
            bucket = self._buckets.setdefault(fingerprint(rep), [])
            key = None
            for mid in bucket:
                # the member's summands are interned before the newcomer's,
                # which keeps registry ids in their established order
                known = self._key_of(mid)
                if key is None:
                    key = self._class_key(rep)
                # Krull-Schmidt: equal summand multisets, or isomorphic indecomposables
                if known == key and (key != "indecomposable"
                                     or self._iso_indecomposable(self.rep(mid), rep)):
                    break
            else:
                mid = self._add(exact, rep)
                bucket.append(mid)
                if key is not None:
                    self._keys[mid] = key
        self._exact[exact] = mid
        return mid

    def _add(self, exact: tuple, rep: Optional[Rep]) -> int:
        self._registry.append(exact)
        self._reps.append(rep)
        return len(self._reps) - 1

    def partition(self, mid: int):
        """The Kostant partition of a registry id, or None (see ``_partition``)."""
        return self._partition(self._registry[mid])

    def _partition(self, exact: tuple):
        """The Kostant partition of a kQ-module (no eps map of ``exact``
        nonzero) when Q is Dynkin, else None."""
        dims, datas = exact
        if linalg.all_zero(map(datas.__getitem__, self._eps_cols)) and self.algebra.sinks:
            return self.algebra.sinks.partition(self.p, dims, [datas[c] for c in self._q_cols])

    def rep(self, mid: int) -> Rep:
        """The rep of a registry id, built from its exact key on first use."""
        if self._reps[mid] is None:
            self._reps[mid] = _from_exact(self.algebra, self.p, self._registry[mid])
        return self._reps[mid]

    def dims(self, mid: int) -> Tuple[int, ...]:
        """The dimension vector of a registry id, read off its exact key."""
        return self._registry[mid][0]

    def registry_size(self) -> int:
        return len(self._registry)

    def restore(self, keys: Sequence[tuple]) -> None:
        """Adopt the registry that the exact keys of its reps, well formed for
        this context, describe, building no rep and computing no partition,
        fingerprint or class key.  It must extend this registry and hold no
        key twice; else ValueError, and nothing changes."""
        known, size = len(self._registry), len(keys)
        exact = {key: mid for mid, key in enumerate(keys)}
        if len(exact) != size or list(keys[:known]) != self._registry:
            raise ValueError("the snapshot does not extend this registry")
        self._registry.extend(keys[known:])
        self._reps.extend([None] * (size - known))
        self._unfiled.extend(range(known, size))
        self._exact.update(exact)

    def _file_restored(self) -> None:
        """File the restored ids in id order by partition, else by fingerprint;
        two ids of one partition are a writer's fault."""
        for mid in self._unfiled:
            lam = self.partition(mid)
            if lam is None:
                self._buckets.setdefault(fingerprint(self.rep(mid)), []).append(mid)
            elif self._classes.setdefault(lam, mid) != mid:
                raise IqError(f"registry ids {self._classes[lam]} and {mid} "
                              "share a Kostant partition")
        self._unfiled = []

    def end_dim(self, mid: int) -> int:
        return hom_space(self.rep(mid), self.rep(mid)).dim

    def _owns(self, *reps: Rep) -> bool:
        return all(r.algebra is self.algebra and r.p == self.p for r in reps)

    # -- isomorphism -------------------------------------------------------------

    def _class_key(self, rep: Rep):
        """The sorted summand ids of rep, or "indecomposable"."""
        parts = self._split_raw(rep)
        if len(parts) == 1:
            return "indecomposable"
        return tuple(sorted(self.intern(r) for r in parts))

    def _key_of(self, mid: int):
        key = self._keys.get(mid)
        if key is None:
            key = self._keys[mid] = self._class_key(self.rep(mid))
        return key

    def _iso_indecomposable(self, M: Rep, N: Rep) -> bool:
        """M and N indecomposable.  If phi: M -> N is an isomorphism, the
        non-isomorphisms in Hom(M, N) form the proper subspace phi rad End M,
        which cannot hold a basis; so some basis element is invertible."""
        return any(hom_is_invertible(f) for f in hom_space(M, N).basis)

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
        """Fitting: a map neither nilpotent nor invertible splits rep into the
        image and kernel of a high power.  So does each nonzero multiple of a
        nontrivial idempotent, and rep is indecomposable iff no line of End
        splits it.  The d basis lines come first; then ``_local`` may certify
        that no line splits rep, and only otherwise, within ENUM_BUDGET, are
        the other lines walked."""
        if rep.total_dim == 0:
            return ()
        es = hom_space(rep, rep)
        d = es.dim
        if d == 1:
            return (rep,)
        basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        others = (c for c in linalg.iter_monic_vectors(self.p, d) if c not in basis)
        steps = max(1, rep.total_dim.bit_length())
        for k, coeffs in enumerate(itertools.chain(basis, others)):
            if k == d:
                if self._local(rep, es):
                    return (rep,)
                _check_walk(linalg.line_count(self.p, d), "lines of End")
            mats = hom_combine(es, coeffs)
            for _ in range(steps):
                mats = tuple(m @ m if m.rows else m for m in mats)
            images = [linalg.image_basis(m) for m in mats]
            isum = sum(s.dim for s in images)
            if 0 < isum < rep.total_dim:
                kernels = [linalg.kernel_basis(m) for m in mats]
                return self._split_raw(subrep(rep, images)) + self._split_raw(subrep(rep, kernels))
        return (rep,)

    def _local(self, rep: Rep, es: HomSpace) -> bool:
        """True when End rep, spanned by ``es``, is certified local with
        residue field F_p."""
        return linalg.scalar_plus_nilpotent(self.p, es.basis, rep.total_dim)

    # -- Ext^1 ----------------------------------------------------------------------------

    def ext1_dim(self, M: Rep, N: Rep) -> int:
        """dim Ext^1(M, N), read off the elimination of ``_ext1_basis``."""
        return len(_ext1_basis(M, N)[0])

    def ext1_classify(self, M: Rep, N: Rep, label=None) -> ExtClassification:
        """Count extensions of M by N (N the submodule) per ``label`` of the
        middle term's exact key (an iso invariant; by default its registry
        id).  The class of a cocycle f has middle term E_f, and f + delta g has
        an isomorphic one (conjugate by [[1, g], [0, 1]]), so the walk runs
        over a complement of im delta in Z(M,N).  The classes f and c f
        (c != 0) have isomorphic middle terms (conjugate by [[c, 0], [0, 1]]),
        so the walk (``linalg.line_walk``) builds one for zero, weight 1, and
        one per line by its monic vector, weight p - 1: the middle-term classes
        first appear as in a walk over every class."""
        if not self._owns(M, N):
            raise AlgebraMismatch("Ext^1 of reps from a different context")
        label = label or self._intern_exact
        basis, hom_dim = _ext1_basis(M, N)
        count, walk = linalg.line_walk(self.p, len(basis))
        _check_walk(count, "Ext^1 representatives")
        counts: Dict[object, int] = {}
        width, _, middle = _extension_keys(self.arrows, M.exact, N.exact)
        for coeffs, weight in walk:
            key = label(middle(linalg.combination(self.p, coeffs, basis, width)))
            counts[key] = counts.get(key, 0) + weight
        return ExtClassification(tuple(sorted(counts.items())), hom_dim, len(basis))

    def semisimple_extensions(self, k: Sequence[int], c: Sequence[int]):
        """``_extension_keys`` over the Q-arrows of the semisimple K and C of
        dims k and c: e', the nonzero blocks, and xi' -> the key of E_xi'."""
        K, C = ((tuple(d), tuple(((0,) * d[s],) * d[t] for _, s, t in self.arrows))
                for d in (k, c))
        return _extension_keys(self.arrows, K, C, self._q_cols)

    # -- homological predicates ------------------------------------------------------------

    def is_kq_module(self, M: Rep) -> bool:
        return all(M.map(eid).is_zero() for eid in self.algebra.eps_of_vertex.values())

    def is_gproj(self, M: Rep) -> bool:
        """Restriction test: for each vertex, the combined map from all
        original-arrow sources into it must be injective."""
        alg = M.algebra
        ins = ([M.map(a.id) for a in alg.q_arrows if a.tgt == v] for v in alg.vertices)
        return all(linalg.rank(linalg.hstack(m)) == sum(x.cols for x in m) for m in ins if m)

    def is_p_leq1(self, M: Rep) -> bool:
        """Finite projective dimension: the eps complex is exact, that is
        dim M_v = rk eps_v + rk eps_{tau v} at every vertex v."""
        alg = self.algebra
        if not alg.has_eps:
            return True
        r = self.eps_ranks(M)
        return all(d == r[i] + r[alg.vidx[alg.tau[v]]]
                   for i, (v, d) in enumerate(zip(alg.vertices, M.dims)))

    def predicates(self, M: Rep) -> Dict[str, bool]:
        gp = self.is_gproj(M)
        return {"is_kq_module": self.is_kq_module(M),
                "is_kq_projective_restriction": gp,
                "is_gproj": gp,
                "is_P_leq1": self.is_p_leq1(M)}

    def flags(self, mid: int) -> Dict[str, bool]:
        return self.predicates(self.rep(mid))

    # -- eps-homology and eps-ranks ----------------------------------------------------------

    def homology(self, exact: tuple) -> Tuple[tuple, Tuple[int, ...]]:
        """Exact keys in and out: the kQ-module ker eps / im eps of M, and
        the rank of eps_v at each vertex v, read off the images.
        Z_v = ker eps_v is a submodule, since eps_t M(a) = M(tau a) eps_s,
        and every eps map vanishes on it; B_v = im eps_{tau v} lies in Z_v,
        since eps_v eps_{tau v} = 0, and is a submodule of Z by the same
        relation.  The key itself when eps is zero; else the subquotient
        refuses a B_v that escapes Z_v."""
        dims, datas = exact
        eps = [datas[c] for c in self._eps_cols]     # eps_v: M_v -> M_{tau v}
        if linalg.all_zero(eps):
            return exact, (0,) * len(dims)
        p, tau = self.p, [self.arrows[c][2] for c in self._eps_cols]
        images = [linalg.echelon_basis(p, list(zip(*e)))[0] for e in eps]
        parts = [linalg.subquotient(p, linalg.kernel_vectors(linalg._raw(p, dims[t], dims[v], e)),
                                    images[t]) for v, (e, t) in enumerate(zip(eps, tau))]
        maps = [((0,) * len(parts[s][2]),) * len(parts[t][2]) for _, s, t in self.arrows]
        for c in self._q_cols:
            _, s, t = self.arrows[c]
            maps[c] = linalg.induced_map(p, datas[c], parts[s], parts[t])
        return (tuple(len(part[2]) for part in parts), tuple(maps)), tuple(map(len, images))

    def eps_ranks(self, M: Rep) -> Tuple[int, ...]:
        """The rank of eps_v at each vertex v."""
        eps = self.algebra.eps_of_vertex
        return tuple(linalg.rank(M.map(eps[v])) for v in self.algebra.vertices)

    # -- Euler forms ------------------------------------------------------------------------

    def euler_lambda(self, M: Rep, N: Rep) -> int:
        """dim Hom - dim Ext^1 = dim C^0 - dim Z(M, N), one rank of the
        cocycle system S; every coboundary must be a cocycle, S delta = 0."""
        if not (self.is_p_leq1(N) or self.is_p_leq1(M)):
            raise NotFiniteDimensionHomological(
                "Euler form needs one argument of finite projective dimension")
        _check_same_context("Ext^1", M, N)
        S, c0 = _cocycle_system(M, N), _vertex_offsets(M, N)[1]
        if not (S @ FpMatrix.from_rows(self.p, _delta_rows(M, N), cols=c0)).is_zero():
            raise PresentationFailure("a coboundary breaks the relations: S delta is not zero")
        return c0 - S.cols + linalg.rank(S)

    # -- iso-class enumeration ------------------------------------------------------------------

    def enumerate_iso_classes(self, dims_by_name: Dict[str, int],
                              budget: Optional[int] = None) -> List[int]:
        """Intern every iso class of modules with the given dimension vector:
        every kernel vector of ``_cocycle_system`` over the Q-arrow maps at
        R_eps, for each eps normal form of ``_eps_normal_forms`` (see the
        module docstring).  ``budget`` bounds the number of such candidate
        tuples; it is checked before anything is interned."""
        alg, p = self.algebra, self.p
        budget = budget if budget is not None else ENUM_BUDGET
        dims = tuple(int(dims_by_name.get(v, 0)) for v in alg.vertices)
        _check_enumerable(alg)
        forms = _eps_normal_forms(alg, p, dims, budget)
        zeros = {a.id: FpMatrix.zeros(p, dims[alg.vidx[a.tgt]], dims[alg.vidx[a.src]])
                 for a in alg.q_arrows}
        kernels = []
        total = 0
        for eps in forms:
            R = Rep(alg, p, dims, tuple(sorted({**zeros, **eps}.items())))
            basis = linalg.kernel_basis(_cocycle_system(R, R, zeros)).basis.data
            kernels.append((R, basis))
            total += p ** len(basis)
            if total > budget:
                raise BudgetExceeded(f"{total} candidate tuples above budget {budget}")
        found, cols = set(), sorted(self._q_cols)   # the Q-arrows in the order of ``offsets``
        for R, basis in kernels:
            offsets, width = _arrow_offsets(R, R, zeros)
            shapes = [(zeros[aid].rows, zeros[aid].cols) for aid in offsets]
            datas = [m.data for _, m in R.maps]
            for coeffs in itertools.product(range(p), repeat=len(basis)):
                vec = linalg.combination(p, coeffs, basis, width)
                for c, m in zip(cols, linalg.blocks(p, vec, shapes)):
                    datas[c] = m.data
                found.add(self._intern_exact((dims, tuple(datas))))
        return sorted(found)


def _check_enumerable(alg: BoundAlgebra) -> None:
    """Refuse relations other than those of the fixed-point algebra, which
    enumeration relies on: every eps_{tau v} eps_v vanishes, and the rest
    slide an eps past a Q-arrow, eps_tgt M(a) = M(tau a) eps_src.  Any other
    relation, or a missing nilpotent one, would make the eps normal forms or
    the linear system wrong."""
    eps, tau = alg.eps_of_vertex, alg.tau
    if alg.has_eps and (set(eps) != set(alg.vertices) or
                        any(alg.arrow_map[eid].tgt != tau[v] for v, eid in eps.items())):
        raise InputError("enumeration needs one eps arrow v -> tau(v) at every vertex")
    nilpotent = {(eps[v], eps[tau[v]]) for v in eps}
    sliding = {((a.id, eps[a.tgt]), (eps[a.src], alg.tau_arrows[a.id]))
               for a in (alg.q_arrows if alg.has_eps else ())}
    seen = set()
    for word, other in alg.relations():
        if other is None and word in nilpotent:
            seen.add(word)
        elif (word, other) not in sliding:
            raise InputError(f"cannot enumerate modules under the relation {word} = {other}")
    if seen != nilpotent:
        raise InputError("enumeration needs eps_{tau v} eps_v = 0 at every vertex")


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
    count = math.prod(len(choices) for choices in orbits)
    if count > budget:
        raise BudgetExceeded(f"{count} eps normal forms above budget {budget}")
    return [{k: m for part in combo for k, m in part.items()}
            for combo in itertools.product(*orbits)]

