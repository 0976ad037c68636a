"""Quivers with involution: validation, Cartan data, roots, enrichment.

An input quiver must be acyclic and carry an involution tau that respects
arrows.  From it we build the enriched bound quiver: one extra arrow
eps_v : v -> tau(v) per vertex (a loop when tau fixes v), together with the
nilpotent relations (the composite eps then eps vanishes around each orbit)
and the commutation relations that slide an eps past every original arrow
while twisting the arrow by tau.

A quiver is Dynkin when its Tits form q(x) = <x, x>_Q is positive definite;
by Gabriel's theorem these are exactly the quivers of finite representation
type, with the indecomposables in bijection with the positive roots.  So a
representation is fixed up to isomorphism by its Kostant partition, the
roots of its summands with multiplicity, which ``SinkSchedule`` reads off
reflections at sinks.

Relation words are stored in application order: ``(a, b)`` means "apply a
first, then b".
"""

from __future__ import annotations

import graphlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import ArrowNotRespected, CyclicQuiver, InputError, NotDynkin, NotInvolution


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    tgt: str


def euler_matrix(vertices: Tuple[str, ...], arrows) -> List[List[int]]:
    """E[i][j] = <S_i, S_j>_Q = delta_ij - #{arrows i -> j}."""
    n = len(vertices)
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for a in arrows:
        mat[vertices.index(a.src)][vertices.index(a.tgt)] -= 1
    return mat


def cartan_matrix(vertices: Tuple[str, ...], arrows) -> List[List[int]]:
    """C = E + E^T, twice the symmetric Tits form."""
    e = euler_matrix(vertices, arrows)
    return [[x + y for x, y in zip(row, col)] for row, col in zip(e, zip(*e))]


@dataclass(frozen=True)
class IQuiver:
    vertices: Tuple[str, ...]           # sorted vertex names
    arrows: Tuple[Arrow, ...]           # sorted by id
    tau: Tuple[Tuple[str, str], ...]    # vertex involution, as sorted pairs
    tau_arrows: Tuple[Tuple[str, str], ...]
    itau_reps: Tuple[str, ...]

    # -- lookups -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        return self.vertices.index(v)

    def tau_map(self) -> Dict[str, str]:
        return dict(self.tau)

    def tau_arrow_map(self) -> Dict[str, str]:
        return dict(self.tau_arrows)

    # -- Cartan / Euler data ---------------------------------------------------

    def euler_matrix(self) -> List[List[int]]:
        return euler_matrix(self.vertices, self.arrows)

    def cartan_matrix(self) -> List[List[int]]:
        return cartan_matrix(self.vertices, self.arrows)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in self.arrows],
            "tau": {u: v for u, v in self.tau},
            "itau_reps": list(self.itau_reps),
        }


# -- validation -----------------------------------------------------------------


def sources_first(vertices, arrows) -> Tuple[str, ...]:
    """The vertices in an order where every arrow points forward, so each
    vertex is a source once those before it are removed."""
    preds = {v: [a.src for a in arrows if a.tgt == v] for v in vertices}
    try:
        return tuple(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError:
        raise CyclicQuiver("quiver has an oriented cycle") from None


def validate_iquiver(raw: dict) -> IQuiver:
    """Validate a raw quiver description and normalize it.

    The involution defaults to the identity; orbit representatives default
    to the smallest vertex name in each orbit.  The arrow involution is
    derived by pairing arrow groups (src, tgt) <-> (tau src, tau tgt) in
    sorted-id order, which is the unique deterministic choice.
    """
    verts = raw.get("vertices")
    if not verts:
        raise InputError("quiver needs at least one vertex")
    vertices = tuple(sorted(str(v) for v in verts))
    if len(set(vertices)) != len(vertices):
        raise InputError("duplicate vertex names")

    arrows = []
    for item in raw.get("arrows", []):
        a = Arrow(str(item["id"]), str(item["src"]), str(item["tgt"]))
        if a.src not in vertices or a.tgt not in vertices:
            raise InputError(f"arrow {a.id} touches an unknown vertex")
        if a.src == a.tgt:
            raise CyclicQuiver(f"loop at {a.src}")
        arrows.append(a)
    arrows.sort(key=lambda a: a.id)
    if len({a.id for a in arrows}) != len(arrows):
        raise InputError("duplicate arrow ids")
    sources_first(vertices, arrows)

    tau_raw = raw.get("tau") or {}
    tau = {v: str(tau_raw.get(v, v)) for v in vertices}
    for v, w in tau.items():
        if w not in tau:
            raise NotInvolution(f"tau({v}) = {w} is not a vertex")
    for v in vertices:
        if tau[tau[v]] != v:
            raise NotInvolution(f"tau^2({v}) != {v}")

    groups: Dict[Tuple[str, str], List[str]] = {}
    for a in arrows:
        groups.setdefault((a.src, a.tgt), []).append(a.id)
    tau_arrows: Dict[str, str] = {}
    for (s, t), ids in groups.items():
        image = groups.get((tau[s], tau[t]))
        if image is None or len(image) != len(ids):
            raise ArrowNotRespected(
                f"tau sends arrows {s}->{t} to {tau[s]}->{tau[t]}, which has "
                f"{0 if image is None else len(image)} arrows instead of {len(ids)}")
        for aid, bid in zip(sorted(ids), sorted(image)):
            tau_arrows[aid] = bid
    for aid, bid in tau_arrows.items():
        if tau_arrows[bid] != aid:
            raise NotInvolution("derived arrow involution is not involutive")

    orbits = []
    placed = set()
    for v in vertices:
        if v in placed:
            continue
        orbit = {v, tau[v]}
        placed |= orbit
        orbits.append(orbit)
    reps_raw = raw.get("itau_reps")
    if reps_raw:
        reps = tuple(sorted(str(v) for v in reps_raw))
        covered = set()
        for r in reps:
            if r not in vertices:
                raise InputError(f"representative {r} is not a vertex")
            covered |= {r, tau[r]}
        if covered != set(vertices) or len(reps) != len(orbits):
            raise InputError("itau_reps must pick exactly one vertex per tau-orbit")
    else:
        reps = tuple(sorted(min(orbit) for orbit in orbits))

    return IQuiver(vertices, tuple(arrows),
                   tuple(sorted(tau.items())), tuple(sorted(tau_arrows.items())),
                   reps)


def make_iquiver(vertices, arrows, tau=None, itau_reps=None) -> IQuiver:
    """Programmatic constructor; arrows as (id, src, tgt) triples."""
    raw = {"vertices": list(vertices),
           "arrows": [{"id": i, "src": s, "tgt": t} for i, s, t in arrows]}
    if tau:
        raw["tau"] = dict(tau)
    if itau_reps:
        raw["itau_reps"] = list(itau_reps)
    return validate_iquiver(raw)


# -- enriched bound quiver ---------------------------------------------------


@dataclass(frozen=True)
class EnrichedQuiver:
    """The bound quiver presenting the fixed-point algebra.

    relations: tuple of (word, other) with words in application order; the
    relation asserts "product along word == product along other", where
    ``other is None`` means the word vanishes.
    """

    vertices: Tuple[str, ...]
    q_arrows: Tuple[Arrow, ...]
    eps_arrows: Tuple[Arrow, ...]
    tau: Tuple[Tuple[str, str], ...]
    tau_arrows: Tuple[Tuple[str, str], ...]
    itau_reps: Tuple[str, ...]
    relations: Tuple[Tuple[Tuple[str, ...], Optional[Tuple[str, ...]]], ...]

    def all_arrows(self) -> Tuple[Arrow, ...]:
        return self.q_arrows + self.eps_arrows

    def tau_map(self) -> Dict[str, str]:
        return dict(self.tau)

    def structure_key(self):
        """Canonical structural fingerprint, for equality up to nothing
        (names are already canonical for our constructions)."""
        return (self.vertices, self.q_arrows, self.eps_arrows,
                tuple(sorted((w, o) if o is not None else (w, ()) for w, o in self.relations)))


def enriched_quiver(iq: IQuiver) -> EnrichedQuiver:
    """Attach eps-arrows and the nilpotent/commutation relations."""
    tau = iq.tau_map()
    tau_ar = iq.tau_arrow_map()
    eps = tuple(Arrow(f"eps_{v}", v, tau[v]) for v in iq.vertices)
    relations: List[Tuple[Tuple[str, ...], Optional[Tuple[str, ...]]]] = []
    for v in iq.vertices:
        # eps_v then eps_{tau v} composes to zero around the orbit
        relations.append((((f"eps_{v}", f"eps_{tau[v]}")), None))
    for a in iq.arrows:
        # slide eps past the arrow: (a then eps_tgt) == (eps_src then tau(a))
        relations.append((((a.id, f"eps_{a.tgt}")), ((f"eps_{a.src}", tau_ar[a.id]))))
    return EnrichedQuiver(iq.vertices, iq.arrows, eps, iq.tau, iq.tau_arrows,
                          iq.itau_reps, tuple(relations))


def plain_quiver(iq: IQuiver) -> EnrichedQuiver:
    """The path algebra presentation: no eps arrows, no relations."""
    return EnrichedQuiver(iq.vertices, iq.arrows, (), iq.tau, iq.tau_arrows,
                          iq.itau_reps, ())


def _primed(v: str) -> str:
    return f"{v}'"


def double_framed(iq: IQuiver) -> EnrichedQuiver:
    """The double framed bound quiver of Q: two copies joined by eps pairs.

    The result is cyclic as a bare quiver (eps_v and eps_{v'} form 2-cycles),
    so it is returned as a bound quiver with its quadratic relations rather
    than as a validated acyclic quiver.  It coincides with the enriched
    quiver of the diagonal construction below.
    """
    verts = tuple(sorted([v for v in iq.vertices] + [_primed(v) for v in iq.vertices]))
    q_arrows = []
    for a in iq.arrows:
        q_arrows.append(a)
        q_arrows.append(Arrow(_primed(a.id), _primed(a.src), _primed(a.tgt)))
    q_arrows.sort(key=lambda a: a.id)
    tau = {}
    tau_ar = {}
    for v in iq.vertices:
        tau[v] = _primed(v)
        tau[_primed(v)] = v
    for a in iq.arrows:
        tau_ar[a.id] = _primed(a.id)
        tau_ar[_primed(a.id)] = a.id
    eps = tuple(Arrow(f"eps_{v}", v, tau[v]) for v in verts)
    relations: List[Tuple[Tuple[str, ...], Optional[Tuple[str, ...]]]] = []
    for v in verts:
        relations.append(((f"eps_{v}", f"eps_{tau[v]}"), None))
    for a in q_arrows:
        relations.append(((a.id, f"eps_{a.tgt}"), (f"eps_{a.src}", tau_ar[a.id])))
    reps = tuple(sorted(iq.vertices))
    return EnrichedQuiver(verts, tuple(q_arrows), eps,
                          tuple(sorted(tau.items())), tuple(sorted(tau_ar.items())),
                          reps, tuple(relations))


def diagonal_iquiver(iq: IQuiver) -> IQuiver:
    """Q together with a disjoint primed copy, with the swap involution."""
    vertices = [v for v in iq.vertices] + [_primed(v) for v in iq.vertices]
    arrows = [(a.id, a.src, a.tgt) for a in iq.arrows] + \
        [(_primed(a.id), _primed(a.src), _primed(a.tgt)) for a in iq.arrows]
    tau = {}
    for v in iq.vertices:
        tau[v] = _primed(v)
        tau[_primed(v)] = v
    return make_iquiver(vertices, arrows, tau, itau_reps=sorted(iq.vertices))


# -- Dynkin recognition, positive roots and Kostant partitions -------------------


Partition = Tuple[Tuple[Tuple[int, ...], int], ...]   # sorted ((root, mult), ...)


def root_table(iq: IQuiver) -> Tuple[Tuple[int, ...], ...]:
    """The positive roots of a Dynkin quiver, sorted by height."""
    return positive_roots(iq.vertices, iq.arrows)


def positive_roots(vertices, arrows) -> Tuple[Tuple[int, ...], ...]:
    """The positive roots, sorted by height, when the quiver is Dynkin.  The
    Cartan matrix, twice the Tits form, is positive definite iff elimination
    without pivoting meets only positive pivots (Sylvester's criterion: they
    are the ratios of consecutive leading minors).  Then the closure of the
    simple roots under the simple reflections is finite: the positive roots."""
    n = len(vertices)
    cartan = cartan_matrix(vertices, arrows)
    mat = [[Fraction(x) for x in row] for row in cartan]
    for k in range(n):
        if mat[k][k] <= 0:
            raise NotDynkin("the Tits form of the quiver is not positive definite, "
                            "so the quiver is not Dynkin")
        for i in range(k + 1, n):
            f = mat[i][k] / mat[k][k]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[k])]

    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        x = frontier.pop()
        for i in range(n):
            # s_i changes only coordinate i
            y = x[:i] + (x[i] - sum(c * xj for c, xj in zip(cartan[i], x)),) + x[i + 1:]
            if y[i] >= 0 and any(y) and y not in roots:
                roots.add(y)
                frontier.append(y)
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def _sink_step(p: int, d: List[int], mats, i: int, arrows, dual: bool = False) -> int:
    """Reflect in place at the sink i with its (arrow, neighbour) pairs: the
    space there becomes the kernel K of the in-maps (+)X_j -> X_i, any basis,
    and the arrows the projections K -> X_j; returns the in-maps' cokernel
    dimension.  ``dual`` reads and writes the maps at i transposed: that
    reflects at the source i."""
    width = sum(d[j] for _, j in arrows)
    rows = tuple(tuple(x for a, _ in arrows for x in (
        (row[r] for row in mats[a]) if dual else mats[a][r])) for r in range(d[i]))
    kernel = linalg.kernel_vectors(linalg._raw(p, d[i], width, rows))
    coker = d[i] + len(kernel) - width
    d[i], off = len(kernel), 0
    for a, j in arrows:
        mats[a] = tuple(v[off:off + d[j]] for v in kernel) if dual else \
            tuple(tuple(v[off + r] for v in kernel) for r in range(d[j]))
        off += d[j]
    return coker


@dataclass(frozen=True)
class SinkSchedule:
    """Bernstein-Gelfand-Ponomarev reflections at sinks, run forwards to read
    Kostant partitions and backwards to build the indecomposables of a Dynkin
    quiver (Coxeter functors and Gabriel's theorem, 1973).  Step k reflects
    at a sink i_k of the quiver with the arrows at i_1, ..., i_{k-1}
    reversed.  An indecomposable there is the simple S_{i_k}, which the
    reflection kills, or goes to an indecomposable of dimension s_{i_k}(dim).
    So the summands killed at step k are the summands M_beta of the input
    with beta = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}), and their number is the
    cokernel dimension of the in-maps at i_k.  Repeating a sink order of the
    vertices meets every positive root, and kills every summand: over a
    Dynkin quiver some power of the Coxeter functor kills each
    indecomposable.  Any field works, since each step is one kernel.

    A representation whose maps are all zero is the sum of d_v copies of the
    simple S_v, so ``partition`` reads it off the dims with no reflection;
    ``reflect``, which gives the same partition, stays the oracle.  Most of
    the partitions that word products of simples ask for are of such modules."""

    steps: Tuple[Tuple[int, Tuple[Tuple[int, int], ...], Optional[Tuple[int, ...]]], ...]
    # each step: (sink, ((arrow, neighbour), ...) of the arrows at it, beta
    # if positive and new, else None: no summand is then killed)

    def partition(self, p: int, dims: Sequence[int], maps: Sequence[tuple]) -> Partition:
        """The Kostant partition of the representation over F_p with these
        dims and arrow matrices (row tuples, arrows in schedule order): the
        simple roots, d_v times alpha_v, when every map is zero, else the one
        of ``reflect``."""
        if linalg.all_zero(maps):
            return tuple(sorted((tuple(int(i == v) for i in range(len(dims))), d)
                                for v, d in enumerate(dims) if d))
        return self.reflect(p, dims, maps)

    def reflect(self, p: int, dims: Sequence[int], maps: Sequence[tuple]) -> Partition:
        """The Kostant partition by the reflections of the schedule."""
        d, mats, out = list(dims), list(maps), []
        for i, arrows, beta in self.steps:
            if not any(d):
                break
            out.append((beta, _sink_step(p, d, mats, i, arrows)))
        return tuple(sorted(x for x in out if x[1]))

    def root(self, p: int, beta: Tuple[int, ...]) -> Tuple[Tuple[int, ...], List[tuple]]:
        """Dims and arrow matrices (schedule order) over F_p of M_beta: the
        simple S_{i_k} at the step k that meets beta, taken back through steps
        k-1, ..., 1.  The first n steps visit each vertex, so each arrow."""
        k = next(k for k, step in enumerate(self.steps) if step[2] == beta)
        d = [int(v == self.steps[k][0]) for v in range(len(beta))]
        mats = {a: () for _, at, _ in self.steps for a, _ in at}
        mats.update((a, ((),)) for a, _ in self.steps[k][1])   # into the sink, from 0
        for i, arrows, _ in reversed(self.steps[:k]):
            _sink_step(p, d, mats, i, arrows, dual=True)
        return tuple(d), [mats[a] for a in range(len(mats))]


def sink_schedule(vertices, arrows) -> Optional[SinkSchedule]:
    """The schedule of ``SinkSchedule`` for a Dynkin quiver, or None.  It
    runs through the vertices sinks first (after reflecting at each one
    before, the next is a sink) until every positive root has been met, and
    tracks w = s_{i_1} ... s_{i_{k-1}} by its columns w(alpha_j)."""
    try:
        roots = frozenset(positive_roots(vertices, arrows))
    except NotDynkin:
        return None
    n, cartan = len(vertices), cartan_matrix(vertices, arrows)
    vidx = {v: i for i, v in enumerate(vertices)}
    ends = [(vidx[a.src], vidx[a.tgt]) for a in arrows]
    w = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    steps, seen = [], set()
    for v in itertools.cycle(reversed(sources_first(vertices, arrows))):
        if len(seen) == len(roots):
            return SinkSchedule(tuple(steps))
        i = vidx[v]
        beta = w[i] if w[i] in roots and w[i] not in seen else None
        if beta:
            seen.add(beta)
        steps.append((i, tuple((a, t if s == i else s) for a, (s, t) in enumerate(ends)
                               if i in (s, t)), beta))
        # w s_i: s_i(alpha_j) = alpha_j - c_ij alpha_i
        w = [tuple(-x for x in w[i]) if j == i else
             tuple(x - cartan[i][j] * y for x, y in zip(w[j], w[i])) for j in range(n)]
