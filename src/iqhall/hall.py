"""The Hall algebra of a quiver with involution, over F_q.

Elements are finite linear combinations of basis symbols [X] * E_alpha,
where X runs over modules with all eps maps zero (identified with modules
over the path algebra) and alpha over integer vectors indexed by vertices
(the exponents of the invertible torus classes).  Scalars live in
Q[sqrt(q)].

The raw product of two module classes is the Bridgeland-normalized Hall
product: sum over middle terms L of |Ext^1(M,N)_L| / |Hom(M,N)| times [L].
The twisted product multiplies by v^{<res M, res N>_Q}.  An arbitrary
module class L is rewritten into the basis in closed form: it is the class
of X + K with X = H(L) = ker eps / im eps, its eps-homology, and K of finite
projective dimension with torus class alpha = (rank eps_v)_v.  The basis
relations identify [L] with [K' + M] whenever 0 -> K' -> L -> M -> 0 or
0 -> M -> L -> K' -> 0 is exact with K' of finite projective dimension, and
both sides of such a relation share H and the eps-ranks:

  * H(K') = 0, so the long exact homology sequence gives H(L) = H(M);
  * restricted to the eps algebra K' is projective-injective, so the
    sequence splits there and eps_v has the same rank on L as on K' + M;
  * X + K, with eps zero on X and H(K) = 0, has homology X and eps-ranks
    the torus class of K, so one basis symbol alone matches [L].

The only scalars come from the bimodule formula
[X + K] = q^{<X,K>} [X] . [K] and the twist, giving

  [L] = q^{<X,K>} v^{-<dim X, dim res K>_Q} [X] * E_alpha.

So [L] is fixed by its normal-form key (X, alpha), and the scalar by dim X
and alpha: the raw product sums the Ext^1 walk's weights per key, read off
each middle term's exact key, so it neither builds nor interns a middle term
(a Lambda-module, whose interning may split it), and computes each key's
scalar once.

Word products of simples multiply two semisimple kQ-modules M and N (every
map zero) at most steps, and those products are read off rank vectors, with
no walk of Ext^1 (``semisimple_classify``), whenever each relation side has
two letters or more (``BoundAlgebra.long_relations``).  Then every cochain is
a cocycle and none but zero is a coboundary, so a class of Ext^1(M, N) is a
pair (xi, f): xi holds the Q-arrow blocks, Ext^1_kQ(M, N) of dimension e, and
f the eps blocks f_v: M_v -> N_{tau v}, Hom_kQ(M, tau* N) of dimension h.
The middle term's homology X is xi pulled back to K = ker f and pushed out to
C = N / im f, and alpha_v = rank f_v.  The f of rank vector r are one orbit
of Aut M x Aut N, prod_v R(n_{tau v}, m_v, r_v) of them, R(a, b, r) the number
of a x b matrices of rank r (``linalg.rank_count``).  Given f, X depends on xi
only through its image xi' in the blocks K_s(a) -> C_t(a), of dimension e',
and each xi' has p^(e - e') preimages.  So for each r the walk runs over the
classes of xi' under Aut K x Aut C alone (``_xi_classes``): a rank per block
when no two nonzero blocks share a vertex of K or of C, else the split class
and the lines.  And dim Hom(M, N) is sum_v m_v n_v.  ``raw_product`` takes
registry ids; the closed form reads their exact keys, and each X as the
extension of K by C with cocycle xi', from ``ModuleContext``: no cocycle
system, no homology and no rep.  Every other pair builds the reps of its ids
and walks Ext^1 with ``ext1_classify``, which the tests hold as the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import linalg, modules
from .algebra import BoundAlgebra, iquiver_algebra
from .errors import AlgebraMismatch, AlignmentFailure, FitFailure, InputError
from .modules import ExtClassification, ModuleContext, Rep
from .quivers import IQuiver, euler_matrix, root_table
from .scalars import LaurentV, QSqrt, laurent_eval, laurent_fit_escalating

TermKey = Tuple[int, Tuple[int, ...]]


class HallElement:
    """A finite Q[sqrt q]-linear combination of basis symbols."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: Optional[Dict[TermKey, QSqrt]] = None):
        self.q = q
        self.terms: Dict[TermKey, QSqrt] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[key] = coeff

    def __add__(self, other: "HallElement") -> "HallElement":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
        return HallElement(self.q, out)

    def __sub__(self, other: "HallElement") -> "HallElement":
        return self + other.scale(QSqrt.of(-1, self.q))

    def scale(self, c: QSqrt) -> "HallElement":
        return HallElement(self.q, {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, HallElement) and self.q == other.q and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"{coeff}*[x{m}]*E{list(alpha)}" for (m, alpha), coeff in sorted(self.terms.items())]
        return " + ".join(bits)

    def coefficient(self, key: TermKey) -> QSqrt:
        return self.terms.get(key, QSqrt.zero(self.q))


class IHallAlgebra:
    """Hall-basis arithmetic bound to one (algebra, prime) pair."""

    def __init__(self, algebra: BoundAlgebra, p: int):
        if not algebra.has_eps:
            raise InputError("the Hall engine needs the enriched algebra")
        self.algebra = algebra
        self.p = p
        self.ctx = ModuleContext(algebra, p)
        self.vertices = algebra.vertices
        self.tau = algebra.tau
        # Euler form of the underlying quiver on dimension vectors
        self.euler = euler_matrix(self.vertices, algebra.q_arrows)
        self._tau_index = tuple(algebra.vidx[self.tau[v]] for v in self.vertices)
        self._zero_alpha = (0,) * len(self.vertices)
        self._normal: Dict[int, Tuple[QSqrt, TermKey]] = {}
        self._pair: Dict[Tuple[int, int], HallElement] = {}
        self._simples: Dict[str, HallElement] = {}
        self._zero_mid = self.ctx.intern(self.ctx.zero())

    # -- scalar helpers ---------------------------------------------------------

    def v_power(self, k: int) -> QSqrt:
        return QSqrt.v_power(k, self.p)

    def scalar(self, x) -> QSqrt:
        return QSqrt.of(x, self.p)

    def euler_q(self, x: Sequence[int], y: Sequence[int]) -> int:
        n = len(self.vertices)
        return sum(x[i] * self.euler[i][j] * y[j] for i in range(n) for j in range(n))

    def _res_alpha(self, alpha: Sequence[int]) -> Tuple[int, ...]:
        """Dimension vector of the restriction of a torus class: each unit of
        alpha_i contributes S_i + S_{tau i}."""
        out = [0] * len(self.vertices)
        for i, ti in enumerate(self._tau_index):
            out[i] += alpha[i]
            out[ti] += alpha[i]
        return tuple(out)

    def commutation_exponent(self, alpha: Sequence[int], y: Sequence[int]) -> int:
        """Exponent d with E_alpha * [Y] = v^d [Y] * E_alpha: the symmetric
        Euler form of S_{tau i} - S_i with Y, summed over alpha."""
        E = self.euler
        return sum(a * sum((E[ti][j] + E[j][ti] - E[i][j] - E[j][i]) * yj
                           for j, yj in enumerate(y))
                   for i, (a, ti) in enumerate(zip(alpha, self._tau_index)) if a)

    def grade(self, key: TermKey) -> Tuple[int, ...]:
        xid, alpha = key
        res = self._res_alpha(alpha)
        return tuple(d + r for d, r in zip(self.ctx.dims(xid), res))

    # -- element constructors ------------------------------------------------------

    def one(self) -> HallElement:
        return self.basis_symbol(self._zero_mid, self._zero_alpha)

    def basis_symbol(self, xid: int, alpha: Sequence[int]) -> HallElement:
        return HallElement(self.p, {(xid, tuple(alpha)): QSqrt.one(self.p)})

    def torus(self, alpha: Sequence[int]) -> HallElement:
        return self.basis_symbol(self._zero_mid, tuple(alpha))

    def gen_simple_symbol(self, v: str) -> HallElement:
        alpha = [0] * len(self.vertices)
        alpha[self.algebra.vidx[v]] = 1
        return self.torus(alpha)

    def simple(self, v: str) -> HallElement:
        # one per engine: only HallElement.__init__ writes terms, so callers share it
        if v not in self._simples:
            self._simples[v] = self.from_rep(self.ctx.simple(v))
        return self._simples[v]

    def from_rep(self, rep: Rep) -> HallElement:
        coeff, key = self.normalize(rep)
        return HallElement(self.p, {key: coeff})

    # -- normal form -------------------------------------------------------------------

    def normalize(self, rep: Rep) -> Tuple[QSqrt, TermKey]:
        """Rewrite the class of a module into c * [X] * E_alpha."""
        key = self.normal_key(self.ctx.exact(rep))
        return self.normal_scalar(key), key

    def normal_key(self, exact: tuple) -> TermKey:
        """(id of X = H(L), alpha = the eps-ranks of L) for L of an exact key."""
        X, alpha = self.ctx.homology(exact)
        return self.ctx._intern_exact(X), alpha

    def normal_scalar(self, key: TermKey) -> QSqrt:
        """The c with [L] = c [X] * E_alpha for every L of key (X, alpha),
        a power of v."""
        xid, alpha = key
        xdims = self.ctx.dims(xid)
        # <X, K>_Lambda = sum_i alpha_i <dim X, S_{tau i}>_Q by the Euler
        # compatibility of the restriction functor
        pairing = sum(a * sum(d * row[ti] for d, row in zip(xdims, self.euler))
                      for a, ti in zip(alpha, self._tau_index) if a)
        twist = -self.euler_q(xdims, self._res_alpha(alpha))
        # q^<X,K> v^twist = v^(2<X,K> + twist)
        return self.v_power(2 * pairing + twist)

    def normalize_mid(self, mid: int) -> Tuple[QSqrt, TermKey]:
        if mid not in self._normal:
            self._normal[mid] = self.normalize(self.ctx.rep(mid))
        return self._normal[mid]

    # -- products ---------------------------------------------------------------------------

    def raw_product(self, x1: int, x2: int) -> HallElement:
        """Untwisted Hall product of two registry ids, by normal-form keys."""
        cls = (self.semisimple_classify(x1, x2)
               or self.ctx.ext1_classify(self.ctx.rep(x1), self.ctx.rep(x2), label=self.normal_key))
        per_hom = self.v_power(-2 * cls.hom_dim)   # 1 / |Hom(M, N)|
        return HallElement(self.p, {key: self.normal_scalar(key) * per_hom * self.scalar(count)
                                    for key, count in cls.pairs})

    def semisimple_classify(self, x1: int, x2: int) -> Optional[ExtClassification]:
        """``ext1_classify(M, N, label=self.normal_key)`` for the modules of two
        registry ids, by rank vectors, when every map of M and N is zero and
        the relations are long, else None (see the module docstring).  The xi'
        classes of every r count against ENUM_BUDGET before anything is interned."""
        (m, mdatas), (n, ndatas) = self.ctx.exact_key(x1), self.ctx.exact_key(x2)
        if not (self.algebra.long_relations and linalg.all_zero(mdatas + ndatas)):
            return None
        p, tau = self.p, self._tau_index
        walks = []
        for r in itertools.product(*(range(min(mv, n[tv]) + 1) for mv, tv in zip(m, tau))):
            e1, live, middle = self.ctx.semisimple_extensions(
                [mv - rv for mv, rv in zip(m, r)], [nv - r[tv] for nv, tv in zip(n, tau)])
            walks.append((r, e1, *_xi_classes(p, e1, live), middle))
        modules._check_walk(sum(count for _, _, count, _, _ in walks), "Ext^1 representatives")
        e = walks[0][1]   # r = 0: xi' is xi
        counts: Dict[TermKey, int] = {}
        for r, e1, _, classes, middle in walks:
            # the f of rank r, times the xi over each xi'
            weight = p ** (e - e1) * math.prod(linalg.rank_count(p, n[tv], mv, rv)
                                               for mv, tv, rv in zip(m, tau, r) if rv)
            for xi, w in classes:
                key = (self.ctx._intern_exact(middle(xi)), r)
                counts[key] = counts.get(key, 0) + w * weight
        h = sum(mv * n[tv] for mv, tv in zip(m, tau))
        hom_dim = sum(mv * nv for mv, nv in zip(m, n))
        return ExtClassification(tuple(sorted(counts.items())), hom_dim, e + h)

    def _pair_product(self, x1: int, x2: int) -> HallElement:
        """Twisted product of torus-free symbols [X1] * [X2], memoized."""
        key = (x1, x2)
        if key not in self._pair:
            twist = self.v_power(self.euler_q(self.ctx.dims(x1), self.ctx.dims(x2)))
            self._pair[key] = self.raw_product(x1, x2).scale(twist)
        return self._pair[key]

    def mul(self, a: HallElement, b: HallElement) -> HallElement:
        if a.q != self.p or b.q != self.p:
            raise AlgebraMismatch("element from another prime")
        out: Dict[TermKey, QSqrt] = {}
        for (x1, alpha1), c1 in a.terms.items():
            for (x2, alpha2), c2 in b.terms.items():
                core = self._pair_product(x1, x2)
                comm = self.v_power(self.commutation_exponent(alpha1, self.ctx.dims(x2)))
                shift = tuple(u + w for u, w in zip(alpha1, alpha2))
                scale = c1 * c2 * comm
                for (xl, gamma), cl in core.terms.items():
                    final = (xl, tuple(g + s for g, s in zip(gamma, shift)))
                    acc = out.get(final)
                    term = cl * scale
                    out[final] = term if acc is None else acc + term
        return HallElement(self.p, out)

    def product(self, factors: Sequence[HallElement]) -> HallElement:
        result = self.one()
        for f in factors:
            result = self.mul(result, f)
        return result

    def word_product(self, word: Sequence[str]) -> HallElement:
        return self.product([self.simple(v) for v in word])

    # -- reduction by the central torus parameters ----------------------------------------------

    def check_sigma(self, sigma: Dict[str, QSqrt]) -> Dict[str, QSqrt]:
        """sigma at every vertex: one nonzero value per tau-orbit, given at
        either member of the orbit, and one where none is given."""
        unknown = sorted(set(sigma) - set(self.vertices))
        if unknown:
            raise InputError(f"sigma names unknown vertices: {', '.join(unknown)}")
        out = {}
        for v in self.vertices:
            given = {sigma[w] for w in (v, self.tau[v]) if w in sigma}
            if len(given) > 1:
                raise InputError("sigma must be constant on involution orbits")
            out[v] = given.pop() if given else QSqrt.one(self.p)
            if out[v].is_zero():
                raise InputError("sigma parameters must be nonzero")
        return out

    def reduce_params(self, elem: HallElement, sigma: Optional[Dict[str, QSqrt]] = None) -> HallElement:
        """Torus normal form in the reduced algebra: split torus generators
        become the scalar -q sigma, and the non-representative exponent of
        each two-vertex orbit folds onto the representative at cost sigma^2."""
        sig = self.check_sigma(sigma or {})
        out: Dict[TermKey, QSqrt] = {}
        for (xid, alpha), coeff in elem.terms.items():
            new_alpha = list(alpha)
            factor = QSqrt.one(self.p)
            for i, v in enumerate(self.vertices):
                tv = self.tau[v]
                if tv == v:
                    k = new_alpha[i]
                    if k:
                        factor = factor * ((self.scalar(-self.p) * sig[v]) ** k)
                        new_alpha[i] = 0
                elif v > tv:
                    # fold the non-representative exponent onto the smaller name
                    k = new_alpha[i]
                    if k:
                        factor = factor * (sig[v] ** (2 * k))
                        new_alpha[self.algebra.vidx[tv]] -= k
                        new_alpha[i] = 0
            key = (xid, tuple(new_alpha))
            term = coeff * factor
            acc = out.get(key)
            out[key] = term if acc is None else acc + term
        return HallElement(self.p, out)

    # -- centrality --------------------------------------------------------------------------------

    def centrality_check(self, v: str, test_reps: Sequence[Rep]):
        """Check that the torus class at v (or of the orbit pair when tau
        moves v) commutes with every [M] in the list."""
        if self.tau[v] == v:
            sym = self.gen_simple_symbol(v)
        else:
            alpha = [0] * len(self.vertices)
            alpha[self.algebra.vidx[v]] = 1
            alpha[self.algebra.vidx[self.tau[v]]] = 1
            sym = self.torus(alpha)
        failures = []
        for rep in test_reps:
            m = self.from_rep(rep)
            delta = self.mul(sym, m) - self.mul(m, sym)
            if not delta.is_zero():
                failures.append(rep)
        return (not failures), failures


def _xi_classes(p: int, width: int, live: Sequence[tuple]):
    """How many xi' of F_p^width the walk builds, and each as (xi', the size
    of its class).  ``live`` holds (s, t, offset, rows, cols) of each nonzero
    block xi'_a: K_s -> C_t.  Aut K x Aut C acts on the blocks, and if no two
    blocks share a K_s or a C_t it acts on each block alone, by GL x GL: then
    a class is a rank per block, with ``linalg.rank_count`` members, and xi'
    its rank-normal form.  Else a class is the zero xi' or a line, as in
    ``ext1_classify`` (``linalg.line_walk``)."""
    if len({s for s, *_ in live}) == len({t for _, t, *_ in live}) == len(live):
        ranks = list(itertools.product(*(range(min(rows, cols) + 1)
                                         for *_, rows, cols in live)))

        def normal_forms():
            for rho in ranks:
                xi = [0] * width
                for (_, _, off, _, cols), rk in zip(live, rho):
                    for i in range(rk):
                        xi[off + i * cols + i] = 1
                yield tuple(xi), math.prod(linalg.rank_count(p, rows, cols, rk)
                                           for (*_, rows, cols), rk in zip(live, rho))
        return len(ranks), normal_forms()
    return linalg.line_walk(p, width)


# -- generic (Laurent) structure constants --------------------------------------------------------


@dataclass(frozen=True)
class GenericKey:
    """Prime-independent label for a basis symbol: the multiset of dimension
    vectors of the indecomposable summands of X, plus the torus exponent."""

    roots: Tuple[Tuple[int, ...], ...]
    alpha: Tuple[int, ...]

    def to_json(self) -> dict:
        return {"roots": [list(r) for r in self.roots], "alpha": list(self.alpha)}


def generic_key(engine: IHallAlgebra, key: TermKey) -> GenericKey:
    """X by its Kostant partition, read with no split (Q is Dynkin)."""
    xid, alpha = key
    lam = engine.ctx.partition(xid)
    return GenericKey(tuple(root for root, mult in lam for _ in range(mult)), alpha)


def keyed_terms(engine: IHallAlgebra, elem: HallElement) -> Dict[GenericKey, QSqrt]:
    out: Dict[GenericKey, QSqrt] = {}
    for key, coeff in elem.terms.items():
        gk = generic_key(engine, key)
        if gk in out:
            raise AlignmentFailure("two basis symbols share a prime-independent key")
        out[gk] = coeff
    return out


def generic_structure_constants(iq: IQuiver,
                                build: Callable[[IHallAlgebra], HallElement],
                                primes: Sequence[int],
                                check_prime: int) -> Dict[GenericKey, LaurentV]:
    """Evaluate ``build`` at several primes, align terms by prime-independent
    keys, interpolate each coefficient, and verify at a held-out prime.

    Each prime is evaluated in its own engine, one after another, and its
    terms are keyed by prime-independent root multisets.
    """
    root_table(iq)   # root multisets label the terms only for a Dynkin quiver
    if check_prime in primes:
        raise InputError(f"the check prime {check_prime} is also a fit prime")
    all_primes = list(primes) + [check_prime]

    per_prime: Dict[int, Dict[GenericKey, QSqrt]] = {}
    for p in all_primes:
        engine = IHallAlgebra(iquiver_algebra(iq), p)
        per_prime[p] = keyed_terms(engine, build(engine))
    support = set(per_prime[primes[0]])
    for p in primes[1:]:
        if set(per_prime[p]) != support:
            raise AlignmentFailure(f"term support differs between primes {primes[0]} and {p}")
    result: Dict[GenericKey, LaurentV] = {}
    check_terms = dict(per_prime[check_prime])
    for key in sorted(support, key=lambda k: (k.alpha, k.roots)):
        samples = [(p, per_prime[p][key]) for p in primes]
        expected = check_terms.pop(key, QSqrt.zero(check_prime))
        try:
            poly = laurent_fit_escalating(samples, max_degree=6, degree_cap=12,
                                          holdout=[(check_prime, expected)])
        except (InputError) as err:
            raise FitFailure(f"no consistent fit for {key}: {err}") from err
        if laurent_eval(poly, check_prime) != expected:
            raise FitFailure(f"fit fails verification at q={check_prime} for {key}")
        result[key] = poly
    for key, val in check_terms.items():
        if not val.is_zero():
            raise FitFailure(f"term {key} appears at the check prime only")
    return result

