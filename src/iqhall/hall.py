"""The Hall algebra of a quiver with involution, over F_q.

Elements are finite linear combinations of basis symbols [X] * E_alpha,
where X runs over modules with all eps maps zero (identified with modules
over the path algebra) and alpha over integer vectors indexed by vertices
(the exponents of the invertible torus classes).  Scalars live in
Q[sqrt(q)].

The raw product of two module classes is the Bridgeland-normalized Hall
product: sum over middle terms L of |Ext^1(M,N)_L| / |Hom(M,N)| times [L].
The twisted product multiplies by v^{<res M, res N>_Q}.  An arbitrary
module class is rewritten into the basis by splitting off finite-projective-
dimension pieces from both sides:

  * summands with all eps maps zero stay in X;
  * summands of finite projective dimension become torus exponents via
    their filtration multiset;
  * a mixed indecomposable is split along a generalized-simple submodule
    when one embeds, else along a generalized-simple quotient; each split
    replaces the class by the class of the direct sum, with no scalar.

The only scalars enter at the very end, from the bimodule formula
[X + K] = q^{<X,K>} [X] . [K] and the twist, giving

  [L] = q^{<X,K>} v^{-<dim X, dim res K>_Q} [X] * E_alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import BoundAlgebra, iquiver_algebra
from .errors import (AlgebraMismatch, AlignmentFailure, FitFailure, InputError,
                     NormalFormStuck, NotDynkin, UnsupportedType)
from .modules import (ModuleContext, Rep, direct_sum, image_subspaces,
                      kernel_subspaces, quotient, subrep)
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
        self._zero_mid = self.ctx.intern(self.ctx.zero())

    # -- scalar helpers ---------------------------------------------------------

    def v_power(self, k: int) -> QSqrt:
        return QSqrt.v_power(k, self.p)

    def scalar(self, x) -> QSqrt:
        return QSqrt.of(Fraction(x), self.p)

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
        dims = self.ctx.rep(xid).dims
        res = self._res_alpha(alpha)
        return tuple(d + r for d, r in zip(dims, res))

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
        return self.from_rep(self.ctx.simple(v))

    def from_rep(self, rep: Rep) -> HallElement:
        coeff, key = self.normalize(rep)
        return HallElement(self.p, {key: coeff})

    # -- normal form -------------------------------------------------------------------

    def normalize(self, rep: Rep) -> Tuple[QSqrt, TermKey]:
        """Rewrite the class of a module into c * [X] * E_alpha."""
        kq_parts: List[int] = []
        alpha = [0] * len(self.vertices)
        work = list(self.ctx.decompose(rep))
        while work:
            mid = work.pop()
            piece = self.ctx.rep(mid)
            if piece.total_dim == 0:
                continue
            flags = self.ctx.flags(mid)
            if flags["is_kq_module"]:
                kq_parts.append(mid)
            elif flags["is_P_leq1"]:
                beta = self.ctx.torus_class_of_mid(mid)
                for i, b in enumerate(beta):
                    alpha[i] += b
            else:
                work.extend(self._split_mixed(mid))
        kq_parts.sort()
        if kq_parts:
            x_rep = direct_sum([self.ctx.rep(m) for m in kq_parts])
        else:
            x_rep = self.ctx.zero()
        xid = self.ctx.intern(x_rep)
        xdims = x_rep.dims
        # <X, K>_Lambda = sum_i alpha_i <dim X, S_{tau i}>_Q by the Euler
        # compatibility of the restriction functor
        pairing = sum(a * sum(d * row[ti] for d, row in zip(xdims, self.euler))
                      for a, ti in zip(alpha, self._tau_index) if a)
        twist = -self.euler_q(xdims, self._res_alpha(alpha))
        coeff = self.scalar(Fraction(self.p) ** pairing) * self.v_power(twist)
        return coeff, (xid, tuple(alpha))

    def _split_mixed(self, mid: int) -> List[int]:
        """Split a mixed indecomposable along a generalized-simple submodule
        (preferred) or quotient; both rewrites hold with scalar one."""
        rep = self.ctx.rep(mid)
        for v in self.vertices:
            ev = self.ctx.gen_simple(v)
            mats = self.ctx.find_injective_from(ev, rep)
            if mats is not None:
                quot, _ = quotient(rep, image_subspaces(rep, mats))
                return [self.ctx.intern(ev)] + list(self.ctx.decompose(quot))
        for v in self.vertices:
            ev = self.ctx.gen_simple(v)
            mats = self.ctx.find_surjective_to(rep, ev)
            if mats is not None:
                sub, _ = subrep(rep, kernel_subspaces(mats))
                return [self.ctx.intern(ev)] + list(self.ctx.decompose(sub))
        raise NormalFormStuck(
            f"mixed indecomposable of dims {rep.dims} has no P<=1 submodule or quotient",
            rep=rep)

    def normalize_mid(self, mid: int) -> Tuple[QSqrt, TermKey]:
        if mid not in self._normal:
            self._normal[mid] = self.normalize(self.ctx.rep(mid))
        return self._normal[mid]

    # -- products ---------------------------------------------------------------------------

    def raw_product(self, M: Rep, N: Rep) -> HallElement:
        """Untwisted Hall product of two module classes."""
        cls = self.ctx.ext1_classify(M, N)
        hom_size = Fraction(self.p) ** cls.hom_dim
        out: Dict[TermKey, QSqrt] = {}
        for mid, count in cls.pairs:
            coeff, key = self.normalize_mid(mid)
            term = coeff * self.scalar(Fraction(count) / hom_size)
            acc = out.get(key)
            out[key] = term if acc is None else acc + term
        return HallElement(self.p, out)

    def _pair_product(self, x1: int, x2: int) -> HallElement:
        """Twisted product of torus-free symbols [X1] * [X2], memoized."""
        key = (x1, x2)
        if key not in self._pair:
            X1, X2 = self.ctx.rep(x1), self.ctx.rep(x2)
            twist = self.v_power(self.euler_q(X1.dims, X2.dims))
            self._pair[key] = self.raw_product(X1, X2).scale(twist)
        return self._pair[key]

    def mul(self, a: HallElement, b: HallElement) -> HallElement:
        if a.q != self.p or b.q != self.p:
            raise AlgebraMismatch("element from another prime")
        out = HallElement(self.p)
        for (x1, alpha1), c1 in a.terms.items():
            for (x2, alpha2), c2 in b.terms.items():
                core = self._pair_product(x1, x2)
                y_dims = self.ctx.rep(x2).dims
                comm = self.v_power(self.commutation_exponent(alpha1, y_dims))
                shift = tuple(u + w for u, w in zip(alpha1, alpha2))
                scale = c1 * c2 * comm
                for (xl, gamma), cl in core.terms.items():
                    final = (xl, tuple(g + s for g, s in zip(gamma, shift)))
                    acc = out.terms.get(final)
                    term = cl * scale
                    out.terms[final] = term if acc is None else acc + term
        return HallElement(self.p, out.terms)

    def product(self, factors: Sequence[HallElement]) -> HallElement:
        result = self.one()
        for f in factors:
            result = self.mul(result, f)
        return result

    def word_product(self, word: Sequence[str]) -> HallElement:
        return self.product([self.simple(v) for v in word])

    # -- reduction by the central torus parameters ----------------------------------------------

    def check_sigma(self, sigma: Dict[str, QSqrt]) -> Dict[str, QSqrt]:
        out = {}
        for v in self.vertices:
            rep = min(v, self.tau[v])
            val = sigma.get(rep, QSqrt.one(self.p))
            if val.is_zero():
                raise InputError("sigma parameters must be nonzero")
            out[v] = val
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
    xid, alpha = key
    parts = engine.ctx.decompose(xid)
    roots = tuple(sorted(engine.ctx.rep(m).dims for m in parts))
    return GenericKey(roots, alpha)


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
    try:
        root_table(iq)
    except NotDynkin as err:
        raise UnsupportedType(
            f"generic mode aligns terms by root multisets and needs a Dynkin quiver: {err}"
        ) from err
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

