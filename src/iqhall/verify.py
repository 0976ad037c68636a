"""Executable relation suites and machine-readable reports.

Each suite instantiates generator images inside the Hall algebra and
evaluates the defining relations of the corresponding presentation; a
relation passes exactly when the residual LHS - RHS is the zero element.
All arithmetic is exact, so there is no tolerance anywhere: a report's
overall flag is the conjunction of exact zero tests.

Generator images: for an orbit representative j the generator maps to
-1/(q-1) times the simple class at j, for the other orbit member to
v/(q-1) times its simple class; the invertible torus generator at a fixed
vertex maps to -1/q times the torus class, at a moved vertex to the torus
class itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import iquiver_algebra
from .errors import InputError, NotDynkin, UnsupportedType
from .hall import HallElement, IHallAlgebra
from .modules import Rep, direct_sum
from .quivers import IQuiver, diagonal_iquiver, make_iquiver, root_table
from .scalars import QSqrt, qint


@dataclass
class RelationResult:
    rel_id: str
    passed: bool
    residual_terms: int
    residual: list = field(default_factory=list)   # serialized LHS - RHS terms

    def to_json(self) -> dict:
        return {"id": self.rel_id, "pass": self.passed,
                "residual_terms": self.residual_terms,
                "residual": self.residual}


@dataclass
class VerificationReport:
    suite: str
    algebra_hash: str
    primes: List[int]
    relations: List[RelationResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.relations)

    def to_json(self) -> dict:
        return {"suite": self.suite, "algebra": self.algebra_hash,
                "primes": self.primes, "pass": self.passed,
                "relations": [r.to_json() for r in sorted(self.relations,
                                                          key=lambda r: r.rel_id)]}


def _serialize_residual(residuals: List[HallElement]) -> list:
    out = []
    for idx, elem in enumerate(residuals):
        for (x, alpha), coeff in sorted(elem.terms.items()):
            out.append({"part": idx, "X": x, "alpha": list(alpha),
                        "coeff": coeff.to_json()})
    return out


def _collect(suite: str, algebra_hash: str, primes: List[int],
             named_residuals: Sequence[Tuple[str, object]]) -> VerificationReport:
    results = []
    for rel_id, residual in named_residuals:
        residuals = residual if isinstance(residual, list) else [residual]
        terms = sum(len(r.terms) for r in residuals)
        results.append(RelationResult(rel_id, all(r.is_zero() for r in residuals), terms,
                                      _serialize_residual(residuals)))
    return VerificationReport(suite, algebra_hash, primes, sorted(results, key=lambda r: r.rel_id))


@dataclass
class GeneratorImages:
    """Hall images of the presentation generators at one prime."""

    engine: IHallAlgebra
    B: Dict[str, HallElement]
    ktilde: Dict[str, HallElement]


def generator_images(engine: IHallAlgebra) -> GeneratorImages:
    q = engine.p
    reps = set(engine.algebra.itau_reps)
    B = {}
    ktilde = {}
    for v in engine.vertices:
        if v in reps:
            B[v] = engine.simple(v).scale(engine.scalar(Fraction(-1, q - 1)))
        else:
            B[v] = engine.simple(v).scale(engine.v_power(1) * engine.scalar(Fraction(1, q - 1)))
        if engine.tau[v] == v:
            ktilde[v] = engine.gen_simple_symbol(v).scale(engine.scalar(Fraction(-1, q)))
        else:
            ktilde[v] = engine.gen_simple_symbol(v)
    return GeneratorImages(engine, B, ktilde)


def _require_dynkin_iquiver(iq: IQuiver):
    try:
        root_table(iq)
    except NotDynkin as err:
        raise UnsupportedType(f"relation suites need a Dynkin quiver: {err}") from err
    tau = iq.tau_map()
    cartan = iq.cartan_matrix()
    for v in iq.vertices:
        if tau[v] != v and cartan[iq.index(v)][iq.index(tau[v])] != 0:
            raise UnsupportedType(
                "a vertex adjacent to its involution partner (even type A) is excluded")


def _serre(engine: IHallAlgebra, x: HallElement, y: HallElement) -> HallElement:
    """The quantum Serre combination xxy - [2] xyx + yxx of degree 1 - c = 2."""
    mul = engine.mul
    xx = mul(x, x)
    return mul(xx, y) - mul(mul(x, y), x).scale(qint(2, engine.p)) + mul(y, xx)


def serre_relation_residuals(engine: IHallAlgebra, images: GeneratorImages,
                             B_key=None, k_key=None, sigma: Optional[Dict[str, QSqrt]] = None):
    """Residuals of the universal presentation: torus commutation, torus-
    generator commutation, plain commutation, homogeneous Serre, the orbit
    commutator and the inhomogeneous Serre relation.

    With ``sigma`` the relations are the reduced ones: the torus generators
    are rescaled by 1/sigma, the orbit commutator and the inhomogeneous
    Serre relation pick up sigma coefficients, and every residual is pushed
    through the central reduction before the zero test.
    """
    verts = engine.vertices
    E = engine.euler
    cart = [[E[i][j] + E[j][i] for j in range(len(verts))] for i in range(len(verts))]
    tau = engine.tau
    vidx = engine.algebra.vidx
    reps = set(engine.algebra.itau_reps)
    q = engine.p
    B = images.B

    if sigma is None:
        K = images.ktilde
        sig = {v: QSqrt.one(q) for v in verts}
        reduce = lambda el: el
    else:
        sig = engine.check_sigma(sigma)
        K = {v: engine.gen_simple_symbol(v).scale(sig[v].inverse()) for v in verts}
        reduce = lambda el: engine.reduce_params(el, sigma)

    mul, scale = engine.mul, HallElement.scale
    out: List[Tuple[str, HallElement]] = []

    for v, w in itertools.combinations(verts, 2):
        out.append((f"kk:{v},{w}", reduce(mul(K[v], K[w]) - mul(K[w], K[v]))))
    for el in verts:
        if sigma is not None and el not in reps:
            continue
        for i in verts:
            expo = cart[vidx[tau[el]]][vidx[i]] - cart[vidx[el]][vidx[i]]
            res = mul(K[el], B[i]) - mul(B[i], K[el]).scale(engine.v_power(expo))
            out.append((f"kb:{el},{i}", reduce(res)))
    for v, w in itertools.combinations(verts, 2):
        c = cart[vidx[v]][vidx[w]]
        if c == 0 and tau[v] != w:
            out.append((f"commute:{v},{w}",
                        reduce(mul(B[v], B[w]) - mul(B[w], B[v]))))
    for i in verts:
        for j in verts:
            if i == j or cart[vidx[i]][vidx[j]] != -1:
                continue
            if tau[i] != i and j not in (i, tau[i]):
                # homogeneous quantum Serre relation
                out.append((f"serre:{i},{j}", reduce(_serre(engine, B[i], B[j]))))
            elif tau[i] == i:
                # inhomogeneous Serre relation: the correction term carries
                # the torus generator in the universal presentation and the
                # plain parameter after central reduction
                lhs = _serre(engine, B[i], B[j])
                if sigma is None:
                    rhs = mul(K[i], B[j]).scale(engine.v_power(1))
                else:
                    rhs = B[j].scale(engine.v_power(1) * sig[i])
                out.append((f"iserre:{i},{j}", reduce(lhs - rhs)))
    for i in sorted(reps):
        if tau[i] == i:
            continue
        # B_{tau i} B_i - B_i B_{tau i} = sigma_i (k_i - k_{tau i}) / (v - 1/v)
        vv = engine.v_power(1) - engine.v_power(-1)
        lhs = mul(B[tau[i]], B[i]) - mul(B[i], B[tau[i]])
        rhs = (K[i] - K[tau[i]]).scale(sig[i] * vv.inverse())
        out.append((f"pair:{i}", reduce(lhs - rhs)))
    return out


def serre_suite(iq: IQuiver, q: int) -> VerificationReport:
    """The universal presentation, evaluated through the Hall images."""
    _require_dynkin_iquiver(iq)
    engine = IHallAlgebra(iquiver_algebra(iq), q)
    images = generator_images(engine)
    residuals = serre_relation_residuals(engine, images)
    return _collect("serre", engine.algebra.content_hash(), [q], residuals)


def reduced_suite(iq: IQuiver, q: int,
                  sigma: Optional[Dict[str, QSqrt]] = None) -> VerificationReport:
    """The reduced presentation with parameters sigma (default one)."""
    _require_dynkin_iquiver(iq)
    engine = IHallAlgebra(iquiver_algebra(iq), q)
    tau = iq.tau_map()
    sigma = dict(sigma or {})
    for v, w in list(sigma.items()):
        if tau[v] != v and sigma.get(tau[v], sigma[v]) != sigma[v]:
            raise InputError("sigma must be constant on involution orbits")
    images = generator_images(engine)
    residuals = serre_relation_residuals(engine, images, sigma=sigma or {})
    return _collect("reduced", engine.algebra.content_hash(), [q], residuals)


# -- rank 2 identities ------------------------------------------------------------


def rank2_identities(q: int) -> VerificationReport:
    """The five displayed rank-2 identities, checked exactly."""
    named: List[Tuple[str, HallElement]] = []

    a2 = make_iquiver(["1", "2"], [("a", "1", "2")])
    e = IHallAlgebra(iquiver_algebra(a2), q)
    s1, s2 = e.simple("1"), e.simple("2")
    two = qint(2, q)
    coeff = e.scalar(-((q - 1) ** 2)) * e.v_power(-1)
    lhs = e.product([s2, s1, s1]) - e.product([s1, s2, s1]).scale(two) + e.product([s1, s1, s2])
    named.append(("rank2:a2:serre-211",
                  lhs - e.mul(s2, e.gen_simple_symbol("1")).scale(coeff)))
    lhs = e.product([s1, s2, s2]) - e.product([s2, s1, s2]).scale(two) + e.product([s2, s2, s1])
    named.append(("rank2:a2:serre-122",
                  lhs - e.mul(s1, e.gen_simple_symbol("2")).scale(coeff)))

    a3 = make_iquiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")],
                      tau={"1": "3", "2": "2", "3": "1"})
    e3 = IHallAlgebra(iquiver_algebra(a3), q)
    two3 = qint(2, q)
    coeff3 = e3.scalar(-((q - 1) ** 2)) * e3.v_power(-1)
    homog = []
    inhomog = []
    for i in ("1", "3"):
        si, t2 = e3.simple(i), e3.simple("2")
        homog.append(e3.product([si, si, t2])
                     - e3.product([si, t2, si]).scale(two3) + e3.product([t2, si, si]))
        part = e3.product([t2, t2, si]) - e3.product([t2, si, t2]).scale(two3) \
            + e3.product([si, t2, t2])
        inhomog.append(part - e3.mul(si, e3.gen_simple_symbol("2")).scale(coeff3))
    named.append(("rank2:a3:homogeneous", homog))
    named.append(("rank2:a3:inhomogeneous", inhomog))

    sw = make_iquiver(["1", "2"], [], tau={"1": "2", "2": "1"})
    esw = IHallAlgebra(iquiver_algebra(sw), q)
    u1, u2 = esw.simple("1"), esw.simple("2")
    lhs = esw.mul(u1, u2) - esw.mul(u2, u1)
    rhs = (esw.gen_simple_symbol("1") - esw.gen_simple_symbol("2")).scale(esw.scalar(q - 1))
    named.append(("rank2:swap:commutator", lhs - rhs))

    return _collect("rank2", "rank2-trio", [q], named)


# -- Bridgeland suite --------------------------------------------------------------


def bridgeland_suite(Q: IQuiver, q: int) -> VerificationReport:
    """Drinfeld-double relations through the diagonal construction."""
    try:
        root_table(Q)
    except NotDynkin as err:
        raise UnsupportedType(f"diagonal suite needs a Dynkin base quiver: {err}") from err
    diag = diagonal_iquiver(Q)
    engine = IHallAlgebra(iquiver_algebra(diag), q)
    scalarE = engine.v_power(1) * engine.scalar(Fraction(1, q - 1))
    scalarF = engine.scalar(Fraction(-1, q - 1))
    prime = {v: f"{v}'" for v in Q.vertices}
    E = {v: engine.simple(prime[v]).scale(scalarE) for v in Q.vertices}
    F = {v: engine.simple(v).scale(scalarF) for v in Q.vertices}
    K = {v: engine.gen_simple_symbol(v) for v in Q.vertices}
    Kp = {v: engine.gen_simple_symbol(prime[v]) for v in Q.vertices}
    cartan = Q.cartan_matrix()
    mul = engine.mul
    named: List[Tuple[str, HallElement]] = []

    torus = list(K.items()) + [(f"{v}'", el) for v, el in Kp.items()]
    for (v, a), (w, b) in itertools.combinations(torus, 2):
        named.append((f"bridgeland:kk:{v},{w}", mul(a, b) - mul(b, a)))
    for i in Q.vertices:
        for j in Q.vertices:
            c = cartan[Q.index(i)][Q.index(j)]
            named.append((f"bridgeland:KE:{i},{j}",
                          mul(K[i], E[j]) - mul(E[j], K[i]).scale(engine.v_power(c))))
            named.append((f"bridgeland:KF:{i},{j}",
                          mul(K[i], F[j]) - mul(F[j], K[i]).scale(engine.v_power(-c))))
            named.append((f"bridgeland:K'E:{i},{j}",
                          mul(Kp[i], E[j]) - mul(E[j], Kp[i]).scale(engine.v_power(-c))))
            named.append((f"bridgeland:K'F:{i},{j}",
                          mul(Kp[i], F[j]) - mul(F[j], Kp[i]).scale(engine.v_power(c))))
            commutator = mul(E[i], F[j]) - mul(F[j], E[i])
            if i == j:
                vv = engine.v_power(1) - engine.v_power(-1)
                commutator = commutator - (K[i] - Kp[i]).scale(vv.inverse())
            named.append((f"bridgeland:EF:{i},{j}", commutator))
            if i != j:
                if c == 0:
                    named.append((f"bridgeland:Ecommute:{i},{j}",
                                  mul(E[i], E[j]) - mul(E[j], E[i])))
                    named.append((f"bridgeland:Fcommute:{i},{j}",
                                  mul(F[i], F[j]) - mul(F[j], F[i])))
                elif c == -1:
                    named.append((f"bridgeland:Eserre:{i},{j}", _serre(engine, E[i], E[j])))
                    named.append((f"bridgeland:Fserre:{i},{j}", _serre(engine, F[i], F[j])))
    # K_i K_i' is central: spot-check against all simple classes
    for i in Q.vertices:
        kki = mul(K[i], Kp[i])
        for j in Q.vertices:
            named.append((f"bridgeland:central:{i};{j}",
                          [mul(kki, gen) - mul(gen, kki) for gen in (E[j], F[j])]))
    return _collect("bridgeland", engine.algebra.content_hash(), [q], named)


# -- Euler / centrality sampling suite -------------------------------------------------


def sample_modules(engine: IHallAlgebra, sample_size: int, dim_cap: int = 3) -> List[Rep]:
    """A deterministic pool: every iso class up to the dimension cap, padded
    with direct sums of pairs until the requested size is reached."""
    ctx = engine.ctx
    mids: List[int] = []
    n = len(engine.vertices)
    for total in range(0, dim_cap + 1):
        for combo in itertools.product(range(total + 1), repeat=n):
            if sum(combo) != total:
                continue
            dims = {v: c for v, c in zip(engine.vertices, combo)}
            mids.extend(ctx.enumerate_iso_classes(dims))
    pool = [ctx.rep(m) for m in sorted(set(mids))]
    rng = random.Random(11)
    out = list(pool)
    while len(out) < sample_size:
        a, b = rng.choice(pool), rng.choice(pool)
        out.append(direct_sum([a, b]))
    return out[:sample_size] if sample_size < len(pool) else out


def euler_central_suite(iq: IQuiver, q: int, sample_size: int = 50,
                        dim_cap: int = 3) -> VerificationReport:
    """Euler-form compatibility, the halving identity on finite-dimension
    pairs, and centrality of the torus classes, on a sampled module pool."""
    engine = IHallAlgebra(iquiver_algebra(iq), q)
    ctx = engine.ctx
    pool = sample_modules(engine, sample_size, dim_cap=dim_cap)
    results: List[RelationResult] = []
    tau = engine.tau

    for i in engine.vertices:
        ei = ctx.gen_simple(i)
        si = tuple(1 if v == i else 0 for v in engine.vertices)
        sti = tuple(1 if v == tau[i] else 0 for v in engine.vertices)
        left_bad = sum(1 for M in pool
                       if ctx.euler_lambda(ei, M) != engine.euler_q(si, M.dims))
        right_bad = sum(1 for M in pool
                        if ctx.euler_lambda(M, ei) != engine.euler_q(M.dims, sti))
        results.append(RelationResult(f"euler:left:{i}", left_bad == 0, left_bad))
        results.append(RelationResult(f"euler:right:{i}", right_bad == 0, right_bad))

    p1_pool = [M for M in pool if ctx.is_p_leq1(M)]
    halving_bad = 0
    for M in p1_pool:
        for N in p1_pool:
            if 2 * ctx.euler_lambda(M, N) != engine.euler_q(M.dims, N.dims):
                halving_bad += 1
    results.append(RelationResult("euler:halving", halving_bad == 0, halving_bad))

    seen_orbits = set()
    for i in engine.vertices:
        orbit = tuple(sorted({i, tau[i]}))
        if orbit in seen_orbits:
            continue
        seen_orbits.add(orbit)
        ok, bad = engine.centrality_check(i, pool)
        results.append(RelationResult(f"central:{i}", ok, len(bad)))

    return VerificationReport("euler", engine.algebra.content_hash(), [q],
                              sorted(results, key=lambda r: r.rel_id))
