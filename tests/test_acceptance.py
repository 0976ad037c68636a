"""Acceptance criteria, one test per criterion.

Every check is exact: residuals are zero elements of Q[sqrt q], matrices
are invertible over an exact field, and counts are integers.  Each test
prints one PASS line on success (run with -s to see them); a failure is an
ordinary assertion failure.
"""

import itertools
import random

import ext_reference
from riedtmann_reference import aut_count, submodule_count_with
from iqhall.algebra import iquiver_algebra, path_algebra
from iqhall.dynkin import DynkinContext, monomial_basis_check, pbw_basis_check
from iqhall.hall import IHallAlgebra, generic_structure_constants
from iqhall.modules import ModuleContext
from iqhall.quivers import (diagonal_iquiver, double_framed, enriched_quiver,
                            make_iquiver)
from iqhall.scalars import LaurentV, qint
from iqhall.verify import (bridgeland_suite, euler_central_suite,
                           rank2_identities, serre_suite)


def a2split():
    return make_iquiver(["1", "2"], [("a", "1", "2")])


def a3split():
    return make_iquiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])


def a3tau():
    return make_iquiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")],
                        tau={"1": "3", "2": "2", "3": "1"})


def swap_pair():
    return make_iquiver(["1", "2"], [], tau={"1": "2", "2": "1"})


def d4split():
    return make_iquiver(["0", "1", "2", "3"],
                        [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")])


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_rank2_identities():
    for q in (2, 3, 5):
        rep = rank2_identities(q)
        assert rep.passed, f"rank-2 identities fail at q={q}"
        assert len(rep.relations) == 5
    report("01 rank-2 identities at q in {2,3,5}")


def test_criterion_02_serre_suites():
    quivers = {"a2split": a2split(), "a3split": a3split(), "a3tau": a3tau(),
               "d4split": d4split(), "swap": swap_pair()}
    for name, iq in quivers.items():
        for q in (2, 3):
            rep = serre_suite(iq, q)
            assert rep.passed, f"serre suite fails for {name} at q={q}"
    report("02 Serre suites on five quivers at q in {2,3}")


def test_criterion_03_bridgeland():
    a1 = make_iquiver(["1"], [])
    for q in (2, 3):
        assert bridgeland_suite(a1, q).passed
        assert bridgeland_suite(a2split(), q).passed
    report("03 Bridgeland suite for A1 and A2 at q in {2,3}")


def _symbol_pool(engine, max_total=4):
    """Basis symbols [X] * E_alpha of total grade dimension <= max_total."""
    ctx = engine.ctx
    names = engine.vertices
    kq_mids = []
    for total in range(0, max_total + 1):
        for combo in itertools.product(range(total + 1), repeat=len(names)):
            if sum(combo) != total:
                continue
            dims = dict(zip(names, combo))
            for mid in ctx.enumerate_iso_classes(dims):
                if ctx.flags(mid)["is_kq_module"]:
                    kq_mids.append(mid)
    pool = []
    for mid in sorted(set(kq_mids)):
        base = ctx.rep(mid).total_dim
        for alpha in itertools.product(range(0, 2), repeat=len(names)):
            weight = sum(2 * a for a in alpha)
            if base + weight <= max_total:
                pool.append(engine.basis_symbol(mid, alpha))
    return pool


def test_criterion_04_normal_form_and_associativity():
    engine = IHallAlgebra(iquiver_algebra(a2split()), 2)
    ctx = engine.ctx
    pool = _symbol_pool(engine, 4)

    def weight(sym):
        (key,) = sym.terms.keys()
        return sum(engine.grade(key))

    # every product of total dimension <= 4 runs through: its middle terms
    # each normalize to their eps-homology and eps-ranks
    for a in pool:
        for b in pool:
            if weight(a) + weight(b) <= 4:
                engine.mul(a, b)
    # normalize is idempotent on torus-free basis symbols
    for sym in pool:
        ((xid, alpha),) = sym.terms.keys()
        if alpha == (0, 0):
            coeff, key = engine.normalize(ctx.rep(xid))
            assert coeff == engine.scalar(1) and key == (xid, alpha)
    rng = random.Random(20230217)
    triples = [(a, b, c) for a in pool for b in pool for c in pool
               if weight(a) + weight(b) + weight(c) <= 4]
    checked = 0
    while checked < 200:
        a, b, c = rng.choice(triples)
        left = engine.mul(engine.mul(a, b), c)
        right = engine.mul(a, engine.mul(b, c))
        assert (left - right).is_zero()
        checked += 1
    report("04 normal form total on dim<=4 products; associativity on 200 triples")


def test_criterion_05_generic_hall_polynomials():
    iq = a2split()

    def serre_combination(engine):
        q = engine.p
        s1, s2 = engine.simple("1"), engine.simple("2")
        return engine.product([s2, s1, s1]) \
            - engine.product([s1, s2, s1]).scale(qint(2, q)) \
            + engine.product([s1, s1, s2])

    out = generic_structure_constants(iq, serre_combination, [2, 3, 5], 7)
    (key, poly), = out.items()
    assert poly == LaurentV.from_dict({3: -1, 1: 2, -1: -1})
    assert key.roots == ((0, 1),) and key.alpha == (1, 0)

    out = generic_structure_constants(iq, lambda e: e.word_product(["1", "2"]),
                                      [2, 3, 5], 7)
    by_roots = {k.roots: p for k, p in out.items()}
    assert by_roots[((1, 1),)] == LaurentV.from_dict({1: 1, -1: -1})

    out = generic_structure_constants(
        iq, lambda e: e.mul(e.torus((1, 0)), e.torus((0, 1))), [2, 3, 5], 7)
    (key, poly), = out.items()
    assert poly == LaurentV.v_power(0) and key.alpha == (1, 1)
    report("05 generic coefficients -v^3+2v-v^-1, v-v^-1, and 1 via primes {2,3,5} checked at 7")


def test_criterion_06_euler_centrality():
    for iq in (a2split(), a3tau(), swap_pair()):
        rep = euler_central_suite(iq, 2, sample_size=50)
        assert rep.passed
    report("06 Euler compatibility, halving and centrality on 50 samples per algebra")


def test_criterion_07_homological_predicates():
    engine = IHallAlgebra(iquiver_algebra(a2split()), 2)
    ctx = engine.ctx
    regular = [ctx.projective(v) for v in engine.vertices]
    mids = []
    for total in range(0, 5):
        for a in range(total + 1):
            mids.extend(ctx.enumerate_iso_classes({"1": a, "2": total - a}))
    mids = sorted(set(mids))
    assert len(mids) > 10
    for mid in mids:
        rep = ctx.rep(mid)
        ext1 = sum(ctx.ext1_dim(rep, pr) for pr in regular)
        assert ctx.is_gproj(rep) == (ext1 == 0), f"Gproj mismatch on module {mid}"
        ext2 = sum(ext_reference.ext2_dim(ctx, rep, pr) for pr in regular)
        assert ext2 == 0, f"Ext^2 against the regular module on {mid}"
    report(f"07 Gproj <=> Ext^1(-,reg)=0 and Ext^2(-,reg)=0 on {len(mids)} classes")


def test_criterion_08_bases():
    rep = monomial_basis_check(a2split(), 2, 4)
    assert rep.passed
    rep = pbw_basis_check(a2split(), 2, 4)
    assert rep.passed
    dyn = DynkinContext(a2split(), 2)
    rep = pbw_basis_check(a2split(), 2, 4,
                          ordering=list(reversed(dyn.roots)))
    assert rep.passed
    rep = monomial_basis_check(a3tau(), 2, 3)
    assert rep.passed
    rep = pbw_basis_check(a3tau(), 2, 3)
    assert rep.passed
    dyn3 = DynkinContext(a3tau(), 2)
    rep = pbw_basis_check(a3tau(), 2, 3,
                          ordering=list(reversed(dyn3.roots)))
    assert rep.passed
    report("08 monomial and PBW bases (two orderings) for split A2 cap 4, A3-with-involution cap 3")


def _riedtmann_peng_all(ctx, max_dim=3):
    names = ctx.algebra.vertices
    mids = []
    for total in range(1, max_dim + 1):
        for combo in itertools.product(range(total + 1), repeat=len(names)):
            if sum(combo) == total:
                mids.extend(ctx.enumerate_iso_classes(dict(zip(names, combo))))
    mids = sorted(set(mids))
    checked = 0
    for m_mid in mids:
        for n_mid in mids:
            M, N = ctx.rep(m_mid), ctx.rep(n_mid)
            if M.total_dim + N.total_dim > max_dim:
                continue
            cls = ctx.ext1_classify(M, N)
            q_hom = ctx.p ** cls.hom_dim
            for l_mid, count in cls.pairs:
                L = ctx.rep(l_mid)
                g = submodule_count_with(ctx, L, n_mid, m_mid)
                assert count * aut_count(ctx, L) == \
                    g * aut_count(ctx, M) * aut_count(ctx, N) * q_hom
                checked += 1
    return checked


def test_criterion_09_riedtmann_peng():
    total = 0
    total += _riedtmann_peng_all(ModuleContext(path_algebra(a2split()), 2))
    total += _riedtmann_peng_all(ModuleContext(iquiver_algebra(a2split()), 2))
    assert total > 20
    report(f"09 Riedtmann-Peng consistency on {total} triples over kQ(A2) and the split A2 algebra")


def test_criterion_10_structural():
    for iq in (a2split(), a3split(), a3tau(), swap_pair(), d4split()):
        alg = iquiver_algebra(iq)
        paths = len(path_algebra(iq).basis)
        assert alg.dim == 2 * paths
    for base in (a2split(), a3split()):
        assert enriched_quiver(diagonal_iquiver(base)).structure_key() == \
            double_framed(base).structure_key()
    report("10 dim = 2 * #paths on all test quivers; diagonal enriched quiver = double framed quiver")
