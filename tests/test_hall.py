import random
from fractions import Fraction

import pytest

from iqhall.algebra import iquiver_algebra
from iqhall.hall import GenericKey, IHallAlgebra, generic_structure_constants
from iqhall.modules import direct_sum
from iqhall.quivers import make_iquiver
from iqhall.scalars import LaurentV, QSqrt, qint


@pytest.fixture
def h2(a2_split):
    return IHallAlgebra(iquiver_algebra(a2_split), 2)


@pytest.fixture
def h3(a2_split):
    return IHallAlgebra(iquiver_algebra(a2_split), 3)


def qs(engine, x):
    return engine.scalar(Fraction(x))


def test_torus_is_multiplicative(h2):
    for alpha in [(1, 0), (0, 2), (-1, 3)]:
        for beta in [(0, 1), (2, -1)]:
            lhs = h2.mul(h2.torus(alpha), h2.torus(beta))
            total = tuple(a + b for a, b in zip(alpha, beta))
            assert lhs == h2.torus(total)


def test_unit(h2):
    s1 = h2.simple("1")
    assert h2.mul(h2.one(), s1) == s1
    assert h2.mul(s1, h2.one()) == s1


def test_normalize_gen_simple_is_torus(h2):
    e1 = h2.ctx.gen_simple("1")
    coeff, key = h2.normalize(e1)
    assert coeff == QSqrt.one(2)
    assert key == (h2.ctx.intern(h2.ctx.zero()), (1, 0))


def test_normalize_e1_plus_s2(h2):
    # [E_1 + S_2] rewrites to [S_2] * E_{S_1} with scalar one
    mixed = direct_sum([h2.ctx.gen_simple("1"), h2.ctx.simple("2")])
    coeff, (xid, alpha) = h2.normalize(mixed)
    assert coeff == QSqrt.one(2)
    assert alpha == (1, 0)
    assert h2.ctx.iso_test(h2.ctx.rep(xid), h2.ctx.simple("2"))


def test_normalize_mixed_indecomposable_uses_quotient_side(h2):
    # the quotient of the projective at 1 by its socle is a mixed
    # indecomposable with no finite-projective-dimension submodule; the
    # normal form must split off the generalized simple as a quotient
    from iqhall.linalg import FpMatrix
    from iqhall.modules import make_rep
    w = make_rep(h2.algebra, 2, {"1": 2, "2": 1},
                 {"a": FpMatrix.from_rows(2, [[1, 0]]),
                  "eps_1": FpMatrix.from_rows(2, [[0, 0], [1, 0]])})
    ctx = h2.ctx
    assert ctx.decompose(w) == (ctx.intern(w),)
    flags = ctx.predicates(w)
    assert not flags["is_kq_module"] and not flags["is_P_leq1"]
    for v in h2.vertices:
        assert ctx.find_injective_from(ctx.gen_simple(v), w) is None
    coeff, (xid, alpha) = h2.normalize(w)
    assert coeff == QSqrt.one(2)
    assert alpha == (1, 0)
    assert ctx.iso_test(ctx.rep(xid), ctx.simple("2"))


def test_ext_classification_count_invariants(h2):
    # total count is q^ext_dim and the split middle term always appears
    ctx = h2.ctx
    cases = [(ctx.simple("1"), ctx.simple("1")),
             (ctx.simple("1"), ctx.simple("2")),
             (ctx.simple("2"), ctx.gen_simple("1"))]
    for m, n in cases:
        cls = ctx.ext1_classify(m, n)
        assert sum(c for _, c in cls.pairs) == 2 ** cls.ext_dim
        split = ctx.intern(direct_sum([m, n])) if m.total_dim and n.total_dim \
            else ctx.intern(m if n.total_dim == 0 else n)
        assert dict(cls.pairs).get(split, 0) >= 1


def test_normalize_radical_of_projective_a3(a3_invol):
    # the radical of the projective at the moved endpoint rewrites to
    # [S_1] * E_2 with scalar one
    from iqhall.linalg import hstack, image_basis
    from iqhall.linalg import Subspace
    from iqhall.modules import subrep
    engine = IHallAlgebra(iquiver_algebra(a3_invol), 2)
    u3 = engine.ctx.projective("3")
    alg = engine.algebra
    rad_spaces = []
    for i, v in enumerate(alg.vertices):
        ins = [u3.map(a.id) for a in alg.arrow_map.values() if a.tgt == v]
        rad_spaces.append(image_basis(hstack(ins)) if ins
                          else Subspace.zero(2, u3.dims[i]))
    rad, _ = subrep(u3, rad_spaces)
    coeff, (xid, alpha) = engine.normalize(rad)
    assert coeff == QSqrt.one(2)
    assert alpha == (0, 1, 0)
    assert engine.ctx.iso_test(engine.ctx.rep(xid), engine.ctx.simple("1"))


def test_normalize_projective(h2):
    lam1 = h2.ctx.projective("1")
    coeff, (xid, alpha) = h2.normalize(lam1)
    assert coeff == QSqrt.one(2)
    assert xid == h2.ctx.intern(h2.ctx.zero())
    assert alpha == (1, 1)


def test_normalize_scalar_matches_homological_euler_form(h2, h3):
    # the normal-form scalar q^<X,K> v^{-<dim X, dim K>_Q} computed through
    # the restriction shortcut must agree with the Hom/Ext Euler form
    for engine in (h2, h3):
        ctx = engine.ctx
        q = engine.p
        kq_parts = [ctx.simple("1"), ctx.simple("2"),
                    direct_sum([ctx.simple("1"), ctx.simple("2")])]
        p1_parts = [ctx.gen_simple("1"), ctx.gen_simple("2"),
                    ctx.projective("1")]
        for x in kq_parts:
            for k in p1_parts:
                coeff, (xid, alpha) = engine.normalize(direct_sum([x, k]))
                pairing = ctx.euler_lambda(x, k)
                twist = -engine.euler_q(x.dims, k.dims)
                expected = (engine.scalar(q) ** pairing) * engine.v_power(twist)
                assert coeff == expected
                assert ctx.iso_test(ctx.rep(xid), x)
                assert alpha == ctx.torus_class(k)


def test_normalize_idempotent_on_basis_symbols(h2):
    # a torus-free kQ symbol normalizes to itself with scalar one
    for rep in [h2.ctx.simple("1"), h2.ctx.simple("2"),
                direct_sum([h2.ctx.simple("1"), h2.ctx.simple("2")])]:
        coeff, (xid, alpha) = h2.normalize(rep)
        assert coeff == QSqrt.one(2)
        assert alpha == (0, 0)
        assert h2.ctx.iso_test(h2.ctx.rep(xid), rep)


def test_raw_product_self_extension(h2):
    # [S1] . [S1] = (1/q)[S1+S1] + ((q-1)/q) E_{S1} at q = 2
    s1 = h2.ctx.simple("1")
    got = h2.raw_product(s1, s1)
    split_key = (h2.ctx.intern(direct_sum([s1, s1])), (0, 0))
    torus_key = (h2.ctx.intern(h2.ctx.zero()), (1, 0))
    assert got.coefficient(split_key) == qs(h2, Fraction(1, 2))
    assert got.coefficient(torus_key) == qs(h2, Fraction(1, 2))
    assert len(got.terms) == 2


def test_twisted_product_s1_s2(h2):
    # v^{<S1,S2>} ([S1+S2] + (q-1)[X]) with X the pullback indecomposable
    out = h2.mul(h2.simple("1"), h2.simple("2"))
    vinv = h2.v_power(-1)
    keys = sorted(out.terms)
    assert len(keys) == 2
    for key, coeff in out.terms.items():
        xdims = h2.ctx.rep(key[0]).dims
        if xdims == (1, 1):
            assert coeff == vinv  # (q-1) * v^-1 = v^-1 at q=2
        else:
            assert coeff == vinv


def test_serre_identity_split_a2(h2, h3):
    # [S2][S1][S1] - [2][S1][S2][S1] + [S1][S1][S2] = -((q-1)^2/v) [S2]*E_1
    for engine in (h2, h3):
        q = engine.p
        s1, s2 = engine.simple("1"), engine.simple("2")
        lhs = engine.product([s2, s1, s1]) \
            - engine.product([s1, s2, s1]).scale(qint(2, q)) \
            + engine.product([s1, s1, s2])
        rhs_sym = engine.mul(s2, engine.gen_simple_symbol("1"))
        rhs = rhs_sym.scale(engine.scalar(-(q - 1) ** 2) * engine.v_power(-1))
        assert (lhs - rhs).is_zero()


def test_serre_identity_other_side(h2):
    q = 2
    s1, s2 = h2.simple("1"), h2.simple("2")
    lhs = h2.product([s1, s2, s2]) \
        - h2.product([s2, s1, s2]).scale(qint(2, q)) \
        + h2.product([s2, s2, s1])
    rhs = h2.mul(s1, h2.gen_simple_symbol("2")).scale(
        h2.scalar(-(q - 1) ** 2) * h2.v_power(-1))
    assert (lhs - rhs).is_zero()


def test_swap_pair_commutator(swap_pair):
    for q in (2, 5):
        engine = IHallAlgebra(iquiver_algebra(swap_pair), q)
        s1, s2 = engine.simple("1"), engine.simple("2")
        lhs = engine.mul(s1, s2) - engine.mul(s2, s1)
        rhs = (engine.gen_simple_symbol("1") - engine.gen_simple_symbol("2")).scale(
            engine.scalar(q - 1))
        assert (lhs - rhs).is_zero()


def test_a3_involution_identities(a3_invol):
    engine = IHallAlgebra(iquiver_algebra(a3_invol), 3)
    q = 3
    two = qint(2, q)
    for i in ("1", "3"):
        si, s2 = engine.simple(i), engine.simple("2")
        homog = engine.product([si, si, s2]) \
            - engine.product([si, s2, si]).scale(two) \
            + engine.product([s2, si, si])
        assert homog.is_zero()
        inhomog = engine.product([s2, s2, si]) \
            - engine.product([s2, si, s2]).scale(two) \
            + engine.product([si, s2, s2])
        rhs = engine.mul(si, engine.gen_simple_symbol("2")).scale(
            engine.scalar(-(q - 1) ** 2) * engine.v_power(-1))
        assert (inhomog - rhs).is_zero()


def test_grading_adds(h2):
    s1, s2 = h2.simple("1"), h2.simple("2")
    prod = h2.mul(h2.mul(s1, s2), s1)
    for key in prod.terms:
        assert h2.grade(key) == (2, 1)


def test_associativity_random_triples(h2):
    rng = random.Random(7)
    mids = h2.ctx.enumerate_iso_classes({"1": 1, "2": 1})
    mids += h2.ctx.enumerate_iso_classes({"1": 1, "2": 0})
    mids += h2.ctx.enumerate_iso_classes({"1": 0, "2": 1})
    kq_mids = [m for m in mids if h2.ctx.flags(m)["is_kq_module"]]
    symbols = [h2.basis_symbol(m, (rng.randrange(-1, 2), rng.randrange(-1, 2)))
               for m in kq_mids for _ in range(2)]
    for _ in range(25):
        a, b, c = (rng.choice(symbols) for _ in range(3))
        assert (h2.mul(h2.mul(a, b), c) - h2.mul(a, h2.mul(b, c))).is_zero()


def test_centrality(h2, swap_pair):
    tests = [h2.ctx.simple("1"), h2.ctx.simple("2"), h2.ctx.gen_simple("2"),
             h2.ctx.projective("1")]
    ok, bad = h2.centrality_check("1", tests)
    assert ok and not bad
    sw = IHallAlgebra(iquiver_algebra(swap_pair), 2)
    ok, _ = sw.centrality_check("1", [sw.ctx.simple("1"), sw.ctx.simple("2")])
    assert ok
    # a single torus generator of a swapped orbit is generally not central
    e1 = sw.gen_simple_symbol("1")
    m = sw.simple("1")
    assert not (sw.mul(e1, m) - sw.mul(m, e1)).is_zero()


def test_reduce_params(h2, swap_pair):
    # split: E_1 becomes the scalar -q
    reduced = h2.reduce_params(h2.gen_simple_symbol("1"))
    assert reduced == h2.one().scale(h2.scalar(-2))
    # swapped pair: E_2 folds to E_1^{-1}
    sw = IHallAlgebra(iquiver_algebra(swap_pair), 2)
    reduced = sw.reduce_params(sw.gen_simple_symbol("2"))
    assert reduced == sw.torus((-1, 0))
    untouched = sw.reduce_params(sw.one())
    assert untouched == sw.one()


def test_generic_serre_coefficient(a2_split):
    # the Serre combination has the single generic coefficient
    # -v^3 + 2v - v^{-1} on [S_2] * E_1
    def build(engine):
        q = engine.p
        s1, s2 = engine.simple("1"), engine.simple("2")
        return engine.product([s2, s1, s1]) \
            - engine.product([s1, s2, s1]).scale(qint(2, q)) \
            + engine.product([s1, s1, s2])

    out = generic_structure_constants(a2_split, build, [2, 3, 5], 7)
    assert len(out) == 1
    (key, poly), = out.items()
    assert key.alpha == (1, 0)
    assert key.roots == ((0, 1),)
    assert poly == LaurentV.from_dict({3: -1, 1: 2, -1: -1})


def test_generic_nonsplit_middle_coefficient(a2_split):
    out = generic_structure_constants(
        a2_split, lambda engine: engine.word_product(["1", "2"]), [2, 3, 5], 7)
    target = GenericKey(((1, 1),), (0, 0))
    assert out[target] == LaurentV.from_dict({1: 1, -1: -1})  # v - v^{-1}
    split = GenericKey(((0, 1), (1, 0)), (0, 0))
    assert out[split] == LaurentV.from_dict({-1: 1})


def test_generic_serre_coefficient_a3(a3_invol):
    # the same Laurent coefficient appears in the inhomogeneous identity of
    # the three-vertex quiver with involution
    def build(engine):
        q = engine.p
        s2, s1 = engine.simple("2"), engine.simple("1")
        return engine.product([s2, s2, s1]) \
            - engine.product([s2, s1, s2]).scale(qint(2, q)) \
            + engine.product([s1, s2, s2])

    out = generic_structure_constants(a3_invol, build, [2, 3, 5], 7)
    (key, poly), = out.items()
    assert poly == LaurentV.from_dict({3: -1, 1: 2, -1: -1})
    assert key.roots == ((1, 0, 0),) and key.alpha == (0, 1, 0)


def test_generic_torus_constant(a2_split):
    def build(engine):
        return engine.mul(engine.torus((1, 0)), engine.torus((0, 1)))
    out = generic_structure_constants(a2_split, build, [2, 3], 5)
    (key, poly), = out.items()
    assert key.alpha == (1, 1) and poly == LaurentV.one()


def test_filtered_structure(h2):
    # in a product of pullback classes every term's module part sits below
    # the sum grade in the positive-cone order
    s1, s2 = h2.simple("1"), h2.simple("2")
    for factors, total in [((s1, s2), (1, 1)), ((s1, s1, s2), (2, 1)),
                           ((s2, s1, s1), (2, 1))]:
        prod = h2.product(list(factors))
        for (xid, alpha), _ in prod.terms.items():
            xdims = h2.ctx.rep(xid).dims
            assert all(x <= t for x, t in zip(xdims, total))
            assert h2.grade((xid, alpha)) == total


def test_subquiver_embedding(a2_split):
    # products over a tau-stable full subquiver agree with the ambient ones
    a3 = make_iquiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    small = IHallAlgebra(iquiver_algebra(a2_split), 2)
    big = IHallAlgebra(iquiver_algebra(a3), 2)

    def restrict_terms(engine, elem, keep):
        out = {}
        for (xid, alpha), coeff in elem.terms.items():
            dims = engine.ctx.rep(xid).dims
            names = engine.vertices
            assert all(d == 0 or v in keep for v, d in zip(names, dims))
            proj_dims = tuple(d for v, d in zip(names, dims) if v in keep)
            proj_alpha = tuple(a for v, a in zip(names, alpha) if v in keep)
            out[(proj_dims, proj_alpha)] = coeff.a, coeff.b
        return out

    lhs = small.mul(small.simple("1"), small.simple("2"))
    rhs = big.mul(big.simple("1"), big.simple("2"))
    assert restrict_terms(small, lhs, {"1", "2"}) == restrict_terms(big, rhs, {"1", "2"})
