"""ext1_classify walks Ext^1 by lines: the split class once and one monic
vector per line, weighted p - 1.  A walk over all p^d classes stays here as
the oracle, and so does the projective presentation the cochain complex
replaced (``ext_reference``)."""

import itertools
import json
import random
from pathlib import Path

import pytest

import ext_reference
import hall_reference
from riedtmann_reference import aut_count, submodule_count_with
from iqhall import linalg, modules
from iqhall.algebra import iquiver_algebra
from iqhall.errors import CapExceeded, PresentationFailure
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext, direct_sum, hom_combine, hom_space
from iqhall.quivers import validate_iquiver
from iqhall.verify import sample_modules

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
WORDS = [("a3tau", 3, "2,1,3,2,1"), ("a3tau", 5, "2,1,3,2,1"), ("swap", 3, "1,2,1,1,2"),
         ("a3split", 5, "1,2,2,3")]


def _algebra(name):
    return iquiver_algebra(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())))


def _classify_every_class(ctx, M, N):
    """Reference: build and intern the middle term E_f of each of the p^d
    classes f of Z / im delta."""
    p = ctx.p
    basis, _ = modules._ext1_basis(M, N)
    width = modules._arrow_offsets(M, N)[1]
    counts = {}
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        f = [sum(c * z[k] for c, z in zip(coeffs, basis)) % p for k in range(width)]
        mid = ctx.intern(modules.extension(M, N, f))
        counts[mid] = counts.get(mid, 0) + 1
    return tuple(sorted(counts.items())), hom_space(M, N).dim, len(basis)


def _record_middle_terms(monkeypatch):
    """The exact key of every middle term E_f that the walk builds from now on."""
    built = []
    extension_keys = modules._extension_keys

    def recording(arrows, M, N, only=None):
        width, live, build = extension_keys(arrows, M, N, only)
        if only is not None:   # the closed form's xi' over the Q-arrows, not the walk
            return width, live, build

        def record(f):
            built.append(build(f))
            return built[-1]
        return width, live, record
    monkeypatch.setattr(modules, "_extension_keys", recording)
    return built


def _met_pairs(name, q, word):
    """The engine after the word product and the Ext^1 walk of each pair
    ``raw_product`` received, and those (M, N)."""
    engine = IHallAlgebra(_algebra(name), q)
    return engine, hall_reference.walked_word_product(engine, word)


@pytest.mark.parametrize("name, q, word", WORDS)
def test_line_walk_equals_the_walk_over_every_class(monkeypatch, name, q, word):
    engine, met = _met_pairs(name, q, word)
    ctx = engine.ctx
    for M, N in met:
        cls = ctx.ext1_classify(M, N)
        assert (cls.pairs, cls.hom_dim, cls.ext_dim) == _classify_every_class(ctx, M, N)
        assert sum(count for _, count in cls.pairs) == q ** cls.ext_dim
    # the weights p - 1 are exercised, on more than one line
    assert max(ctx.ext1_dim(M, N) for M, N in met) >= 2
    # and in fresh contexts both walks meet the middle-term classes in the
    # same order.  E_f and E_cf are distinct matrices, so the walk over every
    # class computes class keys that the line walk skips, and the two
    # registries differ in when those keys intern summands; the order of the
    # middle terms is compared in one more context
    common = ModuleContext(ctx.algebra, q)

    def first_seen(walk):
        built = _record_middle_terms(monkeypatch)
        fresh = ModuleContext(ctx.algebra, q)
        for M, N in met:
            walk(fresh, M, N)
        monkeypatch.undo()
        return list(dict.fromkeys(common._intern_exact(E) for E in built))
    assert first_seen(ModuleContext.ext1_classify) == first_seen(_classify_every_class)


# WORDS holds the a3tau q=3 word of tests/test_interning.py too
@pytest.mark.parametrize("name, q, word", WORDS)
def test_raw_product_equals_the_sum_over_middle_term_classes(monkeypatch, name, q, word):
    met = []
    pair_product = IHallAlgebra._pair_product

    def recording(self, x1, x2):
        met.append((x1, x2))
        return pair_product(self, x1, x2)
    monkeypatch.setattr(IHallAlgebra, "_pair_product", recording)
    engine = IHallAlgebra(_algebra(name), q)
    engine.word_product(word.split(","))
    monkeypatch.undo()
    # the product interned no Lambda-module: every registry entry is a kQ-module
    ctx = engine.ctx
    assert all(ctx.is_kq_module(ctx.rep(mid)) for mid in range(ctx.registry_size()))
    assert len(set(met)) > 1
    for x1, x2 in dict.fromkeys(met):
        assert engine.raw_product(x1, x2) == \
            hall_reference.raw_product(engine, ctx.rep(x1), ctx.rep(x2))


@pytest.mark.parametrize("name, q, word", WORDS)
def test_cochains_equal_the_projective_presentation(name, q, word):
    # interned in one context, both constructions give the same middle
    # terms with the same counts, and the same dim Ext^1 and dim Hom
    engine, met = _met_pairs(name, q, word)
    ctx = engine.ctx
    for M, N in met:
        cls = ctx.ext1_classify(M, N)
        assert (cls.pairs, cls.hom_dim, cls.ext_dim) == ext_reference.ext1_classify(ctx, M, N)
        assert ctx.ext1_dim(M, N) == ext_reference.ext1_dim(ctx, M, N) == cls.ext_dim


@pytest.mark.parametrize("name, q, word", WORDS)
def test_homology_returns_the_eps_ranks(monkeypatch, name, q, word):
    # the ranks homology reads off its images are those of eps_ranks, on
    # every middle term E_f of the walk over the pairs the product meets
    built = _record_middle_terms(monkeypatch)
    engine = IHallAlgebra(_algebra(name), q)
    hall_reference.walked_word_product(engine, word)
    monkeypatch.undo()
    ctx = engine.ctx
    reps = [modules._from_exact(ctx.algebra, q, E) for E in built]
    assert len(built) > 10 and any(any(ctx.eps_ranks(rep)) for rep in reps)
    for E, rep in zip(built, reps):
        assert ctx.homology(E)[1] == ctx.eps_ranks(rep)


def test_ext1_classify_and_normal_key_compute_each_invariant_once(monkeypatch):
    # dim Hom comes from the Ext^1 elimination and the eps-ranks from
    # homology: neither builds a Hom space or ranks an eps map again
    engine = IHallAlgebra(_algebra("a3tau"), 3)
    ctx = engine.ctx
    reps = [ctx.simple(v) for v in "123"] + [ctx.gen_simple(v) for v in "123"]
    want = [(hom_space(M, N).dim, ctx.ext1_dim(M, N)) for M in reps for N in reps]
    ranks = [ctx.eps_ranks(E) for E in reps]

    def refuse(*args):
        raise AssertionError("an invariant computed a second time")
    monkeypatch.setattr(modules, "hom_space", refuse)
    monkeypatch.setattr(ModuleContext, "eps_ranks", refuse)
    got = [ctx.ext1_classify(M, N, label=lambda E: E[0]) for M in reps for N in reps]
    assert [(cls.hom_dim, cls.ext_dim) for cls in got] == want
    assert any(h for h, _ in want) and any(e for _, e in want)
    assert [engine.normal_key(ctx.exact(E))[1] for E in reps] == ranks
    assert any(map(any, ranks))


@pytest.mark.parametrize("name", ["a2split", "a3tau", "swap"])
def test_euler_lambda_is_hom_minus_ext_on_the_euler_pools(name):
    # the pairs of euler_central_suite at q = 2: each generalized simple
    # against the pool both ways, and the P<=1 part of the pool against itself
    engine = IHallAlgebra(_algebra(name), 2)
    ctx = engine.ctx
    pool = sample_modules(engine, 50)
    gens = [ctx.gen_simple(v) for v in ctx.algebra.vertices]
    p1 = [M for M in pool if ctx.is_p_leq1(M)]
    pairs = [(E, M) for E in gens for M in pool] + [(M, E) for E in gens for M in pool]
    pairs += list(itertools.product(p1, repeat=2))
    values = set()
    for M, N in pairs:
        basis, hom_dim = modules._ext1_basis(M, N)
        value = ctx.euler_lambda(M, N)
        assert value == hom_dim - len(basis)
        values.add(value)
    assert len(p1) >= 3 and len(pairs) > 200 and len(values) > 3


def test_a_coboundary_off_the_cocycles_raises_in_both_paths(monkeypatch):
    # reversing the coordinates of C^1 in delta keeps Hom = ker delta but
    # moves im delta off Z: the Ext^1 basis and the Euler form both refuse
    ctx = ModuleContext(_algebra("a2split"), 2)
    reps = [f(v) for f in (ctx.simple, ctx.gen_simple, ctx.projective) for v in "12"]
    delta_rows = modules._delta_rows
    monkeypatch.setattr(modules, "_delta_rows", lambda M, N: reversed(list(delta_rows(M, N))))
    broken = 0
    for M, N in itertools.product(reps, repeat=2):
        if not (ctx.is_p_leq1(M) or ctx.is_p_leq1(N)):
            continue
        raised = []
        for path in (modules._ext1_basis, ctx.euler_lambda):
            try:
                path(M, N)
                raised.append(False)
            except PresentationFailure:
                raised.append(True)
        assert raised[0] == raised[1]
        broken += raised[0]
    assert broken > 10


@pytest.mark.parametrize("name, q", [("a3tau", 2), ("swap", 3), ("a3split", 2)])
def test_cocycles_are_the_f_whose_extension_satisfies_the_relations(name, q):
    # the linearized relations against satisfies_relations on E_f, for every
    # f of small pairs and random f of larger ones
    rng = random.Random(7)
    ctx = ModuleContext(_algebra(name), q)
    reps = [ctx.simple(v) for v in ctx.algebra.vertices] + \
        [ctx.gen_simple(v) for v in ctx.algebra.vertices] + \
        [ctx.projective(v) for v in ctx.algebra.vertices]
    checked = nonsplit = 0
    for M, N in itertools.product(reps, repeat=2):
        system = modules._cocycle_system(M, N)
        width = system.cols
        fs = (itertools.product(range(q), repeat=width) if q ** width <= 64
              else ([rng.randrange(q) for _ in range(width)] for _ in range(64)))
        for f in fs:
            cocycle = not any(system.apply(tuple(f)))
            assert cocycle == modules.satisfies_relations(modules.extension(M, N, f))
            checked += 1
            nonsplit += cocycle and any(f)
    assert checked > 100 and nonsplit > 10


def _two_dimensional_ext():
    """Ext^1(S1 + S1, S1) over split A2 at q = 3: 9 classes on 4 lines."""
    ctx = ModuleContext(_algebra("a2split"), 3)
    s1 = ctx.simple("1")
    M = direct_sum([s1, s1])
    assert ctx.ext1_dim(M, s1) == 2
    return ctx, M, s1


def test_enum_budget_bounds_the_walked_representatives(monkeypatch):
    walked = 1 + linalg.line_count(3, 2)
    assert walked == 5
    ctx, M, N = _two_dimensional_ext()
    monkeypatch.setattr(modules, "ENUM_BUDGET", walked)
    assert sum(count for _, count in ctx.ext1_classify(M, N).pairs) == 9
    ctx, M, N = _two_dimensional_ext()
    ctx.intern(N)
    monkeypatch.setattr(modules, "ENUM_BUDGET", walked - 1)
    with pytest.raises(CapExceeded, match="5 Ext\\^1 representatives above budget 4"):
        ctx.ext1_classify(M, N)
    assert ctx.registry_size() == 1


def test_one_middle_term_per_line(monkeypatch):
    ctx, M, N = _two_dimensional_ext()
    middle = M.total_dim + N.total_dim
    interned = []
    intern = ctx._intern_exact

    def counting(exact, rep=None):
        if sum(exact[0]) == middle:   # not a summand interned by a split
            interned.append(exact)
        return intern(exact, rep)
    monkeypatch.setattr(ctx, "_intern_exact", counting)
    ctx.ext1_classify(M, N)
    assert len(interned) == 1 + (3 ** 2 - 1) // (3 - 1)


@pytest.mark.parametrize("q", [3, 5])
def test_line_weights_satisfy_riedtmann(q):
    # |Ext^1(M,N)_L| / |Hom(M,N)| = g^L_{M,N} |Aut M| |Aut N| / |Aut L| with
    # g counted by submodules (Riedtmann, J. Algebra 170, 1994), on weights
    # p - 1 of one line and of several
    ctx = ModuleContext(_algebra("a2split"), q)
    s1, s2 = ctx.simple("1"), ctx.simple("2")
    pairs = [(s1, s1), (s1, s2), (s2, s1), (s1, direct_sum([s1, s2])), (direct_sum([s1, s1]), s2)]
    for M, N in pairs:
        cls = ctx.ext1_classify(M, N)
        for mid, count in cls.pairs:
            L = ctx.rep(mid)
            g = submodule_count_with(ctx, L, ctx.intern(N), ctx.intern(M))
            assert count * aut_count(ctx, L) == \
                g * aut_count(ctx, M) * aut_count(ctx, N) * q ** cls.hom_dim
    assert max(ctx.ext1_classify(M, N).ext_dim for M, N in pairs) == 2


def test_aut_count_by_lines_equals_the_count_over_every_map():
    ctx = ModuleContext(_algebra("a2split"), 3)
    s1, s2 = ctx.simple("1"), ctx.simple("2")
    for M in (s1, direct_sum([s1, s1]), direct_sum([s1, s2, ctx.gen_simple("1")])):
        es = hom_space(M, M)
        every = sum(modules.hom_is_invertible(hom_combine(es, c))
                    for c in itertools.product(range(3), repeat=es.dim))
        assert aut_count(ctx, M) == every
    assert aut_count(ctx, direct_sum([s1, s1])) == 48   # |GL_2(F_3)|


def test_monic_vectors_in_product_order():
    # each line's first member in itertools.product order is its monic vector
    for p, n in ((2, 3), (3, 3), (5, 2)):
        firsts = []
        seen = set()
        for v in itertools.product(range(p), repeat=n):
            line = frozenset(tuple(c * x % p for x in v) for c in range(1, p))
            if any(v) and line not in seen:
                seen.add(line)
                firsts.append(v)
        assert list(linalg.iter_monic_vectors(p, n)) == firsts
        assert len(firsts) == linalg.line_count(p, n)
