"""ext1_classify walks Ext^1 by lines: the split class once and one monic
vector per line, weighted p - 1.  A walk over all p^d classes stays here as
the oracle."""

import itertools
import json
from pathlib import Path

import pytest

from iqhall import linalg, modules
from iqhall.algebra import iquiver_algebra
from iqhall.errors import CapExceeded
from iqhall.hall import IHallAlgebra
from iqhall.linalg import Subspace
from iqhall.modules import (HomSpace, ModuleContext, direct_sum, hom_combine, quotient)
from iqhall.quivers import validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"


def _algebra(name):
    return iquiver_algebra(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())))


def _classify_every_class(ctx, M, N):
    """Reference: build and intern the middle term of each of the p^d classes."""
    p = ctx.p
    counts = {}
    if M.total_dim == 0:
        counts[ctx.intern(N)] = 1
        return tuple(counts.items()), ctx.hom(M, N).dim, 0
    omega, incl, P0 = ctx.syzygy(M)
    flat = lambda hom: tuple(x for m in hom for row in m.data for x in row)
    width = sum(n * w for n, w in zip(N.dims, omega.dims))
    span = Subspace.from_vectors(p, width, [
        flat(tuple(fv @ iv for fv, iv in zip(f, incl))) for f in ctx.hom(P0, N).basis])
    complements = []
    for hom in ctx.hom(omega, N).basis:
        if not span.contains_vector(flat(hom)):
            complements.append(hom)
            span = span.sum(Subspace.from_vectors(p, width, [flat(hom)]))
    ext_basis = HomSpace(omega, N, tuple(complements))
    D = direct_sum([N, P0])
    bottoms = [(-j).transpose().data for j in incl]
    for coeffs in itertools.product(range(p), repeat=len(complements)):
        xi = hom_combine(ext_basis, coeffs)
        graph = [Subspace.from_vectors(p, d, [t + b for t, b in zip(x.transpose().data, bots)])
                 for x, bots, d in zip(xi, bottoms, D.dims)]
        E, _ = quotient(D, graph)
        mid = ctx.intern(E)
        counts[mid] = counts.get(mid, 0) + 1
    return tuple(sorted(counts.items())), ctx.hom(M, N).dim, len(complements)


@pytest.mark.parametrize("name, q, word", [
    ("a3tau", 3, "2,1,3,2,1"),
    ("a3tau", 5, "2,1,3,2,1"),
    ("swap", 3, "1,2,1,1,2"),
    ("a3split", 5, "1,2,2,3"),
])
def test_line_walk_equals_the_walk_over_every_class(monkeypatch, name, q, word):
    met = []
    classify = ModuleContext.ext1_classify

    def recording(self, M, N):
        met.append((M, N))
        return classify(self, M, N)
    monkeypatch.setattr(ModuleContext, "ext1_classify", recording)
    engine = IHallAlgebra(_algebra(name), q)
    engine.word_product(word.split(","))
    monkeypatch.undo()
    ctx = engine.ctx
    for M, N in met:
        cls = ctx.ext1_classify(M, N)
        assert (cls.pairs, cls.hom_dim, cls.ext_dim) == _classify_every_class(ctx, M, N)
        assert sum(count for _, count in cls.pairs) == q ** cls.ext_dim
    # the weights p - 1 are exercised, on more than one line
    assert max(ctx.ext1_dim(M, N) for M, N in met) >= 2
    # and in fresh contexts both walks register the same reps in the same order
    lines, every = ModuleContext(ctx.algebra, q), ModuleContext(ctx.algebra, q)
    for M, N in met:
        lines.ext1_classify(M, N)
        _classify_every_class(every, M, N)
    assert [lines.rep(i) for i in range(lines.registry_size())] == \
        [every.rep(i) for i in range(every.registry_size())]


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
    intern = ctx.intern

    def counting(rep, key=None):
        if rep.total_dim == middle:   # not a summand interned by a split
            interned.append(rep)
        return intern(rep, key)
    monkeypatch.setattr(ctx, "intern", counting)
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
            g = ctx.submodule_count_with(L, ctx.intern(N), ctx.intern(M))
            assert count * ctx.aut_count(L) == \
                g * ctx.aut_count(M) * ctx.aut_count(N) * q ** cls.hom_dim
    assert max(ctx.ext1_classify(M, N).ext_dim for M, N in pairs) == 2


def test_aut_count_by_lines_equals_the_count_over_every_map():
    ctx = ModuleContext(_algebra("a2split"), 3)
    s1, s2 = ctx.simple("1"), ctx.simple("2")
    for M in (s1, direct_sum([s1, s1]), direct_sum([s1, s2, ctx.gen_simple("1")])):
        es = ctx.hom(M, M)
        every = sum(modules.hom_is_invertible(hom_combine(es, c))
                    for c in itertools.product(range(3), repeat=es.dim))
        assert ctx.aut_count(M) == every
    assert ctx.aut_count(direct_sum([s1, s1])) == 48   # |GL_2(F_3)|


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
        assert list(linalg.iter_monic_vectors(p, n, product_order=True)) == firsts
        assert sorted(linalg.iter_monic_vectors(p, n)) == sorted(firsts)
        assert len(firsts) == linalg.line_count(p, n)
