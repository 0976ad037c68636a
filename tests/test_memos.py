"""The per-context memos of Hom spaces and Krull-Schmidt splits against the
uncached functions."""

import json
from collections import Counter
from pathlib import Path

import pytest

from iqhall import modules
from iqhall.algebra import BoundAlgebra, iquiver_algebra
from iqhall.errors import AlgebraMismatch
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext, Rep, hom_space
from iqhall.quivers import validate_iquiver
from iqhall.verify import euler_central_suite

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"


def _iquiver(name):
    return validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text()))


def _exact(rep):
    return rep.dims, rep.maps


@pytest.fixture
def counted(monkeypatch):
    """Every context built, and the exact inputs of every hom_space call."""
    contexts, homs = [], Counter()
    real_init, real_hom = ModuleContext.__init__, modules.hom_space

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        contexts.append(self)

    def hom(M, N):
        homs[(id(M.algebra), M.p) + _exact(M) + _exact(N)] += 1
        return real_hom(M, N)
    monkeypatch.setattr(ModuleContext, "__init__", init)
    monkeypatch.setattr(modules, "hom_space", hom)
    return contexts, homs


def _a3tau_word():
    engine = IHallAlgebra(iquiver_algebra(_iquiver("a3tau")), 3)
    engine.word_product("2,1,3,2,1".split(","))


def _euler_suite():
    assert euler_central_suite(_iquiver("a2split"), 2, sample_size=10).passed


@pytest.mark.parametrize("scenario", [_a3tau_word, _euler_suite])
def test_each_exact_input_computed_once(counted, scenario):
    contexts, homs = counted
    scenario()
    [ctx] = contexts
    assert homs and max(homs.values()) == 1
    assert len(homs) == len(ctx._homs)


@pytest.mark.parametrize("scenario", [_a3tau_word, _euler_suite])
def test_memos_equal_the_uncached_results(counted, scenario):
    contexts, _ = counted
    scenario()
    [ctx] = contexts
    alg, p = ctx.algebra, ctx.p
    assert ctx._homs and ctx._splits
    for key, hs in ctx._homs.items():
        assert key == _exact(hs.source) + _exact(hs.target)
        assert hs == hom_space(hs.source, hs.target)
    for (dims, maps), parts in ctx._splits.items():
        rep = Rep(alg, p, dims, maps)
        assert parts == ModuleContext(alg, p)._split_raw(rep)


def test_memo_returns_the_stored_object():
    ctx = ModuleContext(iquiver_algebra(_iquiver("a3tau")), 3)
    M = ctx.gen_simple("2")
    copy = Rep(M.algebra, M.p, M.dims, M.maps)
    assert ctx.hom(M, M) is ctx.hom(copy, copy)
    assert ctx._split_raw(M) is ctx._split_raw(copy)
    assert ctx.end_dim(ctx.intern(M)) == hom_space(M, M).dim


def test_hom_refuses_reps_of_another_context():
    ctx = ModuleContext(iquiver_algebra(_iquiver("a3tau")), 3)
    M = ctx.simple("1")
    ctx.hom(M, M)
    other_alg = ModuleContext(iquiver_algebra(_iquiver("a2split")), 3).simple("1")
    other_p = ModuleContext(ctx.algebra, 2).simple("1")
    # same matrices over an equal but distinct algebra object: the memo
    # must not answer for it
    twin = Rep(BoundAlgebra(ctx.algebra.eq), 3, M.dims, M.maps)
    for N in (other_alg, other_p, twin):
        with pytest.raises(AlgebraMismatch):
            ctx.hom(M, N)
        with pytest.raises(AlgebraMismatch):
            ctx.hom(N, M)
        # ext1_classify reads dim Hom off its own elimination, which refuses
        # the pair as hom_space does
        with pytest.raises(AlgebraMismatch):
            ctx.ext1_classify(M, N)
        with pytest.raises(AlgebraMismatch):
            ctx.ext1_classify(N, M)
    assert len(ctx._homs) == 1
    assert ctx.registry_size() == 0


def test_ext1_classify_refuses_a_pair_of_another_context():
    # two F_2 reps agree with each other; a label that interns nothing must
    # not let an F_3 context classify them over F_3
    ctx = ModuleContext(iquiver_algebra(_iquiver("a3tau")), 3)
    S2 = ModuleContext(ctx.algebra, 2).simple("2")
    with pytest.raises(AlgebraMismatch):
        ctx.ext1_classify(S2, S2, label=lambda E: E.dims)
