"""The per-context memo of Krull-Schmidt splits against the uncached split,
and the refusal of reps from another context."""

import json
from collections import Counter
from pathlib import Path

import pytest

from iqhall import modules
from iqhall.algebra import BoundAlgebra, iquiver_algebra
from iqhall.errors import AlgebraMismatch
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext, Rep, hom_space
from iqhall.quivers import make_iquiver, validate_iquiver
from iqhall.verify import euler_central_suite

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"


def _iquiver(name):
    return validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text()))


# kQ-modules of a Dynkin quiver are interned by their Kostant partitions with
# no split, so the scenarios run on the Kronecker quiver, where interning the
# kQ-modules of a product or of an enumeration still splits them
KRONECKER = make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


def _exact(rep):
    return rep.dims, rep.maps


@pytest.fixture
def counted(monkeypatch):
    """Every context built, and the exact input of every uncached split."""
    contexts, splits = [], Counter()
    real_init, real_split = ModuleContext.__init__, ModuleContext._split

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        contexts.append(self)

    def split(self, rep):
        splits[(id(self),) + _exact(rep)] += 1
        return real_split(self, rep)
    monkeypatch.setattr(ModuleContext, "__init__", init)
    monkeypatch.setattr(ModuleContext, "_split", split)
    return contexts, splits


def _kronecker_word():
    engine = IHallAlgebra(iquiver_algebra(KRONECKER), 3)
    engine.word_product("1,2,1,2".split(","))


def _euler_suite():
    assert euler_central_suite(KRONECKER, 2, sample_size=10).passed


@pytest.mark.parametrize("scenario", [_kronecker_word, _euler_suite])
def test_each_exact_input_computed_once(counted, scenario):
    contexts, splits = counted
    scenario()
    [ctx] = contexts
    assert splits and max(splits.values()) == 1
    assert len(splits) == len(ctx._splits)


@pytest.mark.parametrize("scenario", [_kronecker_word, _euler_suite])
def test_memos_equal_the_uncached_results(counted, scenario):
    contexts, _ = counted
    scenario()
    [ctx] = contexts
    alg, p = ctx.algebra, ctx.p
    assert ctx._splits
    for (dims, maps), parts in ctx._splits.items():
        rep = Rep(alg, p, dims, maps)
        assert parts == ModuleContext(alg, p)._split(rep)


def test_memo_returns_the_stored_object():
    ctx = ModuleContext(iquiver_algebra(_iquiver("a3tau")), 3)
    M = modules.direct_sum([ctx.gen_simple("2"), ctx.simple("1")])
    copy = Rep(M.algebra, M.p, M.dims, M.maps)
    parts = ctx._split_raw(M)
    assert len(parts) == 2 and ctx._split_raw(copy) is parts
    assert ctx.end_dim(ctx.intern(M)) == hom_space(M, M).dim


def test_hom_refuses_reps_of_another_context():
    ctx = ModuleContext(iquiver_algebra(_iquiver("a3tau")), 3)
    M = ctx.simple("1")
    other_alg = ModuleContext(iquiver_algebra(_iquiver("a2split")), 3).simple("1")
    other_p = ModuleContext(ctx.algebra, 2).simple("1")
    # same matrices over an equal but distinct algebra object
    twin = Rep(BoundAlgebra(ctx.algebra.eq), 3, M.dims, M.maps)
    for N in (other_alg, other_p, twin):
        with pytest.raises(AlgebraMismatch):
            hom_space(M, N)
        with pytest.raises(AlgebraMismatch):
            hom_space(N, M)
        # ext1_classify reads dim Hom off its own elimination, which refuses
        # the pair as hom_space does
        with pytest.raises(AlgebraMismatch):
            ctx.ext1_classify(M, N)
        with pytest.raises(AlgebraMismatch):
            ctx.ext1_classify(N, M)
    assert ctx.registry_size() == 0


def test_ext1_classify_refuses_a_pair_of_another_context():
    # two F_2 reps agree with each other; a label that interns nothing must
    # not let an F_3 context classify them over F_3
    ctx = ModuleContext(iquiver_algebra(_iquiver("a3tau")), 3)
    S2 = ModuleContext(ctx.algebra, 2).simple("2")
    with pytest.raises(AlgebraMismatch):
        ctx.ext1_classify(S2, S2, label=lambda E: E[0])
