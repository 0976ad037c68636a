"""Closed forms against the searches they replaced: the normal form against
the peel (and the a3split words the peel could not finish), P<=1 by eps-ranks
against the subspace test, and dim Ext^1 by the long exact sequence against
the classes ext1_classify walks."""

import itertools
import json
from pathlib import Path

import pytest
from peel_reference import Stuck, p_leq1_by_subspaces, peel_normalize

from iqhall.algebra import iquiver_algebra
from iqhall.hall import IHallAlgebra
from iqhall.modules import direct_sum
from iqhall.quivers import validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
NAMES = ("a1", "a2split", "a3split", "a3tau", "d4split", "swap")


def _engine(name, q):
    iq = validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text()))
    return IHallAlgebra(iquiver_algebra(iq), q)


def _classes(engine, max_total):
    """Registry ids of every iso class of total dimension 1..max_total."""
    mids = []
    for dims in itertools.product(range(max_total + 1), repeat=len(engine.vertices)):
        if 0 < sum(dims) <= max_total:
            mids += engine.ctx.enumerate_iso_classes(dict(zip(engine.vertices, dims)))
    return mids


@pytest.mark.parametrize("q, max_total, classes, stuck_on", [
    (2, 4, 598, {"a3split"}),
    (3, 3, 206, set()),
])
def test_closed_form_matches_the_peel(q, max_total, classes, stuck_on):
    count, stuck = 0, set()
    for name in NAMES:
        engine = _engine(name, q)
        for mid in _classes(engine, max_total):
            rep = engine.ctx.rep(mid)
            got = engine.normalize(rep)
            count += 1
            try:
                want = peel_normalize(engine, rep)
            except Stuck:
                stuck.add(name)
                continue
            assert got == want, (name, rep.dims, rep.maps)
    assert count == classes
    assert stuck == stuck_on


@pytest.mark.parametrize("q, max_total, classes", [(2, 4, 598), (3, 3, 206)])
def test_p_leq1_by_ranks_matches_the_subspace_test(q, max_total, classes):
    count = 0
    for name in NAMES:
        engine = _engine(name, q)
        for mid in _classes(engine, max_total):
            rep = engine.ctx.rep(mid)
            assert engine.ctx.is_p_leq1(rep) == p_leq1_by_subspaces(rep), (name, rep.maps)
            count += 1
    assert count == classes


def test_ext1_dim_matches_the_walked_classes():
    # ext1_classify raises when its walk finds another number of classes
    # than ext1_dim gives; the middle terms then count every class once
    pairs = 0
    for name in NAMES:
        engine = _engine(name, 2)
        ctx = engine.ctx
        reps = [ctx.rep(mid) for mid in _classes(engine, 2)]
        for M, N in itertools.product(reps, repeat=2):
            cls = ctx.ext1_classify(M, N)
            assert cls.ext_dim == ctx.ext1_dim(M, N)
            assert sum(count for _, count in cls.pairs) == 2 ** cls.ext_dim
            pairs += 1
    assert pairs == 955


def _bracketings(engine, factors):
    """The product of factors under every bracketing."""
    if len(factors) == 1:
        return [factors[0]]
    return [engine.mul(left, right)
            for k in range(1, len(factors))
            for left in _bracketings(engine, factors[:k])
            for right in _bracketings(engine, factors[k:])]


def test_a3split_words_of_length_four_are_associative():
    # 1,2,3,2 meets the mixed indecomposable of dims (1,2,1) that no
    # generalized simple embeds in or maps onto
    engine = _engine("a3split", 2)
    simples = {v: engine.simple(v) for v in engine.vertices}
    for word in itertools.product(engine.vertices, repeat=4):
        first, *rest = _bracketings(engine, [simples[v] for v in word])
        assert all(other == first for other in rest), word


def test_extensions_by_generalized_simples_keep_the_normal_form():
    # the defining relation [L] = [E_v + M] for 0 -> E_v -> L -> M -> 0 and
    # 0 -> M -> L -> E_v -> 0, on every class that the peel meets, and on
    # the classes it cannot finish
    engine = _engine("a3split", 2)
    ctx = engine.ctx
    stuck = 0
    for mid in _classes(engine, 4):
        M = ctx.rep(mid)
        try:
            peel_normalize(engine, M)
        except Stuck:
            stuck += 1
        for v in engine.vertices:
            E = ctx.gen_simple(v)
            want = engine.normalize(direct_sum([E, M]))
            for cls in (ctx.ext1_classify(M, E), ctx.ext1_classify(E, M)):
                for lid, _ in cls.pairs:
                    assert engine.normalize_mid(lid) == want, (v, M.dims, M.maps)
    assert stuck
