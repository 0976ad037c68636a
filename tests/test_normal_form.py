"""The closed-form normal form against the peel it replaced, and the a3split
words the peel could not finish."""

import itertools
import json
from pathlib import Path

import pytest
from peel_reference import Stuck, peel_normalize

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
