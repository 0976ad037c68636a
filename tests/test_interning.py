"""Interning: each module is split at most once, and the registry neither
merges nor splits isomorphism classes."""

import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from iqhall.algebra import iquiver_algebra
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext, direct_sum, rep_from_json
from iqhall.quivers import make_iquiver, validate_iquiver
from test_enumerate import raw_modules

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"


def _algebra(name):
    return iquiver_algebra(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())))


def _gl_order(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _check_orbits(ctx, dims):
    # sum over iso classes of |GL_d| / |Aut M| counts every module
    # structure once (Hua, J. Algebra 226, 2000)
    gl = 1
    for d in dims:
        gl *= _gl_order(ctx.p, d)
    orbits = 0
    for mid in ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims))):
        aut = ctx.aut_count(ctx.rep(mid))
        assert gl % aut == 0
        orbits += gl // aut
    # the module structures are counted directly, without interning
    assert orbits == sum(1 for _ in raw_modules(ctx.algebra, ctx.p, dims)), dims


def _check_orbits_up_to(name, q, max_total):
    ctx = ModuleContext(_algebra(name), q)
    for dims in itertools.product(range(3), repeat=len(ctx.algebra.vertices)):
        if 0 < sum(dims) <= max_total:
            _check_orbits(ctx, dims)


@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.json")))
def test_orbit_stabilizer_counts(name):
    _check_orbits_up_to(name, 2, 3)


@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.json")))
def test_orbit_stabilizer_counts_q3(name):
    _check_orbits_up_to(name, 3, 2)


def test_orbit_stabilizer_counts_a2split_2_2():
    _check_orbits(ModuleContext(_algebra("a2split"), 2), (2, 2))


def test_orbit_stabilizer_counts_shared_fingerprint():
    # two decomposable classes here share a fingerprint bucket, so interning
    # must tell them apart by their summand keys
    ctx = ModuleContext(_algebra("a3split"), 2)
    _check_orbits(ctx, (1, 2, 1))
    assert any(len(b) > 1 for b in ctx._buckets.values())


def test_orbit_stabilizer_counts_kronecker():
    # the (1,1) indecomposables of the Kronecker quiver are the q + 1 points
    # of a projective line, and at q = 3 two of them share a fingerprint, so
    # interning must run the intertwiner search between indecomposables
    kronecker = make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    ctx = ModuleContext(iquiver_algebra(kronecker), 3)
    _check_orbits(ctx, (1, 1))
    assert ctx.registry_size() == 1 + 4


@pytest.fixture
def split_calls(monkeypatch):
    """Arguments of the outermost ModuleContext._split_raw calls."""
    calls = []
    depth = [0]
    original = ModuleContext._split_raw

    def counted(self, rep):
        if depth[0] == 0:
            calls.append((rep.dims, rep.maps))
        depth[0] += 1
        try:
            return original(self, rep)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(ModuleContext, "_split_raw", counted)
    return calls


@pytest.fixture
def a3tau_word():
    engine = IHallAlgebra(_algebra("a3tau"), 3)
    engine.word_product("2,1,3,2,1".split(","))
    return engine.ctx


def test_each_module_split_at_most_once(split_calls, a3tau_word):
    ctx = a3tau_word
    assert split_calls
    assert max(Counter(split_calls).values()) == 1
    split_calls.clear()
    for mid in range(ctx.registry_size()):
        copy = rep_from_json(ctx.algebra, ctx.rep(mid).to_json())
        assert copy is not ctx.rep(mid)
        assert ctx.intern(copy) == mid
    assert split_calls == []


def test_decompose_matches_uncached_split(a3tau_word):
    ctx = a3tau_word
    for mid in range(ctx.registry_size()):
        rep = ctx.rep(mid)
        fresh = ModuleContext(ctx.algebra, ctx.p)
        parts = ctx.decompose(mid)
        assert sorted(ctx.rep(s).dims for s in parts) == \
            sorted(r.dims for r in fresh._split_raw(rep))
        if rep.total_dim == 0:
            assert parts == ()
        else:
            assert fresh.iso_test(direct_sum([ctx.rep(s) for s in parts]), rep)
