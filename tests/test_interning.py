"""Interning: each module is split at most once, and the registry neither
merges nor splits isomorphism classes."""

import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import linalg_reference
from riedtmann_reference import aut_count
from iqhall import linalg, modules
from iqhall.algebra import iquiver_algebra, path_algebra
from iqhall.errors import CapExceeded
from iqhall.hall import IHallAlgebra
from iqhall.linalg import FpMatrix
from iqhall.modules import (HomSpace, ModuleContext, Rep, direct_sum, hom_combine,
                            hom_is_invertible, hom_space, make_rep, rep_from_json)
from iqhall.quivers import make_iquiver, validate_iquiver
from test_enumerate import raw_modules

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
NAMES = sorted(p.stem for p in QUIVERS.glob("*.json"))


def _iquiver(name):
    return validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text()))


def _algebra(name):
    return iquiver_algebra(_iquiver(name))


def _kronecker():
    return make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


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
        aut = aut_count(ctx, ctx.rep(mid))
        assert gl % aut == 0
        orbits += gl // aut
    # the module structures are counted directly, without interning
    assert orbits == sum(1 for _ in raw_modules(ctx.algebra, ctx.p, dims)), dims


def _check_orbits_up_to(name, q, max_total):
    ctx = ModuleContext(_algebra(name), q)
    for dims in itertools.product(range(3), repeat=len(ctx.algebra.vertices)):
        if 0 < sum(dims) <= max_total:
            _check_orbits(ctx, dims)


@pytest.mark.parametrize("name", NAMES)
def test_orbit_stabilizer_counts(name):
    _check_orbits_up_to(name, 2, 3)


@pytest.mark.parametrize("name", NAMES)
def test_orbit_stabilizer_counts_q3(name):
    _check_orbits_up_to(name, 3, 2)


def test_orbit_stabilizer_counts_a2split_2_2():
    _check_orbits(ModuleContext(_algebra("a2split"), 2), (2, 2))


def test_orbit_stabilizer_counts_shared_fingerprint():
    # two decomposable classes with an eps map nonzero share a fingerprint
    # bucket here, so interning must tell them apart by their summand keys
    # (the kQ-modules are named by their Kostant partitions)
    ctx = ModuleContext(_algebra("a3split"), 2)
    _check_orbits(ctx, (1, 2, 2))
    assert any(len(b) > 1 and all(type(ctx._keys.get(m)) is tuple for m in b)
               for b in ctx._buckets.values())


def test_orbit_stabilizer_counts_kronecker():
    # the (1,1) indecomposables of the Kronecker quiver are the q + 1 points
    # of a projective line, and at q = 3 two of them share a fingerprint, so
    # interning must run the iso test between indecomposables
    ctx = ModuleContext(iquiver_algebra(_kronecker()), 3)
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


@pytest.fixture
def kronecker_word():
    # the kQ-modules of a Dynkin quiver are named by partitions with no
    # split; those of the Kronecker quiver are still split
    engine = IHallAlgebra(iquiver_algebra(_kronecker()), 3)
    engine.word_product("1,2,1,2".split(","))
    return engine.ctx


def test_each_module_split_at_most_once(split_calls, kronecker_word):
    ctx = kronecker_word
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
            assert fresh.intern(direct_sum([ctx.rep(s) for s in parts])) == fresh.intern(rep)


# -- registry pin: ids and representatives must not move unnoticed ---------------


def _registry_sha256(ctx):
    dump = [ctx.rep(mid).to_json() for mid in range(ctx.registry_size())]
    return hashlib.sha256(json.dumps(dump, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def test_registry_pin(a3tau_word):
    # the id-ordered registry dump after each computation; a change to
    # either digest reorders ids or replaces a representative, which
    # changes the cache files and every id-bearing output.  Products intern
    # the eps-homology X of each middle term, never the middle term itself
    assert a3tau_word.registry_size() == 19
    assert _registry_sha256(a3tau_word) == \
        "ce28865ebe7dd0c963ec5c634f9643d235f6ef25953dc953e98d49b8a3d3f815"
    ctx = ModuleContext(_algebra("a2split"), 2)
    ctx.enumerate_iso_classes({"1": 2, "2": 2})
    assert ctx.registry_size() == 14
    assert _registry_sha256(ctx) == \
        "ea9e1ca294bc0d82daea1738afab6a1b6bfa776da7e040e975151837d1475ab9"


# -- the iso test of indecomposables against a search over every Hom line ----------


def _iso_by_lines(p, M, N):
    """Reference: some line of Hom(M, N) holds an isomorphism."""
    hs = hom_space(M, N)
    return any(hom_is_invertible(hom_combine(hs, c))
               for c in linalg.iter_monic_vectors(p, hs.dim))


def _random_gl(p, n, rng):
    while True:
        g = FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                               cols=n)
        if linalg.rank(g) == n:
            return g


def _inverse(g):
    cols = [linalg_reference.solve(g, tuple(int(i == j) for i in range(g.rows))) for j in range(g.cols)]
    return FpMatrix.from_rows(g.p, [[col[i] for col in cols] for i in range(g.rows)],
                              cols=g.cols)


def _conjugate(rep, rng):
    """rep after a base change g at every vertex: M(a) -> g_t M(a) g_s^-1."""
    alg = rep.algebra
    g = {v: _random_gl(rep.p, d, rng) for v, d in zip(alg.vertices, rep.dims)}
    maps = tuple((aid, g[alg.arrow_map[aid].tgt] @ m @ _inverse(g[alg.arrow_map[aid].src]))
                 for aid, m in rep.maps)
    return Rep(alg, rep.p, rep.dims, maps)


# the Kronecker quiver adds many non-isomorphic indecomposables of one dims
@pytest.mark.parametrize("build", [iquiver_algebra, path_algebra])
@pytest.mark.parametrize("name", NAMES + ["kronecker"])
@pytest.mark.parametrize("q, max_total", [(2, 3), (3, 2)])
def test_iso_indecomposable_matches_line_search(build, name, q, max_total):
    iq = _kronecker() if name == "kronecker" else _iquiver(name)
    ctx = ModuleContext(build(iq), q)
    rng = random.Random(17)
    checked = 0
    for dims in itertools.product(range(max_total + 1), repeat=len(ctx.algebra.vertices)):
        if not 0 < sum(dims) <= max_total:
            continue
        mids = ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims)))
        indec = [ctx.rep(m) for m in mids if ctx.decompose(m) == (m,)]
        # distinct registry entries are distinct classes
        for M, N in itertools.product(indec, repeat=2):
            assert ctx._iso_indecomposable(M, N) == _iso_by_lines(q, M, N) == (M is N)
        for M in indec:
            C = _conjugate(M, rng)
            assert ctx._iso_indecomposable(M, C) and _iso_by_lines(q, M, C)
            checked += 1
    assert checked


# -- the split tries every line of End, not only the basis -------------------------


def test_split_searches_lines_beyond_the_basis(monkeypatch):
    # End(k^2) = M_2(F_2) on a basis of units and nilpotents: no basis line
    # splits k^2, but the line of E22 = I + E12 + E21 + [[0,1],[1,1]] does
    alg = path_algebra(_iquiver("a1"))
    rep = make_rep(alg, 2, {"1": 2}, {})
    basis = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [1, 1]]]
    end = HomSpace(rep, rep, tuple((FpMatrix.from_rows(2, m),) for m in basis))
    real_hom, real_combine = modules.hom_space, modules.hom_combine
    monkeypatch.setattr(modules, "hom_space",
                        lambda M, N: end if M is rep and N is rep else real_hom(M, N))
    lines = []

    def counted(hs, coeffs):
        lines.append(tuple(coeffs))
        return real_combine(hs, coeffs)
    monkeypatch.setattr(modules, "hom_combine", counted)

    ctx = ModuleContext(alg, 2)
    parts = ctx.decompose(rep)
    assert len(parts) == 2 and all(ctx.rep(m).dims == (1,) for m in parts)

    lines.clear()
    # 15 lines of End over F_2: the walk past the basis lines is refused
    monkeypatch.setattr(modules, "ENUM_BUDGET", 14)
    capped = ModuleContext(alg, 2)
    with pytest.raises(CapExceeded, match="15 lines of End above budget 14"):
        capped._split_raw(rep)
    assert lines == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    # a split that tripped a cap is not memoized, so it trips again
    assert not capped._splits
    with pytest.raises(CapExceeded):
        capped._split_raw(rep)
