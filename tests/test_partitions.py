"""Kostant partitions read off sink reflections (``quivers.SinkSchedule``)
against the Krull-Schmidt split they replaced in interning: the partition of
a kQ-module of a Dynkin quiver must list the dimension vectors of the
summands that ``ModuleContext._split`` finds, with multiplicity."""

import itertools
import json
import random
from pathlib import Path

import pytest

from iqhall import modules
from iqhall.algebra import iquiver_algebra, path_algebra
from iqhall.hall import IHallAlgebra
from iqhall.linalg import FpMatrix
from iqhall.modules import ModuleContext, make_rep
from iqhall.quivers import make_iquiver, root_table, validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
NAMES = sorted(p.stem for p in QUIVERS.glob("*.json"))

# words of the kind the benchmark's word pools hold, one per quiver
WORDS = {"a1": "1,1,1", "a2split": "1,2,2,1", "a3split": "1,2,2,3", "a3tau": "2,1,3,2",
         "d4split": "1,2,3,1,0", "swap": "1,2,1,1,2"}


def _iquiver(name):
    return validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text()))


def _parts(lam):
    return sorted(root for root, mult in lam for _ in range(mult))


def _assert_partition_is_the_split(ctx, rep):
    lam = ctx.partition(ctx.intern(rep))
    fresh = ModuleContext(ctx.algebra, ctx.p)
    assert _parts(lam) == sorted(piece.dims for piece in fresh._split_raw(rep))
    return lam


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("name", NAMES)
def test_every_interned_kq_module(name, q):
    # the X of a word product, and every class of small dimension vectors
    engine = IHallAlgebra(iquiver_algebra(_iquiver(name)), q)
    engine.word_product(WORDS[name].split(","))
    ctx = engine.ctx
    total = 2 if q == 5 or name == "d4split" else 3
    for dims in itertools.product(range(total + 1), repeat=len(ctx.algebra.vertices)):
        if 0 < sum(dims) <= total:
            ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims)))
    kq = [mid for mid in range(ctx.registry_size()) if ctx.is_kq_module(ctx.rep(mid))]
    assert len(kq) > 3
    for mid in kq:
        _assert_partition_is_the_split(ctx, ctx.rep(mid))
    # an eps map nonzero: no partition
    assert all(ctx.partition(mid) is None for mid in range(ctx.registry_size()) if mid not in kq)


def _rep(alg, p, dims, entries):
    """The rep of dims with the arrow maps filled row-major from entries."""
    maps, it = {}, iter(entries)
    for a in alg.q_arrows:
        rows, cols = dims[alg.vidx[a.tgt]], dims[alg.vidx[a.src]]
        maps[a.id] = FpMatrix.from_rows(p, [[next(it) for _ in range(cols)] for _ in range(rows)],
                                        cols=cols)
    return make_rep(alg, p, dict(zip(alg.vertices, dims)), maps)


def _width(alg, dims):
    return sum(dims[alg.vidx[a.tgt]] * dims[alg.vidx[a.src]] for a in alg.q_arrows)


def test_d4_centre_a_source_exhaustive():
    # every module of (2,1,1,1) at q=2 over D4 with arrows out of the centre,
    # where the generic-extension fold cannot build the root module
    alg = path_algebra(make_iquiver(["0", "1", "2", "3"],
                                    [("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3")]))
    ctx = ModuleContext(alg, 2)
    dims = (2, 1, 1, 1)
    seen = set()
    for entries in itertools.product(range(2), repeat=_width(alg, dims)):
        seen.add(_assert_partition_is_the_split(ctx, _rep(alg, 2, dims, entries)))
    assert len(seen) == ctx.registry_size()
    assert (((2, 1, 1, 1), 1),) in seen


# orientations of D5 and E6 where, at q=2, the generic-extension fold of
# DynkinContext.root_module ties for the listed roots
HARD = [
    (["0", "1", "2", "3", "4"],
     [("a0", "0", "1"), ("a1", "2", "1"), ("a2", "2", "3"), ("a3", "2", "4")],
     [(0, 1, 2, 1, 1), (1, 1, 2, 1, 1)]),
    (["0", "1", "2", "3", "4", "5"],
     [("a0", "0", "1"), ("a1", "1", "2"), ("a2", "3", "2"), ("a3", "3", "4"), ("a4", "2", "5")],
     [(0, 1, 2, 2, 1, 1), (1, 1, 2, 2, 1, 1), (1, 2, 3, 2, 1, 1)]),
]


@pytest.mark.parametrize("vertices, arrows, hard", HARD)
def test_seeded_samples_where_root_modules_fail(vertices, arrows, hard):
    iq = make_iquiver(vertices, arrows)
    alg = path_algebra(iq)
    ctx = ModuleContext(alg, 2)
    rng = random.Random(23)
    roots = root_table(iq)

    def sample(dims):
        return _rep(alg, 2, dims, [rng.randrange(2) for _ in range(_width(alg, dims))])
    for beta in hard:
        for dims in [beta] + [tuple(b + g for b, g in zip(beta, gamma)) for gamma in roots[:3]]:
            for _ in range(25):
                _assert_partition_is_the_split(ctx, sample(dims))
        # the indecomposable of beta exists over F_2, and its partition names it
        indecomposable = next(rep for rep in map(sample, [beta] * 5000)
                              if ctx.partition(ctx.intern(rep)) == ((beta, 1),))
        assert _assert_partition_is_the_split(ctx, indecomposable) == ((beta, 1),)


@pytest.mark.parametrize("name", NAMES)
def test_word_products_never_split(monkeypatch, name):
    def refuse(self, rep):
        raise AssertionError(f"split of {rep.dims}")
    monkeypatch.setattr(ModuleContext, "_split", refuse)
    iq = _iquiver(name)
    for q in (2, 3):
        engine = IHallAlgebra(iquiver_algebra(iq), q)
        for word in (WORDS[name], ",".join(reversed(WORDS[name].split(",")))):
            assert not engine.word_product(word.split(",")).is_zero()


@pytest.mark.parametrize("name", NAMES)
def test_word_products_build_no_rep_per_middle_term(monkeypatch, name):
    # each middle term is an exact key, and so is its homology: no product
    # builds E_f as a rep or cuts a rep into sub- or quotient modules
    def refuse(*args):
        raise AssertionError("a rep built per middle term")
    for attr in ("extension", "subrep"):
        monkeypatch.setattr(modules, attr, refuse)
    assert not hasattr(modules, "quotient")
    iq = _iquiver(name)
    for q in (2, 3):
        engine = IHallAlgebra(iquiver_algebra(iq), q)
        for word in (WORDS[name], ",".join(reversed(WORDS[name].split(",")))):
            assert not engine.word_product(word.split(",")).is_zero()
