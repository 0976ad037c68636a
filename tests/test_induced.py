"""Sub- and quotient modules through ``modules._induced`` give the same
matrices as the builders they replaced (``induced_reference``), and
``ModuleContext.homology`` on exact keys gives the same X and eps-ranks as
the rep-based homology (``induced_reference.homology``).  Both are checked on
every module whose homology word products and the Ext^1 walks of their pairs
take (the words of tests/test_ext_lines.py, with a Kronecker word for the
split's pieces), and on every small class.  The homology of a key whose
Q-arrow maps all vanish, read off the eps-ranks, is checked on every such key
that the products of tests/test_partitions.py and their walks take."""

import itertools
import json
import random
from pathlib import Path

import pytest

import hall_reference
import induced_reference
from riedtmann_reference import submodules
from test_partitions import WORDS as PRODUCTS
from iqhall import linalg, modules
from iqhall.algebra import iquiver_algebra
from iqhall.errors import InputError
from iqhall.hall import IHallAlgebra
from iqhall.linalg import FpMatrix
from iqhall.modules import ModuleContext, make_rep
from iqhall.quivers import make_iquiver, validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
NAMES = sorted(p.stem for p in QUIVERS.glob("*.json"))
# the kQ-modules of a Dynkin quiver are interned by partitions with no split,
# so the split's pieces come from the Kronecker quiver's
WORDS = [("a3tau", 3, "2,1,3,2,1"), ("a3tau", 5, "2,1,3,2,1"), ("swap", 3, "1,2,1,1,2"),
         ("kronecker", 3, "1,2,1,2")]


def _algebra(name):
    if name == "kronecker":
        return iquiver_algebra(make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    return iquiver_algebra(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())))


def _same(M, subspaces):
    assert modules.subrep(M, subspaces) == induced_reference.subrep_by_columns(M, subspaces)
    assert induced_reference.quotient(M, subspaces) == \
        induced_reference.quotient_by_projection(M, subspaces)[0]


def _met(monkeypatch, name, q, word):
    """The context after the word product and the Ext^1 walk of each pair
    that ``raw_product`` received, the exact key of every module whose
    homology they took, and the inputs of every ``subrep`` they made."""
    met = {"homology": [], "subrep": []}
    homology, subrep = ModuleContext.homology, modules.subrep

    def recording_homology(self, exact):
        met["homology"].append(exact)
        return homology(self, exact)

    def recording_subrep(M, subspaces):
        met["subrep"].append((M, tuple(subspaces)))
        return subrep(M, subspaces)
    monkeypatch.setattr(ModuleContext, "homology", recording_homology)
    monkeypatch.setattr(modules, "subrep", recording_subrep)
    engine = IHallAlgebra(_algebra(name), q)
    hall_reference.walked_word_product(engine, word)
    monkeypatch.undo()
    return engine.ctx, met


def _assert_homology_is_the_oracle(ctx, rep):
    X, ranks = induced_reference.homology(ctx, rep)
    assert ctx.homology(ctx.exact(rep)) == (ctx.exact(X), ranks)
    return any(ranks)


def _in_random_bases(ctx, M, rng):
    """M after a random change of basis g_v at each vertex: g_t M(a) g_s^-1,
    so that ker eps, im eps and their coordinates are no longer unit vectors."""
    p, gs, invs = ctx.p, [], []
    for d in M.dims:
        g = FpMatrix.zeros(p, d, 0)
        while linalg.rank(g) < d:
            g = FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)],
                                   cols=d)
        R = linalg.rref(linalg.hstack([g, FpMatrix.identity(p, d)]))[0]
        gs.append(g)
        invs.append(FpMatrix.from_rows(p, [row[d:] for row in R.data], cols=d))
    maps = {aid: gs[t] @ M.map(aid) @ invs[s] for aid, s, t in ctx.arrows}
    return make_rep(ctx.algebra, p, M.dims_by_name(), maps)


@pytest.mark.parametrize("name, q, word", WORDS)
def test_word_products_build_the_reference_pieces(monkeypatch, name, q, word):
    # homology no longer builds ker eps or ker eps / im eps as reps, so each
    # of its inputs is cut by its eps kernels and images, and ker eps by
    # im eps, with both builders; so is each piece of the split
    ctx, met = _met(monkeypatch, name, q, word)
    reps = [modules._from_exact(ctx.algebra, q, E) for E in dict.fromkeys(met["homology"])]
    mixed = [M for M in reps if not ctx.is_kq_module(M)]
    assert len(mixed) > 10
    for M in mixed:
        eps = [M.map(ctx.algebra.eps_of_vertex[v]) for v in ctx.algebra.vertices]
        kernels, bounds, _ = induced_reference.eps_pieces(ctx, M)
        _same(M, kernels)
        _same(M, [linalg.image_basis(eps[ctx.algebra.vidx[ctx.algebra.tau[v]]])
                  for v in ctx.algebra.vertices])
        _same(modules.subrep(M, kernels), bounds)
    assert (name == "kronecker") == bool(met["subrep"])
    for M, subspaces in met["subrep"]:
        _same(M, subspaces)


@pytest.mark.parametrize("name, q, word", WORDS)
def test_homology_of_every_walked_middle_term_is_the_oracle(monkeypatch, name, q, word):
    ctx, met = _met(monkeypatch, name, q, word)
    reps = [modules._from_exact(ctx.algebra, q, E) for E in dict.fromkeys(met["homology"])]
    assert sum(_assert_homology_is_the_oracle(ctx, M) for M in reps) > 10


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("q", [2, 3])
def test_homology_of_every_small_class_is_the_oracle(name, q):
    # every class up to total dimension 3, eps zero or not, in the basis its
    # enumeration gives; then, in random bases, those classes and extensions
    # of two of them by random cocycles, whose eps maps are in no normal form
    ctx = ModuleContext(_algebra(name), q)
    vertices = ctx.algebra.vertices
    mids = set()
    for dims in itertools.product(range(4), repeat=len(vertices)):
        if 0 < sum(dims) <= 3:
            mids.update(ctx.enumerate_iso_classes(dict(zip(vertices, dims))))
    rng = random.Random(24)
    reps = [ctx.rep(mid) for mid in sorted(mids)]
    mixed = list(reps)
    for _ in range(60):
        M, N = rng.choice(reps), rng.choice(reps)
        cocycles = linalg.kernel_basis(modules._cocycle_system(M, N)).basis.data
        f = linalg.combination(q, [rng.randrange(q) for _ in cocycles], cocycles,
                               modules._arrow_offsets(M, N)[1])
        mixed.append(modules.extension(M, N, f))
    reps += [_in_random_bases(ctx, M, rng) for M in mixed]
    nonzero = sum(_assert_homology_is_the_oracle(ctx, M) for M in reps)
    assert 0 < nonzero < len(reps)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("name", NAMES)
def test_homology_of_every_semisimple_middle_term_is_the_oracle(monkeypatch, name, q):
    # X is semisimple when every Q-arrow map vanishes; so too in random
    # bases, where the eps maps are in no normal form
    ctx, met = _met(monkeypatch, name, q, PRODUCTS[name])
    reps = [modules._from_exact(ctx.algebra, q, E) for E in dict.fromkeys(met["homology"])
            if linalg.all_zero(E[1][c] for c in ctx._q_cols)]
    rng = random.Random(25)
    reps += [_in_random_bases(ctx, M, rng) for M in reps]
    nonzero = sum(_assert_homology_is_the_oracle(ctx, M) for M in reps)
    assert 0 < nonzero < len(reps)


@pytest.mark.parametrize("dims, eps", [
    ({"1": 1, "2": 2}, {"eps_2": [[0, 1], [1, 0]]}),       # eps_2 eps_2 = 1
    ({"1": 1, "3": 1}, {"eps_1": [[1]], "eps_3": [[2]]}),   # eps_3 eps_1 = 2
])
def test_homology_of_a_semisimple_key_refuses_a_broken_nilpotent_relation(dims, eps):
    # every Q-arrow map zero, but im eps_{tau v} escapes ker eps_v
    ctx = ModuleContext(_algebra("a3tau"), 3)
    M = make_rep(ctx.algebra, 3, dims,
                 {aid: FpMatrix.from_rows(3, rows) for aid, rows in eps.items()})
    for homology in (lambda: ctx.homology(ctx.exact(M)),
                     lambda: induced_reference.homology(ctx, M)):
        with pytest.raises(InputError, match="escapes the subspace"):
            homology()


def test_homology_refuses_a_key_that_breaks_the_relations():
    # a maps M_1 onto e_1, outside ker eps_2 although eps_1 = 0, so
    # eps_2 M(a) = M(b) eps_1 fails and ker eps is no submodule
    ctx = ModuleContext(_algebra("a3tau"), 3)
    M = make_rep(ctx.algebra, 3, {"1": 1, "2": 2},
                 {"a": FpMatrix.from_rows(3, [[1], [0]]),
                  "eps_2": FpMatrix.from_rows(3, [[0, 0], [1, 0]])})
    for homology in (lambda: ctx.homology(ctx.exact(M)),
                     lambda: induced_reference.homology(ctx, M)):
        with pytest.raises(InputError, match="escapes the subspace"):
            homology()


@pytest.mark.parametrize("name, q, total", [("a2split", 2, 4), ("a3tau", 2, 3)])
def test_every_submodule_of_every_class(name, q, total):
    ctx = ModuleContext(_algebra(name), q)
    checked = 0
    for dims in itertools.product(range(total + 1), repeat=len(ctx.algebra.vertices)):
        if not 0 < sum(dims) <= total:
            continue
        for mid in ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims))):
            M = ctx.rep(mid)
            for subspaces in submodules(M):
                _same(M, subspaces)
                checked += 1
    assert checked > 100
