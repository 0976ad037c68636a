"""Modules whose maps vanish: the Ext^1 basis of two semisimple modules
against the elimination of [delta | Z] as the reference writes it
(``ext_reference.ext1_basis_by_elimination``), and the shortcuts for them
against the general routines they skip: the Kostant partition of a
semisimple kQ-module against the sink reflections (``SinkSchedule.reflect``),
and the product of two semisimple kQ-modules by rank vectors
(``IHallAlgebra.semisimple_classify``) against the Ext^1 walk
(``ModuleContext.ext1_classify`` with ``normal_key``).  The eps-homology of a
module whose Q-arrow maps vanish is checked against its oracle in
tests/test_induced.py.  The guards that send every other input down the
general routines keep their refusals, a word product takes each shortcut
wherever it applies, and the closed form builds no rep."""

import dataclasses
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

import ext_reference
import hall_reference
from test_ext_lines import WORDS as WALKED
from test_partitions import WORDS as PRODUCTS
from iqhall import hall, linalg, modules
from iqhall.algebra import BoundAlgebra, iquiver_algebra, path_algebra
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext, hom_space, make_rep
from iqhall.quivers import Arrow, EnrichedQuiver, SinkSchedule, make_iquiver, validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
NAMES = sorted(p.stem for p in QUIVERS.glob("*.json"))


def _iquiver(name):
    return validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text()))


def _semisimple(alg, p, total):
    """The module with every map zero of each dimension vector of total <= total."""
    return [make_rep(alg, p, dict(zip(alg.vertices, dims)), {})
            for dims in itertools.product(range(total + 1), repeat=len(alg.vertices))
            if sum(dims) <= total]


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran")
    return refuse


def _all_zero(*reps):
    return linalg.all_zero(m.data for M in reps for _, m in M.maps)


# -- Ext^1 --------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("build", [iquiver_algebra, path_algebra])
@pytest.mark.parametrize("name", NAMES)
def test_ext1_basis_of_semisimple_pairs_is_the_elimination(name, build, q):
    alg = build(_iquiver(name))
    assert alg.long_relations
    pairs = list(itertools.product(_semisimple(alg, q, 3), repeat=2))
    want = [ext_reference.ext1_basis_by_elimination(M, N) for M, N in pairs]
    assert [modules._ext1_basis(M, N) for M, N in pairs] == want
    assert any(hom for _, hom in want)
    assert any(basis for basis, _ in want) == bool(alg.arrow_map)


def _three_arrows(relation):
    """1 -a-> 2 -b-> 3 and 1 -c-> 3 bound by one relation, no eps arrows."""
    arrows = (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3"))
    return BoundAlgebra(EnrichedQuiver(("1", "2", "3"), arrows, (),
                                       tuple((v, v) for v in "123"),
                                       tuple((a.id, a.id) for a in arrows), ("1", "2", "3"),
                                       (relation,)))


@pytest.mark.parametrize("relation, source, target", [
    ((("a",), None), "1", "2"),           # a = 0
    ((("a", "b"), ("c",)), "1", "3"),     # b a = c
])
def test_a_one_letter_relation_takes_the_elimination(relation, source, target):
    # linearized at S_source and S_target the relation is, up to sign, the f
    # of its one-letter side, which kills that direction of Ext^1; over kQ,
    # with no relation, it stays
    alg = _three_arrows(relation)
    assert not alg.long_relations
    M, N = (make_rep(alg, 3, {v: 1}, {}) for v in (source, target))
    assert modules._ext1_basis(M, N) == ext_reference.ext1_basis_by_elimination(M, N) == ([], 0)
    kq = path_algebra(make_iquiver("123", [(a.id, a.src, a.tgt) for a in alg.q_arrows]))
    assert kq.long_relations
    M, N = (make_rep(kq, 3, {v: 1}, {}) for v in (source, target))
    assert modules._ext1_basis(M, N) == ext_reference.ext1_basis_by_elimination(M, N) == ([(1,)], 0)


# -- Kostant partitions ----------------------------------------------------------------


# beyond the six quivers: D4 with the centre a source, and the D5 and E6
# orientations of tests/test_partitions.py
DYNKIN = {name: _iquiver(name) for name in NAMES}
DYNKIN.update(zip(["d4-centre-source", "d5", "e6"], [
    make_iquiver("0123", [("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3")]),
    make_iquiver("01234", [("a0", "0", "1"), ("a1", "2", "1"), ("a2", "2", "3"),
                           ("a3", "2", "4")]),
    make_iquiver("012345", [("a0", "0", "1"), ("a1", "1", "2"), ("a2", "3", "2"),
                            ("a3", "3", "4"), ("a4", "2", "5")]),
]))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", DYNKIN)
def test_partition_of_a_semisimple_module_is_the_reflection_loop(monkeypatch, name, q):
    iq = DYNKIN[name]
    alg = path_algebra(iq)
    sinks, vidx = alg.sinks, alg.vidx
    cases = []
    for dims in itertools.product(range(5), repeat=iq.n):
        if sum(dims) <= 4:
            maps = [((0,) * dims[vidx[a.src]],) * dims[vidx[a.tgt]] for a in alg.q_arrows]
            cases.append((dims, maps, sinks.reflect(q, dims, maps)))
    monkeypatch.setattr(linalg, "kernel_vectors", _refuse("a reflection"))
    for dims, maps, want in cases:
        assert sinks.partition(q, dims, maps) == want
    assert any(mult > 1 for _, _, want in cases for _, mult in want)


# -- products of semisimple kQ-modules ------------------------------------------------


def _assert_closed_form_is_the_walk(alg, q, pairs):
    """In one fresh engine the closed form runs before the walk, in another
    after it, so that either interns each X first; both must give the walk's
    classes, and the counts must be those of every class of
    Ext^1 = Ext^1_kQ(M, N) + Hom_kQ(M, tau* N).  Returns each pair's (e, h)."""
    first, second = IHallAlgebra(alg, q), IHallAlgebra(alg, q)
    ids = [(first.ctx.intern(M), first.ctx.intern(N)) for M, N in pairs]
    assert ids == [(second.ctx.intern(M), second.ctx.intern(N)) for M, N in pairs]
    closed = [first.semisimple_classify(x1, x2) for x1, x2 in ids]
    assert closed == [first.ctx.ext1_classify(M, N, label=first.normal_key) for M, N in pairs]
    walked = [second.ctx.ext1_classify(M, N, label=second.normal_key) for M, N in pairs]
    assert walked == [second.semisimple_classify(x1, x2) for x1, x2 in ids]
    vidx, tau, eh = alg.vidx, alg.tau, []
    for (M, N), cls in zip(pairs, closed):
        m, n = M.dims, N.dims
        e = sum(m[vidx[a.src]] * n[vidx[a.tgt]] for a in alg.q_arrows)
        h = sum(m[vidx[v]] * n[vidx[tau[v]]] for v in alg.vertices)
        assert cls.ext_dim == e + h and sum(count for _, count in cls.pairs) == q ** (e + h)
        assert cls.hom_dim == sum(x * y for x, y in zip(m, n)) == hom_space(M, N).dim
        eh.append((e, h))
    return eh


def _apart(live):
    """Whether no two blocks xi'_a: K_s -> C_t of ``live`` share a K_s or a C_t."""
    return len({s for s, *_ in live}) == len({t for _, t, *_ in live}) == len(live)


@pytest.mark.parametrize("q, total", [(2, 4), (3, 3)])
@pytest.mark.parametrize("name", NAMES)
def test_closed_form_is_the_walk_on_every_small_semisimple_pair(monkeypatch, name, q, total):
    alg = iquiver_algebra(_iquiver(name))
    pairs = [(M, N) for M, N in itertools.product(_semisimple(alg, q, total), repeat=2)
             if M.total_dim + N.total_dim <= total]
    apart, xi_classes = set(), hall._xi_classes

    def recording(p, width, live):
        apart.add(_apart(live))
        return xi_classes(p, width, live)
    monkeypatch.setattr(hall, "_xi_classes", recording)
    eh = _assert_closed_form_is_the_walk(alg, q, pairs)
    assert any(h for _, h in eh)
    assert any(e for e, _ in eh) == bool(alg.q_arrows)
    # blocks into one target vertex meet: the xi' of a3tau and d4split walk
    # lines where they do, and ranks elsewhere
    assert apart == ({True, False} if name in ("a3tau", "d4split") else {True})


def _block_ranks(q, xi, live):
    return tuple(linalg.rank(linalg.FpMatrix.from_rows(
        q, [xi[off + i * cols:off + (i + 1) * cols] for i in range(rows)], cols=cols))
        for _, _, off, rows, cols in live)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("live", [
    [(0, 1, 0, 2, 2)],                     # one 2 x 2 block
    [(0, 1, 0, 1, 2), (1, 2, 2, 2, 1)],    # K_0 -> C_1, K_1 -> C_2: apart
    [(0, 1, 0, 1, 2), (2, 1, 2, 1, 1)],    # K_0 -> C_1, K_2 -> C_1 share C_1
    [(0, 1, 0, 1, 1), (0, 2, 1, 2, 1)],    # K_0 -> C_1, K_0 -> C_2 share K_0
    [(0, 1, 0, 2, 1), (2, 1, 2, 2, 1)],    # share C_1 of dimension 2
])
def test_xi_classes_cover_every_xi_once(q, live):
    # apart, a class is a rank per block, of the size rank_count gives; else
    # a class is zero or a line, whose members are the multiples of its
    # monic vector
    width = sum(rows * cols for *_, rows, cols in live)
    count, classes = hall._xi_classes(q, width, list(live))
    classes = list(classes)
    assert count == len(classes) and sum(size for _, size in classes) == q ** width
    if _apart(live):
        every = itertools.product(range(q), repeat=width)
        assert Counter(_block_ranks(q, xi, live) for xi in every) == \
            {_block_ranks(q, xi, live): size for xi, size in classes}
        return
    assert classes == [((0,) * width, 1)] + [(line, q - 1)
                                              for line in linalg.iter_monic_vectors(q, width)]


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("name, m, n", [
    ("a3tau", (1, 0, 1), (0, 2, 0)),      # K_1 -> C_2 and K_3 -> C_2 meet
    ("d4split", (0, 1, 1, 0), (2, 0, 0, 0)),
])
def test_closed_form_is_the_walk_where_blocks_meet(name, q, m, n):
    # the lines of xi' into a C_t of dimension 2, at a q beyond the
    # small-pair sweep
    alg = iquiver_algebra(_iquiver(name))
    M, N = (make_rep(alg, q, dict(zip(alg.vertices, d)), {}) for d in (m, n))
    _assert_closed_form_is_the_walk(alg, q, [(M, N)])


WORD_PRODUCTS = ([(name, q, word) for name, word in sorted(PRODUCTS.items()) for q in (2, 3, 5)]
                 + WALKED)


@pytest.mark.parametrize("name, q, word", WORD_PRODUCTS)
def test_closed_form_is_the_walk_on_the_pairs_of_word_products(name, q, word):
    alg = iquiver_algebra(_iquiver(name))
    pairs = [(M, N) for M, N in hall_reference.product_pairs(IHallAlgebra(alg, q), word)
             if _all_zero(M, N)]
    assert pairs
    _assert_closed_form_is_the_walk(alg, q, list({(M.dims, N.dims): (M, N)
                                                  for M, N in pairs}.values()))


def test_a_one_letter_relation_takes_the_walk(monkeypatch):
    # a2split's algebra with a = 0 added: linearized at S1 and S2 the new
    # relation kills the a-direction of Ext^1(S1, S2), which the closed form
    # would keep, so the product walks
    eq = iquiver_algebra(_iquiver("a2split")).eq
    alg = BoundAlgebra(dataclasses.replace(eq, relations=eq.relations + ((("a",), None),)))
    assert not alg.long_relations
    engine = IHallAlgebra(alg, 3)
    S1, S2 = engine.ctx.simple("1"), engine.ctx.simple("2")
    x1, x2 = engine.ctx.intern(S1), engine.ctx.intern(S2)
    assert engine.semisimple_classify(x1, x2) is None
    assert engine.ctx.ext1_dim(S1, S2) == 0
    walked = []
    classify = ModuleContext.ext1_classify

    def counted(self, M, N, **kw):
        walked.append((M, N))
        return classify(self, M, N, **kw)
    monkeypatch.setattr(ModuleContext, "ext1_classify", counted)
    assert engine.raw_product(x1, x2) == hall_reference.raw_product(engine, S1, S2)
    assert walked == [(S1, S2)] * 2


@pytest.mark.parametrize("q", [2, 3])
def test_rank_count_is_the_count_of_every_matrix(q):
    for rows, cols in itertools.product(range(4), repeat=2):
        ranks = Counter(linalg.rank(linalg.FpMatrix.from_rows(q, zip(*[iter(entries)] * cols),
                                                              cols=cols)) if rows and cols else 0
                        for entries in itertools.product(range(q), repeat=rows * cols))
        assert [linalg.rank_count(q, rows, cols, r) for r in range(min(rows, cols) + 2)] == \
            [ranks[r] for r in range(min(rows, cols) + 2)]


# -- every shortcut, where it applies --------------------------------------------------


def test_a_word_product_takes_every_shortcut_where_it_applies(monkeypatch):
    # a pair whose maps all vanish takes the closed form, never the walk, an
    # Ext^1 basis or a cocycle system; and no reflection of a semisimple
    # kQ-module.  The product meets the closed form with e = 0 and e > 0, and
    # each other kind of input
    met, inside = Counter(), []
    ext1_basis, cocycle_system = modules._ext1_basis, modules._cocycle_system
    partition, homology = SinkSchedule.partition, ModuleContext.homology
    kernel_vectors = linalg.kernel_vectors
    closed_form, classify = IHallAlgebra.semisimple_classify, ModuleContext.ext1_classify
    alg = iquiver_algebra(_iquiver("a3tau"))
    vidx = alg.vidx

    def counted_closed_form(self, x1, x2):
        cls = closed_form(self, x1, x2)
        (m, mdatas), (n, ndatas) = self.ctx.exact_key(x1), self.ctx.exact_key(x2)
        assert (cls is None) != linalg.all_zero(mdatas + ndatas)
        if cls:
            e = sum(m[vidx[a.src]] * n[vidx[a.tgt]] for a in alg.q_arrows)
            met["closed e > 0" if e else "closed e = 0"] += 1
        return cls

    def refusing_classify(self, M, N, **kw):
        assert not _all_zero(M, N), "the walk of a semisimple pair"
        return classify(self, M, N, **kw)

    def counted_ext1_basis(M, N):
        met["ext1 zero" if _all_zero(M, N) else "ext1"] += 1
        return ext1_basis(M, N)

    def refusing_cocycle_system(M, N, arrows=None):
        assert not _all_zero(M, N), "the cocycle system of a semisimple pair"
        return cocycle_system(M, N, arrows)

    def counted_partition(self, p, dims, maps):
        zero = linalg.all_zero(maps)
        met["partition zero" if zero else "partition"] += 1
        inside.append(zero)
        try:
            return partition(self, p, dims, maps)
        finally:
            inside.pop()

    def counted_homology(self, exact):
        met["homology"] += 1
        return homology(self, exact)

    def refusing_kernel_vectors(*args):
        assert not (inside and inside[-1]), "a kernel of a semisimple input"
        return kernel_vectors(*args)
    monkeypatch.setattr(IHallAlgebra, "semisimple_classify", counted_closed_form)
    monkeypatch.setattr(ModuleContext, "ext1_classify", refusing_classify)
    monkeypatch.setattr(modules, "_ext1_basis", counted_ext1_basis)
    monkeypatch.setattr(modules, "_cocycle_system", refusing_cocycle_system)
    monkeypatch.setattr(SinkSchedule, "partition", counted_partition)
    monkeypatch.setattr(ModuleContext, "homology", counted_homology)
    monkeypatch.setattr(linalg, "kernel_vectors", refusing_kernel_vectors)
    engine = IHallAlgebra(alg, 3)
    assert not engine.word_product("2,1,3,2,1".split(",")).is_zero()
    product = ("closed e = 0", "closed e > 0", "ext1", "partition zero", "partition", "homology")
    assert all(met[kind] > 0 for kind in product) and not met["ext1 zero"], met


class _Walking(IHallAlgebra):
    """The engine with no closed form: every pair walks Ext^1."""

    def semisimple_classify(self, x1, x2):
        return None


def test_the_closed_form_builds_no_rep(monkeypatch):
    # a word product builds the rep of a registry id only for a pair that
    # walks: inside the product of a pair whose maps all vanish, _from_exact
    # refuses; the pairs that walk build the reps of both ids; and the product
    # is the one every pair's walk gives
    alg, word = iquiver_algebra(_iquiver("a3tau")), "2,1,3,2,1".split(",")
    walking = _Walking(alg, 3)
    want = hall.keyed_terms(walking, walking.word_product(word))
    frames, current, answered = [], [], []
    pair_product, closed_form = IHallAlgebra._pair_product, IHallAlgebra.semisimple_classify
    rep, from_exact = ModuleContext.rep, modules._from_exact

    def framed(self, x1, x2):
        if (x1, x2) in self._pair:
            return pair_product(self, x1, x2)
        keys = self.ctx.exact_key(x1)[1] + self.ctx.exact_key(x2)[1]
        frames.append(((x1, x2), linalg.all_zero(keys), []))
        current.append(frames[-1])
        try:
            return pair_product(self, x1, x2)
        finally:
            current.pop()

    def counted_closed_form(self, x1, x2):
        cls = closed_form(self, x1, x2)
        if cls is not None:
            answered.append((x1, x2))
        return cls

    def counted_rep(self, mid):
        if current:
            current[-1][2].append(mid)
        return rep(self, mid)

    def refusing_from_exact(algebra, p, exact):
        assert not (current and current[-1][1]), "a rep for a pair of the closed form"
        return from_exact(algebra, p, exact)
    monkeypatch.setattr(IHallAlgebra, "_pair_product", framed)
    monkeypatch.setattr(IHallAlgebra, "semisimple_classify", counted_closed_form)
    monkeypatch.setattr(ModuleContext, "rep", counted_rep)
    monkeypatch.setattr(modules, "_from_exact", refusing_from_exact)
    engine = IHallAlgebra(alg, 3)
    got = engine.word_product(word)
    monkeypatch.undo()
    assert answered == [pair for pair, closed, _ in frames if closed]
    assert all(built == [] for _, closed, built in frames if closed)
    walked = [(pair, built) for pair, closed, built in frames if not closed]
    assert answered and walked and all(built == list(pair) for pair, built in walked)
    assert hall.keyed_terms(engine, got) == want
