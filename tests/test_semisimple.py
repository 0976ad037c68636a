"""The shortcuts for modules whose maps vanish, against the general routines
they skip: the Ext^1 basis of two semisimple modules against the elimination
of [delta | Z] (``ext_reference.ext1_basis_by_elimination``), and the
Kostant partition of a semisimple kQ-module against the sink reflections
(``SinkSchedule.reflect``).  The eps-homology of a module whose Q-arrow maps
vanish is checked against its oracle in tests/test_induced.py.  The guards
that send every other input down the general routines keep their refusals,
and a word product takes each shortcut wherever it applies."""

import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

import ext_reference
from iqhall import linalg, modules
from iqhall.algebra import BoundAlgebra, iquiver_algebra, path_algebra
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext, make_rep
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
def test_ext1_basis_of_semisimple_pairs_is_the_elimination(monkeypatch, name, build, q):
    alg = build(_iquiver(name))
    assert alg.long_relations
    pairs = list(itertools.product(_semisimple(alg, q, 3), repeat=2))
    want = [ext_reference.ext1_basis_by_elimination(M, N) for M, N in pairs]
    # the shortcut builds no cocycle system and eliminates nothing
    monkeypatch.setattr(modules, "_cocycle_system", _refuse("the cocycle system"))
    monkeypatch.setattr(linalg, "rref", _refuse("an elimination"))
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
    # with no relation, it stays, as the shortcut has it
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


# -- every shortcut, where it applies --------------------------------------------------


def test_a_word_product_takes_every_shortcut_where_it_applies(monkeypatch):
    # no cocycle system for a pair whose maps all vanish, no reflection of a
    # semisimple kQ-module and no kernel or subquotient for a key whose
    # Q-arrow maps vanish; and each kind of input is met
    met, inside = Counter(), []
    ext1_basis, cocycle_system = modules._ext1_basis, modules._cocycle_system
    partition, homology = SinkSchedule.partition, ModuleContext.homology
    kernel_vectors, subquotient = linalg.kernel_vectors, linalg.subquotient

    def counted_ext1_basis(M, N):
        met["ext1 zero" if _all_zero(M, N) else "ext1"] += 1
        return ext1_basis(M, N)

    def refusing_cocycle_system(M, N, arrows=None):
        assert not _all_zero(M, N), "the cocycle system of a semisimple pair"
        return cocycle_system(M, N, arrows)

    def within(flag, call):
        inside.append(flag)
        try:
            return call()
        finally:
            inside.pop()

    def counted_partition(self, p, dims, maps):
        zero = linalg.all_zero(maps)
        met["partition zero" if zero else "partition"] += 1
        return within(zero, lambda: partition(self, p, dims, maps))

    def counted_homology(self, exact):
        eps = [exact[1][c] for c in self._eps_cols]
        zero = linalg.all_zero(exact[1][c] for c in self._q_cols)
        met["homology zero" if zero and not linalg.all_zero(eps) else "homology"] += 1
        return within(zero, lambda: homology(self, exact))

    def refuse_inside(real, what):
        def guarded(*args):
            assert not (inside and inside[-1]), what
            return real(*args)
        return guarded
    monkeypatch.setattr(modules, "_ext1_basis", counted_ext1_basis)
    monkeypatch.setattr(modules, "_cocycle_system", refusing_cocycle_system)
    monkeypatch.setattr(SinkSchedule, "partition", counted_partition)
    monkeypatch.setattr(ModuleContext, "homology", counted_homology)
    monkeypatch.setattr(linalg, "kernel_vectors",
                        refuse_inside(kernel_vectors, "a kernel of a semisimple input"))
    monkeypatch.setattr(linalg, "subquotient",
                        refuse_inside(subquotient, "a subquotient of a semisimple input"))
    engine = IHallAlgebra(iquiver_algebra(_iquiver("a3tau")), 3)
    assert not engine.word_product("2,1,3,2,1".split(",")).is_zero()
    assert all(met[kind] > 0 for kind in ("ext1 zero", "ext1", "partition zero", "partition",
                                          "homology zero", "homology")), met
