import json
from pathlib import Path

import pytest

from enumerate_reference import search_root_module
from iqhall.dynkin import DynkinContext, monomial_basis_check, pbw_basis_check, tight_form
from iqhall.errors import DimVectorMismatch
from iqhall.quivers import validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"


@pytest.fixture
def dyn2(a2_split):
    return DynkinContext(a2_split, 2)


def test_root_modules_a2(dyn2):
    s1 = dyn2.root_module((1, 0))
    p1 = dyn2.root_module((1, 1))
    assert dyn2.ctx.rep(s1).dims == (1, 0)
    rep = dyn2.ctx.rep(p1)
    assert rep.dims == (1, 1) and not rep.map("a").is_zero()


def test_root_module_a3(a3_invol):
    dyn = DynkinContext(a3_invol, 2)
    mid = dyn.root_module((1, 1, 1))
    rep = dyn.ctx.rep(mid)
    assert rep.total_dim == 3
    assert hom_dim_end(dyn, mid) == 1


def hom_dim_end(dyn, mid):
    return dyn.ctx.end_dim(mid)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.json")))
def test_root_modules_built_by_generic_extensions_match_the_search(name, q):
    # the fold along the sources-first word finds the class that the walk
    # over every matrix tuple finds first
    dyn = DynkinContext(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())), q)
    for beta in dyn.roots:
        mid = dyn.root_module(beta)
        assert dyn.ctx.rep(mid).dims == beta and dyn.ctx.end_dim(mid) == 1
        assert dyn.ctx.intern(search_root_module(dyn.kq, q, beta)) == mid, beta


def test_generic_extension_a2(dyn2):
    s1 = dyn2.ctx.intern(dyn2.ctx.simple("1"))
    s2 = dyn2.ctx.intern(dyn2.ctx.simple("2"))
    p1 = dyn2.root_module((1, 1))
    assert dyn2.generic_extension(s1, s2) == p1
    # no self-extensions: the square splits
    sq = dyn2.generic_extension(s1, s1)
    assert dyn2.partition_of_mid(sq) == (((1, 0), 2),)
    zero = dyn2.ctx.intern(dyn2.ctx.zero())
    assert dyn2.generic_extension(s1, zero) == s1


def test_generic_extension_associative(dyn2):
    mids = [dyn2.ctx.intern(dyn2.ctx.simple("1")),
            dyn2.ctx.intern(dyn2.ctx.simple("2")),
            dyn2.root_module((1, 1))]
    for a in mids:
        for b in mids:
            for c in mids:
                left = dyn2.generic_extension(dyn2.generic_extension(a, b), c)
                right = dyn2.generic_extension(a, dyn2.generic_extension(b, c))
                assert left == right


def test_word_to_partition(dyn2):
    assert dyn2.word_to_partition(("1", "2")) == (((1, 1), 1),)
    assert dyn2.word_to_partition(("2", "1")) == (((0, 1), 1), ((1, 0), 1))
    assert dyn2.word_to_partition(()) == ()


def test_tight_form():
    assert tight_form("1122") == [("1", 2), ("2", 2)]
    assert tight_form(("2", "1", "1")) == [("2", 1), ("1", 2)]


def test_filtration_counts(dyn2):
    lam_p1 = (((1, 1), 1),)
    assert dyn2.gamma(lam_p1, ("1", "2")) == 1
    assert dyn2.gamma(lam_p1, ("2", "1")) == 0
    lam_split = (((0, 1), 1), ((1, 0), 1))
    assert dyn2.gamma(lam_split, ("2", "1")) == 1
    # grade mismatch counts no filtrations
    assert dyn2.gamma(lam_split, ("1", "1")) == 0


def test_distinguished_words(dyn2):
    lam = dyn2.word_to_partition(("1", "2"))
    assert dyn2.gamma(lam, ("1", "2")) == 1
    assert dyn2.distinguished_word(lam) == ("1", "2")


def test_gamma_prime_independent(a2_split):
    words = [("1", "2"), ("2", "1"), ("1", "1", "2"), ("1", "2", "1")]
    d2, d3 = DynkinContext(a2_split, 2), DynkinContext(a2_split, 3)
    for w in words:
        lam2, lam3 = d2.word_to_partition(w), d3.word_to_partition(w)
        assert lam2 == lam3
        assert d2.gamma(lam2, w) == d3.gamma(lam3, w)


def test_wp_onto_up_to_cap(dyn2):
    import itertools
    reachable = set()
    for length in range(0, 4):
        for word in itertools.product(dyn2.kq.vertices, repeat=length):
            reachable.add(dyn2.word_to_partition(word))
    for total in range(0, 4):
        for grade in [(a, total - a) for a in range(total + 1)]:
            for lam in dyn2.partitions_with_grade(grade):
                assert lam in reachable


def test_degeneration_order(dyn2):
    p1 = dyn2.root_module((1, 1))
    split = dyn2.ctx.intern(dyn2.module_of_partition((((0, 1), 1), ((1, 0), 1))))
    assert dyn2.degeneration_leq(split, p1)
    assert not dyn2.degeneration_leq(p1, split)
    assert dyn2.degeneration_leq(p1, p1)
    with pytest.raises(DimVectorMismatch):
        dyn2.degeneration_leq(p1, dyn2.ctx.intern(dyn2.ctx.simple("1")))


def test_degeneration_partial_order_on_grade(dyn2):
    lams = dyn2.partitions_with_grade((1, 1))
    mids = [dyn2.ctx.intern(dyn2.module_of_partition(lam)) for lam in lams]
    for a in mids:
        for b in mids:
            if dyn2.degeneration_leq(a, b) and dyn2.degeneration_leq(b, a):
                assert a == b
            for c in mids:
                if dyn2.degeneration_leq(a, b) and dyn2.degeneration_leq(b, c):
                    assert dyn2.degeneration_leq(a, c)


def test_partitions_with_grade(dyn2):
    lams = dyn2.partitions_with_grade((1, 1))
    assert len(lams) == 2  # {P1} and {S1, S2}
    assert dyn2.partitions_with_grade((2, 2)) == sorted([
        (((1, 1), 2),),
        (((0, 1), 1), ((1, 0), 1), ((1, 1), 1)),
        (((0, 1), 2), ((1, 0), 2)),
    ])


def test_monomial_basis_small(a2_split):
    report = monomial_basis_check(a2_split, 2, 2)
    assert report.passed
    sizes = {g.grade: g.size for g in report.grades}
    assert sizes[(1, 1)] == 2


def test_pbw_basis_small(a2_split):
    report = pbw_basis_check(a2_split, 2, 2)
    assert report.passed
    reversed_order = list(reversed(DynkinContext(a2_split, 2).roots))
    report2 = pbw_basis_check(a2_split, 2, 2, ordering=reversed_order)
    assert report2.passed
