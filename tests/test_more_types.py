"""Wider type coverage: the quasi-split families beyond rank 2."""

import itertools

from iqhall.algebra import iquiver_algebra, path_algebra
from iqhall.dynkin import DynkinContext, _coefficient_matrix, qsqrt_matrix_invertible
from iqhall.hall import IHallAlgebra
from iqhall.quivers import make_iquiver, root_table
from iqhall.verify import euler_central_suite, reduced_suite, serre_suite


def d4_nonsplit():
    # star with center 0, tau swapping two outer vertices
    return make_iquiver(["0", "1", "2", "3"],
                        [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")],
                        tau={"0": "0", "1": "1", "2": "3", "3": "2"})


def a5_flip():
    # odd-length path with arrows converging at the middle and the
    # end-to-end involution
    return make_iquiver(
        ["m2", "m1", "z", "p1", "p2"],
        [("a", "p2", "p1"), ("b", "p1", "z"), ("c", "m2", "m1"), ("d", "m1", "z")],
        tau={"m2": "p2", "m1": "p1", "z": "z", "p1": "m1", "p2": "m2"})


def test_d4_nonsplit_validates():
    iq = d4_nonsplit()
    assert iq.itau_reps == ("0", "1", "2")
    assert len(root_table(iq)) == 12


def test_d4_nonsplit_dimension():
    iq = d4_nonsplit()
    assert iquiver_algebra(iq).dim == 2 * len(path_algebra(iq).basis)


def test_d4_nonsplit_serre():
    report = serre_suite(d4_nonsplit(), 2)
    assert report.passed
    ids = {r.rel_id for r in report.relations}
    assert "pair:2" in ids          # the swapped outer pair
    assert "iserre:0,2" in ids      # fixed center against a moved vertex
    assert "serre:2,0" in ids       # moved vertex against the center


def test_a5_flip_validates_and_counts():
    iq = a5_flip()
    assert len(root_table(iq)) == 15
    assert iq.tau_arrow_map()["a"] == "c"


def test_a5_flip_serre():
    assert serre_suite(a5_flip(), 2).passed


def test_a5_flip_reduced_and_euler():
    assert reduced_suite(a5_flip(), 2).passed
    assert euler_central_suite(a5_flip(), 2, sample_size=12, dim_cap=2).passed


def test_e6_recognition():
    # arm lengths (1, 2, 2) around the branch vertex
    e6 = make_iquiver(
        ["1", "2", "3", "4", "5", "6"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "4", "3"), ("d", "5", "4"),
         ("e", "6", "3")])
    assert len(root_table(e6)) == 36


def test_monomial_second_choice(a2_split):
    # any distinguished word gives a basis: take each partition's second
    # distinguished word (its only one when it has one) and test every grade
    engine = IHallAlgebra(iquiver_algebra(a2_split), 2)
    dyn = DynkinContext(a2_split, 2)
    seconds = 0
    for grade in dyn.grades_up_to(3):
        partitions = dyn.partitions_with_grade(grade)
        words = []
        for lam in partitions:
            length = sum(mult * sum(root) for root, mult in lam)
            hits = [w for w in itertools.product(dyn.kq.vertices, repeat=length)
                    if dyn.word_to_partition(w) == lam and dyn.gamma(lam, w) == 1]
            words.append(hits[min(1, len(hits) - 1)])
            seconds += len(hits) > 1
        expansions = [engine.word_product(w) for w in words]
        assert qsqrt_matrix_invertible(_coefficient_matrix(engine, dyn, expansions, partitions))
    assert seconds


def test_e6_split_serre():
    e6 = make_iquiver(
        ["1", "2", "3", "4", "5", "6"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "4", "3"), ("d", "5", "4"),
         ("e", "6", "3")])
    report = serre_suite(e6, 2)
    assert report.passed


def test_e6_involution_serre():
    # the order-two diagram symmetry swapping the long arms
    e6 = make_iquiver(
        ["1", "2", "3", "4", "5", "6"],
        [("a", "2", "1"), ("b", "3", "2"), ("c", "3", "5"), ("d", "5", "6"),
         ("e", "4", "3")],
        tau={"1": "6", "2": "5", "3": "3", "4": "4", "5": "2", "6": "1"})
    assert len(root_table(e6)) == 36
    assert serre_suite(e6, 2).passed


def test_d5_split_serre_q3():
    d5 = make_iquiver(["0", "1", "2", "3", "4"],
                      [("a", "1", "0"), ("b", "2", "0"), ("c", "0", "3"), ("d", "3", "4")])
    assert serre_suite(d5, 3).passed


def test_bridgeland_a3_base():
    from iqhall.verify import bridgeland_suite
    a3 = make_iquiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert bridgeland_suite(a3, 2).passed
