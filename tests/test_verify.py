import pytest

from iqhall.algebra import iquiver_algebra
from iqhall.errors import InputError, UnsupportedType
from iqhall.hall import IHallAlgebra
from iqhall.quivers import make_iquiver
from iqhall.scalars import QSqrt
from iqhall.verify import (bridgeland_suite, euler_central_suite, rank2_identities,
                           reduced_suite, serre_suite)


def test_rank2_identities_q2():
    report = rank2_identities(2)
    assert report.passed
    assert len(report.relations) == 5
    assert {r.rel_id for r in report.relations} == {
        "rank2:a2:serre-211", "rank2:a2:serre-122",
        "rank2:a3:homogeneous", "rank2:a3:inhomogeneous",
        "rank2:swap:commutator"}


def test_rank2_identities_q3():
    assert rank2_identities(3).passed


def test_serre_suite_split_a2(a2_split):
    report = serre_suite(a2_split, 2)
    assert report.passed
    ids = {r.rel_id for r in report.relations}
    assert "iserre:1,2" in ids and "iserre:2,1" in ids
    assert "kb:1,2" in ids


def test_serre_suite_a3_involution(a3_invol):
    report = serre_suite(a3_invol, 3)
    assert report.passed
    ids = {r.rel_id for r in report.relations}
    assert "serre:1,2" in ids       # homogeneous at the swapped vertices
    assert "iserre:2,1" in ids      # inhomogeneous at the fixed vertex
    assert "pair:1" in ids
    # the swapped endpoints commute through the pair relation, not a
    # separate commutation axiom
    assert "commute:1,3" not in ids


def test_serre_suite_swap_pair(swap_pair):
    report = serre_suite(swap_pair, 2)
    assert report.passed
    assert "pair:1" in {r.rel_id for r in report.relations}


def test_even_a_with_involution_rejected_at_validation():
    # an even-length path has its middle edge flipped, so no orientation
    # admits the end-to-end involution; validation already refuses it
    from iqhall.errors import ArrowNotRespected
    with pytest.raises(ArrowNotRespected):
        make_iquiver(["1", "2", "3", "4"],
                     [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4")],
                     tau={"1": "4", "2": "3", "3": "2", "4": "1"})


def test_serre_suite_rejects_non_dynkin():
    kron = make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    with pytest.raises(UnsupportedType):
        serre_suite(kron, 2)


def test_serre_relation_set_prime_independent(a3_invol):
    ids2 = {r.rel_id for r in serre_suite(a3_invol, 2).relations}
    ids3 = {r.rel_id for r in serre_suite(a3_invol, 3).relations}
    assert ids2 == ids3
    assert serre_suite(a3_invol, 2).passed


def test_bridgeland_a1():
    a1 = make_iquiver(["1"], [])
    report = bridgeland_suite(a1, 2)
    assert report.passed
    assert "bridgeland:EF:1,1" in {r.rel_id for r in report.relations}


def test_bridgeland_a2(a2_split):
    report = bridgeland_suite(a2_split, 2)
    assert report.passed
    ids = {r.rel_id for r in report.relations}
    assert "bridgeland:Eserre:1,2" in ids
    assert "bridgeland:central:1;2" in ids


def test_euler_central_suite(a2_split):
    report = euler_central_suite(a2_split, 2, sample_size=20, dim_cap=2)
    assert report.passed


def test_euler_central_swap(swap_pair):
    report = euler_central_suite(swap_pair, 2, sample_size=12, dim_cap=2)
    assert report.passed
    assert any(r.rel_id.startswith("central:") for r in report.relations)


def test_reduced_suite_default_sigma(a2_split, swap_pair):
    assert reduced_suite(a2_split, 2).passed
    assert reduced_suite(swap_pair, 2).passed


def test_reduced_suite_custom_sigma(a2_split):
    sigma = {"1": QSqrt.of(3, 2), "2": QSqrt.of(1, 2)}
    assert reduced_suite(a2_split, 2, sigma=sigma).passed


def test_reduced_suite_rejects_unbalanced_sigma(swap_pair):
    with pytest.raises(InputError):
        reduced_suite(swap_pair, 2,
                      sigma={"1": QSqrt.of(2, 2), "2": QSqrt.of(3, 2)})


def test_reduced_agrees_with_serre_off_torus(a3_invol):
    # with the distinguished parameter the reduced suite repeats every
    # relation that does not mention the torus generators
    full = {r.rel_id: r.passed for r in serre_suite(a3_invol, 2).relations}
    red = {r.rel_id: r.passed for r in reduced_suite(a3_invol, 2).relations}
    shared = {i for i in full if i.startswith(("commute:", "serre:"))}
    assert shared
    assert shared <= set(red)
    for rel_id in shared:
        assert full[rel_id] and red[rel_id]


def test_sigma_given_at_either_orbit_member(a3_invol):
    engine = IHallAlgebra(iquiver_algebra(a3_invol), 2)
    two = QSqrt.of(2, 2)
    for given in ("1", "3"):
        assert engine.check_sigma({given: two}) == {"1": two, "2": QSqrt.one(2), "3": two}


def test_orbit_representatives_are_part_of_the_algebra(a3_invol):
    # the content hash omits itau_reps, so the algebra must not be looked
    # up by it: a suite on the default quiver first must not leak its reps
    assert "pair:1" in {r.rel_id for r in serre_suite(a3_invol, 2).relations}
    other = make_iquiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")],
                         tau={"1": "3", "2": "2", "3": "1"}, itau_reps=["2", "3"])
    assert iquiver_algebra(other).itau_reps == ("2", "3")
    ids = {r.rel_id for r in serre_suite(other, 2).relations}
    assert "pair:3" in ids and "pair:1" not in ids
