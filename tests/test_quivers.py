import pytest

from iqhall.errors import ArrowNotRespected, CyclicQuiver, NotDynkin, NotInvolution
from iqhall.quivers import (diagonal_iquiver, double_framed, enriched_quiver,
                            make_iquiver, root_table, validate_iquiver)


def test_validate_split_a2(a2_split):
    assert a2_split.vertices == ("1", "2")
    assert a2_split.itau_reps == ("1", "2")
    assert a2_split.is_split()


def test_validate_a3_with_involution(a3_invol):
    assert a3_invol.tau_map() == {"1": "3", "2": "2", "3": "1"}
    assert a3_invol.itau_reps == ("1", "2")
    assert a3_invol.tau_arrow_map() == {"a": "b", "b": "a"}


def test_arrow_not_respected():
    with pytest.raises(ArrowNotRespected):
        make_iquiver(["1", "2"], [("a", "1", "2")], tau={"1": "2", "2": "1"})


def test_rejects_cycles_and_bad_involutions():
    with pytest.raises(CyclicQuiver):
        make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(NotInvolution):
        validate_iquiver({"vertices": ["1", "2", "3"],
                          "tau": {"1": "2", "2": "3", "3": "1"}})


def test_cartan_and_euler(a2_split):
    assert a2_split.euler_matrix() == [[1, -1], [0, 1]]
    assert a2_split.cartan_matrix() == [[2, -1], [-1, 2]]


def test_euler_form_against_arrow_list(a3_invol):
    e = a3_invol.euler_matrix()
    # <x,y> = sum x_i y_i - sum over arrows x_src y_tgt
    for x in [(1, 0, 2), (1, 1, 1), (0, 3, 1)]:
        for y in [(2, 1, 0), (1, 1, 1), (0, 0, 5)]:
            direct = sum(x[i] * y[i] for i in range(3))
            for a in a3_invol.arrows:
                direct -= x[a3_invol.index(a.src)] * y[a3_invol.index(a.tgt)]
            assert a3_invol.euler_form(x, y) == direct


def test_tau_symmetry_of_euler_form(a3_invol):
    tau = a3_invol.tau_map()
    perm = [a3_invol.index(tau[v]) for v in a3_invol.vertices]
    for x in [(1, 0, 0), (1, 2, 0), (0, 1, 1)]:
        for y in [(0, 0, 1), (1, 1, 1), (2, 0, 1)]:
            tx = tuple(x[perm[i]] for i in range(3))
            ty = tuple(y[perm[i]] for i in range(3))
            assert a3_invol.euler_form(tx, ty) == a3_invol.euler_form(x, y)


def test_enriched_split_a2(a2_split):
    eq = enriched_quiver(a2_split)
    assert {a.id: (a.src, a.tgt) for a in eq.eps_arrows} == \
        {"eps_1": ("1", "1"), "eps_2": ("2", "2")}
    rels = set(eq.relations)
    assert (("eps_1", "eps_1"), None) in rels
    assert (("a", "eps_2"), ("eps_1", "a")) in rels


def test_enriched_a3_involution(a3_invol):
    eq = enriched_quiver(a3_invol)
    eps = {a.id: (a.src, a.tgt) for a in eq.eps_arrows}
    assert eps == {"eps_1": ("1", "3"), "eps_2": ("2", "2"), "eps_3": ("3", "1")}
    rels = set(eq.relations)
    assert (("eps_1", "eps_3"), None) in rels
    assert (("eps_2", "eps_2"), None) in rels
    # sliding eps_2 past a: (a then eps_2) = (eps_1 then b)
    assert (("a", "eps_2"), ("eps_1", "b")) in rels
    assert (("b", "eps_2"), ("eps_3", "a")) in rels


def test_enriched_swap_pair(swap_pair):
    eq = enriched_quiver(swap_pair)
    eps = {a.id: (a.src, a.tgt) for a in eq.eps_arrows}
    assert eps == {"eps_1": ("1", "2"), "eps_2": ("2", "1")}
    assert set(eq.relations) == {(("eps_1", "eps_2"), None), (("eps_2", "eps_1"), None)}


def test_double_framed_a2(a2_split):
    df = double_framed(a2_split)
    assert len(df.vertices) == 4
    ids = sorted(a.id for a in df.q_arrows)
    assert ids == ["a", "a'"]
    assert len(df.eps_arrows) == 4


def test_diagonal_matches_double_framed(a2_split):
    diag = diagonal_iquiver(a2_split)
    eq = enriched_quiver(diag)
    df = double_framed(a2_split)
    assert eq.structure_key() == df.structure_key()


def test_diagonal_single_vertex():
    q = make_iquiver(["1"], [])
    diag = diagonal_iquiver(q)
    eq = enriched_quiver(diag)
    assert len(eq.vertices) == 2
    assert {a.id for a in eq.eps_arrows} == {"eps_1", "eps_1'"}
    assert all(other is None for _, other in eq.relations)


def test_root_tables(a2_split, a3_invol, d4_split, swap_pair):
    rt = root_table(a2_split)
    assert rt.dynkin_type == "A2"
    assert set(rt.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert root_table(a3_invol).count == 6
    assert root_table(d4_split).dynkin_type == "D4"
    assert root_table(d4_split).count == 12
    assert root_table(swap_pair).dynkin_type == "A1xA1"
    assert root_table(swap_pair).count == 2


def test_root_counts_match_closed_forms():
    a5 = make_iquiver([str(i) for i in range(1, 6)],
                      [(f"a{i}", str(i), str(i + 1)) for i in range(1, 5)])
    assert root_table(a5).count == 15
    d5 = make_iquiver(["0", "1", "2", "3", "4"],
                      [("a", "1", "0"), ("b", "2", "0"), ("c", "0", "3"), ("d", "3", "4")])
    assert root_table(d5).dynkin_type == "D5"
    assert root_table(d5).count == 20


def test_not_dynkin():
    kronecker = make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    with pytest.raises(NotDynkin):
        root_table(kronecker)
    cycle4 = make_iquiver(["1", "2", "3", "4"],
                          [("a", "1", "2"), ("b", "2", "3"), ("c", "4", "3"), ("d", "1", "4")])
    with pytest.raises(NotDynkin):
        root_table(cycle4)


def test_json_round_trip(a3_invol):
    again = validate_iquiver(a3_invol.to_json())
    assert again == a3_invol
