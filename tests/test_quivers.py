import pytest

from iqhall.errors import ArrowNotRespected, CyclicQuiver, NotDynkin, NotInvolution
from iqhall.quivers import (diagonal_iquiver, double_framed, enriched_quiver, euler_matrix,
                            make_iquiver, root_table, validate_iquiver)


def test_validate_split_a2(a2_split):
    assert a2_split.vertices == ("1", "2")
    assert a2_split.itau_reps == ("1", "2")
    assert all(u == v for u, v in a2_split.tau)


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


def _euler_form(iq, x, y):
    e = euler_matrix(iq.vertices, iq.arrows)
    return sum(x[i] * e[i][j] * y[j] for i in range(iq.n) for j in range(iq.n))


def test_euler_form_against_arrow_list(a3_invol):
    # <x,y> = sum x_i y_i - sum over arrows x_src y_tgt
    for x in [(1, 0, 2), (1, 1, 1), (0, 3, 1)]:
        for y in [(2, 1, 0), (1, 1, 1), (0, 0, 5)]:
            direct = sum(x[i] * y[i] for i in range(3))
            for a in a3_invol.arrows:
                direct -= x[a3_invol.index(a.src)] * y[a3_invol.index(a.tgt)]
            assert _euler_form(a3_invol, x, y) == direct


def test_tau_symmetry_of_euler_form(a3_invol):
    tau = a3_invol.tau_map()
    perm = [a3_invol.index(tau[v]) for v in a3_invol.vertices]
    for x in [(1, 0, 0), (1, 2, 0), (0, 1, 1)]:
        for y in [(0, 0, 1), (1, 1, 1), (2, 0, 1)]:
            tx = tuple(x[perm[i]] for i in range(3))
            ty = tuple(y[perm[i]] for i in range(3))
            assert _euler_form(a3_invol, tx, ty) == _euler_form(a3_invol, x, y)


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


def _star(*arms):
    """A center c with one path of each given length pointing into it."""
    vertices, arrows = ["c"], []
    for k, length in enumerate(arms):
        prev = "c"
        for j in range(length):
            vertices.append(f"x{k}{j}")
            arrows.append((f"a{k}{j}", f"x{k}{j}", prev))
            prev = f"x{k}{j}"
    return make_iquiver(vertices, arrows)


def test_root_tables(a2_split, a3_invol, d4_split, swap_pair):
    assert root_table(a2_split) == ((0, 1), (1, 0), (1, 1))
    assert len(root_table(a3_invol)) == 6
    assert len(root_table(d4_split)) == 12
    # two isolated vertices: A1 x A1
    assert root_table(swap_pair) == ((0, 1), (1, 0))


def test_root_counts_match_closed_forms():
    a5 = make_iquiver([str(i) for i in range(1, 6)],
                      [(f"a{i}", str(i), str(i + 1)) for i in range(1, 5)])
    assert len(root_table(a5)) == 15
    d5 = make_iquiver(["0", "1", "2", "3", "4"],
                      [("a", "1", "0"), ("b", "2", "0"), ("c", "0", "3"), ("d", "3", "4")])
    assert len(root_table(d5)) == 20
    # n(n+1)/2 for A_n, n(n-1) for D_n, and 36, 63, 120 for E_6, E_7, E_8
    counts = {(4,): 15, (1, 1, 2): 20, (1, 1, 3): 30,
              (1, 2, 2): 36, (1, 2, 3): 63, (1, 2, 4): 120}
    for arms, count in counts.items():
        assert len(root_table(_star(*arms))) == count


def test_affine_stars_are_not_dynkin():
    # the extended diagrams E6~, E7~, E8~ and D4~: positive semidefinite only
    for arms in [(2, 2, 2), (1, 3, 3), (1, 2, 5), (1, 1, 1, 1)]:
        with pytest.raises(NotDynkin):
            root_table(_star(*arms))


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
