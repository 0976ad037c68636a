import pytest

from iqhall import algebra
from iqhall.algebra import iquiver_algebra, path_algebra
from iqhall.errors import NonTerminatingRewrite
from iqhall.quivers import diagonal_iquiver, make_iquiver


def count_paths(alg):
    return sum(1 for b in alg.basis if b.eps is None)


def test_split_a2_dimension_and_basis(a2_split):
    alg = iquiver_algebra(a2_split)
    labels = {b.label() for b in alg.basis}
    assert alg.dim == 6
    assert labels == {"e_1", "e_2", "a", "eps_1", "eps_2", "a*eps_1"}


def test_dim_is_twice_path_count(a2_split, a3_invol, a3_line, swap_pair, d4_split):
    for iq in (a2_split, a3_invol, a3_line, swap_pair, d4_split):
        alg = iquiver_algebra(iq)
        assert alg.dim == 2 * count_paths(alg)
        assert count_paths(alg) == len(path_algebra(iq).basis)


def test_a3_invol_dimension(a3_invol):
    # 1 -> 2 <- 3 has paths {e1, e2, e3, a, b}, so the fixed-point algebra
    # has dimension 10
    assert iquiver_algebra(a3_invol).dim == 10


def test_swap_pair_dimension(swap_pair):
    alg = iquiver_algebra(swap_pair)
    assert alg.dim == 4
    assert {b.label() for b in alg.basis} == {"e_1", "e_2", "eps_1", "eps_2"}


def test_associativity_exhaustive(a3_invol):
    alg = iquiver_algebra(a3_invol)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ij = alg.mult(i, j)
            for k in range(n):
                jk = alg.mult(j, k)
                left = None if ij is None else alg.mult(ij, k)
                right = None if jk is None else alg.mult(i, jk)
                assert left == right


def test_idempotents(a2_split):
    alg = iquiver_algebra(a2_split)
    for v in alg.vertices:
        e = alg.index[((), None, v)]
        assert alg.mult(e, e) == e
    e1, e2 = (alg.index[((), None, v)] for v in alg.vertices)
    assert alg.mult(e1, e2) is None


def test_eps_squares_to_zero(a2_split):
    alg = iquiver_algebra(a2_split)
    i = alg.index[((), "1", "1")]
    assert alg.mult(i, i) is None


def test_commutation_normal_form(a2_split):
    # applying eps_1 then a equals the basis element a*eps_1; applying a
    # then eps_2 must rewrite to the same normal form
    alg = iquiver_algebra(a2_split)
    a = alg.index[(("a",), None, "1")]
    eps1 = alg.index[((), "1", "1")]
    eps2 = alg.index[((), "2", "2")]
    first = alg.mult(a, eps1)
    second = alg.mult(eps2, a)
    assert first == second == alg.index[(("a",), "1", "1")]


def test_diagonal_algebra_structure(a2_split):
    diag = diagonal_iquiver(a2_split)
    alg = iquiver_algebra(diag)
    # paths of A2 + its copy: 3 + 3, doubled by the eps grading
    assert alg.dim == 12


def test_grading_degree_one_products_vanish(a3_invol):
    alg = iquiver_algebra(a3_invol)
    deg1 = [i for i, b in enumerate(alg.basis) if b.degree() == 1]
    for i in deg1:
        for j in deg1:
            assert alg.mult(i, j) is None


def test_degree_zero_closed(a3_invol):
    alg = iquiver_algebra(a3_invol)
    deg0 = [i for i, b in enumerate(alg.basis) if b.degree() == 0]
    for i in deg0:
        for j in deg0:
            out = alg.mult(i, j)
            assert out is None or alg.basis[out].degree() == 0


def test_path_cap(monkeypatch):
    long_line = make_iquiver([str(i) for i in range(12)],
                             [(f"a{i}", str(i), str(i + 1)) for i in range(11)])
    monkeypatch.setattr(algebra, "MAX_PATHS", 10)
    with pytest.raises(NonTerminatingRewrite):
        iquiver_algebra(long_line)
