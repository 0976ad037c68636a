import random

import pytest
from hypothesis import given, settings, strategies as st

import linalg_reference as ref
from enumerate_reference import iter_matrices
from iqhall.errors import AmbientMismatch, ShapeMismatch
from iqhall.linalg import (FpMatrix, Subspace, image_basis, iter_monic_vectors,
                           iter_subspaces, kernel_basis, rank, rref,
                           scalar_plus_nilpotent)


def M(p, rows):
    return FpMatrix.from_rows(p, rows)


def test_rref_proportional_rows():
    _, rk, piv = rref(M(5, [[2, 4], [1, 2]]))
    assert rk == 1 and piv == [0]


def test_rref_identity_and_repeat():
    assert rank(FpMatrix.identity(2, 3)) == 3
    assert rank(M(2, [[1, 1], [1, 1]])) == 1


def test_kernel_of_sum_form():
    ker = kernel_basis(M(2, [[1, 1]]))
    assert ker.dim == 1 and ker.contains_vector((1, 1))


def test_solve_identity():
    assert ref.solve(FpMatrix.identity(3, 2), (1, 0)) == (1, 0)
    assert ref.solve(M(3, [[1, 0], [0, 0]]), (0, 1)) is None


def test_image_of_zero_map():
    assert image_basis(FpMatrix.zeros(3, 2, 2)).dim == 0


def test_subspace_lattice_basics():
    line1 = Subspace.from_vectors(2, 2, [(1, 0)])
    line2 = Subspace.from_vectors(2, 2, [(0, 1)])
    assert line1.sum(line2).dim == 2
    assert line1.intersect(line1) == line1
    full = Subspace.full(3, 2)
    line_mod3 = Subspace.from_vectors(3, 2, [(1, 0)])
    assert full.quotient_dim(line_mod3) == 1


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace.full(2, 2).sum(Subspace.full(2, 3))


def test_iter_subspaces_counts():
    # Gaussian binomial [3 choose 1]_2 = 7 lines in F_2^3
    assert sum(1 for _ in iter_subspaces(2, 3, 1)) == 7
    assert sum(1 for _ in iter_subspaces(2, 3, 2)) == 7
    assert sum(1 for _ in iter_subspaces(3, 2, 1)) == 4


def test_iter_monic_vectors():
    lines = list(iter_monic_vectors(3, 2))
    assert len(lines) == 4
    assert all(next(x for x in v if x) == 1 for v in lines)


@st.composite
def small_matrix(draw, p):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    data = [[draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(rows)]
    return FpMatrix.from_rows(p, data, cols=cols)


@settings(max_examples=60, deadline=None)
@given(small_matrix(3))
def test_rank_transpose_and_nullity(m):
    assert rank(m) == rank(ref.transpose(m))
    assert kernel_basis(m).dim + rank(m) == m.cols
    R, rk, piv = rref(m)
    R2, rk2, piv2 = rref(R)
    assert (R2, rk2, piv2) == (R, rk, piv)


@st.composite
def subspace_pair(draw, p, n):
    def vecs():
        k = draw(st.integers(0, n))
        return [tuple(draw(st.integers(0, p - 1)) for _ in range(n)) for _ in range(k)]
    return (Subspace.from_vectors(p, n, vecs()), Subspace.from_vectors(p, n, vecs()))


@settings(max_examples=60, deadline=None)
@given(subspace_pair(2, 4))
def test_modular_lattice_dimension_formula(pair):
    a, b = pair
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim
    assert a.sum(b).contains(a) and a.contains(a.intersect(b))


def test_matrix_iteration_count():
    assert sum(1 for _ in iter_matrices(2, 2, 1)) == 4
    assert sum(1 for _ in iter_matrices(3, 0, 2)) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda p: subspace_pair(p, 5)))
def test_pivots_read_off_the_stored_rref(pair):
    for s in pair:
        assert s.pivots() == rref(s.basis)[2]


@st.composite
def product_pair(draw):
    # shapes 0-6, 0-row and 0-col included, at p in {2, 3, 5, 7}
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    entries = lambda rows, cols: [[draw(st.integers(0, p - 1)) for _ in range(cols)]
                                  for _ in range(rows)]
    return (FpMatrix.from_rows(p, entries(r, k), cols=k),
            FpMatrix.from_rows(p, entries(k, c), cols=c))


@settings(max_examples=300, deadline=None)
@given(product_pair())
def test_kernel_equals_the_reference_kernel(pair):
    a, b = pair
    assert a @ b == ref.matmul(a, b)
    for m in pair:
        assert rank(m) == ref.rank(m) == ref.rank(ref.transpose(m))
        assert rref(m) == ref.rref(m)
        assert image_basis(m) == Subspace.from_vectors(m.p, m.rows, ref.transpose(m).data)
        assert kernel_basis(m).dim == m.cols - ref.rank(m)


@st.composite
def subspace_and_vector(draw):
    # ambient dimension and spanning-set size 0-6, at p in {2, 3, 5, 7}
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    vec = lambda: tuple(draw(st.integers(-p, 2 * p)) for _ in range(n))
    sub = Subspace.from_vectors(p, n, [vec() for _ in range(k)])
    # half the time a vector of the subspace, else any vector
    inside = tuple(sum(draw(st.integers(0, p - 1)) * row[j] for row in sub.basis.data)
                   for j in range(n))
    return sub, inside if draw(st.booleans()) else vec()


@settings(max_examples=300, deadline=None)
@given(subspace_and_vector())
def test_reduce_splits_a_vector_into_rows_and_remainder(case):
    sub, vec = case
    p, rows = sub.p, sub.basis.data
    coeffs, rest = sub.reduce(vec)
    assert len(coeffs) == sub.dim and all(rest[c] == 0 for c in sub.pivots())
    assert all((x - r - sum(f * row[j] for f, row in zip(coeffs, rows))) % p == 0
               for j, (x, r) in enumerate(zip(vec, rest)))
    inside = ref.rank(FpMatrix.from_rows(p, rows + (vec,), cols=sub.ambient_dim)) == sub.dim
    assert sub.contains_vector(vec) == inside == (not any(rest))
    assert sub.coords(vec) == (coeffs if inside else None)
    with pytest.raises(AmbientMismatch):
        sub.reduce(vec + (0,))


def test_certificate_reads_the_scalar_off_the_power():
    # b = l + g N g^-1 with N strictly upper triangular and g unitriangular:
    # b^(p^k) has entry (0, 0) equal to l for any l, so the certificate holds;
    # with a diagonal entry of N raised by one, b has two eigenvalues and it
    # fails.  p^k runs over exponents with one bit and with several
    rng = random.Random(5)
    for p in (2, 3, 5, 7, 101):
        for n in range(1, 6):
            for _ in range(4):
                lam = FpMatrix.identity(p, n).scale(-rng.randrange(p))
                g = M(p, [[rng.randrange(p) if j < i else int(i == j) for j in range(n)]
                          for i in range(n)])
                cols = [ref.solve(g, tuple(int(i == j) for i in range(n))) for j in range(n)]
                g_inv = M(p, [[col[i] for col in cols] for i in range(n)])
                N = [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
                b = g @ M(p, N) @ g_inv - lam
                assert scalar_plus_nilpotent(p, [(b,)], n)
                assert ref.scalar_plus_nilpotent(p, [(b,)], n)
                if n > 1:
                    N[-1][-1] = 1
                    b = g @ M(p, N) @ g_inv - lam
                    assert not scalar_plus_nilpotent(p, [(b,)], n)
                    assert not ref.scalar_plus_nilpotent(p, [(b,)], n)


def test_zeros_and_identity_are_shared():
    assert FpMatrix.zeros(3, 2, 0) is FpMatrix.zeros(3, 2, 0)
    assert FpMatrix.identity(5, 3) is FpMatrix.identity(5, 3)
    assert FpMatrix.identity(5, 3) @ FpMatrix.zeros(5, 3, 2) == FpMatrix.zeros(5, 3, 2)


def test_a_vector_of_another_length_is_refused():
    with pytest.raises(ShapeMismatch):
        Subspace.from_vectors(3, 2, [(1, 0), (1,)])
