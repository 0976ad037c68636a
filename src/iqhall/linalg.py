"""Dense exact linear algebra over prime fields F_p.

Matrices are immutable tuples of tuples of ints reduced mod p, so they can
be dict keys and memo entries.  Everything is plain Python int
arithmetic: p may be any prime (tests use 2,3,5,7,11) and dimensions stay
desk-scale (<= ~40), so no numpy and no overflow concerns.

Row vectors are tuples.  A matrix of shape (r, c) maps column vectors of
length c to length r; composition of maps is ``second @ first``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import AmbientMismatch, InputError, ShapeMismatch


@dataclass(frozen=True)
class FpMatrix:
    p: int
    rows: int
    cols: int
    data: tuple  # tuple of row tuples, entries already reduced mod p

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ShapeMismatch("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise ShapeMismatch("column count mismatch")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(p: int, rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "FpMatrix":
        data = tuple(tuple(x % p for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ShapeMismatch("empty matrix needs explicit column count")
            cols = len(data[0])
        return FpMatrix(p, len(data), cols, data)

    # both are immutable, so one instance per shape serves every caller
    @staticmethod
    @functools.lru_cache(maxsize=None)
    def zeros(p: int, rows: int, cols: int) -> "FpMatrix":
        return FpMatrix(p, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def identity(p: int, n: int) -> "FpMatrix":
        return FpMatrix(p, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    # -- arithmetic ----------------------------------------------------------

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_shape(other)
        return _raw(self.p, self.rows, self.cols,
                    tuple(tuple((a - b) % self.p for a, b in zip(r1, r2))
                          for r1, r2 in zip(self.data, other.data)))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.p
        ot = tuple(zip(*other.data)) if other.rows else ((),) * other.cols
        data = tuple(tuple(sum(a * b for a, b in zip(row, col)) % p for col in ot)
                     for row in self.data)
        return _raw(p, self.rows, other.cols, data)

    def scale(self, c: int) -> "FpMatrix":
        c %= self.p
        return _raw(self.p, self.rows, self.cols,
                    tuple(tuple((c * a) % self.p for a in r) for r in self.data))

    def apply(self, vec: tuple) -> tuple:
        """Matrix times column vector (given and returned as a tuple)."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        p = self.p
        return tuple(sum(a * x for a, x in zip(row, vec)) % p for row in self.data)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in r) for r in self.data)

    def _same_shape(self, other: "FpMatrix"):
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("shape or modulus mismatch")


def _raw(p: int, rows: int, cols: int, data: tuple) -> FpMatrix:
    """An FpMatrix of data already of this shape, unchecked by ``__post_init__``."""
    m = object.__new__(FpMatrix)
    m.__dict__.update(p=p, rows=rows, cols=cols, data=data)
    return m


def all_zero(blocks: Iterable[Sequence[tuple]]) -> bool:
    """Whether every entry of every block, a sequence of reduced row tuples, is 0."""
    return not any(map(any, itertools.chain.from_iterable(blocks)))


def hstack(mats: list) -> FpMatrix:
    """Concatenate matrices side by side (same row count)."""
    if not mats:
        raise ShapeMismatch("hstack of nothing")
    p, rows = mats[0].p, mats[0].rows
    for m in mats:
        if m.p != p or m.rows != rows:
            raise ShapeMismatch("hstack shape mismatch")
    data = tuple(tuple(itertools.chain.from_iterable(m.data[i] for m in mats)) for i in range(rows))
    return _raw(p, rows, sum(m.cols for m in mats), data)


def vstack(mats: list) -> FpMatrix:
    """Stack matrices on top of each other (same column count)."""
    if not mats:
        raise ShapeMismatch("vstack of nothing")
    p, cols = mats[0].p, mats[0].cols
    for m in mats:
        if m.p != p or m.cols != cols:
            raise ShapeMismatch("vstack shape mismatch")
    return _raw(p, sum(m.rows for m in mats), cols,
                tuple(itertools.chain.from_iterable(m.data for m in mats)))


# -- Gaussian elimination ----------------------------------------------------

def _echelon(m: FpMatrix, reduced: bool):
    """Row-reduce m; returns (rows, pivot_cols).  Pivots are the first nonzero
    entry scanning columns left to right.  Below the pivots every row is zero
    left of column c, so a step touches columns >= c only; the rows above a
    pivot are cleared too only when ``reduced``."""
    p = m.p
    rows = [list(r) for r in m.data]
    pivot_cols = []
    for c in range(m.cols):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        tail = rows[r][c:] = [(x * inv) % p for x in rows[r][c:]]
        for i in range(0 if reduced else r + 1, m.rows):
            f = rows[i][c]
            if f and i != r:
                rows[i][c:] = [(a - f * b) % p for a, b in zip(rows[i][c:], tail)]
        pivot_cols.append(c)
        if r + 1 == m.rows:
            break
    return rows, pivot_cols


def rref(m: FpMatrix):
    """Reduced row echelon form: (R, rank, pivot_cols)."""
    rows, pivot_cols = _echelon(m, True)
    return _raw(m.p, m.rows, m.cols, tuple(map(tuple, rows))), len(pivot_cols), pivot_cols


def rank(m: FpMatrix) -> int:
    """The rank by forward elimination alone, building no matrix."""
    if not m.rows or not m.cols:
        return 0
    if m.rows == 1:
        return int(any(m.data[0]))
    return len(_echelon(m, False)[1])


def kernel_basis(m: FpMatrix) -> "Subspace":
    """Right kernel {x : m x = 0} as a subspace of F_p^cols."""
    if not m.rows:
        return Subspace.full(m.p, m.cols)
    return Subspace.from_vectors(m.p, m.cols, kernel_vectors(m))


def kernel_vectors(m: FpMatrix) -> List[tuple]:
    """A basis of the right kernel: one vector per non-pivot column f of the
    RREF, 1 at f, 0 at the other non-pivot columns."""
    R, rk, pivots = rref(m)
    basis = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        vec = [0] * m.cols
        vec[f] = 1
        for row, c in zip(R.data, pivots):
            vec[c] = -row[f] % m.p
        basis.append(tuple(vec))
    return basis


def image_basis(m: FpMatrix) -> "Subspace":
    """Column space of m as a subspace of F_p^rows."""
    return Subspace.from_vectors(m.p, m.rows, zip(*m.data))


def echelon_basis(p: int, vectors: Sequence[tuple]) -> Tuple[tuple, list]:
    """The RREF basis rows of the span of ``vectors``, whose entries are
    already reduced, and their pivot columns."""
    if not vectors:
        return (), []
    rows, pivots = _echelon(_raw(p, len(vectors), len(vectors[0]), tuple(vectors)), True)
    return tuple(map(tuple, rows[:len(pivots)])), pivots


def reduce_vector(p: int, rows: Sequence[tuple], pivots: Sequence[int], vec) -> Tuple[tuple, tuple]:
    """(coefficients on RREF rows with these pivot columns, remainder): vec
    minus their combination, zero at each pivot; 0 iff vec is in their span."""
    v = [x % p for x in vec]
    coeffs = []
    for c, row in zip(pivots, rows):
        f = v[c]
        coeffs.append(f)
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(coeffs), tuple(v)


def coords_in(p: int, basis: tuple, vec: Sequence[int]) -> tuple:
    """The coefficients of vec on ``basis``, (RREF rows, pivot columns)."""
    coords, rest = reduce_vector(p, *basis, vec)
    if any(rest):
        raise InputError("vector escapes the subspace; closure broken")
    return coords


def subquotient(p: int, upper: Sequence[tuple], lower: Sequence[tuple]) -> tuple:
    """U / W for the spans U of ``upper`` and W <= U of ``lower``: U as
    (RREF rows, pivot columns), W so in the coordinates of U's rows, and the
    non-pivot columns of W, whose unit vectors are the basis of U / W."""
    U = echelon_basis(p, upper)
    W = echelon_basis(p, [coords_in(p, U, x) for x in lower])
    return U, W, [c for c in range(len(U[0])) if c not in W[1]]


def induced_map(p: int, rows: Sequence[tuple], source: tuple, target: tuple) -> tuple:
    """The rows of the map of subquotients that the matrix ``rows`` induces:
    each basis vector of ``source`` lifts to its row of U, maps along
    ``rows``, and is read in ``target`` as its remainder reduced by W."""
    (U, _), _, frees = source
    V, W, classes = target
    cols = []
    for j in frees:
        rest = reduce_vector(p, *W, coords_in(p, V, [sum(a * x for a, x in zip(row, U[j]))
                                                     for row in rows]))[1]
        cols.append([rest[c] for c in classes])
    return tuple(zip(*cols)) if cols else ((),) * len(classes)


# -- subspaces ---------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n, stored as an RREF row basis (possibly 0 rows)."""

    p: int
    ambient_dim: int
    basis: FpMatrix  # rank x ambient_dim, in RREF with pivot normalization

    @staticmethod
    def from_vectors(p: int, ambient_dim: int, vectors: Iterable[tuple]) -> "Subspace":
        # from_rows reduces the entries; the shape check refuses a wrong length
        rows, _ = echelon_basis(p, FpMatrix.from_rows(p, vectors, cols=ambient_dim).data)
        return Subspace(p, ambient_dim, _raw(p, len(rows), ambient_dim, rows))

    @staticmethod
    def zero(p: int, ambient_dim: int) -> "Subspace":
        return Subspace(p, ambient_dim, FpMatrix.zeros(p, 0, ambient_dim))

    @staticmethod
    def full(p: int, ambient_dim: int) -> "Subspace":
        return Subspace(p, ambient_dim, FpMatrix.identity(p, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> list:
        # the basis is in RREF, so each row's first nonzero entry is its pivot
        return [next(c for c, x in enumerate(row) if x) for row in self.basis.data]

    def subquotient(self) -> tuple:
        """This subspace as the subquotient U / 0 (see ``subquotient``)."""
        return (self.basis.data, self.pivots()), ((), []), range(self.dim)

    def complement(self) -> "Subspace":
        """The span of the unit vectors at the non-pivot columns: it holds
        every remainder of ``reduce``, and its coordinates read F_p^n / self."""
        n, pivots = self.ambient_dim, set(self.pivots())
        return Subspace(self.p, n, FpMatrix.from_rows(
            self.p, [[int(k == c) for k in range(n)] for c in range(n) if c not in pivots], cols=n))

    def reduce(self, vec: tuple) -> Tuple[tuple, tuple]:
        """``reduce_vector`` on the RREF basis rows."""
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector not in ambient space")
        return reduce_vector(self.p, self.basis.data, self.pivots(), vec)

    def contains_vector(self, vec: tuple) -> bool:
        return not any(self.reduce(vec)[1])

    def coords(self, vec: tuple) -> Optional[tuple]:
        """Coefficients of vec on the RREF basis rows, or None if outside."""
        coeffs, rest = self.reduce(vec)
        return None if any(rest) else coeffs

    def _check_ambient(self, other: "Subspace"):
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.p, self.ambient_dim,
                                     list(self.basis.data) + list(other.basis.data))

    def perp(self) -> "Subspace":
        """Orthogonal complement w.r.t. the standard dot product."""
        return kernel_basis(self.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        # (V cap W) = (V^perp + W^perp)^perp; the standard form is
        # nondegenerate on F_p^n so double-perp is the identity.
        self._check_ambient(other)
        return self.perp().sum(other.perp()).perp()

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.basis.data)

    def quotient_dim(self, other: "Subspace") -> int:
        """dim(self / other); requires other <= self."""
        if not self.contains(other):
            raise AmbientMismatch("quotient by a non-subspace")
        return self.dim - other.dim


# -- tuples of matrices ---------------------------------------------------------

def blocks(p: int, vec: Sequence[int], shapes) -> Tuple[FpMatrix, ...]:
    """Cut a flat vector into row-major matrices of the given (rows, cols)."""
    mats, off = [], 0
    for n, m in shapes:
        mats.append(_raw(p, n, m, tuple(tuple(vec[off + r * m:off + (r + 1) * m])
                                        for r in range(n))))
        off += n * m
    return tuple(mats)


def combination(p: int, coeffs: Sequence[int], vectors: Sequence[Sequence[int]],
                width: int) -> Tuple[int, ...]:
    """sum_i coeffs[i] vectors[i] mod p, adding only the nonzero terms."""
    out = [0] * width
    for c, vec in zip(coeffs, vectors):
        if c:
            out = [x + c * y for x, y in zip(out, vec)]
    return tuple([x % p for x in out])


def span_basis(p: int, elems: Sequence[Tuple[FpMatrix, ...]]) -> List[Tuple[FpMatrix, ...]]:
    """A basis of the span of tuples of matrices of one shape."""
    if not elems:
        return []
    flat = [tuple(x for m in elem for row in m.data for x in row) for elem in elems]
    span = Subspace.from_vectors(p, len(flat[0]), flat)
    return [blocks(p, vec, [(m.rows, m.cols) for m in elems[0]]) for vec in span.basis.data]


def scalar_plus_nilpotent(p: int, basis: Sequence[Tuple[FpMatrix, ...]], steps: int) -> bool:
    """Whether each element of the span of ``basis``, an algebra with 1 of
    tuples of square matrices (empty ones left out), is a scalar plus a
    nilpotent, so that it is local with residue field F_p.  Over F_p,
    (l + n)^(p^k) = l for n nilpotent of size <= p^k: entry (0, 0) of b^(p^k)
    in the first block is the only candidate l for a basis element b.  Then
    S = span{b - l 1} must be nilpotent: S^(j+1) = span{x y : x in S^j, y in S}
    reaches 0 within ``steps`` >= the total size.  False proves nothing."""
    shifted = []
    for elem in basis:
        mats = [m for m in elem if m.rows]
        pk = p
        while pk < mats[0].rows:
            pk *= p
        # b^(p^k) by left-to-right square-and-multiply
        power = mats[0]
        for bit in bin(pk)[3:]:
            power = power @ power
            if bit == "1":
                power = power @ mats[0]
        shifted.append(tuple(m - FpMatrix.identity(p, m.rows).scale(power.data[0][0])
                             for m in mats))
    gens = power_j = span_basis(p, shifted)
    for _ in range(steps):
        if not power_j:
            return True
        power_j = span_basis(p, [tuple(x @ y for x, y in zip(a, b)) for a in power_j for b in gens])
    return not power_j


# -- enumeration helpers ------------------------------------------------------

def line_count(p: int, n: int) -> int:
    """The number (p^n - 1) / (p - 1) of lines of F_p^n."""
    return (p ** n - 1) // (p - 1)


def rank_count(p: int, rows: int, cols: int, r: int) -> int:
    """The number of rows x cols matrices of rank r over F_p:
    prod_{i<r} (p^rows - p^i)(p^cols - p^i) / (p^r - p^i)."""
    return (math.prod((p ** rows - p ** i) * (p ** cols - p ** i) for i in range(r))
            // math.prod(p ** r - p ** i for i in range(r)))


def iter_monic_vectors(p: int, n: int) -> Iterator[tuple]:
    """One representative per line: first nonzero coordinate equals 1.  The
    leading 1 moves left, the order in which itertools.product meets the
    first member of each line."""
    for lead in range(n - 1, -1, -1):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def line_walk(p: int, n: int):
    """The split class and the lines of F_p^n: how many, and each as (vector,
    weight), zero with weight 1, then each monic vector with weight p - 1."""
    lines = ((c, p - 1) for c in iter_monic_vectors(p, n))
    return 1 + line_count(p, n), itertools.chain([((0,) * n, 1)], lines)


def iter_subspaces(p: int, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F_p^n, via their unique RREF bases."""
    if k == 0:
        yield Subspace.zero(p, n)
        return
    for pivots in itertools.combinations(range(n), k):
        free_slots = []
        for i, c in enumerate(pivots):
            for j in range(c + 1, n):
                if j not in pivots:
                    free_slots.append((i, j))
        for values in itertools.product(range(p), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free_slots, values):
                rows[i][j] = v
            yield Subspace(p, n, FpMatrix.from_rows(p, rows, cols=n))
