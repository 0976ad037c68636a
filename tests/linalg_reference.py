"""The F_p kernel as it was before each operation got its own short path,
kept as a test oracle: ``rank`` read off a full RREF, ``matmul`` through a
transposed matrix, and ``rref`` re-reducing every entry of every row at
each step.  ``solve`` is here too, as only tests solve linear systems, and
so is the local-End certificate forming b^(p^k) by p^k - 1 products."""

from typing import Optional

from iqhall import linalg
from iqhall.errors import ShapeMismatch
from iqhall.linalg import FpMatrix


def transpose(m):
    return FpMatrix(m.p, m.cols, m.rows,
                    tuple(tuple(m.data[i][j] for i in range(m.rows)) for j in range(m.cols)))


def matmul(a, b):
    p = a.p
    cols = transpose(b).data
    return FpMatrix(p, a.rows, b.cols,
                    tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
                          for row in a.data))


def rref(m):
    """(R, rank, pivot_cols), pivots the first nonzero entry scanning
    columns left to right."""
    p = m.p
    rows = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return FpMatrix(p, nrows, ncols, tuple(tuple(row) for row in rows)), r, pivot_cols


def rank(m):
    return rref(m)[1]


def solve(m, rhs) -> Optional[tuple]:
    """One solution x of m x = rhs, or None if inconsistent."""
    if len(rhs) != m.rows:
        raise ShapeMismatch("rhs length mismatch")
    R, _, pivots = linalg.rref(linalg.hstack([m, FpMatrix.from_rows(m.p, [[x] for x in rhs],
                                                                     cols=1)]))
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for i, c in enumerate(pivots):
        x[c] = R.data[i][m.cols]
    return tuple(x)


def scalar_plus_nilpotent(p, basis, steps):
    """``linalg.scalar_plus_nilpotent`` with b^(p^k) as p^k - 1 products."""
    shifted = []
    for elem in basis:
        mats = [m for m in elem if m.rows]
        pk = p
        while pk < mats[0].rows:
            pk *= p
        power = mats[0]
        for _ in range(pk - 1):
            power = power @ mats[0]
        shifted.append(tuple(m - FpMatrix.identity(p, m.rows).scale(power.data[0][0])
                             for m in mats))
    gens = power_j = linalg.span_basis(p, shifted)
    for _ in range(steps):
        if not power_j:
            return True
        power_j = linalg.span_basis(p, [tuple(x @ y for x, y in zip(a, b))
                                        for a in power_j for b in gens])
    return not power_j
