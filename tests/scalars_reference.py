"""The Fraction-pair Q[sqrt(q)] scalar, kept as an oracle for ``iqhall.scalars.QSqrt``,
and the two eliminations that ``iqhall.scalars.gauss_jordan`` replaced.

An element a + b*sqrt(q) stores a and b as ``fractions.Fraction``; every
operation is the schoolbook formula on those two parts.  Slow, but short
enough to trust: the integer representation in the package must give the
same ``to_json`` for every operation and raise the same errors.  The square
solver over Q and the invertibility test over Q(sqrt q) must agree with
``gauss_jordan`` on every small matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from iqhall.errors import DivisionByZero, MismatchedField
from iqhall.scalars import rational_to_json


@dataclass(frozen=True)
class RefQSqrt:
    a: Fraction
    b: Fraction
    q: int

    @staticmethod
    def one(q: int) -> "RefQSqrt":
        return RefQSqrt(Fraction(1), Fraction(0), q)

    @staticmethod
    def v_power(k: int, q: int) -> "RefQSqrt":
        if k % 2 == 0:
            return RefQSqrt(Fraction(q) ** (k // 2), Fraction(0), q)
        return RefQSqrt(Fraction(0), Fraction(q) ** ((k - 1) // 2), q)

    def _check(self, other: "RefQSqrt"):
        if not isinstance(other, RefQSqrt):
            raise TypeError(f"expected RefQSqrt, got {other!r}")
        if self.q != other.q:
            raise MismatchedField(f"sqrt({self.q}) vs sqrt({other.q})")

    def __add__(self, other: "RefQSqrt") -> "RefQSqrt":
        self._check(other)
        return RefQSqrt(self.a + other.a, self.b + other.b, self.q)

    def __sub__(self, other: "RefQSqrt") -> "RefQSqrt":
        self._check(other)
        return RefQSqrt(self.a - other.a, self.b - other.b, self.q)

    def __neg__(self) -> "RefQSqrt":
        return RefQSqrt(-self.a, -self.b, self.q)

    def __mul__(self, other: "RefQSqrt") -> "RefQSqrt":
        self._check(other)
        return RefQSqrt(self.a * other.a + self.b * other.b * self.q,
                        self.a * other.b + self.b * other.a, self.q)

    def inverse(self) -> "RefQSqrt":
        norm = self.a * self.a - self.b * self.b * self.q
        if norm == 0:
            raise DivisionByZero("inverse of zero in Q[sqrt q]")
        return RefQSqrt(self.a / norm, -self.b / norm, self.q)

    def __truediv__(self, other: "RefQSqrt") -> "RefQSqrt":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "RefQSqrt":
        if n < 0:
            return self.inverse() ** (-n)
        result = RefQSqrt.one(self.q)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt{self.q})"

    def to_json(self) -> dict:
        return {"a": rational_to_json(self.a), "b": rational_to_json(self.b), "q": self.q}


# -- the two Gaussian eliminations that ``iqhall.scalars.gauss_jordan`` replaced


def solve_rational(rows: list, rhs: list):
    """Solve a square system over Q by Gaussian elimination; None if singular."""
    n = len(rows)
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def qsqrt_matrix_invertible(rows) -> bool:
    """Exact Gaussian elimination over the field Q(sqrt q)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    mat = [list(r) for r in rows]
    for col in range(n):
        pivot = next((i for i in range(col, n) if not mat[i][col].is_zero()), None)
        if pivot is None:
            return False
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col].inverse()
        mat[col] = [x * inv for x in mat[col]]
        for i in range(n):
            if i != col and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return True
