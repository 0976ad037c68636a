"""The Fraction-pair Q[sqrt(q)] scalar, kept as an oracle for ``iqhall.scalars.QSqrt``.

An element a + b*sqrt(q) stores a and b as ``fractions.Fraction``; every
operation is the schoolbook formula on those two parts.  Slow, but short
enough to trust: the integer representation in the package must give the
same ``to_json`` for every operation and raise the same errors.
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
