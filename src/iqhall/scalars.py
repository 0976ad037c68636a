"""Exact scalar arithmetic: Q[sqrt(q)] and Laurent polynomials in v.

The Hall-algebra scalars live in the quadratic ring Q[sqrt(q)] for a fixed
prime q (v = sqrt(q); even powers of v are rational, odd powers carry one
factor sqrt(q)).  Generic structure constants are Laurent polynomials in v
with rational coefficients, recovered from numeric evaluations at several
primes by interpolating even and odd parts separately.

No floating point anywhere: a QSqrt is three integers over one common
denominator, in lowest terms, and Laurent coefficients and the fits are
``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, Optional

from .errors import DivisionByZero, InconsistentSamples, MismatchedField, UnderdeterminedFit

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rational_to_json(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class QSqrt:
    """An element a + b*sqrt(q) of Q[sqrt(q)], q a fixed prime.

    Stored as integers (an + bn*sqrt(q)) / d with d > 0 and
    gcd(an, bn, d) = 1, so equal values have equal fields; ``a`` and ``b``
    read the parts as Fractions.  No attribute can be set.
    """

    __slots__ = ("an", "bn", "d", "q")

    def __new__(cls, a, b, q: int):
        a, b = _frac(a), _frac(b)
        return _reduced(a.numerator * b.denominator, b.numerator * a.denominator,
                        a.denominator * b.denominator, q)

    def __setattr__(self, name, *value):
        raise AttributeError(f"QSqrt is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def a(self) -> Fraction:
        return Fraction(self.an, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.bn, self.d)

    def _key(self):
        return self.an, self.bn, self.d, self.q

    def __eq__(self, other):
        return other.__class__ is QSqrt and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def of(x, q: int) -> "QSqrt":
        return _raw(x, 0, 1, q) if isinstance(x, int) else QSqrt(x, 0, q)

    @staticmethod
    def zero(q: int) -> "QSqrt":
        return _raw(0, 0, 1, q)

    @staticmethod
    def one(q: int) -> "QSqrt":
        return _raw(1, 0, 1, q)

    @staticmethod
    def v_power(k: int, q: int) -> "QSqrt":
        """v^k with v = sqrt(q); exact for any integer k."""
        h, odd = divmod(k, 2)   # v^k = q^h * sqrt(q)^odd
        n, d = (q ** h, 1) if h >= 0 else (1, q ** -h)
        return _raw(0, n, d, q) if odd else _raw(n, 0, d, q)

    def _check(self, other: "QSqrt"):
        if not isinstance(other, QSqrt):
            raise TypeError(f"expected QSqrt, got {other!r}")
        if self.q != other.q:
            raise MismatchedField(f"sqrt({self.q}) vs sqrt({other.q})")

    def __add__(self, other: "QSqrt") -> "QSqrt":
        self._check(other)
        d1, d2 = self.d, other.d
        return _reduced(self.an * d2 + other.an * d1, self.bn * d2 + other.bn * d1,
                        d1 * d2, self.q)

    def __sub__(self, other: "QSqrt") -> "QSqrt":
        self._check(other)
        return self + -other

    def __neg__(self) -> "QSqrt":
        return _raw(-self.an, -self.bn, self.d, self.q)

    def __mul__(self, other: "QSqrt") -> "QSqrt":
        self._check(other)
        a1, b1, a2, b2, q = self.an, self.bn, other.an, other.bn, self.q
        return _reduced(a1 * a2 + b1 * b2 * q, a1 * b2 + b1 * a2, self.d * other.d, q)

    def inverse(self) -> "QSqrt":
        # ((a + b sqrt q)/d)^-1 = d (a - b sqrt q) / (a^2 - b^2 q); the norm
        # only vanishes at 0 because sqrt(q) is irrational for prime q.
        a, b, q = self.an, self.bn, self.q
        norm = a * a - b * b * q
        if norm == 0:
            raise DivisionByZero("inverse of zero in Q[sqrt q]")
        d = self.d if norm > 0 else -self.d
        return _reduced(d * a, -d * b, abs(norm), q)

    def __truediv__(self, other: "QSqrt") -> "QSqrt":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "QSqrt":
        if n < 0:
            return self.inverse() ** (-n)
        result = QSqrt.one(self.q)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.an == 0 and self.bn == 0

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt{self.q})"

    def to_json(self) -> dict:
        return {"a": rational_to_json(self.a), "b": rational_to_json(self.b), "q": self.q}

    @staticmethod
    def from_json(d: dict, q: int) -> "QSqrt":
        """Decode ``to_json`` into the field of sqrt(q)."""
        if int(d["q"]) != q:
            raise MismatchedField(f"sqrt({d['q']}) vs sqrt({q})")
        (an, ad), (bn, bd) = _rational_from_json(d["a"]), _rational_from_json(d["b"])
        return _reduced(an * bd, bn * ad, ad * bd, q)


def _raw(an: int, bn: int, d: int, q: int) -> QSqrt:
    """The QSqrt with these fields, which must already be in lowest terms."""
    x = object.__new__(QSqrt)
    object.__setattr__(x, "an", an)
    object.__setattr__(x, "bn", bn)
    object.__setattr__(x, "d", d)
    object.__setattr__(x, "q", q)
    return x


def _reduced(an: int, bn: int, d: int, q: int) -> QSqrt:
    """(an + bn*sqrt(q)) / d for d > 0, in lowest terms."""
    g = gcd(an, bn, d)
    return _raw(an // g, bn // g, d // g, q)


def _rational_from_json(text: str):
    """(n, d) of "n/d" with d > 0 and gcd(n, d) = 1; anything else is a ValueError."""
    n, d = map(int, text.split("/"))
    if d <= 0 or gcd(n, d) != 1:
        raise ValueError(f"not a rational in lowest terms: {text!r}")
    return n, d


@dataclass(frozen=True)
class LaurentV:
    """A Laurent polynomial sum c_k v^k, finitely supported, no stored zeros.

    Evaluation at v = sqrt(q) lands in QSqrt: even exponents feed the
    rational part, odd exponents the sqrt(q) part.
    """

    coeffs: tuple  # sorted tuple of (exponent, Fraction), zero coeffs dropped

    @staticmethod
    def from_dict(d: Mapping[int, Fraction]) -> "LaurentV":
        items = tuple(sorted((int(k), _frac(v)) for k, v in d.items() if _frac(v) != 0))
        return LaurentV(items)

    @staticmethod
    def v_power(k: int, coeff=1) -> "LaurentV":
        return LaurentV.from_dict({k: _frac(coeff)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*v^{k}" for k, c in self.coeffs)

    def to_json(self) -> dict:
        return {str(k): rational_to_json(c) for k, c in self.coeffs}


def laurent_eval(poly: LaurentV, q: int) -> QSqrt:
    """Evaluate at v = sqrt(q), exactly."""
    return sum((QSqrt.v_power(k, q) * QSqrt.of(c, q) for k, c in poly.coeffs), QSqrt.zero(q))


def qint(n: int, q: int) -> QSqrt:
    """Quantum integer [n] = (v^n - v^-n)/(v - v^-1) = sum_i v^(n-1-2i) at
    v = sqrt(q), and [-n] = -[n]."""
    m = abs(n)
    value = sum((QSqrt.v_power(m - 1 - 2 * i, q) for i in range(m)), QSqrt.zero(q))
    return value if n >= 0 else -value


# -- interpolation across primes ----------------------------------------------


def gauss_jordan(rows: list, is_zero: Callable) -> Optional[list]:
    """[I | X] from n rows of at least n entries of an exact field, [A | B]
    with A square, by Gauss-Jordan elimination pivoting on the first nonzero
    entry of each column; None when A is singular."""
    n = len(rows)
    mat = [list(row) for row in rows]
    for col in range(n):
        pivot = next((i for i in range(col, n) if not is_zero(mat[i][col])), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for i in range(n):
            if i != col and not is_zero(mat[i][col]):
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return mat


def _fit_parity(points: list, exponents_v: list) -> Optional[dict]:
    """Fit sum_k c_k q^((k - parity)/2) through (q, value) points.

    ``exponents_v`` are 1 to len(points) v-exponents of one parity; the fit
    is solved exactly on the first len(exponents_v) points and verified on
    all the rest.  Returns {exponent: coeff} or None when inconsistent.
    """
    m = len(exponents_v)
    parity = exponents_v[0] % 2
    qpows = [(k - parity) // 2 for k in exponents_v]
    reduced = gauss_jordan([[Fraction(qv) ** e for e in qpows] + [val] for qv, val in points[:m]],
                           lambda x: x == 0)
    if reduced is None:
        return None
    sol = [row[m] for row in reduced]
    for qv, val in points[m:]:
        if sum(c * Fraction(qv) ** e for c, e in zip(sol, qpows)) != val:
            return None
    return {k: c for k, c in zip(exponents_v, sol) if c != 0}


def _parity_windows(parity: int, bound: int, max_size: int):
    """Candidate exponent windows of one parity inside [-bound, bound].

    Ordered by (size, max |exponent|, leftmost), so low-degree supports are
    preferred and the search is deterministic.
    """
    exps = [k for k in range(-bound, bound + 1) if k % 2 == parity % 2]
    windows = []
    for size in range(1, min(max_size, len(exps)) + 1):
        for start in range(len(exps) - size + 1):
            win = exps[start:start + size]
            windows.append(win)
    windows.sort(key=lambda w: (len(w), max(abs(w[0]), abs(w[-1])), w[0]))
    return windows


def _dedup_samples(samples: Iterable) -> dict:
    seen: dict = {}
    for q, val in samples:
        if q in seen and seen[q] != val:
            raise InconsistentSamples(f"two different values supplied for q={q}")
        seen[q] = val
    return seen


def laurent_fit(samples: Iterable, max_degree: int, holdout: Iterable = ()) -> LaurentV:
    """Recover the Laurent polynomial through samples (prime q, QSqrt value).

    Even (rational) and odd (sqrt-multiple) parts are interpolated
    separately as Laurent polynomials in q, with support searched inside
    [-max_degree, max_degree] from small windows upward.  Each candidate
    is solved exactly on a minimal subset of ``samples`` and must verify on
    every remaining sample and on every ``holdout`` sample (held-out primes
    never enter the linear solve).
    """
    seen = _dedup_samples(samples)
    extra = _dedup_samples(holdout)
    primes = sorted(seen)
    if not primes:
        raise UnderdeterminedFit("no samples")
    result: dict = {}
    for parity, part in ((0, "a"), (1, "b")):
        points = [(q, getattr(seen[q], part)) for q in primes]
        checks = [(q, getattr(extra[q], part)) for q in sorted(extra) if q not in seen]
        if all(val == 0 for _, val in points):
            if any(val != 0 for _, val in checks):
                raise InconsistentSamples(
                    f"parity-{parity} part vanishes on the fit primes but not on a holdout prime")
            continue
        fitted = None
        windows = _parity_windows(parity, max_degree, len(points))
        for window in windows:
            fitted = _fit_parity(points + checks, window)
            if fitted is not None:
                break
        if fitted is None:
            if not windows:
                raise UnderdeterminedFit(
                    f"{len(points)} primes cannot determine a parity-{parity} part "
                    f"within degree bound {max_degree}")
            raise InconsistentSamples(
                f"no Laurent polynomial with support in [-{max_degree}, {max_degree}] "
                f"matches the parity-{parity} samples exactly")
        result.update(fitted)
    return LaurentV.from_dict(result)


def laurent_fit_escalating(samples: Iterable, max_degree: int, degree_cap: int,
                           holdout: Iterable = ()) -> LaurentV:
    """laurent_fit, retrying with bound+2 on inconsistency up to degree_cap."""
    samples = list(samples)
    holdout = list(holdout)
    bound = max_degree
    last_err: Exception = UnderdeterminedFit("empty escalation range")
    while bound <= degree_cap:
        try:
            return laurent_fit(samples, bound, holdout=holdout)
        except (InconsistentSamples, UnderdeterminedFit) as err:
            last_err = err
            bound += 2
    raise last_err
