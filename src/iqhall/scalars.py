"""Exact scalar arithmetic: Q[sqrt(q)] and Laurent polynomials in v.

The Hall-algebra scalars live in the quadratic ring Q[sqrt(q)] for a fixed
prime q (v = sqrt(q); even powers of v are rational, odd powers carry one
factor sqrt(q)).  Generic structure constants are Laurent polynomials in v
with rational coefficients, recovered from numeric evaluations at several
primes by interpolating even and odd parts separately.

No floating point anywhere; all coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import DivisionByZero, InconsistentSamples, MismatchedField, UnderdeterminedFit

Rational = Fraction


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


@dataclass(frozen=True)
class QSqrt:
    """An element a + b*sqrt(q) of Q[sqrt(q)], q a fixed prime."""

    a: Fraction
    b: Fraction
    q: int

    @staticmethod
    def of(x, q: int) -> "QSqrt":
        return QSqrt(_frac(x), Fraction(0), q)

    @staticmethod
    def zero(q: int) -> "QSqrt":
        return QSqrt(Fraction(0), Fraction(0), q)

    @staticmethod
    def one(q: int) -> "QSqrt":
        return QSqrt(Fraction(1), Fraction(0), q)

    @staticmethod
    def sqrt_q(q: int) -> "QSqrt":
        return QSqrt(Fraction(0), Fraction(1), q)

    @staticmethod
    def v_power(k: int, q: int) -> "QSqrt":
        """v^k with v = sqrt(q); exact for any integer k."""
        if k % 2 == 0:
            return QSqrt(Fraction(q) ** (k // 2), Fraction(0), q)
        return QSqrt(Fraction(0), Fraction(q) ** ((k - 1) // 2), q)

    def _check(self, other: "QSqrt"):
        if not isinstance(other, QSqrt):
            raise TypeError(f"expected QSqrt, got {other!r}")
        if self.q != other.q:
            raise MismatchedField(f"sqrt({self.q}) vs sqrt({other.q})")

    def __add__(self, other: "QSqrt") -> "QSqrt":
        self._check(other)
        return QSqrt(self.a + other.a, self.b + other.b, self.q)

    def __sub__(self, other: "QSqrt") -> "QSqrt":
        self._check(other)
        return QSqrt(self.a - other.a, self.b - other.b, self.q)

    def __neg__(self) -> "QSqrt":
        return QSqrt(-self.a, -self.b, self.q)

    def __mul__(self, other: "QSqrt") -> "QSqrt":
        self._check(other)
        return QSqrt(self.a * other.a + self.b * other.b * self.q,
                     self.a * other.b + self.b * other.a, self.q)

    def inverse(self) -> "QSqrt":
        # (a + b sqrt q)^-1 = (a - b sqrt q) / (a^2 - b^2 q); the norm only
        # vanishes at 0 because sqrt(q) is irrational for prime q.
        norm = self.a * self.a - self.b * self.b * self.q
        if norm == 0:
            raise DivisionByZero("inverse of zero in Q[sqrt q]")
        return QSqrt(self.a / norm, -self.b / norm, self.q)

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
        return self.a == 0 and self.b == 0

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt{self.q})"

    def to_json(self) -> dict:
        return {"a": rational_to_json(self.a), "b": rational_to_json(self.b), "q": self.q}

    @staticmethod
    def from_json(d: dict) -> "QSqrt":
        return QSqrt(Fraction(d["a"]), Fraction(d["b"]), int(d["q"]))


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
    def zero() -> "LaurentV":
        return LaurentV(())

    @staticmethod
    def one() -> "LaurentV":
        return LaurentV(((0, Fraction(1)),))

    @staticmethod
    def v_power(k: int, coeff=1) -> "LaurentV":
        return LaurentV.from_dict({k: _frac(coeff)})

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __add__(self, other: "LaurentV") -> "LaurentV":
        d = self.as_dict()
        for k, c in other.coeffs:
            d[k] = d.get(k, Fraction(0)) + c
        return LaurentV.from_dict(d)

    def __sub__(self, other: "LaurentV") -> "LaurentV":
        return self + (-other)

    def __neg__(self) -> "LaurentV":
        return LaurentV(tuple((k, -c) for k, c in self.coeffs))

    def __mul__(self, other: "LaurentV") -> "LaurentV":
        d: dict = {}
        for k1, c1 in self.coeffs:
            for k2, c2 in other.coeffs:
                k = k1 + k2
                d[k] = d.get(k, Fraction(0)) + c1 * c2
        return LaurentV.from_dict(d)

    def scale(self, c) -> "LaurentV":
        c = _frac(c)
        return LaurentV.from_dict({k: c * v for k, v in self.coeffs})

    def shift(self, k: int) -> "LaurentV":
        return LaurentV(tuple((e + k, c) for e, c in self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> tuple:
        return tuple(k for k, _ in self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*v^{k}" for k, c in self.coeffs)

    def to_json(self) -> dict:
        return {str(k): rational_to_json(c) for k, c in self.coeffs}

    @staticmethod
    def from_json(d: dict) -> "LaurentV":
        return LaurentV.from_dict({int(k): Fraction(v) for k, v in d.items()})


def laurent_eval(poly: LaurentV, q: int) -> QSqrt:
    """Evaluate at v = sqrt(q), exactly."""
    a = Fraction(0)
    b = Fraction(0)
    for k, c in poly.coeffs:
        if k % 2 == 0:
            a += c * Fraction(q) ** (k // 2)
        else:
            b += c * Fraction(q) ** ((k - 1) // 2)
    return QSqrt(a, b, q)


def qint_laurent(n: int) -> LaurentV:
    """Quantum integer [n] = (v^n - v^-n)/(v - v^-1) as a Laurent polynomial."""
    if n < 0:
        return -qint_laurent(-n)
    return LaurentV.from_dict({n - 1 - 2 * i: Fraction(1) for i in range(n)})


def qbinom_laurent(m: int, r: int) -> LaurentV:
    """Quantum binomial [m choose r], via the v-Pascal recursion."""
    if r < 0 or r > m:
        return LaurentV.zero()
    if r == 0 or r == m:
        return LaurentV.one()
    # [m,r] = v^r [m-1,r] + v^(r-m) [m-1,r-1]
    return (qbinom_laurent(m - 1, r) * LaurentV.v_power(r)) + \
        (qbinom_laurent(m - 1, r - 1) * LaurentV.v_power(r - m))


def qint(n: int, q: int) -> QSqrt:
    return laurent_eval(qint_laurent(n), q)


def qbinom(m: int, r: int, q: int) -> QSqrt:
    return laurent_eval(qbinom_laurent(m, r), q)


# -- interpolation across primes ----------------------------------------------


def _solve_rational(rows: list, rhs: list) -> Optional[list]:
    """Solve a square system over Q by Gaussian elimination; None if singular."""
    n = len(rows)
    aug = [list(map(_frac, row)) + [_frac(b)] for row, b in zip(rows, rhs)]
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


def _fit_parity(points: list, exponents_v: list, n_solve: Optional[int] = None) -> Optional[dict]:
    """Fit sum_k c_k q^((k - parity)/2) through (q, value) points.

    ``exponents_v`` are v-exponents of one parity; the fit is solved exactly
    on the first len(exponents_v) points (drawn from the first ``n_solve``
    points only) and verified on all the rest.  Returns {exponent: coeff}
    or None when inconsistent.
    """
    m = len(exponents_v)
    if m == 0:
        return {} if all(val == 0 for _, val in points) else None
    if n_solve is None:
        n_solve = len(points)
    if n_solve < m:
        return None
    parity = exponents_v[0] % 2
    qpows = [(k - parity) // 2 for k in exponents_v]
    rows = [[Fraction(qv) ** e for e in qpows] for qv, _ in points[:m]]
    rhs = [val for _, val in points[:m]]
    sol = _solve_rational(rows, rhs)
    if sol is None:
        return None
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
        underdetermined_only = True
        for window in _parity_windows(parity, max_degree, len(points)):
            if len(window) > len(points):
                continue
            underdetermined_only = False
            got = _fit_parity(points + checks, window, n_solve=len(points))
            if got is not None:
                fitted = got
                break
        if fitted is None:
            if underdetermined_only:
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
