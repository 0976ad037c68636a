import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from iqhall.errors import DivisionByZero, InconsistentSamples, MismatchedField, UnderdeterminedFit
from iqhall.dynkin import qsqrt_matrix_invertible
from iqhall.scalars import (LaurentV, QSqrt, gauss_jordan, laurent_eval, laurent_fit,
                            laurent_fit_escalating, qint)
import scalars_reference
from scalars_reference import RefQSqrt

PRIMES = [2, 3, 5, 7, 11]


def test_sqrt_squares_to_q():
    v = QSqrt(0, 1, 2)
    assert v * v == QSqrt.of(2, 2)


def test_inverse_of_one_plus_sqrt2():
    x = QSqrt(Fraction(1), Fraction(1), 2)
    assert x.inverse() == QSqrt(Fraction(-1), Fraction(1), 2)
    assert x * x.inverse() == QSqrt.one(2)


def test_paper_coefficient_at_q2():
    # -(q-1)^2 / v evaluated at q = 2 equals -(1/2) sqrt(2)
    poly = LaurentV.from_dict({3: -1, 1: 2, -1: -1})
    assert laurent_eval(poly, 2) == QSqrt(Fraction(0), Fraction(-1, 2), 2)
    assert laurent_eval(poly, 3) == QSqrt(Fraction(0), Fraction(-4, 3), 3)


def test_eval_simple_cases():
    assert laurent_eval(LaurentV.v_power(0), 3) == QSqrt.one(3)
    p = LaurentV.from_dict({1: 1, -1: 1})
    assert laurent_eval(p, 2) == QSqrt(Fraction(0), Fraction(3, 2), 2)


def test_mismatched_field():
    with pytest.raises(MismatchedField):
        QSqrt.one(2) + QSqrt.one(3)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QSqrt.one(2) / QSqrt.zero(2)


def test_fit_serre_coefficient():
    target = LaurentV.from_dict({3: -1, 1: 2, -1: -1})
    samples = [(q, laurent_eval(target, q)) for q in (2, 3, 5, 7)]
    assert laurent_fit(samples, 4) == target


def test_fit_constant_and_square():
    assert laurent_fit([(2, QSqrt.one(2)), (3, QSqrt.one(3))], 0) == LaurentV.v_power(0)
    samples = [(2, QSqrt.of(2, 2)), (3, QSqrt.of(3, 3))]
    assert laurent_fit(samples, 2) == LaurentV.v_power(2)


def test_fit_underdetermined():
    with pytest.raises(UnderdeterminedFit):
        laurent_fit([], 2)


def test_fit_inconsistent():
    samples = [(2, QSqrt.of(5, 2)), (3, QSqrt.of(7, 3)), (5, QSqrt.of(11, 5)),
               (7, QSqrt.of(131, 7))]
    with pytest.raises(InconsistentSamples):
        laurent_fit(samples, 0)


def test_fit_escalation():
    target = LaurentV.from_dict({4: 1, 0: -2})
    samples = [(q, laurent_eval(target, q)) for q in (2, 3, 5, 7, 11)]
    assert laurent_fit_escalating(samples, 0, 6) == target


def test_quantum_integers():
    assert qint(2, 2) == QSqrt(Fraction(0), Fraction(3, 2), 2)  # v + 1/v at q=2
    assert qint(1, 3) == QSqrt.one(3)


coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))


@st.composite
def laurent_polys(draw):
    support = draw(st.lists(st.integers(min_value=-4, max_value=4), max_size=8))
    coeffs = {k: draw(coeff) for k in support}
    return LaurentV.from_dict(coeffs)


@settings(max_examples=40, deadline=None)
@given(laurent_polys())
def test_fit_eval_round_trip(poly):
    samples = [(q, laurent_eval(poly, q)) for q in PRIMES]
    recovered = laurent_fit(samples, 4)
    assert recovered == poly


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9))
def test_qsqrt_ring_axioms(a1, b1, a2, b2, a3, b3):
    q = 5
    x = QSqrt(Fraction(a1), Fraction(b1), q)
    y = QSqrt(Fraction(a2), Fraction(b2), q)
    z = QSqrt(Fraction(a3), Fraction(b3), q)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    if not y.is_zero():
        assert (x / y) * y == x


def test_json_round_trip():
    x = QSqrt(Fraction(3, 2), Fraction(-1, 7), 5)
    assert x.to_json() == {"a": "3/2", "b": "-1/7", "q": 5}
    assert QSqrt(Fraction(x.to_json()["a"]), Fraction(x.to_json()["b"]), 5) == x


def test_quantum_integers_in_closed_form():
    # [n] (v - v^-1) = v^n - v^-n for every n, negative and zero included
    for q in (2, 3, 5):
        v = QSqrt.v_power(1, q)
        for n in range(-5, 6):
            assert qint(n, q) * (v - v.inverse()) == QSqrt.v_power(n, q) - QSqrt.v_power(-n, q)


@pytest.mark.parametrize("text", ["2/4", "1/0", "1/-2", "0.5", "1/2/3", "3", ""])
@pytest.mark.parametrize("part", ["a", "b"])
def test_from_json_refuses_a_non_canonical_rational(text, part):
    coeff = {"a": "1/2", "b": "0/1", "q": 2, part: text}
    with pytest.raises(ValueError):
        QSqrt.from_json(coeff, 2)


def test_the_tracer_can_wrap_every_operator():
    # perfbench/tracer.py wraps these through ``vars(QSqrt)``, not through
    # the instance, so they must be defined on the class itself
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "inverse",
                 "__truediv__", "__pow__"):
        assert name in vars(QSqrt)


@pytest.mark.parametrize("name", ["a", "b", "q", "an", "bn", "d", "other"])
def test_no_attribute_can_be_set(name):
    x = QSqrt(Fraction(1, 2), 3, 5)
    with pytest.raises(AttributeError):
        setattr(x, name, 1)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert x == QSqrt(Fraction(1, 2), 3, 5)


# -- the integer representation against the Fraction-pair oracle -----------------------

ORACLE_PRIMES = [2, 3, 5, 7, 1009]
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))


def _canonical(x):
    return x.d > 0 and gcd(x.an, x.bn, x.d) == 1


def _outcome(op, *args):
    try:
        return op(*args).to_json()
    except Exception as err:   # the oracle decides which errors are right
        return type(err)


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
UNARY = [operator.neg, operator.methodcaller("inverse")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORACLE_PRIMES), rationals, rationals, rationals, rationals,
       st.integers(-4, 4), st.integers(-7, 7))
def test_qsqrt_matches_the_fraction_oracle(q, a1, b1, a2, b2, n, k):
    x, y = QSqrt(a1, b1, q), QSqrt(a2, b2, q)
    rx, ry = RefQSqrt(a1, b1, q), RefQSqrt(a2, b2, q)
    assert x.to_json() == rx.to_json() and repr(x) == repr(rx)
    assert (x.a, x.b, x.is_zero()) == (rx.a, rx.b, rx.is_zero())
    cases = [(op, (x, y), (rx, ry)) for op in BINARY]
    cases += [(op, (x,), (rx,)) for op in UNARY]
    cases += [(operator.pow, (x, n), (rx, n)), (QSqrt.v_power, (k, q), None)]
    for op, args, ref_args in cases:
        want = (RefQSqrt.v_power(k, q).to_json() if ref_args is None
                else _outcome(op, *ref_args))
        assert _outcome(op, *args) == want, (op, args)
        if isinstance(want, dict):
            got = op(*args)
            assert _canonical(got)
            assert QSqrt(Fraction(want["a"]), Fraction(want["b"]), q) == got
    # == and hash by value, whichever way the value was reached
    assert (x == y) == (rx == ry)
    same = (x + y) - y
    assert same == x and hash(same) == hash(x) and len({same, x}) == 1
    assert QSqrt.of(a1, q) == QSqrt(a1, 0, q)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ORACLE_PRIMES), rationals, rationals)
def test_qsqrt_raises_where_the_oracle_raises(q, a, b):
    x, rx = QSqrt(a, b, q), RefQSqrt(a, b, q)
    other = 3 if q == 2 else 2
    for op in BINARY:
        assert _outcome(op, x, 1) == _outcome(op, rx, 1) == TypeError
        assert _outcome(op, x, QSqrt.one(other)) == _outcome(op, rx, RefQSqrt.one(other)) \
            == MismatchedField
    zero, ref_zero = QSqrt.zero(q), RefQSqrt(Fraction(0), Fraction(0), q)
    assert _outcome(operator.truediv, x, zero) == _outcome(operator.truediv, rx, ref_zero) \
        == DivisionByZero
    assert _outcome(operator.pow, zero, -1) == _outcome(operator.pow, ref_zero, -1) \
        == DivisionByZero


# -- one exact Gauss-Jordan against the two eliminations it replaced ------------

# few small values, so that many matrices are singular
small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))


@st.composite
def augmented(draw, entries):
    """n rows [A | B] with A square, n in 1..4 and B of 0..2 columns."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    return n, [[draw(entries) for _ in range(n + k)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(augmented(small))
@example((2, [[Fraction(1), Fraction(2), Fraction(5)], [Fraction(2), Fraction(4), Fraction(1)]]))
def test_gauss_jordan_over_q_matches_the_square_solver(system):
    n, rows = system
    got = gauss_jordan(rows, lambda x: x == 0)
    A = [row[:n] for row in rows]
    singular = scalars_reference.solve_rational(A, [0] * n) is None
    assert (got is None) == singular
    if got is not None:
        assert [row[:n] for row in got] == [[int(i == j) for j in range(n)] for i in range(n)]
        for c in range(n, len(rows[0])):
            assert [row[c] for row in got] == \
                scalars_reference.solve_rational(A, [row[c] for row in rows])


@st.composite
def qsqrt_rows(draw):
    """Rows over Q(sqrt q), q in {2, 3, 5}: square, or of any shape."""
    q = draw(st.sampled_from([2, 3, 5]))
    entries = st.builds(QSqrt, small, small, st.just(q))
    r = draw(st.integers(0, 4))
    widths = [r] * r if draw(st.booleans()) else draw(st.lists(st.integers(0, 4),
                                                                min_size=r, max_size=r))
    return q, [[draw(entries) for _ in range(w)] for w in widths]


S2 = QSqrt(1, 1, 2)


@settings(max_examples=150, deadline=None)
@given(qsqrt_rows())
@example((2, [[S2, S2], [S2 * S2, S2 * S2]]))                 # singular
@example((2, [[S2, S2, S2], [S2, -S2, S2]]))                  # wide
@example((2, [[S2], [S2]]))                                   # tall
def test_gauss_jordan_over_qsqrt_matches_the_invertibility_test(case):
    q, rows = case
    invertible = scalars_reference.qsqrt_matrix_invertible(rows)
    assert qsqrt_matrix_invertible(rows) == invertible
    if all(len(row) == len(rows) for row in rows):
        got = gauss_jordan(rows, QSqrt.is_zero)
        n = len(rows)
        assert (got is not None) == invertible
        if got is not None:
            assert got == [[QSqrt.of(int(i == j), q) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(augmented(st.builds(QSqrt, small, small, st.just(3))))
def test_gauss_jordan_over_qsqrt_solves_the_system(system):
    # A X = B for the X of [I | X]
    n, rows = system
    got = gauss_jordan(rows, QSqrt.is_zero)
    if got is None:
        assert not scalars_reference.qsqrt_matrix_invertible([row[:n] for row in rows])
        return
    for c in range(n, len(rows[0])):
        for row in rows:
            assert sum((row[j] * got[j][c] for j in range(n)), QSqrt.zero(3)) == row[c]
