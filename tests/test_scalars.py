from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from iqhall.errors import DivisionByZero, InconsistentSamples, MismatchedField, UnderdeterminedFit
from iqhall.scalars import (LaurentV, QSqrt, laurent_eval, laurent_fit,
                            laurent_fit_escalating, qint)

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
    assert QSqrt.from_json(x.to_json()) == x


def test_quantum_integers_in_closed_form():
    # [n] (v - v^-1) = v^n - v^-n for every n, negative and zero included
    for q in (2, 3, 5):
        v = QSqrt.v_power(1, q)
        for n in range(-5, 6):
            assert qint(n, q) * (v - v.inverse()) == QSqrt.v_power(n, q) - QSqrt.v_power(-n, q)
