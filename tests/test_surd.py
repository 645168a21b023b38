"""Exact quadratic-irrational arithmetic."""

from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction

import pytest

from cantorlab import QuadraticSurd, ValidationError
from cantorlab.surd import _to_float


def test_sqrt_of_int_squares_back():
    for n in (2, 3, 5, 8, 12, 221):
        s = QuadraticSurd.sqrt_of_int(n)
        assert s * s == QuadraticSurd.from_rational(Fraction(n))


def test_rational_surd_round_trip():
    x = QuadraticSurd.from_rational(Fraction(22, 7))
    assert x == QuadraticSurd.from_rational(Fraction(22, 7))
    assert float(x) == pytest.approx(22 / 7, abs=0)


def test_field_arithmetic_golden_identity():
    # x = (1+sqrt(5))/2 satisfies x^2 = x + 1
    x = QuadraticSurd.make(1, 1, 2, 5)
    assert (x * x).equals(x + 1)
    assert (1 / x).equals(x - 1)


def test_quadratic_root_solves_its_polynomial():
    # 3y^2 + 3y - 1 = 0, positive branch
    y = QuadraticSurd.quadratic_root(3, 3, -1, branch=+1)
    residue = (y * y) * 3 + y * 3 - 1
    assert residue == QuadraticSurd.from_rational(0)
    assert 0 < float(y) < 1


def test_comparisons_are_exact():
    s2 = QuadraticSurd.sqrt_of_int(2)
    assert QuadraticSurd.from_rational(Fraction(141421356, 100000000)) < s2
    assert QuadraticSurd.from_rational(Fraction(141421357, 100000000)) > s2
    assert s2 <= s2
    assert not s2 < s2


def test_conjugate_product_is_norm():
    s = QuadraticSurd.make(3, 2, 5, 7)  # (3 + 2*sqrt 7)/5
    prod = s * QuadraticSurd.make(s.p, -s.q, s.r, s.d)
    assert prod == QuadraticSurd.from_rational(Fraction(9 - 4 * 7, 25))


def test_float_conversion_handles_catastrophic_cancellation():
    # Pell recurrence gives convergents p/q of sqrt(2) with
    # |sqrt(2) - p/q| ~ 1/(2*sqrt(2)*q^2); at q ~ 1e23 the difference is
    # ~1e-47, demanding far more working precision than one double.
    p, q = 1, 1
    for _ in range(60):
        p, q = p + 2 * q, p + q
    close = Fraction(p, q)
    tiny = QuadraticSurd.sqrt_of_int(2) - QuadraticSurd.from_rational(close)
    got = float(tiny)
    want = 1.0 / (2.0 * math.sqrt(2) * float(q) ** 2)
    assert got != 0.0
    # integer arithmetic decides which side of sqrt(2) the convergent is on
    expected_sign = 1 if 2 * q * q > p * p else -1
    assert math.copysign(1.0, got) == expected_sign
    assert abs(abs(got) - want) < want * 1e-6


def test_float_conversion_is_correctly_rounded():
    # 8*sqrt(14)/5 = 5.98665181883830621693...; the nearest double prints
    # ...307, and the equal canonical form sqrt(22400)/25 must agree
    x = QuadraticSurd.make(0, 8, 5, 14)
    assert float(x) == 5.986651818838307
    assert float(x.canonical()) == float(x)


def test_float_of_raw_terms_matches_a_decimal_reference():
    # terms not in lowest terms, either sign of r, and cancelling
    # numerators like those of the estimators in `spectra`; at 120 digits
    # the decimal value rounds to the double the exact one does
    rng = random.Random(7)
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        for _ in range(2000):
            d = rng.choice([n for n in range(2, 500) if math.isqrt(n) ** 2 != n])
            q = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30))
            if rng.random() < 0.5:  # p near -q*sqrt(d): the leading digits cancel
                p = -q * math.isqrt(d * 10**20) // 10**10 + rng.randint(-5, 5)
            else:
                p = rng.randint(-(10**25), 10**25)
            r = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 40))
            want = float((decimal.Decimal(p) + decimal.Decimal(q) * decimal.Decimal(d).sqrt()) / r)
            assert _to_float(p, q, r, d) == want, (p, q, r, d)
        assert _to_float(22, 0, -7, 0) == 22 / -7


def test_mixed_radicand_arithmetic_rejected():
    s2 = QuadraticSurd.sqrt_of_int(2)
    s3 = QuadraticSurd.sqrt_of_int(3)
    with pytest.raises(ValidationError):
        _ = s2 + s3


def test_radicands_with_square_product_mix_exactly():
    s2, s8, s32 = (QuadraticSurd.sqrt_of_int(n) for n in (2, 8, 32))
    total = s8 + s32  # 6*sqrt(2)
    assert total.q != 0
    assert total * total == QuadraticSurd.from_rational(72)
    assert s8 * s32 == QuadraticSurd.from_rational(16)
    assert s8 == 2 * s2
    assert hash(s8) == hash(2 * s2)
    assert s8 != s2 and s2 != QuadraticSurd.sqrt_of_int(3)


@pytest.mark.parametrize(
    "surd, form",
    [
        (QuadraticSurd.make(0, 2, 1, 3), (0, 1, 1, 12)),
        (QuadraticSurd.make(1, 1, 2, 5), (1, 1, 2, 5)),
        (QuadraticSurd.make(1, -1, 2, 5), (1, -1, 2, 5)),
        (QuadraticSurd.make(-4, 1, 8, 32), (-2, 1, 4, 8)),
        (QuadraticSurd.make(3, -6, 9, 20), (3, -1, 9, 720)),
        (QuadraticSurd.from_rational(Fraction(-7, 2)), (-7, 0, 2, 0)),
    ],
)
def test_canonical_form_is_the_minimal_polynomial_root(surd, form):
    c = surd.canonical()
    assert (c.p, c.q, c.r, c.d) == form
    assert (c - surd).sign() == 0
    assert c == surd and hash(c) == hash(surd)


def test_inverse_of_zero_rejected():
    zero = QuadraticSurd.from_rational(0)
    with pytest.raises((ZeroDivisionError, ValidationError)):
        zero.inverse()


def test_normalization_collapses_square_radicands():
    # sqrt(4) = 2 must normalize to a rational surd
    s = QuadraticSurd.sqrt_of_int(4)
    assert s.q == 0
    assert s == QuadraticSurd.from_rational(2)


@pytest.mark.parametrize("d", [4, 9, 1, 144])
def test_constructor_refuses_a_square_radicand(d):
    # a square radicand would compare unequal to the rational it is
    # (sqrt(4) != 2); arithmetic results reuse an operand's radicand
    # without a square test, so the constructor refuses one
    with pytest.raises(ValidationError):
        QuadraticSurd(0, 1, 1, d)
    assert QuadraticSurd.make(0, 1, 1, d) == QuadraticSurd.from_rational(math.isqrt(d))


def _random_surd(rng):
    d = rng.choice([2, 3, 5, 12, 20, 221])
    return QuadraticSurd.make(rng.randint(-50, 50), rng.randint(-9, 9), rng.randint(1, 30), d)


def test_int_and_fraction_operands_match_their_coerced_surds():
    # the direct formulas for an int operand, and the Fraction route,
    # give the same stored (p, q, r, d) as the operand coerced to a surd
    rng = random.Random(25)

    def raw(s):
        return s.p, s.q, s.r, s.d

    for _ in range(500):
        s = _random_surd(rng)
        n = rng.randint(-40, 40)
        f = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        for x in (n, f):
            c = QuadraticSurd.from_rational(Fraction(x))
            assert raw(s + x) == raw(x + s) == raw(s + c)
            assert raw(s - x) == raw(s + -c)
            assert raw(x - s) == raw(c + -s)
            assert raw(s * x) == raw(x * s) == raw(s * c)
            assert (s + x) - x == s and (s * x).equals(s * c)
