"""Continued-fraction machinery and best-approximation constants."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cantorlab import (
    CFSequence,
    EstimatorMismatch,
    QuadraticSurd,
    ValidationError,
    cf_value,
    convergents,
    hall_halfline_probe,
    k_alpha,
    lagrange_sample,
    periodic_value,
    two_sided_values,
)
from cantorlab import spectra, surd
from cantorlab.cli import _surd_json
from cantorlab.surd import word_matrix

SQRT = QuadraticSurd.sqrt_of_int


# ---------------------------------------------------------------------------
# digit sequences


def test_sequence_digit_validation():
    with pytest.raises(ValidationError):
        CFSequence(prefix=(0,))
    with pytest.raises(ValidationError):
        CFSequence(period=(1, -2))
    with pytest.raises(ValidationError):
        CFSequence(period=(2.0,))
    with pytest.raises(ValidationError):
        CFSequence(period=(1, True))
    with pytest.raises(ValidationError):
        CFSequence(prefix=(False,), period=(1,))


def test_sequence_digit_access():
    s = CFSequence(prefix=[np.int64(3)], period=(np.int8(1), 2))
    assert s.prefix == (3,) and s.period == (1, 2)
    assert all(type(d) is int for d in s.prefix + s.period)
    assert s.digits(6) == (3, 1, 2, 1, 2, 1)
    assert s.digits(1) == (3,)
    assert CFSequence(period=(4, 5)).digits(3) == (4, 5, 4)
    assert s.describe() == "[3;(1,2)*]"
    assert CFSequence(period=(2,)).describe() == "[(2)*]"


# ---------------------------------------------------------------------------
# convergents


def test_convergents_fibonacci_and_recursion():
    assert cf_value([1, 1, 1, 1, 1]) == (5, 8)
    assert cf_value([2, 2]) == (2, 5)
    assert cf_value([7]) == (1, 7)
    cs = convergents([1, 2, 2, 2])
    assert cs == [(1, 1), (2, 3), (5, 7), (12, 17)]
    # determinant identity for [0; digits]: p_k q_{k-1} - p_{k-1} q_k = (-1)^k
    for k in range(1, len(cs)):
        p0, q0 = cs[k - 1]
        p1, q1 = cs[k]
        assert p1 * q0 - p0 * q1 == (-1) ** k


def test_cf_value_rejects_bad_digits():
    with pytest.raises(ValidationError):
        cf_value([])
    with pytest.raises(ValidationError):
        cf_value([1, 0, 2])


# ---------------------------------------------------------------------------
# periodic words evaluated exactly


def test_periodic_word_values_satisfy_their_quadratics():
    golden = periodic_value((1,))
    assert golden.equals(QuadraticSurd.make(1, 1, 2, 5))
    silver = periodic_value((2,))
    assert silver.equals(QuadraticSurd.make(1, 1, 1, 2))
    tail = periodic_value((2, 1)).inverse()
    # the tail value x = [0; 2, 1, 2, 1, ...] satisfies x = 1/(2 + 1/(1 + x))
    one = QuadraticSurd.from_rational(1)
    relation = tail - one / (2 + one / (1 + tail))
    assert relation.sign() == 0


def test_two_sided_values_cover_all_rotations():
    vals = two_sided_values((2, 1))
    assert len(vals) == 2
    floats = sorted(float(v) for v in vals)
    assert floats[1] == pytest.approx(2 * math.sqrt(3), abs=1e-14)


def _two_sided_by_definition(word):
    """[w_i; w_{i+1}, ...] + [0; w_{i-1}, w_{i-2}, ...] at each rotation,
    the backward tail evaluated as 1 / [reversed rotation, repeated]."""
    out = []
    for i in range(len(word)):
        rot = word[i:] + word[:i]
        out.append(periodic_value(rot) + 1 / periodic_value(rot[::-1]))
    return out


def test_two_sided_values_match_the_definition_on_every_short_word():
    # every word of length 1..6 over the digits 1..4: 5,460 words
    count = 0
    for length in range(1, 7):
        for word in product(range(1, 5), repeat=length):
            reference = _two_sided_by_definition(word)
            assert two_sided_values(word) == reference, word
            best_i = max(range(len(reference)), key=reference.__getitem__)
            best = reference[best_i].canonical()
            value, exact, rotation = spectra._exact_periodic_k(word)
            assert rotation == word[best_i:] + word[:best_i], word
            assert value == float(reference[best_i]), word
            assert (exact.p, exact.q, exact.r, exact.d) == (best.p, best.q, best.r, best.d)
            count += 1
    assert count == 5460


def test_rotation_matrices_give_each_rotations_forward_value(monkeypatch):
    # x_i = (m00 - m11 + sqrt(D)) / (2 c_i) from the matrix loop is
    # [w_i; w_{i+1}, ...] as the word's quadratic gives it, in lowest terms
    for word in spectra._lyndon_words(6, 4):
        disc, lower_lefts, diagonals = spectra._rotations(word)
        for i, (s, c) in enumerate(zip(diagonals, lower_lefts)):
            x = QuadraticSurd.make(s, 1, 2 * c, disc)
            ref = periodic_value(word[i:] + word[:i])
            assert (x.p, x.q, x.r, x.d) == (ref.p, ref.q, ref.r, ref.d), (word, i)

    def refuse(word):
        raise AssertionError(f"periodic_value called on {word}")

    monkeypatch.setattr(surd, "periodic_value", refuse)
    monkeypatch.setattr(spectra, "periodic_value", refuse, raising=False)
    word = (1, 2, 3, 1, 4)
    sv = k_alpha(CFSequence(prefix=(2, 2), period=word), 12)
    assert sv.exact == max(_two_sided_by_definition(word))


def _forward_values(prefix, after):
    """F_j = [a_j; a_{j+1}, ...] from j = 1 on, the prefix folded backwards
    onto the values past it as F_j = a_j + 1/F_{j+1}."""
    values = list(after)
    for a in reversed(prefix):
        values.insert(0, values[0].inverse() + a)
    return values


def _k_alpha_on_surd_objects(seq, window):
    """k_alpha with every forward value and estimator term a QuadraticSurd:
    the forward values folded back from one periodic value."""
    x0 = periodic_value(seq.period)
    rotations = [x0] + _forward_values(seq.period[1:], [x0])[:-1]
    forwards = _forward_values(seq.prefix, rotations * (window // len(rotations) + 1))
    value, exact, witness = spectra._exact_periodic_k(seq.period)
    alpha = forwards[0].inverse()
    cs = convergents(seq.digits(window + 1))
    direct, tail = [], []
    for n in spectra._estimator_positions(window):
        p_n, q_n = cs[n - 1]
        q_prev = cs[n - 2][1]
        direct.append(abs(float((q_n * (q_n * alpha - p_n)).inverse())))
        tail.append(float(forwards[n]) + q_prev / q_n)
    gap = abs(max(direct) - max(tail))
    return value, witness, window, (exact.p, exact.q, exact.r, exact.d), gap


def test_k_alpha_matches_its_surd_object_reference_bit_for_bit():
    rng = random.Random(33)
    cases = []
    for word in spectra._lyndon_words(6, 4):
        prefix = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
        cases.append((prefix, word, rng.randint(2, 40)))
    assert len(cases) == 964
    for word in [(4, 1) * 10, (1,) * 29 + (2,), (5,) * 14 + (1,)]:
        for window in (2, 17, 40, 2 * len(word)):
            for prefix in ((), (3, 1, 4), tuple(rng.randint(1, 9) for _ in range(6))):
                cases.append((prefix, word, window))
    for prefix, word, window in cases:
        seq = CFSequence(prefix=prefix, period=word)
        sv = k_alpha(seq, window)
        e = sv.exact
        got = sv.value, sv.witness, sv.window, (e.p, e.q, e.r, e.d), sv.estimator_gap
        assert got == _k_alpha_on_surd_objects(seq, window), (prefix, word, window)


def test_a_corrupted_convergent_trips_the_estimator_cross_check(monkeypatch):
    # convergents of x with one digit changed: the direct estimator
    # measures x against the wrong p_n/q_n, while the tail estimator's
    # forward values stay those of x
    seq = CFSequence(prefix=(2, 2), period=(1, 2, 3, 1, 4))
    assert k_alpha(seq, 12).estimator_gap <= spectra.ESTIMATOR_TOL

    def corrupted(digits):
        digits = list(digits)
        digits[7] += 1
        return convergents(digits)

    monkeypatch.setattr(spectra, "convergents", corrupted)
    with pytest.raises(EstimatorMismatch):
        k_alpha(seq, 12)


def test_k_alpha_values_are_canonical_entries_of_the_sample():
    # every necklace of period <= 6 over the digits 1..4, each behind a
    # seeded random prefix: k_alpha's exact value is canonical and is, as
    # raw (p, q, r, d), an exact value of the Lagrange sample
    rng = random.Random(25)
    sample = {(v.exact.p, v.exact.q, v.exact.r, v.exact.d) for v in lagrange_sample(6, 4)}
    words = spectra._lyndon_words(6, 4)
    assert len(words) == 964
    for word in words:
        prefix = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        e = k_alpha(CFSequence(prefix=prefix, period=word), max(6, 2 * len(word))).exact
        c = e.canonical()
        assert (e.p, e.q, e.r, e.d) == (c.p, c.q, c.r, c.d), word
        assert (e.p, e.q, e.r, e.d) in sample, word


# ---------------------------------------------------------------------------
# approximation constants


def test_constant_of_all_ones_is_exact():
    sv = k_alpha(CFSequence(period=(1,)), 6)
    assert sv.exact is not None
    assert sv.exact.equals(SQRT(5))
    assert sv.value == float(SQRT(5))
    assert sv.estimator_gap <= 1e-9


def test_constant_of_all_twos_is_exact():
    sv = k_alpha(CFSequence(period=(2,)), 6)
    assert sv.exact.equals(SQRT(8))
    assert sv.value == pytest.approx(2 * math.sqrt(2), abs=0)


def test_constant_of_alternating_word_is_exact():
    sv = k_alpha(CFSequence(period=(2, 1)), 6)
    assert sv.exact.equals(SQRT(12))


def test_constant_of_period_four_word():
    sv = k_alpha(CFSequence(period=(1, 1, 2, 2)), 8)
    assert sv.exact.equals(SQRT(221) / 5)
    assert sv.value == pytest.approx(math.sqrt(221) / 5, abs=1e-15)


@pytest.mark.parametrize("period", [(4, 1) * 10, (1,) * 29 + (2,)])
def test_long_periods_keep_the_exact_value(period):
    sv = k_alpha(CFSequence(period=period), 2 * len(period))
    assert sv.exact is not None
    assert sv.value == float(sv.exact)
    assert sv.exact == max(two_sided_values(period))
    assert sv.estimator_gap <= 1e-9


def test_repeated_period_has_the_value_of_its_root_word():
    sv = k_alpha(CFSequence(period=(4, 1) * 10), 40)
    assert sv.exact == 4 * SQRT(2)
    assert sv.value == 5.656854249492381


def test_period_fifteen_value_is_exact_over_its_discriminant():
    word = (5,) * 14 + (1,)
    sv = k_alpha(CFSequence(period=word), 40)
    e = sv.exact
    assert e is not None
    assert (e.p, e.q, e.r, e.d) == tuple(getattr(e.canonical(), f) for f in "pqrd")
    m00, m01, m10, m11 = word_matrix(word)
    disc = (m00 + m11) ** 2 - 4 * (m00 * m11 - m01 * m10)
    # sqrt(e.d) is a rational multiple of sqrt(disc): the field of the word
    assert math.isqrt(disc * e.d) ** 2 == disc * e.d
    # an independent value: [w; w, ...] + [0; reversed w, ...] at the
    # witness rotation, both tails cut after 20 periods, evaluated from
    # their deepest digit up
    rot = sv.witness
    forward = Fraction(rot[0])
    for a in reversed(rot * 20):
        forward = a + 1 / forward
    backward = Fraction(0)
    for a in rot * 20:  # the deepest-first order of rot[::-1] * 20
        backward = 1 / (a + backward)
    assert sv.value == float(e) == float(forward + backward) == 6.031098884280702


def test_equal_values_over_different_discriminants_are_one_value():
    # (4) and (1,2,1,3) both reach sqrt(20); their two-sided values are
    # computed over the word discriminants 20 and 320
    raw = [max(two_sided_values(w)) for w in ((4,), (1, 2, 1, 3))]
    assert raw[0] == raw[1] and hash(raw[0]) == hash(raw[1])
    exacts = [k_alpha(CFSequence(period=w), 8).exact for w in ((4,), (1, 2, 1, 3))]
    assert _surd_json(exacts[0]) == _surd_json(exacts[1])


def test_constant_requires_infinite_sequence():
    with pytest.raises(ValidationError):
        k_alpha(CFSequence(prefix=(1, 2, 3)), 6)
    with pytest.raises(ValidationError):
        k_alpha(CFSequence(period=(1,)), 1)


def test_estimators_agree_for_every_short_periodic_word():
    worst = 0.0
    for length in range(1, 5):
        for word in product((1, 2, 3), repeat=length):
            sv = k_alpha(CFSequence(period=word), max(6, 2 * length))
            worst = max(worst, sv.estimator_gap)
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# spectrum sampling


@pytest.fixture(scope="module")
def sample_6_4():
    return lagrange_sample(6, 4)


def test_sample_is_sorted_and_bounded_below(sample_6_4):
    values = [sv.value for sv in sample_6_4]
    assert values == sorted(values)
    assert all(v >= math.sqrt(5) - 1e-12 for v in values)
    assert sample_6_4[0].exact.equals(SQRT(5))


def test_sample_discrete_part_matches_markov_chain(sample_6_4):
    # below 3 the spectrum is the classical discrete chain
    # sqrt(9 m^2 - 4)/m over the Markov numbers m = 1, 2, 5, 13, 29
    below = [sv for sv in sample_6_4 if sv.value < 3.0]
    markov = (1, 2, 5, 13, 29)
    assert len(below) == len(markov)
    for sv, m in zip(below, markov):
        want = SQRT(9 * m * m - 4) / m
        assert sv.exact.equals(want)


def test_sample_deduplicates_rotations(sample_6_4):
    keys = [(sv.exact.p, sv.exact.q, sv.exact.r, sv.exact.d) for sv in sample_6_4]
    assert len(keys) == len(set(keys))


def test_sample_values_are_canonical(sample_6_4):
    for sv in sample_6_4:
        c = sv.exact.canonical()
        assert (sv.exact.p, sv.exact.q, sv.exact.r, sv.exact.d) == (c.p, c.q, c.r, c.d)
        assert sv.value == float(sv.exact)


@pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (6, 4), (8, 3), (12, 2), (5, 5)])
def test_lyndon_words_are_the_least_rotations_of_primitive_words(n, k):
    # the reference: every word by length, then lexicographically, kept
    # when it is its own least rotation and no shorter word repeated
    reference = []
    for length in range(1, n + 1):
        for word in product(range(1, k + 1), repeat=length):
            rotations = [word[i:] + word[:i] for i in range(length)]
            primitive = all(
                word != word[:d] * (length // d) for d in range(1, length) if length % d == 0
            )
            if word == min(rotations) and primitive:
                reference.append(word)
    assert spectra._lyndon_words(n, k) == reference


def test_sample_budget_guard():
    from cantorlab import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        lagrange_sample(30, 4, budget=10_000)


# ---------------------------------------------------------------------------
# large-target probe


def test_halfline_targets_are_hit_with_digit_bounded_words():
    hits = hall_halfline_probe([6.0, 7.0, 8.0, 9.5, 12.0, 20.0], depth=8)
    assert len(hits) == 6
    for hit in hits:
        assert hit.hit_distance <= 1e-6
        assert all(d >= 1 for d in hit.witness)
        # digits after the leading one stay within the bound used to
        # build the dense tail set
        assert all(d <= 4 for d in hit.witness[1:])


@pytest.mark.parametrize(
    "targets",
    [[math.nan], [math.inf], [6.0, math.inf], [-math.inf], [5.5], []],
    ids=["nan", "inf", "6-inf", "minus-inf", "below-6", "empty"],
)
def test_halfline_rejects_targets_that_are_not_finite_and_at_least_six(targets):
    with pytest.raises(ValidationError):
        hall_halfline_probe(targets, depth=3)
