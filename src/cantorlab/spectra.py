"""Continued fractions and best-approximation spectra.

The central quantity is, for an irrational x with continued-fraction
digits (a_1, a_2, ...), the limsup over n of

    [a_{n+1}; a_{n+2}, ...] + [0; a_n, a_{n-1}, ..., a_1],

equal to the classical best-approximation constant
limsup 1/|q_n (q_n x - p_n)|.  For eventually periodic digit sequences
the limsup is attained along the period and is a quadratic surd, so it
is computed exactly for every period: the two-sided value at each
rotation of the period is max'ed in exact arithmetic (rotations and
reversals share a discriminant because each digit matrix [[a,1],[1,0]]
is symmetric) and returned in canonical form.  Windowed floating
estimates are kept only as a mandatory cross-check and for streamed
digit sources.

cf_value note: convergent numerators and denominators are arbitrary-
precision integers, so the documented overflow failure mode cannot
trigger here; the continuant recursion is exact at every size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator

from .cantor_core import _gauss_hull_surds, resolve_budget
from .errors import (
    BudgetExceeded,
    EstimatorMismatch,
    PrecisionExhausted,
    ValidationError,
)
from .surd import QuadraticSurd, periodic_tail_value, periodic_value

ESTIMATOR_TOL = 1e-9


# ---------------------------------------------------------------------------
# digit sequences


@dataclass(frozen=True)
class CFSequence:
    """Continued-fraction digit sequence a_1, a_2, ... (all >= 1).

    prefix followed by: nothing (finite sequence), a repeating period,
    or a streamed source (a zero-argument callable returning a fresh
    digit iterator).
    """

    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] = ()
    stream: Callable[[], Iterator[int]] | None = None

    def __post_init__(self) -> None:
        if self.period and self.stream is not None:
            raise ValidationError("sequence cannot be both periodic and streamed")
        for d in self.prefix + self.period:
            if int(d) != d or d < 1:
                raise ValidationError(f"digits must be integers >= 1, got {d}")

    @property
    def is_finite(self) -> bool:
        return not self.period and self.stream is None

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    def digits(self, n: int) -> tuple[int, ...]:
        """First n digits; raises if a finite/streamed source runs dry."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        out = list(self.prefix)
        if self.period:
            i = 0
            while len(out) < n:
                out.append(self.period[i % len(self.period)])
                i += 1
        elif self.stream is not None:
            it = self.stream()
            for d in it:
                if int(d) != d or d < 1:
                    raise ValidationError(f"streamed digit {d} is not an integer >= 1")
                out.append(int(d))
                if len(out) >= n:
                    break
        if len(out) < n:
            raise PrecisionExhausted(f"sequence provides only {len(out)} digits, need {n}")
        return tuple(out[:n])

    def describe(self) -> str:
        head = ",".join(str(d) for d in self.prefix)
        if self.is_periodic:
            tail = ",".join(str(d) for d in self.period)
            return f"[{head};({tail})*]" if head else f"[({tail})*]"
        if self.stream is not None:
            return f"[{head};...]" if head else "[stream]"
        return f"[{head}]"


# ---------------------------------------------------------------------------
# expansion and convergents


def _expand_fraction(x: Fraction, n: int) -> list[int]:
    digits: list[int] = []
    while x != 0 and len(digits) < n:
        inv = 1 / x
        a = inv.numerator // inv.denominator
        digits.append(int(a))
        x = inv - a
    return digits


def _expand_surd(x: QuadraticSurd, n: int) -> list[int]:
    digits: list[int] = []
    while len(digits) < n and x.sign() != 0:
        inv = x.inverse()
        a = inv.floor()
        digits.append(int(a))
        x = inv - QuadraticSurd.from_rational(a)
        if x.sign() < 0:  # exact arithmetic keeps remainders in [0, 1)
            raise ValidationError("expansion left (0,1); input was not in range")
    return digits


def _expand_float(x: float, n: int) -> list[int]:
    # enclose x in a width-4ulp interval and emit digits while both ends agree
    err = 4.0 * math.ulp(max(abs(x), 1.0))
    lo, hi = x - err, x + err
    digits: list[int] = []
    while len(digits) < n:
        if lo <= 0.0:
            raise PrecisionExhausted(
                f"floating expansion certified only {len(digits)} digits, need {n}"
            )
        a_lo, a_hi = math.floor(1.0 / hi), math.floor(1.0 / lo)
        if a_lo != a_hi:
            raise PrecisionExhausted(
                f"floating expansion certified only {len(digits)} digits, need {n}"
            )
        digits.append(int(a_lo))
        lo, hi = 1.0 / hi - a_lo, 1.0 / lo - a_lo
        pad = 4.0 * math.ulp(max(abs(hi), 1.0))
        lo, hi = lo - pad, hi + pad
    return digits


def cf_expand(x, n: int) -> CFSequence:
    """First n continued-fraction digits of x, reduced to (0, 1).

    Exact inputs (Fraction, int pairs via Fraction, QuadraticSurd)
    expand exactly and may terminate early (finite expansions).
    Floats expand inside a rounding-error interval and raise
    PrecisionExhausted once the next digit is ambiguous.
    """
    if n < 1:
        raise ValidationError("need at least one digit")
    if isinstance(x, QuadraticSurd):
        frac = x - QuadraticSurd.from_rational(x.floor())
        if frac.sign() == 0:
            raise ValidationError("integer input has no digits")
        if frac.d == 0:
            return CFSequence(prefix=tuple(_expand_fraction(Fraction(frac.p, frac.r), n)))
        return CFSequence(prefix=tuple(_expand_surd(frac, n)))
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        frac = x - (x.numerator // x.denominator)
        if frac == 0:
            raise ValidationError("integer input has no digits")
        return CFSequence(prefix=tuple(_expand_fraction(frac, n)))
    xf = float(x)
    frac = xf - math.floor(xf)
    if frac == 0.0:
        raise ValidationError("integer input has no digits")
    return CFSequence(prefix=tuple(_expand_float(frac, n)))


def cf_value(digits) -> tuple[int, int]:
    """Exact convergent (p, q) of [0; digits]: the last of `convergents`."""
    ds = tuple(int(d) for d in digits)
    if not ds or any(d < 1 for d in ds):
        raise ValidationError("need a nonempty list of digits >= 1")
    return convergents(ds)[-1]


def convergents(digits) -> list[tuple[int, int]]:
    """All convergents (p_k, q_k) of [0; digits], exact."""
    ds = tuple(int(d) for d in digits)
    out = []
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in ds:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# the spectrum constant


@dataclass(frozen=True)
class SpectrumValue:
    """A best-approximation constant together with how it was attained.

    `witness` is the digit word realizing the value: the maximizing
    rotation for periodic sequences, the inspected digit window
    otherwise.  `exact` is the canonical surd (`QuadraticSurd.canonical`)
    of every periodic value, None only for streamed digits.
    `estimator_gap` is the disagreement between the two independent
    windowed estimators (always checked against the mismatch tolerance
    before a value is returned).
    """

    value: float
    witness: tuple[int, ...]
    window: int
    exact: QuadraticSurd | None = None
    estimator_gap: float = 0.0

    def __float__(self) -> float:
        return self.value


def _rotations(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [word[i:] + word[:i] for i in range(len(word))]


def two_sided_values(word: tuple[int, ...]) -> list[QuadraticSurd]:
    """Exact two-sided value at each position of the bi-infinite periodic word.

    At the position holding digit w[i] the value is
    [w_i; w_{i+1}, ...] + [0; w_{i-1}, w_{i-2}, ...]; all positions live
    in the same quadratic field.
    """
    out = []
    for rot in _rotations(word):
        out.append(periodic_value(rot) + periodic_tail_value(tuple(reversed(rot))))
    return out


def _exact_periodic_k(
    word: tuple[int, ...]
) -> tuple[float, QuadraticSurd, tuple[int, ...]]:
    """(value, canonical exact surd, maximizing rotation) for a periodic word."""
    values = two_sided_values(word)
    best_i = max(range(len(values)), key=values.__getitem__)  # first maximum
    best = values[best_i]
    return float(best), best.canonical(), _rotations(word)[best_i]


def _forward_values(prefix: tuple[int, ...], period: tuple[int, ...], count: int):
    """Exact forward values F_j = [a_j; a_{j+1}, ...] for j = 1..count."""
    p = len(period)
    L = len(prefix)
    rot_vals = {i: periodic_value(period[i:] + period[:i]) for i in range(p)}
    values: dict[int, QuadraticSurd] = {}
    deepest = max(count, L + 1)
    # positions beyond the prefix are rotations of the period
    for j in range(L + 1, deepest + 1):
        values[j] = rot_vals[(j - L - 1) % p]
    # fold the prefix backwards
    for j in range(L, 0, -1):
        values[j] = QuadraticSurd.from_rational(prefix[j - 1]) + values[j + 1].inverse()
    return [values[j] for j in range(1, count + 1)]


def _estimator_positions(window: int) -> range:
    """Positions n at which both windowed estimators are evaluated.

    The early positions are skipped: there the backward continuant
    ratio q_{n-1}/q_n is still dominated by the artificial start of the
    window, which inflates the estimate above the limsup it targets.
    """
    return range(max(2, window // 2), window + 1)


def k_alpha(seq: CFSequence, window: int) -> SpectrumValue:
    """Best-approximation constant of an infinite digit sequence.

    Runs two windowed estimators over the same positions n — the direct
    1/(q_n |q_n x - p_n|) from exact convergents of x, and the tail
    formula [a_{n+1}; a_{n+2}, ...] + q_{n-1}/q_n — and raises
    EstimatorMismatch when they disagree beyond 1e-9.  For periodic
    sequences of any period the returned value is the exact attained
    limsup (max of the two-sided values over the period, in `exact`),
    independent of any finite prefix; for streamed sequences it is the
    windowed tail estimate from a deep rational convergent of x.
    """
    if window < 2:
        raise ValidationError("window must be >= 2")
    if seq.is_finite:
        raise ValidationError("k is defined for infinite sequences")
    ds = seq.digits(window + 1)
    cs = convergents(ds)
    positions = _estimator_positions(window)
    if seq.is_periodic:
        forwards = _forward_values(seq.prefix, seq.period, window + 1)
        alpha = forwards[0].inverse()
        direct: list[float] = []
        tail: list[float] = []
        for n in positions:
            p_n, q_n = cs[n - 1]
            q_prev = cs[n - 2][1] if n >= 2 else 1
            rem = QuadraticSurd.from_rational(q_n) * alpha - QuadraticSurd.from_rational(p_n)
            lam = (rem * QuadraticSurd.from_rational(q_n)).inverse()
            direct.append(abs(float(lam)))
            tail.append(float(forwards[n]) + q_prev / q_n)
    else:
        # streamed: high-precision rational proxy
        deep = seq.digits(window + 60)
        p_deep, q_deep = cf_value(deep)
        alpha_f = Fraction(p_deep, q_deep)
        direct = []
        tail = []
        for n in positions:
            p_n, q_n = cs[n - 1]
            q_prev = cs[n - 2][1] if n >= 2 else 1
            rem = q_n * alpha_f - p_n
            direct.append(abs(1.0 / float(q_n * rem)))
            t = 0.0
            for d in reversed(deep[n:]):
                t = 1.0 / (d + t)
            tail.append(1.0 / t + q_prev / q_n)
    best_direct = max(direct)
    best_tail = max(tail)
    gap = abs(best_direct - best_tail)
    if gap > ESTIMATOR_TOL:
        raise EstimatorMismatch(
            f"direct {best_direct} vs tail {best_tail} beyond {ESTIMATOR_TOL}"
        )
    if seq.is_periodic:
        value, exact, best_rot = _exact_periodic_k(seq.period)
        return SpectrumValue(
            value=value, witness=best_rot, window=window, exact=exact, estimator_gap=gap
        )
    return SpectrumValue(
        value=best_tail,
        witness=ds[:window],
        window=window,
        exact=None,
        estimator_gap=gap,
    )


# ---------------------------------------------------------------------------
# spectrum sampling


def _canonical_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(_rotations(word))


def _is_primitive(word: tuple[int, ...]) -> bool:
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return False
    return True


def lagrange_sample(
    max_period: int, digit_bound: int, *, budget: int | None = None
) -> list[SpectrumValue]:
    """k-values of all primitive periodic sequences with period <= max_period
    and digits <= digit_bound, each with its exact surd, deduplicated by
    exact value and sorted increasingly.

    The smallest value is always the all-ones constant sqrt(5).
    """
    if max_period < 1 or digit_bound < 1:
        raise ValidationError("period length and digit bound must be >= 1")
    limit = resolve_budget(budget)
    if digit_bound**max_period > limit:
        raise BudgetExceeded(
            f"{digit_bound}^{max_period} cyclic sequences exceed budget {limit}"
        )
    results: list[SpectrumValue] = []
    seen_values: set[QuadraticSurd] = set()
    for length in range(1, max_period + 1):
        for word in product(range(1, digit_bound + 1), repeat=length):
            if _canonical_rotation(word) != word or not _is_primitive(word):
                continue
            value, exact, best_rot = _exact_periodic_k(word)
            if exact in seen_values:
                continue
            seen_values.add(exact)
            results.append(
                SpectrumValue(
                    value=value,
                    witness=best_rot,
                    window=length,
                    exact=exact,
                )
            )
    results.sort(key=lambda sv: sv.value)
    return results


# ---------------------------------------------------------------------------
# half-line probe


@dataclass(frozen=True)
class HalflineHit:
    target: float
    hit_distance: float
    k_value: float
    witness: tuple[int, ...]  # repeating digit word


# Hall's interval [sqrt(2) - 1, 4*(sqrt(2) - 1)]: twice the hull of the
# digit-bound-4 continued-fraction set, which the sum of two copies of
# that set fills.
HALL_TARGET = tuple(float(2 * y) for y in _gauss_hull_surds(4))


def _clamped_expansion(x: float, count: int) -> tuple[int, ...]:
    """Greedy digits in 1..4 approximating x from inside the digit-<=4 set."""
    digits = []
    for _ in range(count):
        x = max(x, 1e-9)
        a = min(4, max(1, math.floor(1.0 / x)))
        digits.append(a)
        x = 1.0 / x - a
        if x <= 0.0:
            x = 0.21  # re-enter the small-digit window
    return tuple(digits)


def hall_halfline_probe(targets, depth: int = 8) -> list[HalflineHit]:
    """Construct, for each target t >= 6, periodic witnesses whose constant
    lands near t, and report the closest miss.

    The witness has one large marker digit A and small digits elsewhere:
    at the marker position the two-sided value is A + x + y with x and y
    continued fractions with digits in 1..4, and every x + y in a fixed
    interval around 1 is reachable by such pairs — that is what makes
    every t >= 6 approachable.  All other positions contribute at most
    4 + 2 < 6.  The family is sampled over side lengths 2..depth.
    """
    if depth < 2:
        raise ValidationError("depth must be >= 2")
    targets = [float(t) for t in targets]
    if any(t < 6.0 for t in targets):
        raise ValidationError("targets must be >= 6")
    hits = []
    for t in targets:
        a_big = math.floor(t - 1.0)
        s = t - a_big
        if s > HALL_TARGET[1] - 0.05:
            a_big += 1
            s = t - a_big
        best: HalflineHit | None = None
        for m in range(2, depth + 1):
            u = _clamped_expansion(min(max(s / 2.0, 0.21), 0.82), m)
            pu, qu = cf_value(u)
            y_target = min(max(s - pu / qu, 0.21), 0.82)
            v = _clamped_expansion(y_target, m)
            word = (a_big,) + u + tuple(reversed(v))
            value, exact, _rot = _exact_periodic_k(word)
            dist = abs(value - t)
            if best is None or dist < best.hit_distance:
                best = HalflineHit(
                    target=t,
                    hit_distance=dist,
                    k_value=value,
                    witness=word,
                )
        hits.append(best)
    return hits
