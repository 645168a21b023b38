"""Continued fractions and best-approximation spectra.

The central quantity is, for an irrational x with continued-fraction
digits (a_1, a_2, ...), the limsup over n of

    [a_{n+1}; a_{n+2}, ...] + [0; a_n, a_{n-1}, ..., a_1],

equal to the classical best-approximation constant
limsup 1/|q_n (q_n x - p_n)|.  For an eventually periodic digit
sequence the limsup is attained along the period and is a quadratic
surd.  At rotation i of the period w, the forward value
x_i = [w_i; w_{i+1}, ...] is a root of that rotation's word matrix
quadratic, and Galois' theorem on purely periodic continued fractions
gives [0; w_{i-1}, w_{i-2}, ...] = -x̄_i for its other root x̄_i.  So
the two-sided value is x_i - x̄_i = sqrt(D) / c_i, where
D = trace^2 - 4*det of the word matrix is the same for every rotation
and c_i is the lower-left entry of rotation i's matrix: the limsup is
sqrt(D) / min c_i, from integer matrix entries alone (rotation i + 1's matrix
is rotation i's conjugated by [[w_i, 1], [1, 0]]), returned in canonical form.
Two windowed estimators run in one loop as a mandatory cross-check, on x and
its forward values as integer numerators over D: each x_i read off its
rotation's matrix, and a prefix folded backwards onto them.  `lagrange_sample`
enumerates periods as Lyndon words (Duval's method).

cf_value note: convergent numerators and denominators are arbitrary-
precision integers, so the documented overflow failure mode cannot
trigger here; the continuant recursion is exact at every size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import BudgetExceeded, EstimatorMismatch, ValidationError, resolve_budget
from .surd import QuadraticSurd, _gauss_hull_surds, _to_float, word_matrix

ESTIMATOR_TOL = 1e-9


# ---------------------------------------------------------------------------
# digit sequences


def _digit_tuple(digits) -> tuple[int, ...]:
    """The digits as Python ints; each must be an integer >= 1 (not a bool)."""
    out = []
    for d in digits:
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
            raise ValidationError(f"digits must be integers >= 1, got {d!r}")
        out.append(int(d))
    return tuple(out)


@dataclass(frozen=True)
class CFSequence:
    """Eventually periodic continued-fraction digits a_1, a_2, ... (all >= 1):
    `prefix` once, then the nonempty `period` repeated forever."""

    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", _digit_tuple(self.prefix))
        object.__setattr__(self, "period", _digit_tuple(self.period))
        if not self.period:
            raise ValidationError("k is defined for infinite sequences: give a nonempty period")

    def digits(self, n: int) -> tuple[int, ...]:
        """First n digits."""
        repeats = max(0, n - len(self.prefix)) // len(self.period) + 1
        return (self.prefix + self.period * repeats)[:n]

    def describe(self) -> str:
        head = ",".join(str(d) for d in self.prefix)
        tail = ",".join(str(d) for d in self.period)
        return f"[{head};({tail})*]" if head else f"[({tail})*]"


# ---------------------------------------------------------------------------
# convergents


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

    `witness` is the digit word realizing the value: the first rotation
    of the period with the largest two-sided value.  `exact` is that
    value, sqrt(D) / c, in canonical form (`QuadraticSurd.canonical`).
    `estimator_gap` is the disagreement between the two independent
    windowed estimators (always checked against the mismatch tolerance
    before a value is returned).
    """

    value: float
    witness: tuple[int, ...]
    window: int
    exact: QuadraticSurd
    estimator_gap: float = 0.0

    def __float__(self) -> float:
        return self.value


def _rotations(word: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """D = trace^2 - 4*det of the word matrix, and the lower-left entry c_i
    and diagonal difference m00 - m11 of each rotation's matrix, whose fixed
    point x_i = [w_i; w_{i+1}, ...] is (m00 - m11 + sqrt(D)) / (2 c_i).
    Rotation matrices are conjugate, so they share D: rotation i + 1's is
    A^-1 M_i A, A = [[w_i, 1], [1, 0]]."""
    m00, m01, m10, m11 = word_matrix(word)
    disc = (m00 + m11) ** 2 - 4 * (m00 * m11 - m01 * m10)
    lower_lefts, diagonals = [], []
    for a in word:
        lower_lefts.append(m10)
        diagonals.append(m00 - m11)
        u = m00 - a * m10
        m00, m01, m10, m11 = a * m10 + m11, m10, m01 - a * m11 + a * u, u
    return disc, lower_lefts, diagonals


def two_sided_values(word: tuple[int, ...]) -> list[QuadraticSurd]:
    """Exact two-sided value at each position of the bi-infinite periodic word.

    At the position holding digit w[i] the value is
    [w_i; w_{i+1}, ...] + [0; w_{i-1}, w_{i-2}, ...] = sqrt(D) / c_i
    (see the module docstring); all positions live in one quadratic field.
    """
    disc, lower_lefts, _ = _rotations(word)
    return [QuadraticSurd.make(0, 1, c, disc) for c in lower_lefts]


def _exact_periodic_k(word: tuple[int, ...], rotations=None) -> tuple[float, QuadraticSurd, tuple[int, ...]]:
    """(value, canonical exact surd, maximizing rotation) for a periodic
    word, from its `_rotations` unless given.  The largest sqrt(D) / c_i
    has the smallest c_i; `index` takes the first such rotation."""
    disc, lower_lefts, _ = rotations or _rotations(word)
    best_i = lower_lefts.index(min(lower_lefts))
    best = QuadraticSurd.make(0, 1, lower_lefts[best_i], disc)
    return float(best), best.canonical(), word[best_i:] + word[:best_i]


def _estimator_positions(window: int) -> range:
    """Positions n at which both windowed estimators are evaluated.

    The early positions are skipped: there the backward continuant
    ratio q_{n-1}/q_n is still dominated by the artificial start of the
    window, which inflates the estimate above the limsup it targets.
    """
    return range(max(2, window // 2), window + 1)


def k_alpha(seq: CFSequence, window: int) -> SpectrumValue:
    """Best-approximation constant of an eventually periodic digit sequence.

    The returned value is the exact attained limsup sqrt(D) / min c_i
    over the rotations of the period (in `exact`), independent of any
    finite prefix.  As a cross-check, one loop runs two windowed
    estimators over the same positions n — the direct
    1/(q_n |q_n x - p_n|) from exact convergents of x, and the tail
    formula [a_{n+1}; a_{n+2}, ...] + q_{n-1}/q_n — and raises
    EstimatorMismatch when they disagree beyond 1e-9.  Both are exact
    until the final, correctly rounded float: x and its forward values
    are integer numerators (P + sqrt(D)) / Q over the period's
    discriminant D, the rotations' read off their matrices (`_rotations`)
    and the prefix's folded backwards onto them.
    """
    if window < 2:
        raise ValidationError("window must be >= 2")
    rotations = disc, lower_lefts, diagonals = _rotations(seq.period)
    value, exact, witness = _exact_periodic_k(seq.period, rotations)
    # F_j = a_j + 1/F_{j+1}, and 1/((P + sqrt(D)) / Q) = (sqrt(D) - P) / ((D - P^2) / Q)
    forwards = [(s, 2 * c) for s, c in zip(diagonals, lower_lefts)] * (window // len(diagonals) + 1)
    for a in reversed(seq.prefix):
        P, Q = forwards[0]
        Q = (disc - P * P) // Q
        forwards.insert(0, (a * Q - P, Q))
    P, Q = forwards[0]  # F_1 = 1/x, so x = (A + sqrt(D)) / R
    A, R = -P, (disc - P * P) // Q
    cs = convergents(seq.digits(window + 1))
    positions = _estimator_positions(window)
    # each distinct forward value F_{n+1} the tail estimator reads, rounded once
    floats = {F: _to_float(F[0], 1, F[1], disc) for F in {forwards[n] for n in positions}}
    direct, tail = [], []
    for n in positions:
        p_n, q_n = cs[n - 1]
        q_prev = cs[n - 2][1]
        # q_n*x - p_n = (B + q_n*sqrt(D)) / R, and its reciprocal times
        # 1/q_n is R*(B - q_n*sqrt(D)) / (q_n*(B^2 - q_n^2*D))
        B = q_n * A - p_n * R
        direct.append(abs(_to_float(R * B, -R * q_n, q_n * (B * B - q_n * q_n * disc), disc)))
        tail.append(floats[forwards[n]] + q_prev / q_n)
    best_direct, best_tail = max(direct), max(tail)
    gap = abs(best_direct - best_tail)
    if gap > ESTIMATOR_TOL:
        raise EstimatorMismatch(f"direct {best_direct} vs tail {best_tail} beyond {ESTIMATOR_TOL}")
    return SpectrumValue(value, witness, window, exact, gap)


# ---------------------------------------------------------------------------
# spectrum sampling


def _lyndon_words(max_length: int, digit_bound: int) -> list[tuple[int, ...]]:
    """The primitive words over 1..digit_bound, each as its least rotation,
    by length and then lexicographically (Duval's algorithm)."""
    words, w = [], [1]
    while w:
        words.append(tuple(w))
        w = (w * max_length)[:max_length]  # w extended periodically
        while w and w[-1] == digit_bound:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(words, key=len)


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
    # canonical surds are equal exactly when their fields are
    seen_values: set[tuple[int, int, int, int]] = set()
    for word in _lyndon_words(max_period, digit_bound):
        value, exact, best_rot = _exact_periodic_k(word)
        key = (exact.p, exact.q, exact.r, exact.d)
        if key in seen_values:
            continue
        seen_values.add(key)
        results.append(SpectrumValue(value, best_rot, len(word), exact))
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
    if not targets:
        raise ValidationError("need at least one target")
    if not all(6.0 <= t < math.inf for t in targets):  # false for NaN too
        raise ValidationError("targets must be finite and >= 6")
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
