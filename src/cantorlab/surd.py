"""Exact arithmetic in real quadratic fields.

A value is stored as (p + q*sqrt(d)) / r with integer p, q, r, r > 0,
gcd(p, q, r) = 1 and d a non-square >= 2, kept as given (never factored).
Rationals are the special case q = 0, d = 0.  sqrt(d1) and sqrt(d2) mix
exactly when d1*d2 is a perfect square s^2, as sqrt(d1) = (s/d2)*sqrt(d2);
other pairs lie in distinct fields and raise ValidationError.  `==` and
`hash` compare values, through the minimal-polynomial form `canonical()`.
A radicand from outside is checked non-square in `make` (a square folds
into p) and in the constructor (refused); arithmetic reuses an operand's
radicand, so `_surd` builds its results with neither check.

The module also evaluates purely periodic continued fractions exactly:
[a1; a2, ..., ap, a1, a2, ...] is the attracting fixed point of the
composition of x -> a + 1/x steps, hence the positive root of an integer
quadratic whose discriminant is D = trace^2 - 4*det of the word matrix.
The two roots differ by sqrt(D) / c, c the lower-left entry of the word
matrix; `spectra` reads two-sided values from exactly that.  The hull ends
of the continued-fraction set with digits 1..N are such values too
(`_gauss_hull_surds`): `cantor_core` builds `gauss<N>` from them and
`spectra` Hall's target interval, so neither borrows from the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import ValidationError

Rational = Union[int, Fraction]


@dataclass(frozen=True, eq=False)
class QuadraticSurd:
    """(p + q*sqrt(d)) / r, normalized.  Immutable; compares and hashes by value."""

    p: int
    q: int
    r: int
    d: int

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValidationError("denominator must be positive")
        if self.q == 0 and self.d != 0:
            raise ValidationError("rational surd must carry d = 0")
        if self.q != 0 and (self.d < 2 or math.isqrt(self.d) ** 2 == self.d):
            raise ValidationError("irrational surd needs a non-square d >= 2")

    # -- construction -------------------------------------------------

    @staticmethod
    def make(p: int, q: int, r: int, d: int) -> "QuadraticSurd":
        """Normalize and build.  d is kept as given unless it is a perfect square."""
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        if q and d < 0:
            raise ValidationError("irrational surd needs a non-square d >= 2")
        if q and (s := math.isqrt(d)) * s == d:  # d = 0 too
            p, q = p + q * s, 0
        return _surd(p, q, r, d)

    @staticmethod
    def from_rational(x: Rational) -> "QuadraticSurd":
        f = Fraction(x)
        return _surd(f.numerator, 0, f.denominator, 0)

    @staticmethod
    def sqrt_of_int(n: int) -> "QuadraticSurd":
        return QuadraticSurd.make(0, 1, 1, n)

    @staticmethod
    def quadratic_root(a: int, b: int, c: int, branch: int = +1) -> "QuadraticSurd":
        """Root (-b + branch*sqrt(b*b - 4*a*c)) / (2*a) of a*x^2+b*x+c."""
        if a == 0:
            raise ZeroDivisionError("not a quadratic")
        disc = b * b - 4 * a * c
        if disc < 0:
            raise ValidationError("complex roots")
        return QuadraticSurd.make(-b, branch, 2 * a, disc)

    # -- identity -------------------------------------------------------

    def canonical(self) -> "QuadraticSurd":
        """The value as a root of its primitive a*x^2 + b*x + c, a > 0.

        That is (-b/2 + q*sqrt(b^2/4 - a*c)) / a for even b, else
        (-b + q*sqrt(b^2 - 4*a*c)) / (2*a), with q = +1 for the larger
        root and -1 for the smaller: one form per value.
        """
        if self.q == 0:
            return self
        # r*x - p = q*sqrt(d)  ->  r^2 x^2 - 2*p*r x + (p^2 - q^2 d) = 0
        a = self.r * self.r
        b = -2 * self.p * self.r
        c = self.p * self.p - self.q * self.q * self.d
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        side = 1 if self.q > 0 else -1
        if b % 2 == 0:
            return _surd(-b // 2, side, a, b * b // 4 - a * c)
        return _surd(-b, side, 2 * a, b * b - 4 * a * c)

    def _key(self) -> tuple[int, int, int, int]:
        c = self.canonical()
        return c.p, c.q, c.r, c.d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- field plumbing -------------------------------------------------

    def _align(self, other: "SurdLike") -> tuple["QuadraticSurd", "QuadraticSurd", int]:
        """Both operands, in either order, over one radicand (0: both rational)."""
        o = self._coerce(other)
        a, b = (self, o) if self.d <= o.d else (o, self)
        if a.q == 0 or a.d == b.d:
            return a, b, b.d
        s = math.isqrt(a.d * b.d)
        if s * s != a.d * b.d:
            raise ValidationError(f"mixing sqrt({a.d}) with sqrt({b.d})")
        # sqrt(b.d) = (s / a.d) * sqrt(a.d)
        return a, _surd(b.p * a.d, b.q * s, b.r * a.d, a.d), a.d

    @staticmethod
    def _coerce(x: "SurdLike") -> "QuadraticSurd":
        if isinstance(x, QuadraticSurd):
            return x
        if isinstance(x, int):
            return _surd(x, 0, 1, 0)
        return QuadraticSurd.from_rational(x)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "SurdLike") -> "QuadraticSurd":
        if isinstance(other, int):
            return _surd(self.p + other * self.r, self.q, self.r, self.d)
        a, b, d = self._align(other)
        return _surd(a.p * b.r + b.p * a.r, a.q * b.r + b.q * a.r, a.r * b.r, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticSurd":
        return _surd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other: "SurdLike") -> "QuadraticSurd":
        return self + (-other)

    def __rsub__(self, other: "SurdLike") -> "QuadraticSurd":
        return -self + other

    def __mul__(self, other: "SurdLike") -> "QuadraticSurd":
        if isinstance(other, int):
            return _surd(other * self.p, other * self.q, self.r, self.d)
        a, b, d = self._align(other)
        p = a.p * b.p + a.q * b.q * d
        q = a.p * b.q + a.q * b.p
        return _surd(p, q, a.r * b.r, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticSurd":
        # 1/((p+q*sqrt(d))/r) = r*(p - q*sqrt(d)) / (p^2 - q^2 d)
        norm = self.p * self.p - self.q * self.q * self.d
        if norm == 0:
            raise ZeroDivisionError("surd is zero")
        return _surd(self.r * self.p, -self.r * self.q, norm, self.d)

    def __truediv__(self, other: "SurdLike") -> "QuadraticSurd":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: "SurdLike") -> "QuadraticSurd":
        return self._coerce(other) * self.inverse()

    # -- order ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value: -1, 0, or +1."""
        t, q = self.p, self.q
        if q == 0:
            return (t > 0) - (t < 0)
        if t >= 0 and q > 0:
            return 1
        if t <= 0 and q < 0:
            return -1
        # opposite signs: compare t^2 against q^2 d
        tt, qq = t * t, q * q * self.d
        if tt == qq:
            return 0
        bigger_rational = tt > qq
        return (1 if bigger_rational else -1) * (1 if t > 0 else -1)

    def _cmp(self, other: "SurdLike") -> int:
        return (self - other).sign()

    def __lt__(self, other: "SurdLike") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "SurdLike") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "SurdLike") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "SurdLike") -> bool:
        return self._cmp(other) >= 0

    def equals(self, other: "SurdLike") -> bool:
        return self._cmp(other) == 0

    # -- conversions ----------------------------------------------------

    def __float__(self) -> float:
        return _to_float(self.p, self.q, self.r, self.d)

    def __repr__(self) -> str:
        if self.q == 0:
            return f"Surd({Fraction(self.p, self.r)})"
        return f"Surd(({self.p} + {self.q}*sqrt({self.d}))/{self.r})"


SurdLike = Union[QuadraticSurd, int, Fraction]


@lru_cache(maxsize=4096)
def _scaled_root(d: int, shift: int) -> int:
    """floor(2^shift * sqrt(d)), kept per radicand and shift: the forward
    values of one continued fraction share their radicand."""
    return math.isqrt(d << (2 * shift))


def _to_float(p: int, q: int, r: int, d: int) -> float:
    """(p + q*sqrt(d)) / r correctly rounded, for r != 0 of either sign
    and d non-square (or q = 0), in lowest terms or not."""
    if q == 0:
        return p / r
    # 2^shift * sqrt(d) lies in [root, root + 1), root = _scaled_root(d,
    # shift), so the numerator lies within |q| of num.  Int division
    # rounds correctly; once both ends of the enclosure round alike, so
    # does the value.  An irrational value never sits on a rounding
    # boundary, so doubling terminates.
    shift = 60
    while True:
        num, den = (p << shift) + q * _scaled_root(d, shift), r << shift
        lo, hi = (num - abs(q)) / den, (num + abs(q)) / den
        if lo == hi:
            return lo
        shift *= 2


def _surd(p: int, q: int, r: int, d: int) -> QuadraticSurd:
    """(p + q*sqrt(d)) / r in lowest terms, built without __init__: valid by
    construction for r != 0 and d non-square (or q = 0)."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    s = object.__new__(QuadraticSurd)
    s.__dict__.update(p=p, q=q, r=r, d=d if q else 0)
    return s


def word_matrix(word: Sequence[int]) -> tuple[int, int, int, int]:
    """Product of [[a, 1], [1, 0]] over the word, as (m00, m01, m10, m11)."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in word:
        if a < 1:
            raise ValidationError("continued-fraction digits must be >= 1")
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    return m00, m01, m10, m11


def periodic_value(word: Sequence[int]) -> QuadraticSurd:
    """Exact value of the purely periodic continued fraction [w; w, w, ...].

    The result is > 1 and lies over the word's discriminant
    trace^2 - 4*det, whatever its size.  Raises ValidationError for an
    empty word.
    """
    word = tuple(word)
    if not word:
        raise ValidationError("empty period")
    m00, m01, m10, m11 = word_matrix(word)
    # x = (m00 x + m01)/(m10 x + m11)  ->  m10 x^2 + (m11 - m00) x - m01 = 0
    return QuadraticSurd.quadratic_root(m10, m11 - m00, -m01, branch=+1)


def _gauss_hull_surds(n: int) -> tuple[QuadraticSurd, QuadraticSurd]:
    """Exact hull endpoints [0; n,1,n,1,...] and [0; 1,n,1,n,...] of the
    continued-fraction set with partial quotients in 1..n."""
    # y_min solves n*y^2 + n*y - 1 = 0
    y_min = QuadraticSurd.quadratic_root(n, n, -1, branch=+1)
    return y_min, (QuadraticSurd.from_rational(1) + y_min).inverse()
