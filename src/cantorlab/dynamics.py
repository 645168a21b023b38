"""Dynamical-systems experiments backed by the Cantor-set machinery.

Three small laboratories:

* the idealized affine two-strip horseshoe, whose invariant set is the
  product of a stable and an unstable regular Cantor set, with its
  Hausdorff dimension the sum of the two factor dimensions, each in the
  closed form log 2 / log(1/ratio) (Moran 1946);
* the hyperbolic torus automorphism (x, y) -> (2x + y, x + y) mod 1,
  with exact surd eigenvalues and exact periodic-point counts verified
  two independent ways (trace formula vs rational lattice enumeration);
* the area-preserving standard family
  (x, y) -> (-y + 2x + lam*sin(2*pi*x), x) mod 1, probed for positive
  Lyapunov exponents with QR-normalized derivative cocycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cantor_core import RegularCantorSet, build_affine, resolve_budget
from .dimension import nonuniform_condition
from .errors import BudgetExceeded, ValidationError
from .surd import QuadraticSurd

CAT_MATRIX = ((2, 1), (1, 1))
LYAPUNOV_BURN_IN = 100
POSITIVE_EXPONENT_THRESHOLD = 0.05


# ---------------------------------------------------------------------------
# affine horseshoe


@dataclass(frozen=True)
class AffineHorseshoe:
    """Two horizontal strips squeezed by `contraction` and stretched by
    `expansion` onto two vertical strips; disjointness needs
    contraction < 1/2 and 1/expansion < 1/2."""

    contraction: float | Fraction
    expansion: float | Fraction

    def __post_init__(self) -> None:
        if not (0 < float(self.contraction) and self.contraction < Fraction(1, 2)):
            raise ValidationError("contraction must lie in (0, 1/2) and not round to 0 as a float")
        if not (self.expansion > 2):
            raise ValidationError("expansion must exceed 2")


def _two_piece_set(ratio) -> RegularCantorSet:
    if isinstance(ratio, (int, Fraction)):
        r = Fraction(ratio)
        pieces = [(Fraction(0), r), (1 - r, Fraction(1))]
    else:
        r = float(ratio)
        pieces = [(0.0, r), (1.0 - r, 1.0)]
    return build_affine(pieces, [(0, 1), (0, 1)])


def horseshoe_cantor_sets(h: AffineHorseshoe) -> tuple[RegularCantorSet, RegularCantorSet]:
    """Stable and unstable factor sets: two pieces of ratio `contraction`
    and two pieces of ratio 1/expansion, both spanning [0, 1]."""
    # a Fraction for int or Fraction expansions, a float for a float
    return _two_piece_set(h.contraction), _two_piece_set(Fraction(1) / h.expansion)


@dataclass(frozen=True)
class HorseshoeReport:
    stable_dimension: float
    unstable_dimension: float
    total_dimension: float
    at_unit_dimension: bool
    nonuniform_condition: bool


def horseshoe_dimension(h: AffineHorseshoe) -> HorseshoeReport:
    """Dimension of the invariant set, d_s + d_u: each factor is two
    pieces of one ratio r, whose Moran equation 2 r^d = 1 has the root
    log 2 / log(1/r), with r = `contraction` and 1/`expansion`.

    The boundary case total = 1 separates the thin regime (typically
    trivial intersections) from the fat one, and is flagged.  So is the
    Palis-Yoccoz condition on the two dimensions (`nonuniform_condition`):
    under it, the unfolding of a homoclinic tangency of the horseshoe is
    non-uniformly hyperbolic for most parameters.
    """
    ds = math.log(2.0) / -math.log(h.contraction)
    du = math.log(2.0) / math.log(h.expansion)
    total = ds + du
    return HorseshoeReport(
        stable_dimension=ds,
        unstable_dimension=du,
        total_dimension=total,
        at_unit_dimension=abs(total - 1.0) <= 1e-9,
        # a contraction within rounding of 1/2 may give ds = 1; any
        # dimension >= 1 fails the condition, which needs both below 1
        nonuniform_condition=max(ds, du) < 1.0 and nonuniform_condition(ds, du),
    )


def solve_unit_dimension(expansion: float) -> HorseshoeReport:
    """The horseshoe of total dimension 1 for this expansion: d_s = 1 - d_u
    gives the contraction c = 2^(-1/(1 - d_u)) in closed form, below 1/2
    since the expansion exceeds 2.  The returned report carries the
    boundary flag."""
    if not expansion > 2:
        raise ValidationError("expansion must exceed 2")
    du = math.log(2.0) / math.log(expansion)
    c = 2.0 ** (-1.0 / (1.0 - du))
    return horseshoe_dimension(AffineHorseshoe(contraction=c, expansion=expansion))


# ---------------------------------------------------------------------------
# torus automorphism


def _mat_mul(a, b) -> tuple[tuple[int, int], tuple[int, int]]:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_pow(a, n: int):
    result = ((1, 0), (0, 1))
    base = a
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return result


def enumerate_torus_periodic_points(n: int) -> tuple[int, list[tuple[int, int]]]:
    """All fixed points of the n-th iterate on the torus, as (m, points):
    each point is (u/m, v/m) for an integer pair (u, v) in [0, m)^2, where
    m = |det(A^n - I)|, via the lattice (A^n - I) x in Z^2."""
    an = _mat_pow(CAT_MATRIX, n)
    a, b, c, d = an[0][0] - 1, an[0][1], an[1][0], an[1][1] - 1
    det = a * d - b * c
    if det == 0:
        raise ValidationError("iterate has non-isolated fixed points")
    # M = A^n - I has column Hermite form [[g, 0], [h, det/g]] with
    # g = gcd(a, b), so the (i, j) below run once over Z^2 / M Z^2 and
    # x = M^-1 (i, j) mod 1 runs once over the fixed points; M^-1 is
    # adj(M) / det, so m x = sign(det) adj(M) (i, j) is an integer pair
    m, s = abs(det), (1 if det > 0 else -1)
    g = math.gcd(a, b)
    points = []
    seen = set()
    for i in range(g):
        for j in range(m // g):
            x = (s * (d * i - b * j) % m, s * (a * j - c * i) % m)
            if x in seen:
                raise ValidationError("lattice enumeration produced a duplicate point")
            seen.add(x)
            points.append(x)
    return m, points


@dataclass(frozen=True)
class CatMapReport:
    eigenvalue_unstable: QuadraticSurd
    eigenvalue_stable: QuadraticSurd
    product_is_one: bool
    hyperbolic: bool
    counts: tuple[tuple[int, int, int], ...]  # (n, trace formula, enumerated)
    all_counts_match: bool


def cat_map_check(n_periods: int, *, budget: int | None = None) -> CatMapReport:
    """Exact hyperbolicity data for the torus automorphism.

    Eigenvalues are exact surds (3 +- sqrt(5))/2; for each n up to
    n_periods the periodic-point count is computed from the trace of
    the n-th matrix power and independently by enumerating the rational
    lattice of fixed points, each point re-verified by the congruence
    A^n (u, v) = (u, v) mod m in integers.
    """
    if n_periods < 1:
        raise ValidationError("need n_periods >= 1")
    limit = resolve_budget(budget)
    lam_u = QuadraticSurd.quadratic_root(1, -3, 1, branch=+1)
    lam_s = QuadraticSurd.quadratic_root(1, -3, 1, branch=-1)
    one = QuadraticSurd.from_rational(1)
    product_ok = (lam_u * lam_s).equals(one)
    hyperbolic = float(lam_u) > 1.0 > float(lam_s) > 0.0
    counts = []
    all_match = True
    for n in range(1, n_periods + 1):
        an = _mat_pow(CAT_MATRIX, n)
        formula = an[0][0] + an[1][1] - 2
        if formula > limit:
            raise BudgetExceeded(
                f"{formula} periodic points at n={n} exceed budget {limit}"
            )
        m, points = enumerate_torus_periodic_points(n)
        for u, v in points:
            if ((an[0][0] * u + an[0][1] * v) % m, (an[1][0] * u + an[1][1] * v) % m) != (u, v):
                raise ValidationError(f"enumerated point {(u, v)}/{m} is not fixed")
        counts.append((n, formula, len(points)))
        all_match = all_match and formula == len(points)
    return CatMapReport(
        eigenvalue_unstable=lam_u,
        eigenvalue_stable=lam_s,
        product_is_one=product_ok,
        hyperbolic=hyperbolic,
        counts=tuple(counts),
        all_counts_match=all_match,
    )


# ---------------------------------------------------------------------------
# standard family


@dataclass(frozen=True)
class LyapunovReport:
    lam: float
    orbits: int
    iterates: int
    seed: int
    exponents: np.ndarray  # shape (orbits, 2), top and bottom per orbit

    @property
    def top_exponents(self) -> np.ndarray:
        return self.exponents[:, 0]

    @property
    def mean_exponent(self) -> float:
        return float(np.mean(self.exponents[:, 0]))

    @property
    def fraction_positive(self) -> float:
        return float(np.mean(self.exponents[:, 0] > POSITIVE_EXPONENT_THRESHOLD))

    @property
    def max_abs_pair_sum(self) -> float:
        return float(np.max(np.abs(self.exponents.sum(axis=1))))


def standard_family_lyapunov(
    lam: float, orbits: int, iterates: int, seed: int = 0
) -> LyapunovReport:
    """Lyapunov exponents of (x, y) -> (-y + 2x + lam*sin(2*pi*x), x) mod 1.

    Random initial conditions; the derivative cocycle
    [[2 + 2*pi*lam*cos(2*pi*x), -1], [1, 0]] (determinant 1) is pushed
    with per-step Gram-Schmidt normalization, discarding the first
    LYAPUNOV_BURN_IN iterates.  The two per-orbit exponents sum to ~0 by
    area preservation; statistics are deterministic given the seed.
    """
    if orbits < 1 or iterates < 1:
        raise ValidationError("orbits and iterates must be >= 1")
    lam = float(lam)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=orbits)
    y = rng.uniform(0.0, 1.0, size=orbits)
    q0x, q0y = np.ones(orbits), np.zeros(orbits)
    q1x, q1y = np.zeros(orbits), np.ones(orbits)
    log0 = np.zeros(orbits)
    log1 = np.zeros(orbits)
    for step in range(LYAPUNOV_BURN_IN + iterates):
        a = 2.0 + 2.0 * math.pi * lam * np.cos(2.0 * math.pi * x)
        # push both frame vectors through [[a, -1], [1, 0]]
        b0x, b0y = a * q0x - q0y, q0x
        b1x, b1y = a * q1x - q1y, q1x
        r00 = np.sqrt(b0x * b0x + b0y * b0y)
        q0x, q0y = b0x / r00, b0y / r00
        r01 = q0x * b1x + q0y * b1y
        b1x, b1y = b1x - r01 * q0x, b1y - r01 * q0y
        r11 = np.sqrt(b1x * b1x + b1y * b1y)
        q1x, q1y = b1x / r11, b1y / r11
        if step >= LYAPUNOV_BURN_IN:
            log0 += np.log(r00)
            log1 += np.log(r11)
        x, y = (-y + 2.0 * x + lam * np.sin(2.0 * math.pi * x)) % 1.0, x
    exponents = np.stack([log0 / iterates, log1 / iterates], axis=1)
    return LyapunovReport(
        lam=lam,
        orbits=orbits,
        iterates=iterates,
        seed=seed if isinstance(seed, int) else 0,
        exponents=exponents,
    )
