"""Fractal invariants of regular Cantor sets computed from finite covers.

Three estimators are provided:

* box-counting dimension: least-squares slope of log(count) against
  -log(radius) across a schedule of cover depths, where the radius at
  each depth is the longest interval of that cover;
* Moran/Hausdorff dimension: the unique root of the strictly decreasing
  map d -> sum (|I|/|hull|)^d - 1 over a single cover, found by
  bisection to full double precision, with no tolerance to choose;
* thickness: Newhouse's ordered-gap quantity min over gaps of
  min(|L|,|R|)/|gap|, with bridges measured to the nearest larger
  (previously processed) gap or to the hull endpoints.

Lengths in the Moran equation are normalized by the hull length so the
result is exactly invariant under affine rescaling of the set; for sets
whose hull is the unit interval this coincides with the raw equation
sum |I|^d = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cantor_core import Interval, RegularCantorSet, _address, _ordered_gaps, refine
from .errors import DegenerateCover, NoGaps, ValidationError


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    method: str
    residual: float
    depth_used: int
    depths: tuple[int, ...] = ()
    counts: tuple[int, ...] = ()
    radii: tuple[float, ...] = ()


@dataclass(frozen=True)
class ThicknessEstimate:
    value: float
    depth: int
    limiting_gap: Interval
    limiting_gap_address: tuple[int, ...]


# ---------------------------------------------------------------------------
# box-counting


def box_regression(radii: list[float], counts: list[int]) -> tuple[float, float]:
    """Least-squares slope of log(count) against -log(radius), with RMS residual."""
    if len(radii) != len(counts) or len(radii) < 2:
        raise ValidationError("box regression needs at least two (radius, count) points")
    x = -np.log(np.asarray(radii, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    if float(np.ptp(x)) == 0.0:
        raise ValidationError("box regression needs at least two distinct radii")
    (slope, intercept), res, *_ = np.polyfit(x, y, 1, full=True)
    rms = math.sqrt(float(res[0]) / len(x)) if len(res) else 0.0
    return float(slope), rms


def box_dimension(
    K: RegularCantorSet, depths, *, budget: int | None = None
) -> DimensionEstimate:
    """Box-counting estimate from covers at each depth in `depths`.

    At depth n the radius is the longest interval of the depth-n cover
    and the count is the number of cover intervals; the estimate is the
    regression slope across the schedule.
    """
    depths = sorted(set(int(n) for n in depths))
    if not depths:
        raise ValidationError("depth schedule is empty")
    radii: list[float] = []
    counts: list[int] = []
    for n in depths:
        cover = refine(K, n, budget=budget)
        radii.append(float(cover.lengths.max()))
        counts.append(len(cover))
    slope, rms = box_regression(radii, counts)
    return DimensionEstimate(
        value=slope,
        method="box",
        residual=rms,
        depth_used=depths[-1],
        depths=tuple(depths),
        counts=tuple(counts),
        radii=tuple(radii),
    )


# ---------------------------------------------------------------------------
# Moran / Hausdorff


def moran_root(ratios: list[float]) -> float:
    """Root of d -> sum ratios^d - 1 on [0, 1 + 1e-9], bisected until the
    ends are neighbouring floats; at most 1 where the sum at d = 1 is at
    most 1.

    Each ratio must lie strictly inside (0, 1) and the ratios must sum
    to more than 1 at d = 0 (i.e. at least two of them), which makes the
    map strictly decreasing with a sign change across the bracket.
    """
    for rho in ratios:
        if not rho > 0.0:
            raise DegenerateCover("cover contains an interval of zero length")
        if rho >= 1.0:
            raise ValidationError(f"length ratio {rho} is not < 1")
    log_r = np.log(np.asarray(ratios, dtype=float))

    def f(d: float) -> float:
        return float(np.exp(d * log_r).sum()) - 1.0

    lo, hi = 0.0, 1.0 + 1e-9
    if f(lo) <= 0.0:
        return 0.0
    if f(hi) > 0.0:
        raise ValidationError("length ratios keep the Moran sum above 1 at d = 1")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    # the bracket tops out above 1 to admit roots that rounding puts just
    # past it; where the root is at most 1, so is the answer
    if hi > 1.0 and f(1.0) <= 0.0:
        hi = 1.0
    return 0.5 * (lo + hi)


def hausdorff_dimension_moran(
    K: RegularCantorSet, n: int, *, budget: int | None = None
) -> DimensionEstimate:
    """Moran-equation dimension from the depth-n cover.

    Solves sum over cover intervals of (|I|/|hull|)^d = 1.  For affine
    sets whose branch ratios are all equal the root does not depend on
    the depth; for Moebius sets the bounded distortion makes successive
    roots drift slightly, so the depth is part of the reported record.
    """
    cover = refine(K, n, budget=budget)
    hull_len = float(K.hull.length)
    ratios = cover.lengths / hull_len
    value = moran_root(ratios)
    residual = abs(float(np.exp(value * np.log(ratios)).sum()) - 1.0)
    return DimensionEstimate(
        value=value,
        method="moran",
        residual=residual,
        depth_used=n,
        depths=(n,),
        counts=(len(cover),),
        radii=(float(cover.lengths.max()),),
    )


# ---------------------------------------------------------------------------
# thickness


def thickness(
    K: RegularCantorSet, n: int, *, budget: int | None = None
) -> ThicknessEstimate:
    """Newhouse thickness of the depth-n cover.

    Gaps are processed in decreasing length (ties left to right); the
    bridges L and R of a gap run from its endpoints to the nearest
    endpoint of an already-processed (larger) gap or of the hull
    (`cantor_core._ordered_gaps`).  The cover's own endpoints are used:
    on an exact set the integer numerators over the depth's one
    denominator, whose int quotients min(|L|,|R|)/|gap| round correctly
    and, where two round alike, compare by cross-multiplying; only the
    limiting gap's ends become `Fraction`s.  Float affine and Moebius
    covers are in floats.  The reported address is that of the cover
    interval left of the minimizing gap: the itinerary of its midpoint
    (`cantor_core._address`), in `Fraction`s on exact and Moebius sets.
    """
    if n < 1:
        raise ValidationError("thickness needs depth >= 1")
    cover = refine(K, n, budget=budget)
    nums, hull = cover._leaves.nums, (K.hull.lo, K.hull.hi)
    if nums is None:
        den, los, his = None, cover.los.tolist(), cover.his.tolist()
    else:  # every leaf is at depth n: one denominator
        den, los, his = int(nums[2][0]), nums[0].tolist(), nums[1].tolist()
        hull = tuple(int(x * den) for x in hull)
    gaps = [(a, b, i) for i, (a, b) in enumerate(zip(his, los[1:])) if b > a]
    if not gaps:
        raise NoGaps(f"depth-{n} cover exposes no gaps")
    best = (math.inf, 0, 1, gaps[0])  # ratio, bridge, gap length, gap
    for gap, left, right in _ordered_gaps(hull, gaps):
        bridge, width = min(gap[0] - left, right - gap[1]), gap[1] - gap[0]
        ratio = bridge / width
        if ratio < best[0] or (ratio == best[0] and den and bridge * best[2] < best[1] * width):
            best = (ratio, bridge, width, gap)
    ratio, _, _, (g_lo, g_hi, i) = best
    if den:
        g_lo, g_hi = Fraction(g_lo, den), Fraction(g_hi, den)
    address = _address(K, Fraction(los[i] + his[i]) / (2 * (den or 1)), n)
    return ThicknessEstimate(value=ratio, depth=n, limiting_gap=Interval(g_lo, g_hi), limiting_gap_address=address)

