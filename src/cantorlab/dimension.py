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

import numpy as np

from .cantor_core import Interval, RegularCantorSet, _ordered_gaps, refine
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
        radii.append(float(cover.max_length))
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
    ratios = [float(iv.length) / hull_len for iv in cover.intervals]
    value = moran_root(ratios)
    residual = abs(float(np.exp(value * np.log(ratios)).sum()) - 1.0)
    return DimensionEstimate(
        value=value,
        method="moran",
        residual=residual,
        depth_used=n,
        depths=(n,),
        counts=(len(cover),),
        radii=(float(cover.max_length),),
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
    (`cantor_core._ordered_gaps`).  The cover's own endpoints are used,
    so the value is exact up to the final rounding on exact sets; Moebius
    covers are in floats.  The reported address is that of the cover
    interval immediately to the left of the minimizing gap.
    """
    if n < 1:
        raise ValidationError("thickness needs depth >= 1")
    cover = refine(K, n, budget=budget)
    ivs = cover.intervals
    gaps = [
        (left.hi, right.lo, addr)
        for left, right, addr in zip(ivs, ivs[1:], cover.addresses)
        if right.lo > left.hi
    ]
    if not gaps:
        raise NoGaps(f"depth-{n} cover exposes no gaps")
    best, best_gap = math.inf, gaps[0]
    for gap, left, right in _ordered_gaps((K.hull.lo, K.hull.hi), gaps):
        g_lo, g_hi, _ = gap
        ratio = min(g_lo - left, right - g_hi) / (g_hi - g_lo)
        if ratio < best:
            best, best_gap = ratio, gap
    return ThicknessEstimate(
        value=float(best),
        depth=n,
        limiting_gap=Interval(best_gap[0], best_gap[1]),
        limiting_gap_address=best_gap[2],
    )


# ---------------------------------------------------------------------------
# dimension arithmetic for hyperbolic products


def nonuniform_condition(ds: float, du: float) -> bool:
    """Strict smallness test for a pair of transverse dimensions.

    Returns True iff (ds + du)^2 + max(ds, du)^2 < ds + du + max(ds, du).
    """
    if not (0.0 < ds < 1.0 and 0.0 < du < 1.0):
        raise ValidationError("both dimensions must lie strictly between 0 and 1")
    s, m = ds + du, max(ds, du)
    return s * s + m * m < s + m
