"""Arithmetic of Cantor sets via finite covers.

Depth-n covers of two sets are combined pairwise to produce an outer
approximation of the sum K1 + K2 or the scaled difference K1 - t*K2;
the approximations are nested and their intersection over all depths is
the true arithmetic set.  All statements derived from these unions are
therefore one-sided: a sub-interval that survives in a single component
at some depth is evidence of containment, and a point that falls in a
gap at some depth is certified to be outside the limit set.

Pair blowup control: the two covers are refined to matching interval
lengths (|I| of the first roughly t*|J| of the second) instead of
matching depths, and when the pairwise count would still exceed the
budget the common length target is doubled until it fits (meta `capped`).
Coarsening preserves outer-approximation semantics; it only loses
sharpness.  Each set's tree is walked once per call of `cover_sum` or
`marstrand_scan` (once for both sets when they are equal), and every
target tried reads its cover from that one walk
(`cantor_core._LengthWalk`); nothing outlives the call.

Both `cover_sum`, which merges them into an `IntervalUnion`, and
`marstrand_scan`, which counts its grid cells straight from them, take
the intervals of a sum from `_sum_endpoints`: every pair, or the hull
interval the gap lemma below proves.  The scan merges only where the
resolutions are not nested or the finest grid has more cells than there
are intervals.

Gap-lemma pruning.  Newhouse's gap lemma, in the form of Astels (Trans.
AMS 2000): compact sets A, B with thickness tau(A)*tau(B) >= 1, each
hull at least as long as the other set's largest gap, have A + B =
hull(A) + hull(B).  Each exact affine set and each `gauss<N>` carries an
exact bound pair (tau, rho) valid in every cylinder I: the set inside I
has thickness >= tau and no gap longer than rho*|I|
(`RegularCantorSet._gap_bounds`).  A depth-n cover keeps a subset of
those gaps, and each of its bridges is at least as long, so the bounds
hold for it too.  Hence, when tau1*tau2 >= 1, |H1| >= rho2*lam*|H2| and
lam*|H2| >= rho1*|H1| for the hulls H1, H2, the outer sum at every depth
is exactly the interval H1 + lam*H2, taken, its exact ends rounded
outward, without building a cover.  The verdict compares `Fraction`s or
`QuadraticSurd`s; surds of two fields that do not mix prove nothing.
Every other pair (thin sets, float data, Moebius sets other than
`gauss<N>`, unbalanced hulls) takes the plain outer sum.  Cylinder pairs
below the hull pair are not pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cantor_core import (
    EPS_LEN,
    Exact,
    Interval,
    RegularCantorSet,
    _check_target_length,
    _LengthWalk,
    _maxlen_seed,
    maxlen_at_depth,
    refine,
)
from .errors import DEFAULT_COVER_BUDGET, BudgetExceeded, EmptyTarget, ValidationError, finite
from .surd import QuadraticSurd

MERGE_TOL = 1e-13
PAIR_BUDGET = 10 * DEFAULT_COVER_BUDGET
SCAN_PAIR_BUDGET = 4_000_000
DEFAULT_THETA = 0.05
DEFAULT_RESOLUTIONS = tuple(2.0**-k for k in range(6, 15))


# ---------------------------------------------------------------------------
# interval unions


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, strictly disjoint closed intervals stored as float arrays."""

    los: np.ndarray
    his: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.los.shape != self.his.shape or self.los.ndim != 1:
            raise ValidationError("union arrays must be 1-d and of equal length")
        if len(self.los) == 0:
            raise ValidationError("empty union")
        if np.any(self.his < self.los) or np.any(self.los[1:] <= self.his[:-1]):
            raise ValidationError("union intervals must be sorted and disjoint")

    @property
    def n_components(self) -> int:
        return len(self.los)

    @property
    def total_length(self) -> float:
        return float(np.sum(self.his - self.los))

    @property
    def hull(self) -> Interval:
        return Interval(float(self.los[0]), float(self.his[-1]))


def merge_intervals(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge possibly overlapping intervals; gaps <= MERGE_TOL are absorbed."""
    if len(los) == 0:
        raise ValidationError("nothing to merge")
    order = np.argsort(los, kind="stable")
    lo_s = los[order]
    hi_s = np.maximum.accumulate(his[order])
    starts = np.empty(len(lo_s), dtype=bool)
    starts[0] = True
    starts[1:] = lo_s[1:] > hi_s[:-1] + MERGE_TOL
    start_idx = np.flatnonzero(starts)
    end_idx = np.append(start_idx[1:], len(lo_s)) - 1
    return lo_s[start_idx].copy(), hi_s[end_idx].copy()


# ---------------------------------------------------------------------------
# pairwise combination


class _SetCovers:
    """On first use, the depth-n seed and maximum lengths of one set
    (`cantor_core._maxlen_seed`, exact on an exact set) and its length
    walk, each built once per public call."""

    def __init__(self, K: RegularCantorSet, n: int, budget: int) -> None:
        self.K, self.n, self.budget = K, n, budget

    @cached_property
    def seed(self) -> float:
        return float(_maxlen_seed(self.K, self.n))

    @cached_property
    def maxlen(self) -> float:
        return float(maxlen_at_depth(self.K, self.n))

    @cached_property
    def walk(self) -> _LengthWalk:
        return _LengthWalk(self.K, self.budget)


def _pair_sides(K1: RegularCantorSet, K2: RegularCantorSet, n: int, budget: int) -> tuple[_SetCovers, _SetCovers]:
    side1 = _SetCovers(K1, n, budget)
    return side1, side1 if K2 == K1 else _SetCovers(K2, n, budget)


def _first_target(len1: float, len2: float, scale: float) -> float:
    """Length target of the first cover (the second's is it over scale),
    from the depth-n maximum lengths of the two sets.

    Match granularities: both covers contribute intervals of the same
    scale to the sum, anchored at the coarser of the two depth-n
    granularities — refining one side far beyond the other only
    multiplies the pair count without shrinking the outer union.
    """
    return max(len1, scale * len2) * (1.0 + 1e-12)


def _pair_endpoints(
    side1: _SetCovers, side2: _SetCovers, op: str, lam: float
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Endpoints of all pairwise interval sums (lam != 0), unsorted, and
    the meta of the covers behind them."""
    scale = 1.0 if op == "+" else abs(lam)
    target1 = _first_target(side1.maxlen, side2.maxlen, scale)
    for step in range(64):
        # skip, unwalked, a step whose two covers are proved to pass the
        # budget together; each walk refuses alone a cover it proves too large
        least = side1.walk.least(target1) * side2.walk.least(target1 / scale)
        if least <= side1.budget and side1.walk.fits(target1) and side2.walk.fits(target1 / scale):
            c1, c2 = side1.walk.cover(target1), side2.walk.cover(target1 / scale)
            if len(c1) * len(c2) <= side1.budget:
                break
        target1 *= 2.0
    else:
        raise BudgetExceeded("could not balance covers within the pairwise budget")
    a_lo, a_hi = c1[:, 2], c1[:, 3]
    # the second set's intervals as they enter the sum: J, or -lam*J
    t_lo, t_hi = c2[:, 2], c2[:, 3]
    if op == "-":
        x, y = -lam * t_lo, -lam * t_hi
        t_lo, t_hi = np.minimum(x, y), np.maximum(x, y)
    lo = (a_lo[:, None] + t_lo[None, :]).ravel()
    hi = (a_hi[:, None] + t_hi[None, :]).ravel()
    meta = {
        "op": op,
        "lam": lam,
        "pairs": len(lo),
        "counts": (len(c1), len(c2)),
        "target_length": target1,
        "capped": step > 0,
        "pruned": 0,
    }
    return lo, hi, meta


# ---------------------------------------------------------------------------
# the gap lemma on the hull pair


def _hull_pair_refusal(K1: RegularCantorSet, K2: RegularCantorSet, scale: float) -> str | None:
    """Why the gap lemma cannot prove the outer sum of the two hulls full
    (see the module docstring), decided exactly, or None when it proves it;
    surds of two fields that do not mix (gauss3 against gauss4) cannot be
    compared, proving nothing, unless their floats, rounded outward, put
    tau1*tau2 below 1."""
    if K1._gap_bounds is None or K2._gap_bounds is None:
        return "a set carries no proved thickness bound"
    (tau1, rho1), (tau2, rho2) = K1._gap_bounds, K2._gap_bounds
    (lo1, hi1), (lo2, hi2) = K1._exact_hull, K2._exact_hull
    len1, len2 = hi1 - lo1, Fraction(scale) * (hi2 - lo2)
    try:
        if not tau1 * tau2 >= 1:
            return f"tau1*tau2 = {float(tau1 * tau2):.6g} < 1"
        if not (len1 >= rho2 * len2 and len2 >= rho1 * len1):
            return "a hull is shorter than the other set's largest gap"
    except ValidationError:
        # float enclosures of the two tau may still prove the product below 1
        if Fraction(_round_out(tau1, up=True)) * Fraction(_round_out(tau2, up=True)) < 1:
            return f"tau1*tau2 = {float(tau1) * float(tau2):.6g} < 1"
        return f"the surds of {_field(lo1)} and {_field(lo2)} cannot be compared"
    return None


def _field(x: QuadraticSurd) -> str:
    """Q(sqrt(m)) of the surd x, m square-free."""
    d = x.d
    m = next((d // (f * f) for f in range(math.isqrt(d), 1, -1) if d % (f * f) == 0), d)
    return f"Q(sqrt({m}))"


def _round_out(x: Exact, up: bool) -> float:
    """The float next to the exact x on the outer side: the nearest float
    if that already lies outside, else its neighbour outward."""
    f = float(x)
    if (x > Fraction(f)) if up else (x < Fraction(f)):
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def _sum_endpoints(
    side1: _SetCovers, side2: _SetCovers, op: str, lam: float
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Endpoints and meta of the depth-n outer sum (lam != 0): every pair
    sum, or for a closed hull pair H1 + H2 (H1 - lam*H2), exact ends rounded
    outward, with no cover built.  The precision floor, on the first
    cover's target t and the second's t / scale as on the pair path, reads
    the seed lengths: the maximum lengths on exact sets, and elsewhere
    lower bounds that walk for the maxima only when they fall below it."""
    scale = 1.0 if op == "+" else abs(lam)
    if _hull_pair_refusal(side1.K, side2.K, scale) is not None:
        return _pair_endpoints(side1, side2, op, lam)
    t = _first_target(side1.seed, side2.seed, scale)
    if min(t, t / scale) < EPS_LEN:
        t = _first_target(side1.maxlen, side2.maxlen, scale)
        _check_target_length(min(t, t / scale))
    (a_lo, a_hi), (b_lo, b_hi) = side1.K._exact_hull, side2.K._exact_hull
    if op == "-":
        b_lo, b_hi = sorted((-Fraction(lam) * b_lo, -Fraction(lam) * b_hi))
    lo, hi = _round_out(a_lo + b_lo, up=False), _round_out(a_hi + b_hi, up=True)
    meta = {"op": op, "lam": lam, "pairs": 0, "pruned": 1, "capped": False}
    return np.array([lo]), np.array([hi]), meta


def cover_sum(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    n: int,
    op: str = "+",
    lam: float = 1.0,
    *,
    pair_budget: int | None = None,
) -> IntervalUnion:
    """Outer approximation of K1 + K2 (op '+') or K1 - lam*K2 (op '-').

    The merged union of all pairwise interval sums at granularity matched
    to depth n, at most `pair_budget` of them (None means PAIR_BUDGET):
    meta `pruned` 0, `pairs` their count.  When the gap lemma proves the
    hull pair full (see the module docstring) it is the one interval
    hull(K1) + lam*hull(K2) they merge into, found without building a
    cover: `pruned` 1, `pairs` 0.  It contains the true arithmetic set and
    shrinks monotonically as n grows.
    """
    if op not in ("+", "-"):
        raise ValidationError(f"op must be '+' or '-', got {op!r}")
    lam = finite(lam, "lambda must be finite, got {!r}")
    if op == "+" and lam != 1.0:
        raise ValidationError("sum takes no scale factor; use op '-' for x - lam*y")
    if n < 0:
        raise ValidationError("depth must be >= 0")
    budget = PAIR_BUDGET if pair_budget is None else pair_budget
    if op == "-" and lam == 0.0:
        cover = refine(K1, n, budget=budget)
        u = IntervalUnion(*merge_intervals(cover.los, cover.his))
        u.meta.update({"op": op, "lam": lam, "pairs": u.n_components})
        return u
    lo, hi, meta = _sum_endpoints(*_pair_sides(K1, K2, n, budget), op, lam)
    u = IntervalUnion(*merge_intervals(lo, hi))
    u.meta.update(meta)
    return u


# ---------------------------------------------------------------------------
# queries on unions


def contains_interval(U: IntervalUnion, target: Interval, margin: float) -> bool:
    """True iff [lo+margin, hi-margin] lies inside one component of U."""
    if finite(margin, "margin must be finite") < 0:
        raise ValidationError("margin must be >= 0")
    lo = float(target.lo) + margin
    hi = float(target.hi) - margin
    if lo > hi:
        raise EmptyTarget(f"margin {margin} empties target {target.as_floats()}")
    i = int(np.searchsorted(U.los, lo, side="right")) - 1
    if i < 0:
        return False
    return bool(U.los[i] <= lo and hi <= U.his[i])


def covered_length(U: IntervalUnion, resolution: float) -> float:
    """(number of resolution-grid cells meeting U) * resolution."""
    if not finite(resolution, "resolution must be finite and positive") > 0:
        raise ValidationError("resolution must be finite and positive")
    return _grid_cells(U.los, U.his, resolution) * resolution


def _check_cells(kmin: float, kmax: float, resolution: float) -> None:
    """Refuse a grid on which a union end's cell index floor(x / r) passes
    +-2^61: int64 cell indices, spans and counts would wrap silently."""
    if not -(2.0**61) < kmin <= kmax < 2.0**61:
        raise ValidationError(f"resolution {resolution!r} is too fine: the union's grid cells overflow int64")


def _grid_cells(los: np.ndarray, his: np.ndarray, resolution: float) -> int:
    """Number of resolution-grid cells meeting sorted disjoint intervals."""
    klo, khi = np.floor(los / resolution), np.floor(his / resolution)
    _check_cells(klo[0], khi[-1], resolution)
    klo, khi = klo.astype(np.int64), khi.astype(np.int64)
    cells = int(np.sum(khi - klo + 1))
    if len(klo) > 1:
        cells -= int(np.sum(klo[1:] == khi[:-1]))
    return cells


# ---------------------------------------------------------------------------
# projection scans


def _dyadic_shifts(res: list[float]) -> list[int] | None:
    """Right shifts that take the cell indices of each resolution (sorted
    coarse -> fine) to those of the next coarser one, or None unless each
    resolution is exactly the finest times a power of two and the finest
    cell is longer than any gap the merge absorbs."""
    parts = [math.frexp(r) for r in res]
    if res[-1] <= MERGE_TOL or any(m != parts[-1][0] for m, _ in parts):
        return None
    return [e - e_finer for (_, e), (_, e_finer) in zip(parts, parts[1:])]


def _scan_row(lo: np.ndarray, hi: np.ndarray, res: list[float], shifts: list[int] | None) -> list[float]:
    """Covered length of the union of the intervals [lo, hi] at each resolution.

    The cells meeting an interval at resolution r are floor(lo/r) ..
    floor(hi/r), and floor(x/2r) = floor(floor(x/r)/2); so on a nested
    ladder the covered cells of the finest grid, marked from the endpoints
    by two bincounts and a cumulative sum, give every coarser row by
    shifting.  The result equals `covered_length` of the merged union.  A
    ladder that is not nested, or a finest grid with more cells than there
    are intervals, falls back to merging.
    """
    r_f = res[-1]
    kmin = np.floor(lo.min() / r_f)
    kmax = np.floor(hi.max() / r_f)
    _check_cells(kmin, kmax, r_f)
    if shifts is None or kmax - kmin + 1 > len(lo):
        u = IntervalUnion(*merge_intervals(lo, hi))
        return [covered_length(u, r) for r in res]
    size = int(kmax - kmin) + 2
    kmin = int(kmin)
    klo = np.floor(lo / r_f).astype(np.int64) - kmin
    khi = np.floor(hi / r_f).astype(np.int64) - kmin
    edges = np.bincount(klo, minlength=size) - np.bincount(khi + 1, minlength=size)
    cells = np.flatnonzero(np.cumsum(edges[:-1]) > 0) + kmin
    counts = [len(cells)]
    for shift in reversed(shifts):
        cells = cells >> shift
        cells = cells[np.append(True, cells[1:] != cells[:-1])]
        counts.append(len(cells))
    return [count * r for count, r in zip(reversed(counts), res)]


@dataclass(frozen=True)
class ProjectionScan:
    lambdas: tuple[float, ...]
    resolutions: tuple[float, ...]  # sorted coarse -> fine
    table: np.ndarray  # shape (len(lambdas), len(resolutions))
    depth: int
    theta: float
    capped_rows: int  # rows the pair budget coarsened

    def covered_at_finest(self) -> np.ndarray:
        return self.table[:, -1]

    def fraction_above(self, theta: float | None = None) -> float:
        th = finite(self.theta if theta is None else theta, "theta must be finite")
        return float(np.mean(self.covered_at_finest() > th))

    def slopes(self) -> np.ndarray:
        """Per-lambda slope of log(covered length) against log(resolution).

        For a projection of box dimension d < 1 the covered length decays
        like resolution**(1-d), so the slope estimates 1-d; slopes near 0
        indicate the projection fills a positive-measure set.
        """
        logr = np.log(np.asarray(self.resolutions, dtype=float))
        out = np.empty(len(self.lambdas), dtype=float)
        for i in range(len(self.lambdas)):
            vals = np.maximum(self.table[i], 1e-300)
            out[i] = np.polyfit(logr, np.log(vals), 1)[0]
        return out

    def median_slope(self) -> float:
        return float(np.median(self.slopes()))


def marstrand_scan(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    lambdas,
    n: int,
    resolutions=DEFAULT_RESOLUTIONS,
    *,
    theta: float = DEFAULT_THETA,
    pair_budget: int | None = None,
) -> ProjectionScan:
    """Covered-length table of the scaled differences K1 - lam*K2.

    For each lam the depth-n outer union is measured against each grid
    resolution; the summary statistic is the fraction of lam whose
    covered length at the finest resolution exceeds theta.  All lam
    share one set of covers.  Each row equals `covered_length` of the
    `cover_sum` union, but is counted straight from the endpoints without
    merging them (see `_scan_row`).  A row whose hull pair the gap lemma
    closes is the one hull interval and forms no pairs, so the budget
    never coarsens it; any other lam forms at most `pair_budget` pairs
    (None means SCAN_PAIR_BUDGET), and `capped_rows` counts the rows the
    budget coarsened.
    """
    lambdas = [finite(x, "lambda samples must be finite and nonzero") for x in lambdas]
    if not lambdas:
        raise ValidationError("no lambda samples given")
    if 0.0 in lambdas:
        raise ValidationError("lambda samples must be finite and nonzero")
    res = sorted({finite(r, "resolutions must be finite and positive") for r in resolutions}, reverse=True)
    if not res or res[-1] <= 0:
        raise ValidationError("resolutions must be finite and positive")
    finite(theta, "theta must be finite")
    budget = SCAN_PAIR_BUDGET if pair_budget is None else pair_budget
    sides = _pair_sides(K1, K2, n, budget)
    shifts = _dyadic_shifts(res)
    rows, capped_rows = [], 0
    for lam in lambdas:
        lo, hi, meta = _sum_endpoints(*sides, "-", lam)
        capped_rows += meta["capped"]
        rows.append(_scan_row(lo, hi, res, shifts))
    table = np.array(rows, dtype=float)
    return ProjectionScan(
        lambdas=tuple(lambdas),
        resolutions=tuple(res),
        table=table,
        depth=n,
        theta=theta,
        capped_rows=capped_rows,
    )
