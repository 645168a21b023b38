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
budget the common length target is coarsened until it fits.  Coarsening
preserves outer-approximation semantics; it only loses sharpness.  Each
distinct cover is built once per call of `cover_sum` or `marstrand_scan`
(once for both sets when they are equal); nothing outlives the call.

`cover_sum` sorts and merges the pair intervals into an `IntervalUnion`.
`marstrand_scan` needs each union only through its grid-cell counts, so
it counts the cells straight from the pair endpoints and merges only
where the resolutions are not nested or the finest grid would hold more
cells than there are pairs.

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
is exactly the interval H1 + lam*H2, and `cover_sum` returns it, its
exact ends rounded outward, without building a cover.  The verdict compares `Fraction`s or `QuadraticSurd`s;
surds of two fields that do not mix prove nothing.  Every other pair
(thin sets, float data, Moebius sets from files, unbalanced hulls) takes
the plain outer sum.  Cylinder pairs below the hull pair are not pruned,
and `marstrand_scan` does not prune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cantor_core import (
    DEFAULT_COVER_BUDGET,
    Cover,
    Exact,
    Interval,
    RegularCantorSet,
    _check_target_length,
    _length_cover,
    maxlen_at_depth,
    refine,
)
from .errors import BudgetExceeded, EmptyTarget, ValidationError

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
    """The depth-n maximum length and the length-balanced covers of one
    set, each built once per public call: a cover is handed out again
    for every target in the range that reproduces it exactly."""

    def __init__(self, K: RegularCantorSet, n: int, budget: int) -> None:
        self.K = K
        self.budget = budget
        self.maxlen = float(maxlen_at_depth(K, n))
        self._built: list[tuple[float, float, Cover]] = []

    def cover(self, target: float) -> Cover:
        for lo, hi, cover in self._built:
            if lo <= target < hi:
                return cover
        cover, lo, hi = _length_cover(self.K, target, 64, self.budget)
        self._built.append((lo, hi, cover))
        return cover


def _pair_sides(K1: RegularCantorSet, K2: RegularCantorSet, n: int, budget: int) -> tuple[_SetCovers, _SetCovers]:
    side1 = _SetCovers(K1, n, budget)
    return side1, side1 if K2 == K1 else _SetCovers(K2, n, budget)


def _first_target(side1: _SetCovers, side2: _SetCovers, scale: float) -> float:
    """Length target of the first cover (the second's is it over scale).

    Match granularities: both covers contribute intervals of the same
    scale to the sum, anchored at the coarser of the two depth-n
    granularities — refining one side far beyond the other only
    multiplies the pair count without shrinking the outer union.
    """
    return max(side1.maxlen, scale * side2.maxlen) * (1.0 + 1e-12)


def _pair_endpoints(
    side1: _SetCovers, side2: _SetCovers, op: str, lam: float
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Endpoints of all pairwise interval sums (lam != 0), unsorted, and
    the meta of the covers behind them."""
    scale = 1.0 if op == "+" else abs(lam)
    target1 = _first_target(side1, side2, scale)
    capped = False
    for _ in range(64):
        try:
            c1 = side1.cover(target1)
            c2 = side2.cover(target1 / scale)
        except BudgetExceeded:
            # one factor alone outgrew the pair budget; coarsen both sides
            capped = True
            target1 *= 2.0
            continue
        if len(c1) * len(c2) <= side1.budget:
            break
        capped = True
        target1 *= 2.0
    else:
        raise BudgetExceeded("could not balance covers within the pairwise budget")
    a_lo, a_hi = c1.los, c1.his
    # the second set's intervals as they enter the sum: J, or -lam*J
    t_lo, t_hi = c2.los, c2.his
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
        "capped": capped,
    }
    return lo, hi, meta


def _pair_union(side1: _SetCovers, side2: _SetCovers, op: str, lam: float) -> IntervalUnion:
    """Merged union of all pairwise interval sums (lam != 0)."""
    lo, hi, meta = _pair_endpoints(side1, side2, op, lam)
    u = IntervalUnion(*merge_intervals(lo, hi))
    u.meta.update(meta)
    u.meta["pruned"] = 0
    return u


# ---------------------------------------------------------------------------
# the gap lemma on the hull pair


def _exact_hull(K: RegularCantorSet) -> tuple[Exact, Exact]:
    """Ends of hull(K) for a set that carries `_gap_bounds`: exact affine,
    or `gauss<N>` with its hull ends as surds."""
    if K.is_affine:
        return K.hull.lo, K.hull.hi
    return K.meta["hull_min_surd"], K.meta["hull_max_surd"]


def _hull_pair_closes(K1: RegularCantorSet, K2: RegularCantorSet, scale: float) -> bool:
    """Whether the gap lemma proves the outer sum of the two hulls full:
    both sets carry (tau, rho), tau1*tau2 >= 1, |H1| >= rho2*scale*|H2|
    and scale*|H2| >= rho1*|H1|, decided exactly.  Surds of two fields
    that do not mix (gauss3 against gauss4) cannot be compared and prove
    nothing."""
    if K1._gap_bounds is None or K2._gap_bounds is None:
        return False
    (tau1, rho1), (tau2, rho2) = K1._gap_bounds, K2._gap_bounds
    (lo1, hi1), (lo2, hi2) = _exact_hull(K1), _exact_hull(K2)
    len1, len2 = hi1 - lo1, Fraction(scale) * (hi2 - lo2)
    try:
        return tau1 * tau2 >= 1 and len1 >= rho2 * len2 and len2 >= rho1 * len1
    except ValidationError:
        return False


def _round_out(x: Exact, up: bool) -> float:
    """The float next to the exact x on the outer side: the nearest float
    if that already lies outside, else its neighbour outward."""
    f = float(x)
    if (x > Fraction(f)) if up else (x < Fraction(f)):
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def _hull_pair_union(side1: _SetCovers, side2: _SetCovers, op: str, lam: float, scale: float) -> IntervalUnion:
    """hull(K1) + hull(K2) (or hull(K1) - lam*hull(K2)) as a one-component
    union, for a hull pair the gap lemma closes.  Its ends are formed
    exactly from the hull ends and rounded outward, so the union holds
    the exact one.  No cover is built, but a length target below the
    float floor raises PrecisionLoss, as it does when the outer sum
    builds its covers."""
    _check_target_length(_first_target(side1, side2, scale))
    (a_lo, a_hi), (b_lo, b_hi) = _exact_hull(side1.K), _exact_hull(side2.K)
    if op == "-":
        b_lo, b_hi = sorted((-Fraction(lam) * b_lo, -Fraction(lam) * b_hi))
    lo, hi = _round_out(a_lo + b_lo, up=False), _round_out(a_hi + b_hi, up=True)
    u = IntervalUnion(np.array([lo]), np.array([hi]))
    u.meta.update({"op": op, "lam": lam, "pairs": 0, "pruned": 1, "capped": False})
    return u


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

    The result is the merged union of all pairwise interval sums at
    granularity matched to depth n; it contains the true arithmetic set,
    and shrinks monotonically as n grows.  At most `pair_budget` pairs
    are formed (None means PAIR_BUDGET).

    When the gap lemma proves the hull pair full (see the module
    docstring), the union is the single interval hull(K1) + lam*hull(K2),
    the union the pairs would merge into, found without building a cover;
    meta `pruned` is then 1 and `pairs` 0.  Otherwise `pruned` is 0 and
    `pairs` counts the pair intervals summed.
    """
    if op not in ("+", "-"):
        raise ValidationError(f"op must be '+' or '-', got {op!r}")
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValidationError(f"lambda must be finite, got {lam!r}")
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
    sides = _pair_sides(K1, K2, n, budget)
    scale = 1.0 if op == "+" else abs(lam)
    if _hull_pair_closes(K1, K2, scale):
        return _hull_pair_union(*sides, op, lam, scale)
    return _pair_union(*sides, op, lam)


# ---------------------------------------------------------------------------
# queries on unions


def contains_interval(U: IntervalUnion, target: Interval, margin: float) -> bool:
    """True iff [lo+margin, hi-margin] lies inside one component of U."""
    if margin < 0:
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
    if resolution <= 0:
        raise ValidationError("resolution must be positive")
    return _grid_cells(U.los, U.his, resolution) * resolution


def _grid_cells(los: np.ndarray, his: np.ndarray, resolution: float) -> int:
    """Number of resolution-grid cells meeting sorted disjoint intervals."""
    klo = np.floor(los / resolution).astype(np.int64)
    khi = np.floor(his / resolution).astype(np.int64)
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

    def covered_at_finest(self) -> np.ndarray:
        return self.table[:, -1]

    def fraction_above(self, theta: float | None = None) -> float:
        th = self.theta if theta is None else theta
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
    `cover_sum` union, but is counted straight from the pair endpoints
    without merging them (see `_scan_row`).  Each lam forms at most
    `pair_budget` pairs (None means SCAN_PAIR_BUDGET).
    """
    lambdas = [float(x) for x in lambdas]
    if not lambdas:
        raise ValidationError("no lambda samples given")
    if not all(math.isfinite(x) and x != 0.0 for x in lambdas):
        raise ValidationError("lambda samples must be finite and nonzero")
    res = sorted(set(float(r) for r in resolutions), reverse=True)
    if not res or not all(0 < r < math.inf for r in res):
        raise ValidationError("resolutions must be finite and positive")
    budget = SCAN_PAIR_BUDGET if pair_budget is None else pair_budget
    sides = _pair_sides(K1, K2, n, budget)
    shifts = _dyadic_shifts(res)
    rows = []
    for lam in lambdas:
        lo, hi, _ = _pair_endpoints(*sides, "-", lam)
        rows.append(_scan_row(lo, hi, res, shifts))
    table = np.array(rows, dtype=float)
    return ProjectionScan(
        lambdas=tuple(lambdas),
        resolutions=tuple(res),
        table=table,
        depth=n,
        theta=theta,
    )
