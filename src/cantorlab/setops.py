"""Arithmetic of Cantor sets via finite covers.

Depth-n covers of two sets are combined pairwise to produce an outer
approximation of K1 + mu*K2, the sum K1 + K2 (mu = 1) or the scaled
difference K1 - lam*K2 (mu = -lam), from the intervals I + mu*J; the
approximations are nested and their intersection over all depths is the
true arithmetic set.  All statements derived from these unions are
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
target tried reads its cover's ends from that one walk, or None past the
budget (`cantor_core._LengthWalk`); the second set is not walked at a
target the first refuses, and nothing outlives the call.

Both `cover_sum`, which merges the pair sums into an `IntervalUnion`,
and `marstrand_scan`, which counts its grid cells, read a sum as the
hull interval the gap lemma below proves (`_hull_sum`), already a union
of one interval, or as every pair of the two balanced covers
(`_balanced_covers`).  The scan merges pairs only where the resolutions
are not nested or the finest grid has more cells than there are pairs.

Merging by sorted ends.  Sorted by lower end, intervals with lo <= hi
start a new component at the i-th when lo_i > fl(M + MERGE_TOL), M the
largest upper end before it.  Let L be every lower end and H every upper
end, each sorted on its own: that test holds exactly when L[i] >
fl(H[i-1] + MERGE_TOL).  Either test gives the other: when one holds,
every later interval has hi >= lo > M (or > H[i-1]), so the i smallest
upper ends are those of the first i intervals and H[i-1] = M.  The
components are [L[s], H[e]] for each start s and the last index e before
the next start (`_sweep`).  Order within ties is never read, so any sort
serves, and the union is the one the lo-ordered sweep gives, float for
float (a zero end may change sign).  A NaN end or an interval with hi <
lo breaks the argument; `merge_intervals` refuses both.

Block descent.  The scan counts the finest-grid cells that the pair sums
meet without forming most of the pairs.  IEEE rounding is monotone:
fl(a + b) is monotone in each argument and floor(fl(x / r)) in x.  So
the sum of any interval pair drawn from a run of consecutive intervals
of each cover starts no lower than the rounded sum of the runs' lowest
ends and ends no higher than that of their highest ends; when those two
hull ends fall in one cell, every pair of the run pair covers exactly
that cell.  Each cover, sorted by position, is cut into runs of 2^k
intervals for each k; the descent starts at the coarsest k at which
every run of both covers is shorter than a cell, closes each run pair
whose hull sum lies in one cell, and halves the rest down to single
interval pairs (`_pair_cells`).  A thin pair (depth-8 intervals near
1e-9 long on a 2^-12 grid) closes nearly everything high up and forms
under 1% of its pairs; a fat pair has no run longer than two intervals
that fits in a cell, so it starts at the intervals and forms every pair,
the dense count.  Either way the cells are those of `covered_length` on
the merged union, bit for bit.

Gap-lemma pruning.  Newhouse's gap lemma, in the form of Astels (Trans.
AMS 2000): compact sets A, B with thickness tau(A)*tau(B) >= 1, each
hull at least as long as the other set's largest gap, have A + B =
hull(A) + hull(B).  Each exact affine set and each `gauss<N>` carries an
exact bound pair (tau, rho) valid in every cylinder I: the set inside I
has thickness >= tau and no gap longer than rho*|I|
(`RegularCantorSet._gap_bounds`).  A depth-n cover keeps a subset of
those gaps, and each of its bridges is at least as long, so the bounds
hold for it too.  Hence, when tau1*tau2 >= 1, |H1| >= rho2*|mu|*|H2| and
|mu|*|H2| >= rho1*|H1| for the hulls H1, H2, the outer sum at every depth
is exactly the interval H1 + mu*H2, taken, its exact ends rounded
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

_Ends = tuple[np.ndarray, np.ndarray]  # lower and upper interval ends


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
        if not (np.all(self.los <= self.his) and np.all(self.los[1:] > self.his[:-1])):
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
    """Merge possibly overlapping intervals; gaps <= MERGE_TOL are absorbed.
    The inputs are not written; a NaN end or an interval with hi < lo is
    refused."""
    if len(los) == 0:
        raise ValidationError("nothing to merge")
    if not np.all(los <= his):
        raise ValidationError("every interval needs lo <= hi and no NaN end")
    return _sweep(np.sort(los), np.sort(his))


def _sweep(lo: np.ndarray, hi: np.ndarray) -> _Ends:
    """Components of the intervals whose lower ends `lo` and upper ends `hi`
    are each sorted on its own (merging by sorted ends, module docstring)."""
    starts = np.flatnonzero(lo[1:] > hi[:-1] + MERGE_TOL) + 1
    return np.append(lo[0], lo[starts]), np.append(hi[starts - 1], hi[-1])


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


def _balanced_covers(side1: _SetCovers, side2: _SetCovers, mu: float) -> tuple[_Ends, _Ends, dict]:
    """The two covers whose pair sums make the outer sum of K1 + mu*K2
    (mu != 0), each sorted by position: the first set's interval ends
    (I), the second's as they enter the sum (mu*J), and the meta of the
    pairs."""
    scale = abs(mu)
    target1 = _first_target(side1.maxlen, side2.maxlen, scale)
    for step in range(64):
        # skip, unwalked, a step whose two covers are proved to pass the
        # budget together; each walk refuses alone a cover it proves too
        # large, and the second is not walked when the first refuses
        least = side1.walk.least(target1) * side2.walk.least(target1 / scale)
        a = side1.walk.cover(target1) if least <= side1.budget else None
        t = None if a is None else side2.walk.cover(target1 / scale)
        if t is not None and len(a[0]) * len(t[0]) <= side1.budget:
            break
        target1 *= 2.0
    else:
        raise BudgetExceeded("could not balance covers within the pairwise budget")
    x, y = mu * t[0], mu * t[1]
    meta = {
        "pairs": len(a[0]) * len(t[0]),
        "counts": (len(a[0]), len(t[0])),
        "target_length": target1,
        "capped": step > 0,
        "pruned": 0,
    }
    return a, (np.minimum(x, y), np.maximum(x, y)), meta


def _pair_sums(a: _Ends, t: _Ends) -> _Ends:
    """Lower and upper ends of the sums of every interval pair of the two
    sides, each sorted on its own, in place: the k-th entries are no longer
    one pair's ends (`_sweep` merges them)."""
    lo, hi = (a[0][:, None] + t[0]).ravel(), (a[1][:, None] + t[1]).ravel()
    lo.sort()
    hi.sort()
    return lo, hi


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


def _hull_sum(side1: _SetCovers, side2: _SetCovers, mu: float) -> tuple[np.ndarray, np.ndarray, dict] | None:
    """Ends and meta of the depth-n outer sum of K1 + mu*K2 (mu != 0)
    when the gap lemma closes its hull pair, or None when it does not:
    the one interval H1 + mu*H2, exact ends rounded outward, with no cover
    built.  The precision floor, on the first cover's target t and the
    second's t / |mu| as on the pair path, reads the seed lengths: the
    maximum lengths on exact sets, and elsewhere lower bounds that walk for
    the maxima only when they fall below it."""
    scale = abs(mu)
    if _hull_pair_refusal(side1.K, side2.K, scale) is not None:
        return None
    t = _first_target(side1.seed, side2.seed, scale)
    if min(t, t / scale) < EPS_LEN:
        t = _first_target(side1.maxlen, side2.maxlen, scale)
        _check_target_length(min(t, t / scale))
    (a_lo, a_hi), hull2 = side1.K._exact_hull, side2.K._exact_hull
    b_lo, b_hi = sorted(Fraction(mu) * end for end in hull2)
    lo, hi = _round_out(a_lo + b_lo, up=False), _round_out(a_hi + b_hi, up=True)
    return np.array([lo]), np.array([hi]), {"pairs": 0, "pruned": 1, "capped": False}


def cover_sum(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    n: int,
    op: str = "+",
    lam: float = 1.0,
    *,
    pair_budget: int | None = None,
) -> IntervalUnion:
    """Outer approximation of K1 + mu*K2: mu = 1 (op '+'), -lam (op '-').

    The merged union of all pairwise interval sums I + mu*J at granularity
    matched to depth n, at most `pair_budget` of them (None means
    PAIR_BUDGET): meta `pruned` 0, `pairs` their count.  When the gap lemma
    proves the hull pair full (see the module docstring) it is the one
    interval hull(K1) + mu*hull(K2) they merge into, found without building
    a cover: `pruned` 1, `pairs` 0.  It contains the true arithmetic set and
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
    mu = 1.0 if op == "+" else -lam
    sides = _pair_sides(K1, K2, n, budget)
    if mu == 0.0:  # K1 - 0*K2 is K1
        cover = refine(K1, n, budget=budget)
        lo, hi = merge_intervals(cover.los, cover.his)
        meta = {"pairs": len(lo)}
    elif (closed := _hull_sum(*sides, mu)) is not None:
        lo, hi, meta = closed
    else:
        a, t, meta = _balanced_covers(*sides, mu)
        lo, hi = _sweep(*_pair_sums(a, t))
    u = IntervalUnion(lo, hi)
    u.meta.update({"op": op, "lam": lam}, **meta)
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


def _run_hulls(a: _Ends, t: _Ends, r: float) -> list[tuple[_Ends, _Ends]]:
    """Hulls of the runs of 2^k consecutive intervals of the two sides,
    each sorted by position, one level per k from the intervals themselves
    (k = 0) up to the coarsest level at which every hull of both sides is
    shorter than r; the last run of a side holds what is left over."""
    levels = [(a, t)]
    while min(len(a[0]), len(t[0])) > 1:
        a = _halves(*a)
        if not np.max(a[1] - a[0]) < r:
            break
        t = _halves(*t)
        if not np.max(t[1] - t[0]) < r:
            break
        levels.append((a, t))
    # runs of two save too few pairs to pay for indexing the pairs one by one
    return levels if len(levels) > 2 else levels[:1]


def _halves(lo: np.ndarray, hi: np.ndarray) -> _Ends:
    """Hulls of the consecutive pairs of intervals (the last one alone if
    left over)."""
    starts = np.arange(0, len(lo), 2)
    return np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)


class _Scratch:
    """One float buffer that the rows of a scan reuse for their outer sums:
    a large row that took fresh arrays would fault in new pages each time."""

    def __init__(self) -> None:
        self.buf = np.empty(0)

    def take(self, rows: int, cols: int) -> np.ndarray:
        if len(self.buf) < rows * cols:
            self.buf = np.empty(rows * cols)
        return self.buf[: rows * cols].reshape(rows, cols)


def _pair_cells(a: _Ends, t: _Ends, r: float, scratch: _Scratch) -> _Ends:
    """Cell ranges klo .. khi of the r-grid, as int64 (the caller has
    checked the grid with `_check_cells`), whose union is the set of cells
    met by the pair sums I + J of the two sides: the block descent of the
    module docstring.  It starts with every run pair of the coarsest level
    of `_run_hulls`, formed as one outer sum, closes each whose hull sum
    lies in one cell, and splits the rest into the four pairs of their
    halves, down to interval pairs, which give their own ranges.  With no
    level above the intervals it is the dense count.
    """
    levels = _run_hulls(a, t, r)
    (a_lo, a_hi), (t_lo, t_hi) = levels[-1]
    klo, khi = (_outer_cells(x, y, r, scratch) for x, y in ((a_lo, t_lo), (a_hi, t_hi)))
    if len(levels) > 1:
        i, j = np.divmod(np.arange(len(klo)), len(t_lo))
    los = []
    for k in reversed(range(len(levels) - 1)):
        shut = klo == khi
        los.append(klo[shut])
        i, j = i[~shut], j[~shut]
        i = np.concatenate((2 * i, 2 * i, 2 * i + 1, 2 * i + 1))
        j = np.concatenate((2 * j, 2 * j + 1, 2 * j, 2 * j + 1))
        (a_lo, a_hi), (t_lo, t_hi) = levels[k]
        keep = (i < len(a_lo)) & (j < len(t_lo))
        i, j = i[keep], j[keep]
        klo = np.floor((a_lo[i] + t_lo[j]) / r).astype(np.int64)
        khi = np.floor((a_hi[i] + t_hi[j]) / r).astype(np.int64)
    return (np.concatenate((*los, klo)), np.concatenate((*los, khi))) if los else (klo, khi)


def _outer_cells(x: np.ndarray, y: np.ndarray, r: float, scratch: _Scratch) -> np.ndarray:
    """floor(fl(fl(x_i + y_j) / r)) for every pair, row by row, as int64."""
    f = np.add(x[:, None], y, out=scratch.take(len(x), len(y)))
    f /= r
    return np.floor(f, out=f).astype(np.int64).ravel()


def _scan_row(a: _Ends, t: _Ends, res: list[float], shifts: list[int] | None, scratch: _Scratch) -> list[float]:
    """Covered length, at each resolution, of the union of the pair sums
    I + J of the two sides.

    The cells meeting an interval at resolution r are floor(lo/r) ..
    floor(hi/r), and floor(x/2r) = floor(floor(x/r)/2); so on a nested
    ladder the covered cells of the finest grid, marked by two bincounts
    and a cumulative sum, give every coarser row by shifting.  The finest
    cells come from `_pair_cells`, which closes a block of pairs with one
    cell when the rounded sums of its hull ends share that cell: rounding
    is monotone, fl(a + b) in each argument and floor(fl(x / r)) in x, so
    no pair inside can reach another cell.  The grid's ends are read off
    the covers' extreme ends the same way.  The result equals
    `covered_length` of the merged union.  A ladder that is not nested,
    or a finest grid with more cells than there are pairs, falls back to
    merging every pair.
    """
    r_f = res[-1]
    kmin = np.floor((a[0].min() + t[0].min()) / r_f)
    kmax = np.floor((a[1].max() + t[1].max()) / r_f)
    _check_cells(kmin, kmax, r_f)
    if shifts is None or kmax - kmin + 1 > len(a[0]) * len(t[0]):
        u = IntervalUnion(*_sweep(*_pair_sums(a, t)))
        return [covered_length(u, r) for r in res]
    size = int(kmax - kmin) + 2
    kmin = int(kmin)
    starts, ends = _pair_cells(a, t, r_f, scratch)
    starts -= kmin
    ends -= kmin - 1  # one past each range's last cell
    edges = np.bincount(starts, minlength=size) - np.bincount(ends, minlength=size)
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
        if len(self.resolutions) < 2:
            raise ValidationError("a slope needs at least two resolutions")
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
    `cover_sum` union, but is counted straight from the two covers,
    without merging and mostly without forming the pairs (see
    `_scan_row`).  A row whose hull pair the gap lemma closes is the one
    hull interval and has no pairs, so the budget never coarsens it; any
    other lam balances its covers to at most `pair_budget` pairs
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
    shifts, scratch = _dyadic_shifts(res), _Scratch()
    rows, capped_rows = [], 0
    for lam in lambdas:
        closed = _hull_sum(*sides, -lam)
        if closed is None:
            a, t, meta = _balanced_covers(*sides, -lam)
            capped_rows += meta["capped"]
            rows.append(_scan_row(a, t, res, shifts, scratch))
        else:
            rows.append([_grid_cells(*closed[:2], r) * r for r in res])
    table = np.array(rows, dtype=float)
    return ProjectionScan(
        lambdas=tuple(lambdas),
        resolutions=tuple(res),
        table=table,
        depth=n,
        theta=theta,
        capped_rows=capped_rows,
    )
