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
preserves outer-approximation semantics; it only loses sharpness.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cantor_core import (
    Cover,
    Interval,
    RegularCantorSet,
    maxlen_at_depth,
    refine,
    refine_to_length,
    resolve_budget,
)
from .errors import BudgetExceeded, EmptyTarget, ValidationError

MERGE_TOL = 1e-13
PAIR_BUDGET_FACTOR = 10  # pairwise budget = factor * cover budget
SCAN_PAIR_BUDGET = 4_000_000
DEFAULT_THETA = 0.05
DEFAULT_RESOLUTIONS = tuple(2.0**-k for k in range(6, 15))


def pair_budget_default() -> int:
    return PAIR_BUDGET_FACTOR * resolve_budget(None)


# ---------------------------------------------------------------------------
# interval unions


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, strictly disjoint closed intervals stored as float arrays."""

    los: np.ndarray
    his: np.ndarray
    depth: int
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.los.shape != self.his.shape or self.los.ndim != 1:
            raise ValidationError("union arrays must be 1-d and of equal length")
        if len(self.los) == 0:
            raise ValidationError("empty union")
        if np.any(self.his < self.los) or np.any(self.los[1:] <= self.his[:-1]):
            raise ValidationError("union intervals must be sorted and disjoint")

    def __len__(self) -> int:
        return len(self.los)

    @property
    def n_components(self) -> int:
        return len(self.los)

    @property
    def total_length(self) -> float:
        return float(np.sum(self.his - self.los))

    @property
    def hull(self) -> Interval:
        return Interval(float(self.los[0]), float(self.his[-1]))


def merge_intervals(los: np.ndarray, his: np.ndarray, tol: float = MERGE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Merge possibly overlapping intervals; gaps <= tol are absorbed."""
    if len(los) == 0:
        raise ValidationError("nothing to merge")
    order = np.argsort(los, kind="stable")
    lo_s = los[order]
    hi_s = np.maximum.accumulate(his[order])
    starts = np.empty(len(lo_s), dtype=bool)
    starts[0] = True
    starts[1:] = lo_s[1:] > hi_s[:-1] + tol
    start_idx = np.flatnonzero(starts)
    end_idx = np.append(start_idx[1:], len(lo_s)) - 1
    return lo_s[start_idx].copy(), hi_s[end_idx].copy()


def union_from_cover(cover: Cover, depth: int | None = None, tol: float = MERGE_TOL) -> IntervalUnion:
    los, his = merge_intervals(cover.los, cover.his, tol)
    return IntervalUnion(los=los, his=his, depth=cover.depth if depth is None else depth)


# ---------------------------------------------------------------------------
# pairwise combination


def _balanced_covers(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    n: int,
    scale: float,
    pair_budget: int,
    strict_budget: bool,
) -> tuple[Cover, Cover, float, bool]:
    m1 = float(maxlen_at_depth(K1, n))
    m2 = float(maxlen_at_depth(K2, n))
    # match granularities: both covers contribute intervals of the same
    # scale to the sum, anchored at the coarser of the two depth-n
    # granularities — refining one side far beyond the other only
    # multiplies the pair count without shrinking the outer union
    target1 = max(m1, scale * m2) * (1.0 + 1e-12)
    capped = False
    for _ in range(64):
        try:
            c1 = refine_to_length(K1, target1, budget=pair_budget)
            c2 = refine_to_length(K2, target1 / scale, budget=pair_budget)
        except BudgetExceeded:
            # one factor alone outgrew the pair budget; coarsening both
            # sides is the soft response, strict mode propagates
            if strict_budget:
                raise
            capped = True
            target1 *= 2.0
            continue
        if len(c1) * len(c2) <= pair_budget:
            return c1, c2, target1, capped
        if strict_budget:
            raise BudgetExceeded(
                f"pairwise combination needs {len(c1) * len(c2)} pairs, budget {pair_budget}"
            )
        capped = True
        target1 *= 2.0
    raise BudgetExceeded("could not balance covers within the pairwise budget")


def cover_sum(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    n: int,
    op: str = "+",
    lam: float = 1.0,
    *,
    pair_budget: int | None = None,
    strict_budget: bool = False,
    merge_tol: float = MERGE_TOL,
) -> IntervalUnion:
    """Outer approximation of K1 + K2 (op '+') or K1 - lam*K2 (op '-').

    The result is the merged union of all pairwise interval sums at
    granularity matched to depth n; it contains the true arithmetic set,
    and shrinks monotonically as n grows.
    """
    if op not in ("+", "-"):
        raise ValidationError(f"op must be '+' or '-', got {op!r}")
    lam = float(lam)
    if op == "+" and lam != 1.0:
        raise ValidationError("sum takes no scale factor; use op '-' for x - lam*y")
    if n < 0:
        raise ValidationError("depth must be >= 0")
    budget = pair_budget if pair_budget is not None else pair_budget_default()
    if op == "-" and lam == 0.0:
        u = union_from_cover(refine(K1, n, budget=budget), depth=n, tol=merge_tol)
        u.meta.update({"op": op, "lam": lam, "pairs": len(u)})
        return u
    scale = 1.0 if op == "+" else abs(lam)
    c1, c2, target1, capped = _balanced_covers(K1, K2, n, scale, budget, strict_budget)
    a_lo, a_hi = c1.los, c1.his
    if op == "+":
        t_lo, t_hi = c2.los, c2.his
    else:
        x, y = -lam * c2.los, -lam * c2.his
        t_lo, t_hi = np.minimum(x, y), np.maximum(x, y)
    lo = (a_lo[:, None] + t_lo[None, :]).ravel()
    hi = (a_hi[:, None] + t_hi[None, :]).ravel()
    los, his = merge_intervals(lo, hi, merge_tol)
    u = IntervalUnion(los=los, his=his, depth=n)
    u.meta.update(
        {
            "op": op,
            "lam": lam,
            "pairs": len(a_lo) * len(t_lo),
            "counts": (len(c1), len(c2)),
            "target_length": target1,
            "capped": capped,
        }
    )
    return u


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


def measure_estimate(U: IntervalUnion) -> float:
    """Total length of the union: an upper bound for the limit set's measure."""
    return U.total_length


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

    def summary_json(self) -> dict:
        return {
            "fraction_above_theta": self.fraction_above(),
            "median_slope": self.median_slope(),
            "theta": self.theta,
            "n": self.depth,
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "resolution", "covered_length"])
            for i, lam in enumerate(self.lambdas):
                for j, res in enumerate(self.resolutions):
                    writer.writerow([repr(lam), repr(res), repr(float(self.table[i, j]))])


def _scan_one(args) -> list[float]:
    K1, K2, n, lam, resolutions, pair_budget = args
    u = cover_sum(K1, K2, n, "-", lam, pair_budget=pair_budget)
    return [covered_length(u, r) for r in resolutions]


def marstrand_scan(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    lambdas,
    n: int,
    resolutions=DEFAULT_RESOLUTIONS,
    *,
    theta: float = DEFAULT_THETA,
    pair_budget: int = SCAN_PAIR_BUDGET,
    jobs: int = 1,
) -> ProjectionScan:
    """Covered-length table of the scaled differences K1 - lam*K2.

    For each lam the depth-n outer union is built and measured against
    each grid resolution; the summary statistic is the fraction of lam
    whose covered length at the finest resolution exceeds theta.
    """
    lambdas = [float(x) for x in lambdas]
    if not lambdas:
        raise ValidationError("no lambda samples given")
    if any(x == 0.0 for x in lambdas):
        raise ValidationError("lambda samples must be nonzero")
    res = sorted(set(float(r) for r in resolutions), reverse=True)
    if not res or res[-1] <= 0:
        raise ValidationError("resolutions must be positive")
    tasks = [(K1, K2, n, lam, res, pair_budget) for lam in lambdas]
    rows = None
    if jobs > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(
                    pool.map(_scan_one, tasks, chunksize=max(1, len(tasks) // (4 * jobs)))
                )
        except (OSError, PermissionError):
            rows = None  # no subprocess support here; degrade to serial
    if rows is None:
        rows = [_scan_one(t) for t in tasks]
    table = np.array(rows, dtype=float)
    return ProjectionScan(
        lambdas=tuple(lambdas),
        resolutions=tuple(res),
        table=table,
        depth=n,
        theta=theta,
    )
