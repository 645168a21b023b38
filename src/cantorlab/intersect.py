"""Intersection machinery for pairs of regular Cantor sets.

Four layers of evidence about K1 and a translated copy K2 + t:

* `intersect_test` / `difference_scan`: one depth-bounded cover sweep.
  Disjoint covers at some depth certify empty intersection; overlap at
  the deepest tested cover is evidence only.  Depth d is built only
  while some translation is undecided, so BudgetExceeded is raised only
  for depths actually reached.
* `gap_lemma_test`: Newhouse's gap lemma in the form of Astels.  When
  the proved thickness bounds multiply to at least 1 and each hull is
  at least as long as the other set's largest gap, K1 - K2 is the whole
  hull difference, so K1 meets K2 + t exactly for t in it, decided
  exactly from the hull ends — no cover, depth or budget enters.
* `recurrent_compact_search`: a machine-checkable certificate of stable
  intersection.  Relative positions of renormalized cylinder pairs are
  discretized on an (s, t) grid (s the log relative scale, t the
  relative translation in the unit frame of the first set's cylinder);
  cells that cannot renormalize back into the surviving region with a
  one-cell safety margin are deleted until a greatest fixed point
  remains.  Image boxes are fixed once, and each sweep reads their
  member counts from one summed-area table of the whole mask.  The
  certificate is the mask alone: an independent checker confirms that
  every member cell has some child pair whose image stays inside it.
* `d_stable_probe` / `tangency_density_experiment`: stochastic and
  measure-theoretic probes of how robust the intersection is.

Margin note: the safety margin is applied in the translation direction
only.  The log-scale coordinate moves by the exact constant
log|J'| - log|J| per renormalization step, so for equal-ratio pairs
every s-column maps to itself; demanding clearance in s would erode the
outermost columns on every sweep and provably empty every region for
such pairs.  Translation clearance is what perturbation robustness
actually uses.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cantor_core import (
    Cover,
    RegularCantorSet,
    build_affine,
    refine,
    resolve_budget,
    set_from_json,
    set_to_json,
)
from .dimension import box_regression
from .errors import BudgetExceeded, NonAffineInput, TZeroNotInDifference, ValidationError
from .setops import _grid_cells, _hull_pair_refusal, cover_sum

GRID_SNAP_EPS = 1e-9
MAX_SWEEPS = 10_000
PERTURB_MAX_TRIES = 200


# ---------------------------------------------------------------------------
# depth-bounded intersection tests


@dataclass(frozen=True)
class IntersectionOutcome:
    """Tri-state cover verdict: certified disjoint at a depth, or undecided overlap.

    disjoint=True with depth m means the depth-m covers (m minimal) have
    disjoint unions — a certificate that K1 and K2 + t do not meet.
    disjoint=False means the deepest tested covers still overlap, which
    decides nothing about the limit sets.
    """

    disjoint: bool
    depth: int

    def __str__(self) -> str:
        kind = "DisjointAtDepth" if self.disjoint else "OverlapAtDepth"
        return f"{kind}({self.depth})"


def _cover_meet(c1: Cover, c2: Cover, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise intersections of the intervals of c1 and c2 + t, in order.

    Both covers are sorted disjoint closed families, so the intervals of
    c2 + t meeting one interval of c1 are a run of consecutive indices
    (touching endpoints count); the intersections come out sorted and
    pairwise disjoint.
    """
    a_lo, a_hi = c1.los, c1.his
    b_lo, b_hi = c2.los + t, c2.his + t
    start = np.searchsorted(b_hi, a_lo, side="left")
    counts = np.maximum(np.searchsorted(b_lo, a_hi, side="right") - start, 0)
    ia = np.repeat(np.arange(len(a_lo)), counts)
    ib = np.arange(len(ia)) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    return np.maximum(a_lo[ia], b_lo[ib]), np.minimum(a_hi[ia], b_hi[ib])


def intersect_test(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    t: float,
    n: int,
    *,
    budget: int | None = None,
) -> IntersectionOutcome:
    """Compare depth-d covers of K1 and K2 + t for d = 0..n."""
    return difference_scan(K1, K2, [t], n, budget=budget).outcomes[0]


@dataclass(frozen=True)
class DifferenceProfile:
    ts: tuple[float, ...]
    outcomes: tuple[IntersectionOutcome, ...]
    depth: int


def difference_scan(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    t_grid,
    n: int,
    *,
    budget: int | None = None,
) -> DifferenceProfile:
    """intersect_test across a sorted grid of translations.

    Depths run 0..n, and depth d is built (one cover per set, one depth
    held at a time) only while some translation is still undecided, so
    BudgetExceeded is raised only for a depth actually reached.  The
    overlap set {t : covers still meet at depth n} is an outer
    approximation, sampled on the grid, of the set of differences
    {x - y : x in K1, y in K2}.
    """
    if n < 0:
        raise ValidationError("depth must be >= 0")
    ts = [float(t) for t in t_grid]
    if not all(math.isfinite(t) for t in ts):
        raise ValidationError("translations must be finite")
    if ts != sorted(ts):
        raise ValidationError("t grid must be sorted")
    first = [None] * len(ts)  # first depth whose covers miss each other
    for d in range(n + 1):
        undecided = [i for i, f in enumerate(first) if f is None]
        if not undecided:
            break
        c1 = refine(K1, d, budget=budget)
        c2 = c1 if K2 == K1 else refine(K2, d, budget=budget)
        for i in undecided:
            if len(_cover_meet(c1, c2, ts[i])[0]) == 0:
                first[i] = d
    outcomes = tuple(
        IntersectionOutcome(disjoint=f is not None, depth=n if f is None else f) for f in first
    )
    return DifferenceProfile(ts=tuple(ts), outcomes=outcomes, depth=n)


# ---------------------------------------------------------------------------
# gap lemma


@dataclass(frozen=True)
class GapLemmaResult:
    """Gap-lemma verdict on K1 ∩ (K2 + t) != empty.

    certified=True holds for the limit sets.  tau1 and tau2 are the
    proved thickness bounds of the sets (None where a set carries none);
    linked is None when the lemma does not apply, since linkedness was
    then not tested.
    """

    certified: bool
    tau1: float | None
    tau2: float | None
    linked: bool | None
    reason: str


def gap_lemma_test(K1: RegularCantorSet, K2: RegularCantorSet, t: float) -> GapLemmaResult:
    """Gap-lemma certificate for K1 ∩ (K2 + t) != empty, in the form of
    Astels (Trans. AMS 2000).

    When the gap lemma closes the hull pair (`setops._hull_pair_refusal`
    at scale 1, the test `cover_sum` uses), K1 - K2 is the whole
    interval H1 - H2 of the hulls.  K1 then meets K2 + t exactly when t
    lies in H1 - H2, and the hulls are linked exactly then.  The test
    compares `Fraction(t)` with the exact hull ends, so it builds no
    cover and has no depth.  Any other pair is refused with linked None,
    and its reason names the condition that failed.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError("translation must be finite")
    tau1, tau2 = (None if K._gap_bounds is None else float(K._gap_bounds[0]) for K in (K1, K2))
    refusal = _hull_pair_refusal(K1, K2, 1.0)
    if refusal is not None:
        return GapLemmaResult(False, tau1, tau2, None, f"gap lemma does not apply: {refusal}")
    (lo1, hi1), (lo2, hi2) = K1._exact_hull, K2._exact_hull
    if lo1 - hi2 <= Fraction(t) <= hi1 - lo2:
        return GapLemmaResult(
            True, tau1, tau2, True,
            "gap lemma: tau1*tau2 >= 1 with balanced hulls gives K1 - K2 = H1 - H2, which contains t",
        )
    return GapLemmaResult(False, tau1, tau2, False, "t lies outside H1 - H2: the hulls are disjoint")


# ---------------------------------------------------------------------------
# relative positions and the recurrent-region certificate


@dataclass(frozen=True)
class PositionRegion:
    """Surviving (s, t) cells per cylinder-type pair.

    mask has shape (r1, r2, ns, nt).  Every member cell has some child
    pair whose renormalization image (bounding box over the whole cell,
    margin-expanded in t) stays inside the mask; the mask names no pair,
    so a checker tries them all.
    """

    s0: float
    hs: float
    ns: int
    t0: float
    ht: float
    nt: int
    margin: int
    mask: np.ndarray

    @property
    def n_members(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    region: PositionRegion | None
    sweeps: int


def _child_tables(K: RegularCantorSet) -> list[list[tuple[int, float, float, float]]]:
    """Per piece j: [(k, J.lo, J.hi, |J|)] with J the child cylinder of
    type k inside piece j, in the unit frame of piece j."""
    tables: list[list[tuple[int, float, float, float]]] = []
    for j in range(K.n_pieces):
        inv = K.inverses[j]
        piece = K.pieces[j]
        row = []
        for k in K.transitions[j]:
            img = inv.apply_interval(K.pieces[k])
            lo = (img.lo - piece.lo) / piece.length
            hi = (img.hi - piece.lo) / piece.length
            row.append((k, float(lo), float(hi), float(hi - lo)))
        tables.append(row)
    return tables


def _require_affine(*sets: RegularCantorSet) -> None:
    for K, name in zip(sets, ("first set", "second set")):
        if not K.is_affine:
            raise NonAffineInput(f"{name} must be affine for exact renormalization")


@np.errstate(over="ignore")  # an image bound that overflows lies off the grid
def recurrent_compact_search(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    box: tuple[tuple[float, float], tuple[float, float]],
    grid: tuple[float, float],
    margin: int = 1,
    *,
    budget: int | None = None,
) -> SearchOutcome:
    """Greatest-fixed-point search for a recurrent region of relative positions.

    Starting from every cell whose positions force overlapping hulls, cells
    are repeatedly deleted unless some child pair (one Markov piece of each
    set) maps the whole cell into surviving cells with `margin` cells of
    clearance in the translation direction.  A nonempty fixed point
    certifies positions whose cylinder pairs can renormalize forever with
    overlapping hulls — nonempty intersection, robust under translation-type
    perturbations up to the margin.  Image boxes are fixed once; each sweep
    reads their member counts from one summed-area table of the mask.
    """
    _require_affine(K1, K2)
    (s_lo, s_hi), (t_lo, t_hi) = box
    hs, ht = float(grid[0]), float(grid[1])
    if not (s_hi > s_lo and t_hi > t_lo and hs > 0 and ht > 0):
        raise ValidationError("box ranges and cell sizes must be positive")
    spans = ((s_hi - s_lo) / hs, (t_hi - t_lo) / ht)
    if not all(map(math.isfinite, (s_lo, s_hi, t_lo, t_hi, hs, ht, *spans))):
        raise ValidationError("box ends, cell sizes and cell counts must be finite")
    if type(margin) is not int or margin < 0:
        raise ValidationError("margin must be an int >= 0")
    ns, nt = (max(1, int(round(x))) for x in spans)
    hs, ht, r1, r2 = (s_hi - s_lo) / ns, (t_hi - t_lo) / nt, K1.n_pieces, K2.n_pieces
    if r1 * r2 * ns * nt > (limit := resolve_budget(budget)):
        raise BudgetExceeded(f"{r1 * r2 * ns * nt} grid cells exceed budget {limit}")

    s_edges, t_edges = s_lo + hs * np.arange(ns + 1), t_lo + ht * np.arange(nt + 1)
    e_lo, e_hi = np.exp(s_edges[:-1]), np.exp(s_edges[1:])  # e^s at each row's edges
    if not np.isfinite(e_hi[-1]):
        raise ValidationError("e^s overflows on the grid")
    cell_t_lo, cell_t_hi = t_edges[None, :-1], t_edges[None, 1:]
    # initial mask: the whole cell forces hull overlap, [t, t + e^s] meets [0, 1]
    mask = np.tile((cell_t_hi <= 1.0) & (cell_t_lo + e_lo[:, None] >= 0.0), (r1, r2, 1, 1))

    # each child pair's image box, fixed once: its type pair's summed-area table,
    # the flat offsets of its rows' ends, its columns and cell count (-1: off the grid)
    sat = np.zeros((r1, r2, ns + 1, nt + 1), dtype=np.int64)
    tab1, tab2 = _child_tables(K1), _child_tables(K2)
    rows, boxes = np.arange(ns)[:, None], []
    for j1, j2 in np.ndindex(r1, r2):
        for (k1, w_lo, _, L), (k2, v_lo, _, Lp) in itertools.product(tab1[j1], tab2[j2]):
            shift = math.log(Lp) - math.log(L)
            r_lo = rows + math.floor(shift / hs + GRID_SNAP_EPS)
            r_hi = rows + math.ceil(shift / hs - GRID_SNAP_EPS) + 1
            # u' = (u + e^s * v_lo - w_lo) / L over the cell
            u_min = (cell_t_lo + np.minimum(e_lo * v_lo, e_hi * v_lo)[:, None] - w_lo) / L
            u_max = (cell_t_hi + np.maximum(e_lo * v_lo, e_hi * v_lo)[:, None] - w_lo) / L
            c_lo = np.floor((u_min - t_lo) / ht + GRID_SNAP_EPS) - margin
            c_hi = np.ceil((u_max - t_lo) / ht - GRID_SNAP_EPS) + margin
            inside = (r_lo >= 0) & (r_hi <= ns) & (c_lo >= 0) & (c_hi <= nt)
            c_lo = np.clip(c_lo, 0, nt - 1).astype(np.int32)
            c_hi = np.clip(c_hi, 1, nt).astype(np.int32)
            cells = np.where(inside, (r_hi - r_lo) * (c_hi - c_lo), -1).astype(np.int32)
            lo, hi = np.clip(r_lo, 0, ns - 1) * (nt + 1), np.clip(r_hi, 1, ns) * (nt + 1)
            boxes.append((j1, j2, sat[k1, k2].ravel(), lo, hi, c_lo, c_hi, cells))

    # a member survives when some child pair's box lies in the grid and holds only members
    for sweeps in range(1, MAX_SWEEPS + 1):
        np.cumsum(np.cumsum(mask, axis=2, dtype=np.int64), axis=3, out=sat[:, :, 1:, 1:])
        supported = np.zeros_like(mask)
        for j1, j2, s, lo, hi, c_lo, c_hi, cells in boxes:
            supported[j1, j2] |= s[hi + c_hi] - s[lo + c_hi] - s[hi + c_lo] + s[lo + c_lo] == cells
        if (mask <= supported).all():
            break
        mask &= supported
    else:
        raise BudgetExceeded(f"fixed-point iteration exceeded {MAX_SWEEPS} sweeps")

    region = PositionRegion(s0=s_lo, hs=hs, ns=ns, t0=t_lo, ht=ht, nt=nt, margin=margin, mask=mask)
    return SearchOutcome(bool(mask.any()), region if mask.any() else None, sweeps)


# ---------------------------------------------------------------------------
# certificate files and the independent checker


def region_to_json(
    region: PositionRegion, K1: RegularCantorSet, K2: RegularCantorSet
) -> dict:
    flat = region.mask.ravel(order="C")
    # run lengths alternate non-member, member, ... starting with non-members
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(np.concatenate(([0], edges, [flat.size])))
    if flat[:1].any():
        runs = np.concatenate(([0], runs))
    return {
        "schema": 2,
        "kind": "recurrent-region",
        "sets": {"first": set_to_json(K1), "second": set_to_json(K2)},
        "grid": {
            "s0": region.s0,
            "hs": region.hs,
            "ns": region.ns,
            "t0": region.t0,
            "ht": region.ht,
            "nt": region.nt,
            "types": [region.mask.shape[0], region.mask.shape[1]],
        },
        "margin": region.margin,
        "margin_axis": "t",
        "mask_rle": runs.tolist(),
    }


def save_certificate(path, region: PositionRegion, K1, K2) -> None:
    with open(path, "w") as fh:
        json.dump(region_to_json(region, K1, K2), fh, sort_keys=True)
        fh.write("\n")


def verify_certificate(doc: dict, *, budget: int | None = None) -> tuple[bool, str]:
    """Re-check a certificate, independent of the search.

    Decodes the mask, rebuilds both sets from their embedded
    definitions and confirms, for every member cell, (a) hull overlap on
    the whole cell and (b) some child pair of the cell's types whose
    margin-expanded image box lies in the grid and holds only member
    cells.  Image boxes are recomputed from scratch, per child pair and
    vectorised over the cells, against a summed-area table of the
    decoded mask.  A grid of more cells than `budget` (as for the
    search) raises BudgetExceeded before the mask is decoded.
    """
    try:
        grid = doc["grid"]
        ns, nt = int(grid["ns"]), int(grid["nt"])
        r1, r2 = (int(x) for x in grid["types"])
        s0, hs = float(grid["s0"]), float(grid["hs"])
        t0, ht = float(grid["t0"]), float(grid["ht"])
        margin, runs = doc["margin"], list(doc["mask_rle"])
        K1 = set_from_json(doc["sets"]["first"])
        K2 = set_from_json(doc["sets"]["second"])
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    # a negative margin or cell size would shrink the checked image boxes
    if not (ns > 0 and nt > 0 and hs > 0 and ht > 0) or (r1, r2) != (K1.n_pieces, K2.n_pieces):
        return False, "malformed certificate: grid sizes must be positive and types match the sets"
    limit = resolve_budget(budget)
    if r1 * r2 * ns * nt > limit:
        raise BudgetExceeded(f"{r1 * r2 * ns * nt} grid cells exceed budget {limit}")
    # a margin wider than the grid leaves no image box inside it
    if not all(type(x) is int and x >= 0 for x in [margin, *runs]) or margin > nt:
        return False, "malformed certificate: margin and runs must be non-negative integers, margin <= nt"
    if sum(runs) != r1 * r2 * ns * nt:
        return False, "mask run-length data does not match grid size"
    # run lengths alternate non-member, member, ... starting with non-members
    mask = np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape((r1, r2, ns, nt))
    n_members = int(mask.sum())
    if not n_members:
        return False, "certificate has no member cells"

    # cell edges s0 + i * hs, and e^s by math.exp at the ns + 1 row edges,
    # so each box is the one a loop over cells computes (np.exp may
    # differ by an ulp)
    cs = s0 + np.arange(ns + 1) * hs
    ct = t0 + np.arange(nt + 1) * ht
    try:
        es = np.array([math.exp(x) for x in cs])
    except OverflowError:
        return False, "malformed certificate: e^s overflows on the grid"
    cs_lo, cs_hi, e_a, e_b = cs[:-1, None], cs[1:, None], es[:-1, None], es[1:, None]
    ct_lo, ct_hi = ct[None, :-1], ct[None, 1:]

    # hull-overlap invariant on the whole cell
    hull = (ct_hi <= 1.0) & (ct_lo + e_a >= 0.0)
    sat = np.zeros((r1, r2, ns + 1, nt + 1), dtype=np.int64)
    np.cumsum(np.cumsum(mask, axis=2, dtype=np.int64), axis=3, out=sat[:, :, 1:, 1:])

    def span(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive float index range lo..hi as half-open integer bounds
        clipped to 0..n (an empty range stays empty, NaN becomes empty)."""
        lo = np.fmin(np.fmax(lo, 0), n)
        return lo.astype(np.int64), np.fmin(np.fmax(hi + 1, lo), n).astype(np.int64)

    tab1, tab2 = _child_tables(K1), _child_tables(K2)
    supported = np.zeros_like(mask)
    for j1 in range(r1):
        for j2 in range(r2):
            for k1, w_lo, _w_hi, L in tab1[j1]:
                for k2, v_lo, _v_hi, Lp in tab2[j2]:
                    shift = math.log(Lp) - math.log(L)
                    # image bounding box over the cell corners
                    u_min = (ct_lo + np.minimum(e_a * v_lo, e_b * v_lo) - w_lo) / L
                    u_max = (ct_hi + np.maximum(e_a * v_lo, e_b * v_lo) - w_lo) / L
                    is_lo = np.floor((cs_lo + shift - s0) / hs + GRID_SNAP_EPS)
                    is_hi = np.ceil((cs_hi + shift - s0) / hs - GRID_SNAP_EPS) - 1
                    it_lo = np.floor((u_min - t0) / ht + GRID_SNAP_EPS) - margin
                    it_hi = np.ceil((u_max - t0) / ht - GRID_SNAP_EPS) - 1 + margin
                    # compared as floats, so a bound that is not finite is never inside
                    inside = (is_lo >= 0) & (is_hi < ns) & (it_lo >= 0) & (it_hi < nt)
                    a, b = span(is_lo, is_hi, ns)
                    c, d = span(it_lo, it_hi, nt)
                    s = sat[k1, k2]
                    count = s[b, d] - s[a, d] - s[b, c] + s[a, c]
                    supported[j1, j2] |= inside & (count == (b - a) * (d - c))

    for bad, why in (
        (mask & ~hull, "does not force hull overlap"),
        (mask & ~supported, "has no child pair whose image stays in the mask"),
    ):
        if bad.any():
            cell = ",".join(str(int(x)) for x in np.unravel_index(int(np.argmax(bad)), bad.shape))
            return False, f"member cell ({cell}) {why}"
    return True, f"verified {n_members} member cells"


# ---------------------------------------------------------------------------
# stochastic d-stability probe


def perturb_set(K: RegularCantorSet, radius: float, rng: np.random.Generator) -> RegularCantorSet:
    """Uniform perturbation of piece endpoints, resampled until valid.

    Perturbing endpoints (rather than slopes and offsets directly)
    keeps every branch exactly Markov after rebuilding, which is the
    rejection-free part of the model; overlap violations are resampled.
    """
    if not K.is_affine:
        raise NonAffineInput("perturbations act on affine branch parameters")
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    if radius == 0:
        return build_affine([p.as_floats() for p in K.pieces], K.transitions)
    for _ in range(PERTURB_MAX_TRIES):
        pieces = []
        for p in K.pieces:
            lo = float(p.lo) + rng.uniform(-radius, radius)
            hi = float(p.hi) + rng.uniform(-radius, radius)
            pieces.append((lo, hi))
        try:
            return build_affine(pieces, K.transitions)
        except ValidationError:
            continue
    raise ValidationError(f"no valid perturbation found within {PERTURB_MAX_TRIES} draws")


def _union_box_estimate(los: np.ndarray, his: np.ndarray, finest_scale: float) -> float:
    """Box-count slope of an interval union across dyadic resolutions
    coarser than the union's own interval scale."""
    if len(los) == 0:
        return 0.0
    k_max = min(20, max(4, int(math.floor(-math.log2(max(finest_scale, 1e-18))))))
    radii = [2.0**-k for k in range(3, k_max + 1)]
    counts = [_grid_cells(los, his, r) for r in radii]
    if len(set(counts)) == 1 and counts[0] == 1:
        return 0.0
    slope, _ = box_regression(radii, counts)
    return max(0.0, slope)


def d_stable_probe(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    t: float,
    d: float,
    perturbations: int,
    radius: float,
    n: int,
    *,
    seed: int = 0,
    budget: int | None = None,
) -> float:
    """Fraction of random perturbed pairs whose cover intersection still
    looks at least d-dimensional.

    Each trial draws endpoint perturbations of both sets of size at most
    `radius`, intersects the depth-n covers of the perturbed pair at
    translation t, and estimates the box dimension of the resulting
    union; the trial passes when the estimate reaches d.  A fraction of
    1.0 across many trials is desk-scale evidence of d-stable
    intersection.
    """
    if not (0.0 < d < 1.0):
        raise ValidationError("d must lie strictly between 0 and 1")
    if perturbations < 1:
        raise ValidationError("need at least one perturbation")
    min_gap = min(
        min(float(b.lo) - float(a.hi) for a, b in zip(K.pieces, K.pieces[1:]))
        for K in (K1, K2)
        if K.n_pieces > 1
    )
    if radius > min_gap / 2:
        raise ValidationError(
            f"radius {radius} too large relative to the smallest gap {min_gap}"
        )
    hits = 0
    for index in range(perturbations):
        rng = np.random.default_rng([seed, index])
        P1 = perturb_set(K1, radius, rng)
        P2 = perturb_set(K2, radius, rng)
        c1 = refine(P1, n, budget=budget)
        c2 = refine(P2, n, budget=budget)
        los, his = _cover_meet(c1, c2, float(t))
        scale = float(max(c1.lengths.max(), c2.lengths.max()))
        estimate = _union_box_estimate(los, his, scale)
        if estimate >= d:
            hits += 1
    return hits / perturbations


# ---------------------------------------------------------------------------
# tangency-density experiment


@dataclass(frozen=True)
class DensityProfile:
    """Measure density of the difference cover in shrinking windows at t0."""

    t0: float
    deltas: tuple[float, ...]
    ratios: tuple[float, ...]
    depth: int
    capped: bool  # whether the pair budget coarsened the difference cover


def tangency_density_experiment(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    t0: float,
    deltas,
    n: int,
    *,
    pair_budget: int | None = None,
) -> DensityProfile:
    """Densities m(cover(K1-K2) ∩ [t0, t0+delta]) / delta.

    Ratios that decay toward 0 are evidence for the thin regime (the
    difference set has density 0 at t0 on the chosen side); ratios
    bounded away from 0 are evidence of positive density.
    """
    ds = sorted((float(x) for x in deltas), reverse=True)
    if not ds or ds[-1] <= 0:
        raise ValidationError("deltas must be positive")
    U = cover_sum(K1, K2, n, "-", 1.0, pair_budget=pair_budget)
    t0 = float(t0)
    slack = 1e-12 * max(1.0, abs(t0))
    i = int(np.searchsorted(U.los, t0, side="right")) - 1
    on_component = i >= 0 and U.his[i] >= t0 - slack
    at_left_edge = i + 1 < len(U.los) and U.los[i + 1] <= t0 + slack
    if not (on_component or at_left_edge):
        raise TZeroNotInDifference(f"{t0} is not a point of the depth-{n} difference cover")
    ratios = []
    for delta in ds:
        lo = np.clip(U.los, t0, t0 + delta)
        hi = np.clip(U.his, t0, t0 + delta)
        covered = float(np.sum(np.maximum(0.0, hi - lo)))
        ratios.append(min(1.0, covered / delta))
    return DensityProfile(t0=t0, deltas=tuple(ds), ratios=tuple(ratios), depth=n, capped=U.meta["capped"])
