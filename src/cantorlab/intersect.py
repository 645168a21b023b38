"""Intersection machinery for pairs of regular Cantor sets.

Four layers of evidence about K1 and a translated copy K2 + t:

* `intersect_test` / `difference_scan`: one depth-bounded cover sweep.
  Disjoint covers at some depth certify empty intersection; overlap at
  the deepest tested cover is evidence only.  Depth d is built only
  while some translation is undecided, so BudgetExceeded is raised only
  for depths actually reached.
* `gap_lemma_test`: thickness certificate.  When the thickness product
  exceeds 1 strictly and the sets are linked (each hull meets the other
  set), the intersection is nonempty at every depth — no budget enters.
* `recurrent_compact_search`: a machine-checkable certificate of stable
  intersection.  Relative positions of renormalized cylinder pairs are
  discretized on an (s, t) grid (s the log relative scale, t the
  relative translation in the unit frame of the first set's cylinder);
  cells that cannot renormalize back into the surviving region with a
  one-cell safety margin are deleted until a greatest fixed point
  remains.  Every surviving cell carries a child-pair witness, and the
  whole object can be re-verified by an independent plain-loop checker.
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

import json
import math
from dataclasses import dataclass

import numpy as np

from .cantor_core import (
    Cover,
    Interval,
    RegularCantorSet,
    _meets_interval,
    build_affine,
    refine,
    resolve_budget,
    scale_affine,
    set_from_json,
    set_to_json,
)
from .dimension import box_regression, thickness
from .errors import BudgetExceeded, NonAffineInput, TZeroNotInDifference, ValidationError
from .setops import _grid_cells, cover_sum, merge_intervals

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
    certified: bool
    tau1: float
    tau2: float
    linked: bool
    reason: str


def gap_lemma_test(
    K1: RegularCantorSet,
    K2: RegularCantorSet,
    t: float,
    *,
    depth: int = 8,
) -> GapLemmaResult:
    """Thickness certificate for K1 ∩ (K2 + t) != empty.

    Requires tau(K1) * tau(K2) > 1 strictly and linkedness: the hulls
    overlap and each hull contains a point of the other set (so neither
    hull sits inside a gap of the other).  Each hull is tested with
    `cantor_core._meets_interval` down to `depth`.  A certified result
    holds for the limit sets, with no depth bound.
    """
    t = float(t)
    tau1 = thickness(K1, depth).value
    tau2 = tau1 if K2 == K1 else thickness(K2, depth).value
    h1 = K1.hull
    h2_lo, h2_hi = float(K2.hull.lo) + t, float(K2.hull.hi) + t
    if float(h1.hi) < h2_lo or h2_hi < float(h1.lo):
        return GapLemmaResult(False, tau1, tau2, False, "hulls are disjoint")
    if tau1 * tau2 <= 1.0:
        return GapLemmaResult(
            False, tau1, tau2, False, f"thickness product {tau1 * tau2} is not > 1"
        )
    meets1 = _meets_interval(K1, Interval(h2_lo, h2_hi), depth)
    if meets1 is not True:
        return GapLemmaResult(
            False, tau1, tau2, False, "first set not shown to meet the other hull"
        )
    shifted_hull1 = Interval(float(h1.lo) - t, float(h1.hi) - t)
    meets2 = _meets_interval(K2, shifted_hull1, depth)
    if meets2 is not True:
        return GapLemmaResult(
            False, tau1, tau2, False, "second set not shown to meet the other hull"
        )
    return GapLemmaResult(
        True, tau1, tau2, True, "thickness product > 1 with linked hulls"
    )


# ---------------------------------------------------------------------------
# relative positions and the recurrent-region certificate


@dataclass(frozen=True)
class PositionRegion:
    """Surviving (s, t) cells per cylinder-type pair, with witnesses.

    mask has shape (r1, r2, ns, nt); witness_k1/witness_k2 hold, for
    every member cell, the child-pair indices whose renormalization
    image (bounding box over the whole cell, margin-expanded in t)
    stays inside the mask.  Non-member cells hold -1.
    """

    s0: float
    hs: float
    ns: int
    t0: float
    ht: float
    nt: int
    margin: int
    mask: np.ndarray
    witness_k1: np.ndarray
    witness_k2: np.ndarray

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


def _require_affine(K: RegularCantorSet, name: str) -> None:
    if not K.is_affine:
        raise NonAffineInput(f"{name} must be affine for exact renormalization")


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

    Starting from every cell whose positions force overlapping hulls,
    cells are repeatedly deleted unless some child pair (one Markov
    piece of each set) maps the whole cell into surviving cells with
    `margin` cells of clearance in the translation direction.  A
    nonempty fixed point certifies positions whose cylinder pairs can
    renormalize forever with overlapping hulls — nonempty intersection,
    robust under translation-type perturbations up to the margin.
    """
    _require_affine(K1, "first set")
    _require_affine(K2, "second set")
    (s_lo, s_hi), (t_lo, t_hi) = box
    hs, ht = float(grid[0]), float(grid[1])
    if not (s_hi > s_lo and t_hi > t_lo and hs > 0 and ht > 0):
        raise ValidationError("box ranges and cell sizes must be positive")
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    ns = max(1, int(round((s_hi - s_lo) / hs)))
    nt = max(1, int(round((t_hi - t_lo) / ht)))
    hs = (s_hi - s_lo) / ns
    ht = (t_hi - t_lo) / nt
    r1, r2 = K1.n_pieces, K2.n_pieces
    limit = resolve_budget(budget)
    if r1 * r2 * ns * nt > limit:
        raise BudgetExceeded(f"{r1 * r2 * ns * nt} grid cells exceed budget {limit}")

    tab1, tab2 = _child_tables(K1), _child_tables(K2)

    s_edges = s_lo + hs * np.arange(ns + 1)
    t_edges = t_lo + ht * np.arange(nt + 1)
    e_lo = np.exp(s_edges[:-1])  # e^s at cell left edge, per column
    e_hi = np.exp(s_edges[1:])

    # initial mask: the whole cell must force hull overlap:
    # [t, t + e^s] meets [0, 1]  <=>  t <= 1 and t + e^s >= 0
    cell_t_lo = t_edges[:-1][None, :]
    cell_t_hi = t_edges[1:][None, :]
    init = (cell_t_hi <= 1.0) & (cell_t_lo + e_lo[:, None] >= 0.0)
    mask = np.broadcast_to(init, (r1, r2, ns, nt)).copy()

    # static per-child-pair index geometry: a move is (k1, k2, r_lo, r_hi,
    # c_lo, c_hi, valid), the image box of each cell as clipped half-open
    # row and column ranges, and whether the unclipped box fits the grid
    rows_idx = np.arange(ns)[:, None]
    moves: dict[tuple[int, int], list[tuple]] = {}
    for j1 in range(r1):
        for j2 in range(r2):
            entries = []
            for (k1, w_lo, _w_hi, L) in tab1[j1]:
                for (k2, v_lo, _v_hi, Lp) in tab2[j2]:
                    shift = math.log(Lp) - math.log(L)
                    d_lo = math.floor(shift / hs + GRID_SNAP_EPS)
                    d_hi = math.ceil(shift / hs - GRID_SNAP_EPS)
                    # u' = (u + e^s * v_lo - w_lo) / L over the cell
                    ev = np.where(v_lo >= 0, e_lo * v_lo, e_hi * v_lo)[:, None]
                    ev_hi = np.where(v_lo >= 0, e_hi * v_lo, e_lo * v_lo)[:, None]
                    u_min = (cell_t_lo + ev - w_lo) / L
                    u_max = (cell_t_hi + ev_hi - w_lo) / L
                    it_lo = np.floor((u_min - t_lo) / ht + GRID_SNAP_EPS).astype(np.int64) - margin
                    it_hi = (
                        np.ceil((u_max - t_lo) / ht - GRID_SNAP_EPS).astype(np.int64) - 1 + margin
                    )
                    is_lo = rows_idx + d_lo
                    is_hi = rows_idx + d_hi
                    valid = (is_lo >= 0) & (is_hi < ns) & (it_lo >= 0) & (it_hi < nt)
                    rows = np.clip(is_lo, 0, ns - 1), np.clip(is_hi, 0, ns - 1) + 1
                    cols = np.clip(it_lo, 0, nt - 1), np.clip(it_hi, 0, nt - 1) + 1
                    entries.append((k1, k2, *rows, *cols, valid))
            moves[(j1, j2)] = entries

    def prefix_sums(mask: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Summed-area table of the mask, per cylinder-type pair."""
        integrals = {}
        for k1 in range(r1):
            for k2 in range(r2):
                s = np.zeros((ns + 1, nt + 1), dtype=np.int64)
                np.cumsum(np.cumsum(mask[k1, k2].astype(np.int64), axis=0), axis=1, out=s[1:, 1:])
                integrals[(k1, k2)] = s
        return integrals

    # Each sweep records, per cell, the index of the first child pair that
    # supports it (len(entries) for none, and for every non-member); the
    # sweep that leaves the mask unchanged supplies the witnesses.
    sweeps = 0
    while True:
        sweeps += 1
        if sweeps > MAX_SWEEPS:
            raise BudgetExceeded(f"fixed-point iteration exceeded {MAX_SWEEPS} sweeps")
        integrals = prefix_sums(mask)
        new_mask = np.empty_like(mask)
        firsts = {}
        for (j1, j2), entries in moves.items():
            none = len(entries)
            first = np.full((ns, nt), none, dtype=np.min_scalar_type(none))
            for index in range(none - 1, -1, -1):
                k1, k2, r_lo, r_hi, c_lo, c_hi, valid = entries[index]
                s = integrals[(k1, k2)]
                total = s[r_hi, c_hi] - s[r_lo, c_hi] - s[r_hi, c_lo] + s[r_lo, c_lo]
                first[valid & (total == (r_hi - r_lo) * (c_hi - c_lo))] = index
            first[~mask[j1, j2]] = none
            new_mask[j1, j2] = first < none
            firsts[(j1, j2)] = first
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask

    if not mask.any():
        return SearchOutcome(found=False, region=None, sweeps=sweeps)

    witness_k1 = np.empty(mask.shape, dtype=np.int64)
    witness_k2 = np.empty(mask.shape, dtype=np.int64)
    for (j1, j2), entries in moves.items():
        witness_k1[j1, j2] = np.array([mv[0] for mv in entries] + [-1])[firsts[(j1, j2)]]
        witness_k2[j1, j2] = np.array([mv[1] for mv in entries] + [-1])[firsts[(j1, j2)]]

    region = PositionRegion(
        s0=s_lo,
        hs=hs,
        ns=ns,
        t0=t_lo,
        ht=ht,
        nt=nt,
        margin=margin,
        mask=mask,
        witness_k1=witness_k1,
        witness_k2=witness_k2,
    )
    return SearchOutcome(found=True, region=region, sweeps=sweeps)


def renormalization_sensitivity(
    K1: RegularCantorSet, K2: RegularCantorSet, region: PositionRegion
) -> float:
    """Conservative bound L on d(image position)/d(branch parameters).

    Derivation: one renormalization step sends t to (t + e^s*v - w)/L_J
    with v, w child-table offsets and L_J the child length, all ratios
    of piece endpoints.  Perturbing every endpoint by eps moves each
    table entry by at most c_K*eps with c_K = 4/min_piece_len^2
    (quotient rule, normalized hull), so the image moves by at most
    (c_K1*(1 + U) + c_K2*e^smax)/Jmin * eps with U the largest |t| over
    the box.  Perturbations below margin*ht/L keep every witness image
    inside its margin clearance.
    """
    s_max = region.s0 + region.ns * region.hs
    u_max = max(abs(region.t0), abs(region.t0 + region.nt * region.ht)) + 1.0

    def c_of(K: RegularCantorSet) -> tuple[float, float]:
        hull_len = float(K.hull.length)
        min_len = min(float(p.length) for p in K.pieces) / hull_len
        tables = _child_tables(K)
        j_min = min(L for row in tables for (_k, _lo, _hi, L) in row)
        return 4.0 / min_len**2, j_min

    c1, jmin1 = c_of(K1)
    c2, _ = c_of(K2)
    return (c1 * (1.0 + u_max) + c2 * math.exp(s_max)) / jmin1


def position_to_sets(
    K1: RegularCantorSet, K2: RegularCantorSet, s: float, t: float
) -> tuple[RegularCantorSet, RegularCantorSet]:
    """Concrete affine sets realizing a relative position (s, t).

    Both sets are normalized to unit hull; the second is then scaled by
    e^s and translated by t.  Meaningful for full-transition sets, whose
    cylinders are affine copies of the whole set.
    """
    if not (K1.has_full_transitions and K2.has_full_transitions):
        raise ValidationError("relative positions need full-transition sets")
    _require_affine(K1, "first set")
    _require_affine(K2, "second set")

    def unit(K: RegularCantorSet) -> RegularCantorSet:
        a = 1 / K.hull.length
        return scale_affine(K, a, -a * K.hull.lo)

    return unit(K1), scale_affine(unit(K2), math.exp(s), t)


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
    members = np.flatnonzero(flat)
    wk1, wk2 = region.witness_k1.ravel(), region.witness_k2.ravel()
    witnesses = np.stack((wk1[members], wk2[members]), axis=1)
    return {
        "schema": 1,
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
        "witnesses": witnesses.ravel().tolist(),
    }


def save_certificate(path, region: PositionRegion, K1, K2) -> None:
    with open(path, "w") as fh:
        json.dump(region_to_json(region, K1, K2), fh, sort_keys=True)
        fh.write("\n")


def verify_certificate(doc: dict) -> tuple[bool, str]:
    """Re-check a certificate with plain loops, independent of the search.

    Decodes the mask, rebuilds both sets from their embedded
    definitions, recomputes every member cell's witness image box from
    scratch and confirms (a) hull overlap on the whole cell and (b)
    margin-expanded containment of the image in the member mask.
    """
    try:
        grid = doc["grid"]
        ns, nt = int(grid["ns"]), int(grid["nt"])
        r1, r2 = (int(x) for x in grid["types"])
        s0, hs = float(grid["s0"]), float(grid["hs"])
        t0, ht = float(grid["t0"]), float(grid["ht"])
        margin, runs, witnesses = doc["margin"], list(doc["mask_rle"]), list(doc["witnesses"])
        K1 = set_from_json(doc["sets"]["first"])
        K2 = set_from_json(doc["sets"]["second"])
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    # a negative margin or cell size would shrink the checked image boxes
    if not (ns > 0 and nt > 0 and hs > 0 and ht > 0) or (r1, r2) != (K1.n_pieces, K2.n_pieces):
        return False, "malformed certificate: grid sizes must be positive and types match the sets"
    if not all(type(x) is int and x >= 0 for x in [margin, *runs, *witnesses]):
        return False, "malformed certificate: margin, runs and witnesses must be non-negative integers"

    total = r1 * r2 * ns * nt
    flat = np.zeros(total, dtype=bool)
    pos, value = 0, False
    for run in runs:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    if pos != total:
        return False, "mask run-length data does not match grid size"
    mask = flat.reshape((r1, r2, ns, nt))
    members = np.flatnonzero(flat)
    if not len(members):
        return False, "certificate has no member cells"
    if len(witnesses) != 2 * len(members):
        return False, "witness list length does not match member count"

    tab1 = _child_tables(K1)
    tab2 = _child_tables(K2)

    for m_index, flat_i in enumerate(members):
        j1, rem = divmod(int(flat_i), r2 * ns * nt)
        j2, rem = divmod(rem, ns * nt)
        i, k = divmod(rem, nt)
        k1 = witnesses[2 * m_index]
        k2 = witnesses[2 * m_index + 1]
        cs_lo, cs_hi = s0 + i * hs, s0 + (i + 1) * hs
        ct_lo, ct_hi = t0 + k * ht, t0 + (k + 1) * ht
        # hull-overlap invariant on the whole cell
        if not (ct_hi <= 1.0 and ct_lo + math.exp(cs_lo) >= 0.0):
            return False, f"member cell ({j1},{j2},{i},{k}) does not force hull overlap"
        row1 = [e for e in tab1[j1] if e[0] == k1]
        row2 = [e for e in tab2[j2] if e[0] == k2]
        if not row1 or not row2:
            return False, f"witness ({k1},{k2}) is not a child pair of types ({j1},{j2})"
        _, w_lo, _w_hi, L = row1[0]
        _, v_lo, _v_hi, Lp = row2[0]
        shift = math.log(Lp) - math.log(L)
        # image bounding box over the cell corners
        e_a, e_b = math.exp(cs_lo), math.exp(cs_hi)
        ev = (min(e_a * v_lo, e_b * v_lo), max(e_a * v_lo, e_b * v_lo))
        u_min = (ct_lo + ev[0] - w_lo) / L
        u_max = (ct_hi + ev[1] - w_lo) / L
        is_lo = math.floor((cs_lo + shift - s0) / hs + GRID_SNAP_EPS)
        is_hi = math.ceil((cs_hi + shift - s0) / hs - GRID_SNAP_EPS) - 1
        it_lo = math.floor((u_min - t0) / ht + GRID_SNAP_EPS) - margin
        it_hi = math.ceil((u_max - t0) / ht - GRID_SNAP_EPS) - 1 + margin
        if is_lo < 0 or is_hi >= ns or it_lo < 0 or it_hi >= nt:
            return False, f"image of cell ({j1},{j2},{i},{k}) leaves the grid"
        for ii in range(is_lo, is_hi + 1):
            for kk in range(it_lo, it_hi + 1):
                if not mask[k1, k2, ii, kk]:
                    return (
                        False,
                        f"image of cell ({j1},{j2},{i},{k}) hits non-member ({k1},{k2},{ii},{kk})",
                    )
    return True, f"verified {len(members)} member cells"


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
        if len(los):
            los, his = merge_intervals(los, his)
        scale = max(float(c1.max_length), float(c2.max_length))
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
    return DensityProfile(t0=t0, deltas=tuple(ds), ratios=tuple(ratios), depth=n)
