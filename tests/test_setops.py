"""Arithmetic of Cantor sets through interval covers: sums, scaled
differences, containment certificates, and projection scans."""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import random_affine_set

from cantorlab import (
    BudgetExceeded,
    EmptyTarget,
    Interval,
    PrecisionLoss,
    ValidationError,
    build_affine,
    builtin_names,
    contains_interval,
    cover_sum,
    covered_length,
    dump_set,
    gap_lemma_test,
    gauss_cantor,
    get_set,
    load_set,
    marstrand_scan,
    merge_intervals,
    perturb_set,
    refine,
    refine_to_length,
    set_from_json,
    set_to_json,
    thickness,
)
from cantorlab import cantor_core, setops
from cantorlab.cantor_core import _children, _LengthWalk, maxlen_at_depth
from cantorlab.surd import QuadraticSurd
from conftest import exact_intervals, itineraries

F = Fraction

SQRT2 = math.sqrt(2)


# ---------------------------------------------------------------------------
# interval unions


def test_merge_intervals_absorbs_small_gaps():
    los = np.array([0.0, 0.5, 2.0])
    his = np.array([0.4999999999999999, 1.0, 3.0])
    mlo, mhi = merge_intervals(los, his)
    assert len(mlo) == 2
    assert mlo[0] == 0.0 and mhi[0] == 1.0
    assert mlo[1] == 2.0 and mhi[1] == 3.0


def test_merge_intervals_handles_unsorted_input():
    mlo, mhi = merge_intervals(np.array([2.0, 0.0]), np.array([3.0, 1.0]))
    assert list(mlo) == [0.0, 2.0]
    assert list(mhi) == [1.0, 3.0]


def test_union_from_cover_matches_cover(ternary):
    # K - 0*K is K: its union is the depth-n cover, merged
    cover = refine(ternary, 3)
    union = cover_sum(ternary, ternary, 3, "-", lam=0.0)
    assert union.n_components == len(cover)
    assert union.total_length == pytest.approx(float(sum(cover.lengths)), abs=1e-15)
    assert list(union.los) == [float(x) for x in cover.los]


# ---------------------------------------------------------------------------
# sums and differences


def test_sum_of_symmetric_thirds_fills_unit_doubling(ternary):
    for depth in range(0, 11):
        u = cover_sum(ternary, ternary, depth, "+")
        assert u.n_components == 1
        assert abs(u.los[0] - 0.0) <= 1e-12
        assert abs(u.his[0] - 2.0) <= 1e-12
        assert abs(u.total_length - 2.0) <= 1e-12


def test_difference_of_symmetric_thirds_fills_symmetric_interval(ternary):
    for depth in range(0, 11):
        u = cover_sum(ternary, ternary, depth, "-")
        assert u.n_components == 1
        assert abs(u.los[0] + 1.0) <= 1e-12
        assert abs(u.his[0] - 1.0) <= 1e-12


def test_sum_covers_shrink_with_depth(thin_pair_set):
    prev = None
    for depth in range(1, 9):
        u = cover_sum(thin_pair_set, thin_pair_set, depth, "-")
        total = u.total_length
        if prev is not None:
            assert total < prev
        prev = total
    assert prev < 0.2


def test_sum_cover_is_outer_approximation(ternary, middle_fifth):
    # every point of the deeper cover-sum lies inside the shallower one
    shallow = cover_sum(ternary, middle_fifth, 3, "+")
    deep = cover_sum(ternary, middle_fifth, 6, "+")
    for lo, hi in zip(deep.los, deep.his):
        k = np.searchsorted(shallow.los, lo + 1e-12) - 1
        assert k >= 0
        assert shallow.his[k] >= hi - 1e-12


def test_sum_is_symmetric_in_arguments(ternary, middle_fifth):
    a = cover_sum(ternary, middle_fifth, 5, "+")
    b = cover_sum(middle_fifth, ternary, 5, "+")
    assert a.n_components == b.n_components
    assert np.allclose(a.los, b.los, atol=1e-12)
    assert np.allclose(a.his, b.his, atol=1e-12)


def test_difference_reflects_when_swapped(ternary, middle_fifth):
    a = cover_sum(ternary, middle_fifth, 5, "-")
    b = cover_sum(middle_fifth, ternary, 5, "-")
    assert np.allclose(a.los, -b.his[::-1], atol=1e-12)
    assert np.allclose(a.his, -b.los[::-1], atol=1e-12)


def test_scaled_difference_zero_factor_degenerates_to_first_set(ternary):
    u = cover_sum(ternary, ternary, 4, "-", lam=0.0)
    cover = refine(ternary, 4)
    assert u.n_components == len(cover)
    assert u.total_length == pytest.approx(float(sum(cover.lengths)), abs=1e-15)


def test_scaled_difference_hull_tracks_factor(ternary):
    for lam in (0.5, 2.0, -1.5):
        u = cover_sum(ternary, ternary, 4, "-", lam=lam)
        lo = min(0.0 - lam * 1.0, 0.0 - lam * 0.0)
        hi = max(1.0 - lam * 0.0, 1.0 - lam * 1.0)
        assert u.hull.lo == pytest.approx(lo, abs=1e-12)
        assert u.hull.hi == pytest.approx(hi, abs=1e-12)


def test_sum_rejects_scale_factor_and_bad_op(ternary):
    with pytest.raises(ValidationError):
        cover_sum(ternary, ternary, 3, "+", lam=2.0)
    with pytest.raises(ValidationError):
        cover_sum(ternary, ternary, 3, "*")
    with pytest.raises(ValidationError):
        cover_sum(ternary, ternary, -1, "+")


def test_soft_pair_budget_coarsens_but_still_contains(thin_pair_set):
    # with a tiny budget the cover is coarser, but it must still contain
    # the full-budget answer; thin sets are too thin for the gap lemma to
    # close a pair, so every pair is summed
    full = cover_sum(thin_pair_set, thin_pair_set, 8, "+")
    u = cover_sum(thin_pair_set, thin_pair_set, 8, "+", pair_budget=100)
    assert u.meta["capped"] and not full.meta["capped"]
    assert 0 < int(u.meta["pairs"]) <= 100 and u.meta["pruned"] == 0
    assert u.n_components < full.n_components
    k = np.searchsorted(u.los, full.los + 1e-12) - 1
    assert np.all(k >= 0) and np.all(u.his[k] >= full.his - 1e-12)


def test_the_pair_budget_walks_each_tree_once(monkeypatch):
    # the same 128 x 64 covers end the budget ladder at every depth, and one
    # walk per set reaches them: no cover is rebuilt at each doubling
    T, thin = get_set("ternary"), get_set("thin")
    splits = []
    # one call splits a batch of nodes: count the nodes
    monkeypatch.setattr(cantor_core, "_children", lambda K, nodes: splits.append(len(nodes)) or _children(K, nodes))
    unions = []
    for n in (6, 12, 15, 20):
        splits.clear()
        u = cover_sum(T, T, n, "-", 0.2, pair_budget=10_000)
        assert u.meta["counts"] == (128, 64) and u.meta["capped"] is (n > 6)
        assert sum(splits) <= 11_000, n
        unions.append(u)
    for u in unions[1:]:
        assert np.array_equal(u.los, unions[0].los) and np.array_equal(u.his, unions[0].his)
    # no ladder target fits 3 pairs: the walk refuses after a few splits
    splits.clear()
    with pytest.raises(BudgetExceeded):
        cover_sum(thin, thin, 8, "-", 1.0, pair_budget=3)
    assert sum(splits) < 100


def test_a_scan_counts_the_rows_the_budget_coarsened():
    # the closed rows (lam >= 1/3) form no pairs; the open ones pass 1000
    T = get_set("ternary")
    lambdas = [0.2, 0.25, 1.0, 2.0]
    assert marstrand_scan(T, T, lambdas, 8).capped_rows == 0
    scan = marstrand_scan(T, T, lambdas, 8, pair_budget=1000)
    capped = [cover_sum(T, T, 8, "-", lam, pair_budget=1000).meta["capped"] for lam in lambdas]
    assert capped == [True, True, False, False] and scan.capped_rows == 2


def test_mismatched_ratio_pair_matches_granularities(ternary):
    # one factor refines much faster than the other; granularity matching
    # must keep the pair count near the coarser side's count
    slow = build_affine([(F(0), F(1, 10)), (F(9, 10), F(1))], [(0, 1), (0, 1)])
    u = cover_sum(ternary, slow, 8, "+")
    assert u.meta["pairs"] < 500_000


# ---------------------------------------------------------------------------
# interval containment


def test_cf_four_digit_sum_covers_its_interval():
    K = gauss_cantor(4)
    u = cover_sum(K, K, 8, "+")
    target = Interval(SQRT2 - 1, 4 * (SQRT2 - 1))
    assert contains_interval(u, target, margin=1e-3)
    assert u.n_components == 1
    assert abs(u.los[0] - (SQRT2 - 1)) <= 1e-3
    assert abs(u.his[-1] - 4 * (SQRT2 - 1)) <= 1e-3


def test_contains_interval_detects_holes(ternary):
    holes = cover_sum(ternary, ternary, 6, "-", lam=0.0)  # just the thirds cover
    assert not contains_interval(holes, Interval(0.0, 1.0), margin=1e-3)
    # the middle gap alone spoils even a generous margin
    assert not contains_interval(holes, Interval(0.3, 0.7), margin=0.01)
    filled = cover_sum(ternary, ternary, 6, "+")
    assert contains_interval(filled, Interval(0.1, 1.9), margin=1e-6)


def test_contains_interval_rejects_empty_shrunk_target(ternary):
    u = cover_sum(ternary, ternary, 4, "+")
    with pytest.raises(EmptyTarget):
        contains_interval(u, Interval(0.5, 0.5004), margin=1e-3)


# ---------------------------------------------------------------------------
# covered length at resolution


def test_covered_length_counts_grid_cells(ternary):
    u = cover_sum(ternary, ternary, 2, "-", lam=0.0)
    # the depth-2 thirds cover spans [0, 1]; at resolution 1/4 it meets
    # the four cells of [0, 1) plus the cell containing the endpoint 1.0
    got = covered_length(u, 0.25)
    assert got == pytest.approx(1.25, abs=1e-12)
    fine = covered_length(u, 1e-4)
    assert fine == pytest.approx(u.total_length, rel=0.01)


def test_covered_length_monotone_in_resolution(ternary):
    u = cover_sum(ternary, ternary, 6, "-", lam=0.0)
    resolutions = [2.0**-k for k in range(2, 14)]
    values = [covered_length(u, r) for r in resolutions]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_covered_length_rejects_bad_resolution(ternary):
    u = cover_sum(ternary, ternary, 3, "+")
    with pytest.raises(ValidationError):
        covered_length(u, 0.0)


# ---------------------------------------------------------------------------
# projection scans


def test_projection_scan_fat_product_has_positive_lengths(ternary):
    lambdas = np.linspace(0.1, 3.0, 16)
    scan = marstrand_scan(ternary, ternary, lambdas, 6, theta=0.1)
    assert scan.fraction_above(0.1) == 1.0
    assert scan.table.shape == (16, len(scan.resolutions))


def test_projection_scan_thin_product_decays(thin_pair_set):
    lambdas = np.linspace(0.1, 3.0, 12)
    scan = marstrand_scan(thin_pair_set, thin_pair_set, lambdas, 6)
    # dimension sum ~0.6: covered length shrinks as resolution refines
    assert scan.median_slope() >= 0.3
    assert scan.median_slope() == pytest.approx(float(np.median(scan.slopes())))


def test_projection_scan_validates_inputs(ternary):
    with pytest.raises(ValidationError):
        marstrand_scan(ternary, ternary, [], 4)
    with pytest.raises(ValidationError):
        marstrand_scan(ternary, ternary, [0.5], 4, resolutions=[])


NOT_FINITE = [math.nan, math.inf, -math.inf]


# a scale of nan or inf makes length targets that no cover meets, so these
# inputs must be refused before any cover is built; the small pair budget
# keeps a missing check from running long
@pytest.mark.parametrize("lam", NOT_FINITE, ids=str)
def test_difference_rejects_a_scale_that_is_not_finite(ternary, lam):
    with pytest.raises(ValidationError):
        cover_sum(ternary, ternary, 2, "-", lam, pair_budget=100)


@pytest.mark.parametrize("lam", NOT_FINITE, ids=str)
def test_projection_scan_rejects_a_lambda_that_is_not_finite(ternary, lam):
    with pytest.raises(ValidationError):
        marstrand_scan(ternary, ternary, [0.5, lam], 2, pair_budget=100)


@pytest.mark.parametrize("res", [math.nan, math.inf], ids=str)
def test_projection_scan_rejects_a_resolution_that_is_not_finite(ternary, res):
    with pytest.raises(ValidationError):
        marstrand_scan(ternary, ternary, [0.5], 2, [0.25, res], pair_budget=100)


@pytest.mark.parametrize("x", NOT_FINITE, ids=str)
def test_queries_refuse_a_resolution_or_theta_that_is_not_finite(ternary, x):
    # covered_length at inf read inf, and a nan theta a fraction of 0.0
    u = cover_sum(ternary, ternary, 3, "+")
    with pytest.raises(ValidationError):
        covered_length(u, x)
    with pytest.raises(ValidationError):
        marstrand_scan(ternary, ternary, [0.5], 2, theta=x, pair_budget=100)
    with pytest.raises(ValidationError):
        marstrand_scan(ternary, ternary, [0.5], 2).fraction_above(x)


def test_a_grid_finer_than_int64_cells_is_refused(ternary):
    # at 2^-64 the cell index of an end at 1 is 2^64: cast to int64 it
    # wrapped, and the rows read -0.43 and 5.4e-20 for lengths near 1 and 2
    fine = 2.0**-64
    u = cover_sum(ternary, ternary, 6, "-", 0.2)
    with pytest.raises(ValidationError, match=re.escape(repr(fine))):
        covered_length(u, fine)
    for ladder in ([2.0**-6, fine], [0.1, fine]):  # nested, and not nested
        with pytest.raises(ValidationError, match=re.escape(repr(fine))):
            marstrand_scan(ternary, ternary, [0.2, 1.0], 6, ladder)
    # a grid whose cells int64 still counts is measured as before
    assert covered_length(u, 2.0**-40) == pytest.approx(covered_length(u, 2.0**-30), abs=1e-6)
    rows = marstrand_scan(ternary, ternary, [0.2, 1.0], 6, [2.0**-6, 2.0**-40]).table
    assert rows[:, 1] == pytest.approx([covered_length(u, 2.0**-40), 2.0])


# resolution ladders for the scan rows; at n = 5 a cover pair holds 480 to
# 4096 pairs, so the default ladder's 2^-14 grid outgrows them on every row
# while 2^-9 does not on most rows
SCAN_LADDERS = {
    "default": setops.DEFAULT_RESOLUTIONS,
    "nested with a skipped step": (2.0**-5, 2.0**-7, 2.0**-8, 2.0**-9),
    "not nested": (0.1, 0.03, 2.0**-9),
    "finer than the pairs": (2.0**-6, 2.0**-30),
}


@pytest.mark.parametrize(
    "names",
    [("ternary", "ternary"), ("thin", "thin"), ("middle-fifth", "ternary"), ("gauss2", "gauss2")],
    ids="-".join,
)
def test_projection_scan_rows_match_direct_cover_sum(names, monkeypatch):
    # separate but equal set objects for equal names, so the scan shares
    # one side between them; lam straddles the granularity ratio m1/m2
    K1, K2 = get_set(names[0]), get_set(names[1])
    n = 5
    m1, m2 = float(maxlen_at_depth(K1, n)), float(maxlen_at_depth(K2, n))
    lambdas = [m1 / m2 * f for f in (0.3, 0.8, 0.99, 1.0, 1.01, 1.3, 3.7)] + [0.1, 2.9]
    unions = [cover_sum(K1, K2, n, "-", lam, pair_budget=setops.SCAN_PAIR_BUDGET) for lam in lambdas]
    events = []

    def counting_merge(los, his):
        events.append(("merge", len(los)))
        return merge_intervals(los, his)

    def recording_bincount(x, weights=None, minlength=0):
        events.append(("bincount", minlength, len(x)))
        return bincount(x, weights, minlength)

    bincount = np.bincount
    monkeypatch.setattr(setops, "merge_intervals", counting_merge)
    monkeypatch.setattr(np, "bincount", recording_bincount)
    scans, paths = {}, {}
    for name, ladder in SCAN_LADDERS.items():
        events.clear()
        scans[name] = marstrand_scan(K1, K2, lambdas, n, ladder)
        paths[name] = list(events)
    monkeypatch.undo()
    # rows in order: a row the gap lemma closes is its one hull interval,
    # which meets more than one cell of every finest grid here, so every
    # ladder merges it; an open row merges its pairs once, or counts its
    # cells with two bincounts over a grid of at most one cell per pair,
    # plus one end slot, from at most one cell range per pair
    for name, path in paths.items():
        merged = 0
        for u in unions:
            pairs = u.meta["pairs"]
            if u.meta["pruned"]:
                assert path.pop(0) == ("merge", 1)
            elif path[0][0] == "merge":
                assert path.pop(0) == ("merge", pairs)
                merged += 1
            else:
                for _ in range(2):
                    kind, grid, ranges = path.pop(0)
                    assert kind == "bincount" and grid <= pairs + 1 and ranges <= pairs
        assert path == []
        # fewer than half of all rows merge pairs on a nested ladder; a
        # ladder that is not nested, or finer than the pairs, merges all
        if name == "nested with a skipped step":
            assert merged < len(lambdas) // 2
        elif name != "default":
            assert merged == sum(u.meta["pruned"] == 0 for u in unions)
    for i, (lam, u) in enumerate(zip(lambdas, unions)):
        for scan in scans.values():
            assert list(scan.table[i]) == [covered_length(u, r) for r in scan.resolutions]
        # the covers behind an open row are those of direct calls on each
        # set; a closed row's interval is the one every pair merges into
        v = _outer_sum(K1, K2, n, "-", lam, setops.SCAN_PAIR_BUDGET)
        t1 = max(m1, lam * m2) * (1.0 + 1e-12)
        assert v.meta["target_length"] == t1
        assert v.meta["counts"] == (len(refine_to_length(K1, t1)), len(refine_to_length(K2, t1 / lam)))
        assert u.n_components == v.n_components
        assert np.allclose(u.los, v.los, rtol=0, atol=1e-12) and np.allclose(u.his, v.his, rtol=0, atol=1e-12)


def _scan_pair(name):
    if name == "two-ratio":  # exact pieces of ratios 1/7 and 1/4
        return (build_affine([(F(0), F(1, 7)), (F(3, 4), F(1))], [(0, 1), (0, 1)]),) * 2
    if name == "perturbed":  # float pieces against an exact set
        return perturb_set(get_set("thin"), 0.01, np.random.default_rng(4)), get_set("ternary")
    parts = name.split("/")
    return get_set(parts[0]), get_set(parts[-1])


@pytest.mark.parametrize(
    "name, depth, lam_range",
    [
        ("thin", 8, (0.1, 3.0)),
        ("ternary", 8, (0.05, 1 / 3)),  # below 1/3 the gap lemma closes no row
        ("gauss2", 6, (0.1, 3.0)),
        ("horseshoe-stable/horseshoe-unstable", 6, (0.1, 3.0)),
        ("horseshoe-unstable/horseshoe-stable", 6, (0.1, 3.0)),
        ("two-ratio", 8, (0.1, 3.0)),
        ("perturbed", 7, (0.1, 3.0)),
    ],
)
def test_scan_rows_are_the_covered_lengths_of_the_cover_sum_union(name, depth, lam_range):
    # bit for bit, whether a row's cells come from a descent over blocks of
    # cover intervals or from every interval pair, at either sign of lambda
    # and on every ladder
    K1, K2 = _scan_pair(name)
    rng = np.random.default_rng(0)
    lambdas = list(rng.uniform(*lam_range, size=6)) + list(-rng.uniform(*lam_range, size=2))
    unions = [cover_sum(K1, K2, depth, "-", lam, pair_budget=setops.SCAN_PAIR_BUDGET) for lam in lambdas]
    assert all(u.meta["pruned"] == 0 for u in unions)
    for ladder in SCAN_LADDERS.values():
        scan = marstrand_scan(K1, K2, lambdas, depth, ladder)
        for row, u in zip(scan.table, unions):
            assert list(row) == [covered_length(u, r) for r in scan.resolutions]


def test_a_coarsened_scan_row_is_the_covered_length_of_its_union():
    T = get_set("thin")
    lambdas = [0.3, 1.0, -2.2]
    scan = marstrand_scan(T, T, lambdas, 8, pair_budget=5000)
    assert scan.capped_rows == len(lambdas)
    for row, lam in zip(scan.table, lambdas):
        u = cover_sum(T, T, 8, "-", lam, pair_budget=5000)
        assert u.meta["capped"] and list(row) == [covered_length(u, r) for r in scan.resolutions]


def test_a_thin_scan_row_evaluates_few_of_its_pairs(monkeypatch):
    # every pair sum the descent forms is floored onto the finest grid,
    # ends and starts alike; the README thin rows form under a tenth of
    # their 512 x 512 pairs, a fat ternary row forms each pair once
    floored = []

    def counting_floor(x, *args, **kwargs):
        floored.append(np.size(x))
        return floor(x, *args, **kwargs)

    floor, r = np.floor, 2.0**-12
    for name, lambdas in (("thin", np.random.default_rng(0).uniform(0.1, 3.0, 200)), ("ternary", [0.2])):
        K = get_set(name)
        sides = setops._pair_sides(K, K, 8, setops.SCAN_PAIR_BUDGET)
        for lam in lambdas:
            a, t, meta = setops._balanced_covers(*sides, "-", lam)
            floored.clear()
            monkeypatch.setattr(np, "floor", counting_floor)
            setops._pair_cells(a, t, r, setops._Scratch())
            monkeypatch.undo()
            if name == "thin":
                assert meta["pairs"] == 512 * 512 and sum(floored) < 2 * meta["pairs"] // 10
            else:
                assert sum(floored) == 2 * meta["pairs"]


def test_projection_scan_builds_each_cover_once(monkeypatch):
    walks, length_walks = [], []

    def counting_maxlen(K, n):
        walks.append(n)
        return maxlen_at_depth(K, n)

    class RecordingWalk(_LengthWalk):
        def __init__(self, *args):
            super().__init__(*args)
            length_walks.append(self)

    monkeypatch.setattr(setops, "maxlen_at_depth", counting_maxlen)
    monkeypatch.setattr(setops, "_LengthWalk", RecordingWalk)
    lambdas = np.linspace(0.1, 3.0, 40)
    marstrand_scan(get_set("ternary"), get_set("ternary"), lambdas, 6)
    assert walks == [6]  # one walk serves both equal sides
    assert len(length_walks) == 1
    # a node split twice would leave its children's rows twice
    rows = length_walks[0].rows()
    assert len(rows) > 2 and len(np.unique(rows, axis=0)) == len(rows)


# ---------------------------------------------------------------------------
# proved thickness bounds and the cylinder-pair descent


def _children_gap_shares(K, depth):
    """Largest gap between a cylinder's children over its length, for
    the hull and every cylinder of K above `depth` (exact where K is)."""
    shares, parents = [], {(): K.hull}
    for d in range(depth):
        cover = refine(K, d)
        cells = exact_intervals(cover)
        kids = {}
        addresses = itineraries(K, cover)
        for addr, iv in zip(addresses, cells):
            kids.setdefault(addr[:-1], []).append((iv.lo, iv.hi))
        for prefix, ivs in kids.items():
            iv = parents[prefix]
            if len(ivs) > 1:
                ivs.sort()
                shares.append(max(b[0] - a[1] for a, b in zip(ivs, ivs[1:])) / (iv.hi - iv.lo))
        parents = dict(zip(addresses, cells))
    return shares


@pytest.mark.parametrize(
    "name, tau, rho",
    [("ternary", F(1), F(1, 3)), ("middle-fifth", F(2), F(1, 5)),
     ("thick", F(9, 2), F(1, 10)), ("thin", F(1, 8), F(4, 5))],
)
def test_affine_gap_bounds_are_exact(name, tau, rho):
    bounds = get_set(name)._gap_bounds
    assert bounds == (tau, rho)
    assert all(isinstance(x, Fraction) for x in bounds)


def test_gauss_thickness_bounds_are_surds_above_and_below_one():
    taus = {N: get_set(f"gauss{N}")._gap_bounds[0] for N in (2, 3, 4)}
    assert all(isinstance(t, QuadraticSurd) for t in taus.values())
    assert taus[4] > 1 and taus[3] < 1
    for N, value in ((2, 0.366025), (3, 0.822020), (4, 1.300943)):
        assert float(taus[N]) == pytest.approx(value, abs=1e-6)


def _moved_gauss4(tmp_path):
    """gauss4 as a set file with one piece end moved by 1e-12: it passes
    validation, but it is no longer gauss4."""
    doc = set_to_json(get_set("gauss4"))
    doc["pieces"][1][1] += 1e-12
    path = tmp_path / "g4-moved.json"
    path.write_text(json.dumps(doc))
    return load_set(path)


def test_gap_bounds_are_lazy_and_only_for_exact_data(tmp_path):
    K = get_set("ternary")
    assert "_gap_bounds" not in K.__dict__  # building a set computes none
    cover_sum(K, K, 3, "+")
    assert "_gap_bounds" in K.__dict__
    floats = build_affine([(0.0, 1 / 3), (2 / 3, 1.0)], [(0, 1), (0, 1)])
    assert floats._gap_bounds is None
    assert _moved_gauss4(tmp_path)._gap_bounds is None


@pytest.mark.parametrize("name", [*builtin_names(), "gauss5"])
def test_a_set_loaded_from_its_dump_proves_what_it_proves(name):
    K = get_set(name)
    loaded = set_from_json(json.loads(json.dumps(set_to_json(K))))
    assert loaded == K
    assert loaded.exact == K.exact
    assert loaded._gap_bounds == K._gap_bounds
    assert loaded._exact_hull == K._exact_hull


@pytest.mark.parametrize("name", ["ternary", "gauss4"])
def test_a_loaded_pair_gives_the_named_pair_results(name, tmp_path):
    K = get_set(name)
    path = tmp_path / "set.json"
    dump_set(K, path)
    L = load_set(path)
    for op, lam in (("+", 1.0), ("-", 0.8)):
        u, v = cover_sum(L, L, 8, op, lam), cover_sum(K, K, 8, op, lam)
        assert u.meta == v.meta and u.meta["pruned"] == 1 and u.meta["pairs"] == 0
        assert np.array_equal(u.los, v.los) and np.array_equal(u.his, v.his)
    for t in (-2.0, -0.5, 0.0, 0.25, 0.5, 1.5):
        assert gap_lemma_test(L, L, t) == gap_lemma_test(K, K, t), t


def test_a_moved_piece_end_proves_nothing(tmp_path):
    # its sums take the outer sum: see test_unprovable_pairs_take_the_outer_sum_path
    moved = _moved_gauss4(tmp_path)
    assert moved != get_set("gauss4") and moved._exact_hull is None
    res = gap_lemma_test(moved, moved, 0.5)
    assert not res.certified and res.linked is None and res.tau1 is None


def test_gap_bounds_hold_against_covers():
    rng = random.Random(11)
    sets = [(name, get_set(name)) for name in builtin_names()]
    sets += [(f"random-{i}", random_affine_set(rng)) for i in range(200)]
    for name, K in sets:
        tau, rho = K._gap_bounds
        # tau is a lower bound: never above the depth-6 thickness, which is
        # exact up to its final rounding on exact sets; Moebius covers are in
        # floats, whose gaps (down to 1e-9 long) carry relative errors of 1e-7
        value = thickness(K, 6).value
        assert float(tau) <= value if K.exact else float(tau) <= value * (1 + 1e-6), name
        # rho bounds every cylinder's largest child gap over its length
        share = max(_children_gap_shares(K, 4))
        assert share <= rho if K.exact else share <= float(rho) * (1 + 1e-9), name


def _assert_same_union(u, v):
    assert u.n_components == v.n_components
    assert np.allclose(u.los, v.los, rtol=0, atol=1e-12)
    assert np.allclose(u.his, v.his, rtol=0, atol=1e-12)


def _outer_sum(K1, K2, n, op, lam, budget=setops.PAIR_BUDGET):
    """The union of every pair sum, merged, whether or not the gap lemma
    closes the hull pair."""
    a, t, meta = setops._balanced_covers(*setops._pair_sides(K1, K2, n, budget), op, lam)
    u = setops.IntervalUnion(*merge_intervals(*setops._pair_sums(a, t)))
    u.meta.update(meta)
    return u


def test_bounds_of_two_quadratic_fields_prove_nothing():
    G3, G4 = get_set("gauss3"), get_set("gauss4")
    t3, t4 = G3._gap_bounds[0], G4._gap_bounds[0]
    with pytest.raises(ValidationError):
        t3 * t4 >= 1  # sqrt(21) and sqrt(32) do not mix
    for K1, K2, op, lam in ((G3, G4, "+", 1.0), (G4, G3, "-", 1.0)):
        u = cover_sum(K1, K2, 4, op, lam)
        v = _outer_sum(K1, K2, 4, op, lam)
        assert u.meta == v.meta and u.meta["pruned"] == 0
        assert np.array_equal(u.los, v.los) and np.array_equal(u.his, v.his)


def test_pruned_sums_match_the_outer_sum():
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        op = rng.choice("+-")
        lam = 1.0 if op == "+" else rng.choice((-1, 1)) * rng.uniform(0.05, 4.0)
        cases.append((random_affine_set(rng), random_affine_set(rng), rng.randrange(2, 6), op, lam))
    T, M = get_set("ternary"), get_set("middle-fifth")
    G3, G4 = get_set("gauss3"), get_set("gauss4")
    for lam in (0.01, 0.1, 0.3, 0.7, 1.0, 1.7, 3.0, 12.0, -0.6):
        cases += [(T, M, 6, "-", lam), (M, T, 6, "-", lam), (G3, G4, 5, "-", lam), (G4, G4, 5, "-", lam)]
    cases += [(T, M, 6, "+", 1.0), (G4, G3, 5, "+", 1.0)]
    pruned = 0
    for K1, K2, n, op, lam in cases:
        u = cover_sum(K1, K2, n, op, lam)
        _assert_same_union(u, _outer_sum(K1, K2, n, op, lam))
        pruned += u.meta["pruned"] > 0
    # both paths run: the gap lemma closes ternary/middle-fifth and
    # gauss4/gauss4 at balanced lam, and no gauss3/gauss4 pair
    assert len(cases) // 4 < pruned < len(cases)


def test_a_root_closed_sum_builds_no_cover(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cover was built")

    monkeypatch.setattr(setops, "_LengthWalk", refuse)
    monkeypatch.setattr(setops, "_balanced_covers", refuse)
    for name, lo, hi in (("ternary", 0.0, 2.0), ("gauss4", SQRT2 - 1, 4 * SQRT2 - 4)):
        K = get_set(name)
        u = cover_sum(K, K, 10, "+")
        assert u.n_components == 1 and u.meta["pruned"] == 1 and u.meta["pairs"] == 0
        assert "counts" not in u.meta and "target_length" not in u.meta
        assert u.los[0] == pytest.approx(lo, abs=1e-15) and u.his[0] == pytest.approx(hi, abs=1e-15)


def test_a_closed_hull_pair_union_holds_the_exact_ends():
    # the union's float ends are the exact hull-pair ends rounded outward
    # (gauss<N> hull ends are surds); round to nearest once put an end of
    # gauss4 + gauss4 inside the exact sum
    closed = 0
    for name1 in builtin_names():
        for name2 in builtin_names():
            K1, K2 = get_set(name1), get_set(name2)
            (lo1, hi1), (lo2, hi2) = K1._exact_hull, K2._exact_hull
            for op, lam in (("+", 1.0), ("-", 1.0), ("-", -0.5)):
                u = cover_sum(K1, K2, 4, op, lam)
                if not u.meta["pruned"]:
                    continue
                closed += 1
                ends = (lo2, hi2) if op == "+" else (-F(lam) * lo2, -F(lam) * hi2)
                lo, hi = lo1 + min(ends), hi1 + max(ends)
                assert lo >= F(float(u.los[0])) and hi <= F(float(u.his[0])), (name1, name2, op, lam)
                assert float(u.los[0]) == math.nextafter(float(lo), -math.inf) or float(u.los[0]) == float(lo)
                assert float(u.his[0]) == math.nextafter(float(hi), math.inf) or float(u.his[0]) == float(hi)
    assert closed > 40


def test_unprovable_pairs_take_the_outer_sum_path(tmp_path):
    r = F(999, 2998)  # two pieces of this ratio: tau = 999/1000
    nearly = build_affine([(F(0), r), (1 - r, F(1))], [(0, 1), (0, 1)])
    assert nearly._gap_bounds[0] == F(999, 1000)
    floats = build_affine([(0.0, 1 / 3), (2 / 3, 1.0)], [(0, 1), (0, 1)])
    moved = _moved_gauss4(tmp_path)
    T = get_set("ternary")
    for K1, K2, op, lam in ((T, nearly, "+", 1.0), (nearly, T, "-", 0.8), (floats, floats, "+", 1.0),
                            (moved, moved, "+", 1.0)):
        u = cover_sum(K1, K2, 5, op, lam)
        v = _outer_sum(K1, K2, 5, op, lam)
        assert u.meta == v.meta and u.meta["pruned"] == 0 and u.meta["pairs"] > 1
        assert np.array_equal(u.los, v.los) and np.array_equal(u.his, v.his)


def test_the_precision_floor_holds_on_both_paths():
    # a depth-29 ternary interval is 3^-30 < EPS_LEN long: the closed hull
    # pair (lam = 1) refuses the depth as the outer sum (lam = 0.2, whose
    # hull pair the gap lemma cannot close) does
    T = get_set("ternary")
    assert cover_sum(T, T, 28, "-", 1.0).meta["pruned"] == 1
    for lam in (1.0, 0.2):
        with pytest.raises(PrecisionLoss):
            cover_sum(T, T, 29, "-", lam)
    with pytest.raises(PrecisionLoss):
        cover_sum(T, T, 29, "+")
    # at lam > 1 the second cover's target is the first's over lam: a
    # depth-40 thick interval, 0.45^41 < EPS_LEN long, is refused though
    # lam times it is not
    thick = get_set("thick")
    for lam in (5.0, 10.0):
        assert cover_sum(thick, thick, 38, "-", lam).meta["pruned"] == 1
        with pytest.raises(PrecisionLoss):
            cover_sum(thick, thick, 40, "-", lam)


def test_equal_sets_are_the_same_kind(tmp_path):
    # dyadic float ends equal the Fraction ends by value, but only the
    # Fraction set is exact and carries the proved bounds; the two must not
    # share one side of a sum, whose hull pair only the exact set closes
    pieces = [(F(0), F(1, 4)), (F(3, 8), F(5, 8)), (F(3, 4), F(1))]
    A = build_affine(pieces, [(0, 1, 2)] * 3)
    B = build_affine([(float(lo), float(hi)) for lo, hi in pieces], [(0, 1, 2)] * 3)
    assert A != B and A.exact and not B.exact and hash(A) == hash(B)
    for K1, K2 in ((A, B), (B, A)):
        u, v = cover_sum(K1, K2, 5), _outer_sum(K1, K2, 5, "+", 1.0)
        assert u.meta == v.meta and u.meta["pruned"] == 0
        assert np.array_equal(u.los, v.los) and np.array_equal(u.his, v.his)
    assert cover_sum(A, A, 5).meta["pruned"] == 1
    path = tmp_path / "g4.json"
    dump_set(get_set("gauss4"), path)
    assert load_set(path) == gauss_cantor(4)


def test_a_closed_hull_pair_walks_no_tree(monkeypatch):
    # the greedy depth-n leaf settles the precision floor: a closed sum or
    # scan row builds no cover and walks for no maximum length
    def refuse(*args):
        raise AssertionError("a cover or a maximum length was built")

    for name in ("_LengthWalk", "_balanced_covers", "maxlen_at_depth"):
        monkeypatch.setattr(setops, name, refuse)
    # on an exact set the floor reads the transition rows: no child step
    splits = []
    monkeypatch.setattr(cantor_core, "_children", lambda K, nodes: splits.append(len(nodes)) or _children(K, nodes))
    G4, T = get_set("gauss4"), get_set("ternary")
    u = cover_sum(G4, G4, 13)
    assert u.n_components == 1 and u.meta["pruned"] == 1 and sum(splits) == 13
    splits.clear()
    lambdas = np.linspace(0.34, 3.0, 25)
    scan = marstrand_scan(T, T, lambdas, 8)
    assert cover_sum(T, T, 10, "+").meta["pruned"] == 1 and sum(splits) == 0
    monkeypatch.undo()
    # each row is covered_length of the cover_sum union, the one hull interval
    for lam, row in zip(lambdas, scan.table):
        v = cover_sum(T, T, 8, "-", lam, pair_budget=setops.SCAN_PAIR_BUDGET)
        assert v.meta["pruned"] == 1
        assert list(row) == [covered_length(v, r) for r in scan.resolutions]


@pytest.mark.parametrize("budget", [10, 1])
def test_a_closed_row_forms_no_pairs_for_the_budget_to_coarsen(budget):
    # a budget of 1 admits no pair of covers: only a closed row survives it
    T = get_set("ternary")
    lambdas = [0.5, 1.0, 2.0]
    tight = marstrand_scan(T, T, lambdas, 8, pair_budget=budget)
    assert np.array_equal(tight.table, marstrand_scan(T, T, lambdas, 8).table)


def test_a_closed_scan_row_keeps_the_precision_floor():
    # as cover_sum does: see test_the_precision_floor_holds_on_both_paths
    T = get_set("ternary")
    assert marstrand_scan(T, T, [1.0], 28).table.shape == (1, len(setops.DEFAULT_RESOLUTIONS))
    with pytest.raises(PrecisionLoss):
        marstrand_scan(T, T, [1.0], 29)
    thick = get_set("thick")
    for lam in (5.0, 10.0):
        with pytest.raises(PrecisionLoss):
            marstrand_scan(thick, thick, [lam], 40)
