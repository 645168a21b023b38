"""Intersection experiments: cover overlap scans, gap-lemma
certificates, recurrent-region search, and independent re-verification."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cantorlab import (
    Interval,
    NonAffineInput,
    PositionRegion,
    TZeroNotInDifference,
    ValidationError,
    build_affine,
    builtin_names,
    cantor_core,
    contains_interval,
    cover_sum,
    covered_length,
    d_stable_probe,
    difference_scan,
    gap_lemma_test,
    gauss_cantor,
    get_set,
    intersect,
    intersect_test,
    marstrand_scan,
    merge_intervals,
    perturb_set,
    recurrent_compact_search,
    refine,
    refine_to_length,
    region_to_json,
    save_certificate,
    scale_affine,
    set_from_json,
    set_to_json,
    tangency_density_experiment,
    verify_certificate,
)
from cantorlab.setops import _grid_cells

SEARCH_BOX = ((-0.75, 0.75), (-2.25, 1.25))
SEARCH_GRID = (1.5 / 120, 3.5 / 240)

# two contraction ratios, so child pairs shift rows by fractions of a cell
TWO_RATIO = build_affine([(Fraction(0), Fraction(2, 5)), (Fraction(11, 20), Fraction(1))], [(0, 1), (0, 1)])
# one transition row is not full: piece 2 maps onto pieces 1 and 2 only
THREE_PIECE = build_affine([(Fraction(0), Fraction(1, 4)), (Fraction(3, 8), Fraction(5, 8)),
                            (Fraction(3, 4), Fraction(1))], [(0, 1, 2), (0, 1, 2), (1, 2)])


# ---------------------------------------------------------------------------
# cover intersection at a fixed translation


def test_translates_intersect_at_zero(ternary):
    out = intersect_test(ternary, ternary, 0.0, 8)
    assert not out.disjoint


def test_far_translate_is_disjoint(ternary):
    out = intersect_test(ternary, ternary, 5.0, 4)
    assert out.disjoint


def test_difference_scan_matches_pointwise_tests(ternary, middle_fifth):
    ts = np.linspace(-1.2, 1.2, 9)
    profile = difference_scan(ternary, middle_fifth, ts, 6)
    assert len(profile.ts) == len(profile.outcomes) == 9
    for t, outcome in zip(profile.ts, profile.outcomes):
        single = intersect_test(ternary, middle_fifth, float(t), 6)
        assert outcome.disjoint == single.disjoint
    # translates beyond the hull difference are always disjoint
    assert profile.outcomes[0].disjoint
    assert not profile.outcomes[4].disjoint  # t = 0


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_translation_is_rejected(ternary, t):
    with pytest.raises(ValidationError):
        intersect_test(ternary, ternary, t, 3)
    with pytest.raises(ValidationError):
        difference_scan(ternary, ternary, [0.0, t], 3)
    with pytest.raises(ValidationError):
        gap_lemma_test(ternary, ternary, t)


# ---------------------------------------------------------------------------
# gap-lemma certificate


def _first_disjoint_depth(K1, K2, t, n):
    """Reference: the first depth whose covers miss each other at t."""
    for d in range(n + 1):
        a, b = refine(K1, d), refine(K2, d)
        meet = (a.los[:, None] <= b.his[None, :] + t) & (b.los[None, :] + t <= a.his[:, None])
        if not meet.any():
            return d
    return None


@pytest.mark.parametrize("sets", [("ternary", "ternary"), ("ternary", "middle-fifth")])
def test_equal_sets_refine_each_depth_once(monkeypatch, sets):
    K1, K2 = get_set(sets[0]), get_set(sets[1])
    n = 6
    ts = [-2.0, -0.5, 0.0, 0.25, 1 / 3, 0.5, 1.2, 5.0]
    expected = [_first_disjoint_depth(K1, K2, t, n) for t in ts]
    calls = []

    def counting_refine(K, d, **kw):
        calls.append(d)
        return refine(K, d, **kw)

    monkeypatch.setattr(intersect, "refine", counting_refine)
    sides = 1 if K2 == K1 else 2
    for t, first in zip(ts, expected):
        calls.clear()
        out = intersect_test(K1, K2, t, n)
        assert (out.disjoint, out.depth) == ((True, first) if first is not None else (False, n))
        reached = n if first is None else first
        assert sorted(calls) == sorted(list(range(reached + 1)) * sides)
    calls.clear()
    profile = difference_scan(K1, K2, ts, n)
    assert sorted(calls) == sorted(list(range(n + 1)) * sides)
    assert [o.depth if o.disjoint else None for o in profile.outcomes] == expected


def test_thickness_certificate_for_fat_pairs(middle_fifth, thick_pair_set):
    for K in (middle_fifth, thick_pair_set):
        res = gap_lemma_test(K, K, 0.0)
        assert res.certified
        assert res.tau1 * res.tau2 > 1.0
        assert res.linked


def test_thickness_certificate_refuses_boundary_product(ternary, thin_pair_set):
    # Astels' form of the lemma needs only tau1*tau2 >= 1: ternary's is 1
    res = gap_lemma_test(ternary, ternary, 0.0)
    assert res.certified and res.tau1 * res.tau2 == 1.0
    # thin sets: 1/8 * 1/8 < 1, so the lemma does not apply
    res = gap_lemma_test(thin_pair_set, thin_pair_set, 0.0)
    assert not res.certified and res.linked is None
    assert (res.tau1, res.tau2) == (0.125, 0.125)
    assert "does not apply" in res.reason


def test_thickness_certificate_needs_linked_hulls(middle_fifth):
    res = gap_lemma_test(middle_fifth, middle_fifth, 10.0)
    assert not res.certified


def _hull_difference_grid(K1, K2):
    """Translations at and around the ends of H1 - H2.  An end that is a
    float comes with the float one ulp outside it; an irrational end (a
    gauss hull) has no float, so points 1e-12 to either side stand in."""
    (lo1, hi1), (lo2, hi2) = K1.hull.as_floats(), K2.hull.as_floats()
    lo, hi = lo1 - hi2, hi1 - lo2
    if K1.exact and K2.exact:
        assert (Fraction(lo), Fraction(hi)) == (K1.hull.lo - K2.hull.hi, K1.hull.hi - K2.hull.lo)
        ends = [lo, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, np.inf)]
    else:
        ends = [lo + 1e-12, lo - 1e-12, hi - 1e-12, hi + 1e-12]
    return [float(t) for t in ends + list(np.linspace(lo - 0.5, hi + 0.5, 7))]


def test_gap_lemma_agrees_with_the_hull_pair_union():
    for name1, name2 in itertools.product(builtin_names(), repeat=2):
        K1, K2 = get_set(name1), get_set(name2)
        # only `pruned` and the hull-pair union are read, so a small pair
        # budget keeps the outer sums of the refused pairs cheap
        U = cover_sum(K1, K2, 8, "-", 1.0, pair_budget=100_000)
        for t in _hull_difference_grid(K1, K2):
            i = int(np.searchsorted(U.los, t, side="right")) - 1
            holds = U.meta["pruned"] == 1 and i >= 0 and bool(U.los[i] <= t <= U.his[i])
            res = gap_lemma_test(K1, K2, t)
            assert res.certified is holds, (name1, name2, t)
            assert res.linked is (res.certified if U.meta["pruned"] == 1 else None)
    thin, floats = get_set("thin"), build_affine([(0.0, 0.4), (0.6, 1.0)], [(0, 1), (0, 1)])
    narrow = scale_affine(get_set("ternary"), Fraction(1, 100), Fraction(1, 2))
    refused = [
        (thin, thin),
        (get_set("gauss3"), get_set("gauss4")),  # surds of two fields
        (floats, floats),  # no proved bound
        (get_set("middle-fifth"), narrow),  # unbalanced hulls
    ]
    for K1, K2 in refused:
        res = gap_lemma_test(K1, K2, 0.5)
        assert not res.certified and res.linked is None
    assert gap_lemma_test(floats, thin, 0.5).tau1 is None


def _refused_set(name):
    if name == "floats":  # float ends: no proved bound
        return build_affine([(0.0, 0.4), (0.6, 1.0)], [(0, 1), (0, 1)])
    if name == "narrow":  # ternary scaled into a gap of middle-fifth
        return scale_affine(get_set("ternary"), Fraction(1, 100), Fraction(1, 2))
    return get_set(name)


@pytest.mark.parametrize(
    "name1, name2, reason",
    [
        ("floats", "thin", "a set carries no proved thickness bound"),
        ("gauss3", "gauss4", "the surds of Q(sqrt(21)) and Q(sqrt(2)) cannot be compared"),
        # fields that do not mix, but float enclosures put tau1*tau2 below 1
        ("gauss4", "gauss2", "tau1*tau2 = 0.476178 < 1"),
        ("thin", "thin", "tau1*tau2 = 0.015625 < 1"),
        ("middle-fifth", "narrow", "a hull is shorter than the other set's largest gap"),
    ],
)
def test_a_refusal_names_the_condition_that_failed(name1, name2, reason):
    K1, K2 = _refused_set(name1), _refused_set(name2)
    res = gap_lemma_test(K1, K2, 0.5)
    assert not res.certified and res.linked is None
    assert res.reason == f"gap lemma does not apply: {reason}"
    # the sum takes the same decision: every pair is summed
    assert cover_sum(K1, K2, 3, "-", 1.0).meta["pruned"] == 0


# ---------------------------------------------------------------------------
# recurrent-region search


def test_recurrent_region_found_for_middle_fifth(middle_fifth):
    out = recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=1)
    assert out.found
    assert out.region is not None
    assert out.region.n_members > 0
    assert out.sweeps >= 1


def test_recurrent_region_not_found_for_thin_pair(thin_pair_set):
    out = recurrent_compact_search(thin_pair_set, thin_pair_set, SEARCH_BOX, SEARCH_GRID, margin=1)
    assert not out.found
    assert out.region is None


def test_recurrent_search_rejects_disjoint_position_box(middle_fifth):
    out = recurrent_compact_search(
        middle_fifth, middle_fifth, ((-0.2, 0.2), (30.0, 31.0)), (0.05, 0.05), margin=1
    )
    assert not out.found


def test_recurrent_search_rejects_nonaffine_inputs():
    K = gauss_cantor(2)
    with pytest.raises(NonAffineInput):
        recurrent_compact_search(K, K, SEARCH_BOX, SEARCH_GRID, margin=1)


def test_recurrent_search_validates_grid(middle_fifth):
    with pytest.raises(ValidationError):
        recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, (0.0, 0.1), margin=1)
    with pytest.raises(ValidationError):
        recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=-1)
    # box ends and cell sizes that are not finite
    for box, grid in [
        (((-0.75, 0.75), (-2.25, math.inf)), SEARCH_GRID),
        (((-math.inf, 0.75), (-2.25, 1.25)), SEARCH_GRID),
        (((-0.75, 0.75), (-2.25, math.nan)), SEARCH_GRID),
        (SEARCH_BOX, (math.inf, 0.1)),
        (SEARCH_BOX, (0.1, math.nan)),
    ]:
        with pytest.raises(ValidationError):
            recurrent_compact_search(middle_fifth, middle_fifth, box, grid, margin=1)
    # e^s overflows on the grid (no numpy warning, no inf columns)
    with pytest.raises(ValidationError, match="overflows"):
        recurrent_compact_search(middle_fifth, middle_fifth, ((700.0, 750.0), (-1.0, 1.0)), (1.0, 0.5))
    # just below it, image bounds that overflow lie off the grid, with no warning
    out = recurrent_compact_search(middle_fifth, middle_fifth, ((705.0, 709.0), (-1.0, 1.0)), (1.0, 0.5))
    assert not out.found
    # a margin that is not an int, as the verifier requires
    for margin in (1.5, True, np.int64(1)):
        with pytest.raises(ValidationError):
            recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=margin)


def test_a_row_shift_beyond_the_grid_reads_as_off_the_grid(thick_pair_set, middle_fifth):
    # s cells of 1e-300 turn a child pair's log-ratio shift into about 1e299
    # rows: added to the int64 row indices as a Python int it raised
    # OverflowError; every such box lies off the one-row grid
    box, grid = ((0.0, 1e-300), (0.0, 1.0)), (1e-300, 0.25)
    out = recurrent_compact_search(thick_pair_set, middle_fifth, box, grid)
    assert not out.found
    # the verifier computes the same rows in float64: every member of a full
    # mask on that grid is refused, and nothing raises
    mask = np.ones((2, 2, 1, 4), dtype=bool)
    region = PositionRegion(s0=0.0, hs=1e-300, ns=1, t0=0.0, ht=0.25, nt=4, margin=1, mask=mask)
    ok, message = verify_certificate(region_to_json(region, thick_pair_set, middle_fifth))
    assert not ok and message.startswith("member cell (0,0,0,0)")
    # a cell size that is subnormal takes the shift to infinity in float
    tiny = ((0.0, 1e-310), (0.0, 1.0)), (1e-310, 0.25)
    assert not recurrent_compact_search(thick_pair_set, middle_fifth, *tiny).found


def _reference_fixed_point(K1, K2, box, grid, margin, snap=0.0):
    """Greatest fixed point and its sweep count by a plain loop over cells
    and child pairs, in the search's own arithmetic: rows shift by
    floor(shift/hs) .. ceil(shift/hs), columns from the image of the
    cell's corners.  A positive `snap` moves every floor and ceiling
    argument inward by that much, as the search once did with 1e-9."""
    (s_lo, s_hi), (t_lo, t_hi) = box
    ns, nt = (max(1, round((hi - lo) / h)) for (lo, hi), h in zip(box, grid))
    hs, ht = (s_hi - s_lo) / ns, (t_hi - t_lo) / nt
    e = np.exp(s_lo + hs * np.arange(ns + 1)).tolist()
    t = [t_lo + ht * k for k in range(nt + 1)]
    tab1, tab2 = intersect._child_tables(K1), intersect._child_tables(K2)

    def moves(row1, row2):
        """Each child pair of a type pair, with the range of its row shift."""
        for (k1, w_lo, L), (k2, v_lo, Lp) in itertools.product(row1, row2):
            shift = math.log(Lp) - math.log(L)
            yield k1, k2, w_lo, v_lo, L, math.floor(shift / hs + snap), math.ceil(shift / hs - snap)

    pairs = [[list(moves(row1, row2)) for row2 in tab2] for row1 in tab1]
    mask = np.zeros((K1.n_pieces, K2.n_pieces, ns, nt), dtype=bool)
    for j1, j2, i, k in itertools.product(*map(range, mask.shape)):
        mask[j1, j2, i, k] = t[k + 1] <= 1.0 and t[k] + e[i] >= 0.0

    def supported(j1, j2, i, k):
        for k1, k2, w_lo, v_lo, L, d0, d1 in pairs[j1][j2]:
            if not (0 <= i + d0 and i + d1 < ns):
                continue
            u_min = (t[k] + min(e[i] * v_lo, e[i + 1] * v_lo) - w_lo) / L
            u_max = (t[k + 1] + max(e[i] * v_lo, e[i + 1] * v_lo) - w_lo) / L
            c0 = math.floor((u_min - t_lo) / ht + snap) - margin
            c1 = math.ceil((u_max - t_lo) / ht - snap) - 1 + margin
            if 0 <= c0 and c1 < nt and mask[k1, k2, i + d0:i + d1 + 1, c0:c1 + 1].all():
                return True
        return False

    sweeps = 0
    while True:
        sweeps += 1
        new = mask.copy()
        for cell in zip(*np.nonzero(mask)):
            new[cell] = supported(*map(int, cell))
        if (new == mask).all():
            return mask, sweeps
        mask = new


def _assert_search_is_reference(K1, K2, box, grid, margin):
    """The search's sweep count and mask equal the reference loop's."""
    out = recurrent_compact_search(K1, K2, box, grid, margin)
    mask, sweeps = _reference_fixed_point(K1, K2, box, grid, margin)
    assert out.sweeps == sweeps
    assert np.array_equal(out.region.mask if out.found else np.zeros_like(mask), mask)
    return out


def test_the_search_is_its_reference_fixed_point(middle_fifth, thick_pair_set):
    sets = [middle_fifth, thick_pair_set, TWO_RATIO, THREE_PIECE]
    # unequal ratios shift rows by a fraction of a cell, so image boxes span
    # two rows; on grids of one and two rows they reach the last row and
    # the padding row below it
    grids = [(((-0.25, 0.25), (-1.5, 1.0)), (0.5 / 8, 2.5 / 32)),
             (((-0.4, 0.4), (-1.6, 1.0)), (0.8 / 10, 2.6 / 40)),
             *((((-0.25, 0.25), (-1.5, 1.0)), (0.5 / ns, 2.5 / 32)) for ns in (1, 2))]
    found = 0
    for K1, K2, margin, (box, grid) in itertools.product(sets, sets, range(3), grids):
        found += _assert_search_is_reference(K1, K2, box, grid, margin).found
    assert found >= 5


def test_child_pairs_of_one_box_shape_read_their_own_masks():
    # a child pair's image box depends on its shape (w_lo, L, v_lo, Lp) alone;
    # its cells are read in the mask of its own types (k1, k2).  Six pieces
    # of length 4/31, with gaps of 1/31 and 2/31 in turn, each mapped onto
    # three consecutive pieces: every child has length 4/15 and the first
    # lies at 0, but the middle one lies at 5/15 or 6/15, so child pairs of
    # one shape read masks that differ
    ends = [(Fraction(k, 31), Fraction(k + 4, 31)) for k in (0, 5, 11, 16, 22, 27)]
    shared = build_affine(ends, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 1, 2), (3, 4, 5)])
    tables = intersect._child_tables(shared)
    assert tables[0][0][1:] == tables[1][0][1:] and tables[0][1][1:] != tables[1][1][1:]
    out = _assert_search_is_reference(shared, shared, ((-0.4, 0.4), (-1.5, 1.0)), (0.1, 2.5 / 32), 1)
    assert out.found


# ---------------------------------------------------------------------------
# certificates: serialization and independent re-verification


def test_certificate_round_trip_verifies(tmp_path, middle_fifth):
    out = recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=1)
    doc = region_to_json(out.region, middle_fifth, middle_fifth)
    ok, message = verify_certificate(doc)
    assert ok, message
    assert str(out.region.n_members) in message

    path = tmp_path / "certificate.json"
    save_certificate(path, out.region, middle_fifth, middle_fifth)
    loaded = json.loads(path.read_text())
    ok2, _ = verify_certificate(loaded)
    assert ok2


def test_every_promoted_cell_is_rejected(tmp_path, middle_fifth):
    # the greatest fixed point holds every self-supporting set of cells,
    # so no pruned cell has a supporting child pair: promoting any one of
    # them, on a small grid that takes six sweeps, must fail
    out = recurrent_compact_search(middle_fifth, middle_fifth, ((-0.25, 0.25), (-1.5, 1.0)),
                                   (0.5 / 6, 2.5 / 24), margin=1)
    assert out.found and out.sweeps > 2
    region = out.region
    pruned = np.flatnonzero(~region.mask.ravel())
    assert len(pruned) > 400
    for index in pruned:
        mask = region.mask.copy()
        mask.flat[index] = True
        doc = region_to_json(dataclasses.replace(region, mask=mask), middle_fifth, middle_fifth)
        ok, message = verify_certificate(doc)
        assert not ok, index
        assert "no child pair" in message or "hull" in message

    # the README certificate is its mask: a few kilobytes, no pair lists
    readme = recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=1)
    path = tmp_path / "cert.json"
    save_certificate(path, readme.region, middle_fifth, middle_fifth)
    assert path.stat().st_size < 10_000
    assert "witnesses" not in json.loads(path.read_text())


def _plain_loop_verdict(doc):
    """Reference verifier: a plain loop over member cells and child pairs.

    Returns (True, None) or (False, first failing member cell), hull
    failures first, with the per-cell arithmetic of the verifier.
    """
    g = doc["grid"]
    r1, r2 = g["types"]
    ns, nt, s0, hs, t0, ht = g["ns"], g["nt"], g["s0"], g["hs"], g["t0"], g["ht"]
    margin = doc["margin"]
    mask = _decode_mask(doc).reshape((r1, r2, ns, nt))
    members = [tuple(int(x) for x in cell) for cell in np.argwhere(mask)]
    for j1, j2, i, k in members:
        if not (t0 + (k + 1) * ht <= 1.0 and t0 + k * ht + math.exp(s0 + i * hs) >= 0.0):
            return False, (j1, j2, i, k)
    tab1 = intersect._child_tables(set_from_json(doc["sets"]["first"]))
    tab2 = intersect._child_tables(set_from_json(doc["sets"]["second"]))

    def supports(j1, j2, i, k, child1, child2):
        k1, w_lo, L = child1
        k2, v_lo, Lp = child2
        ct_lo, ct_hi = t0 + k * ht, t0 + (k + 1) * ht
        shift = math.log(Lp) - math.log(L)
        e_a, e_b = math.exp(s0 + i * hs), math.exp(s0 + (i + 1) * hs)
        u_min = (ct_lo + min(e_a * v_lo, e_b * v_lo) - w_lo) / L
        u_max = (ct_hi + max(e_a * v_lo, e_b * v_lo) - w_lo) / L
        # the image rows from the integer row index i
        is_lo = i + math.floor(shift / hs)
        is_hi = i + math.ceil(shift / hs)
        it_lo = math.floor((u_min - t0) / ht) - margin
        it_hi = math.ceil((u_max - t0) / ht) - 1 + margin
        if is_lo < 0 or is_hi >= ns or it_lo < 0 or it_hi >= nt:
            return False
        return all(
            mask[k1, k2, ii, kk]
            for ii in range(is_lo, is_hi + 1)
            for kk in range(it_lo, it_hi + 1)
        )

    for j1, j2, i, k in members:
        if not any(supports(j1, j2, i, k, c1, c2) for c1 in tab1[j1] for c2 in tab2[j2]):
            return False, (j1, j2, i, k)
    return True, None


def test_verifier_matches_a_plain_loop_over_cells(middle_fifth):
    # the vectorised verifier against the per-cell loop, on the search's
    # masks, on masks with a few cells flipped either way, and with the
    # margin changed
    rng = np.random.default_rng(20261019)
    verdicts = []
    for grid, margin in (((0.5 / 6, 2.5 / 24), 1), ((0.5 / 8, 2.5 / 16), 0)):
        out = recurrent_compact_search(middle_fifth, middle_fifth, ((-0.25, 0.25), (-1.5, 1.0)),
                                       grid, margin=margin)
        region = out.region
        cases = [region.mask, *(region.mask ^ (rng.random(region.mask.shape) < 0.005)
                                for _ in range(12))]
        for mask in cases:
            for m in {margin, 0, 2}:
                tampered = dataclasses.replace(region, mask=mask, margin=m)
                doc = region_to_json(tampered, middle_fifth, middle_fifth)
                expected, cell = _plain_loop_verdict(doc)
                ok, message = verify_certificate(doc)
                assert ok == expected, (message, cell)
                if not ok:
                    assert message.startswith("member cell (%d,%d,%d,%d) " % cell)
                verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)


# middle-fifth against itself with t0 = -(25 + 3e-10) * ht / 1.5: one image
# edge lies 3e-10 of a cell below a cell edge (exact column index
# 1.5 * t0 / ht + 35 = 10 - 3e-10), well inside a 1e-9 snap
CRAFTED_BOX = ((-0.25, 0.25), (-1.7361111111319445, 0.7638888888680555))
CRAFTED_GRID = (0.5 / 6, (0.7638888888680555 + 1.7361111111319445) / 24)


def test_an_inward_snap_certifies_a_false_region(middle_fifth):
    # snapping every floor and ceiling inward by 1e-9 keeps 188 cells; the
    # plain floors and ceilings reject that mask, and the search keeps 132
    snapped, _ = _reference_fixed_point(middle_fifth, middle_fifth, CRAFTED_BOX, CRAFTED_GRID, 0,
                                        snap=1e-9)
    out = recurrent_compact_search(middle_fifth, middle_fifth, CRAFTED_BOX, CRAFTED_GRID, margin=0)
    assert snapped.sum() == 188 and out.region.n_members == 132
    false_doc = region_to_json(dataclasses.replace(out.region, mask=snapped), middle_fifth, middle_fifth)
    reason = "member cell (0,0,0,14) has no child pair whose image stays in the mask"
    assert verify_certificate(false_doc) == (False, reason)
    assert _plain_loop_verdict(false_doc) == (False, (0, 0, 0, 14))
    doc = region_to_json(out.region, middle_fifth, middle_fifth)
    assert verify_certificate(doc) == (True, "verified 132 member cells")
    assert _plain_loop_verdict(doc) == (True, None)


def test_every_region_found_on_grids_near_cell_edges_verifies(middle_fifth, thick_pair_set):
    # grids of the crafted family: t0 = -(N + delta) * ht / 1.5, so image
    # edges fall on or within 3e-10 of a cell edge
    sets = [middle_fifth, thick_pair_set, TWO_RATIO]
    rng = np.random.default_rng(20261020)
    found = 0
    for _ in range(36):
        K = sets[rng.integers(3)]
        nt = int(rng.choice([24, 32, 40, 48, 240]))
        ns = 120 if nt == 240 else 6
        ht = 2.5 / nt
        t0 = -(int(rng.integers(nt, nt + nt // 4)) + float(rng.choice([-3e-10, 0.0, 3e-10]))) * ht / 1.5
        box = ((-0.25, 0.25), (t0, t0 + 2.5))
        margin = int(rng.integers(3))
        out = recurrent_compact_search(K, K, box, (0.5 / ns, ht), margin)
        if out.found:
            found += 1
            ok, message = verify_certificate(region_to_json(out.region, K, K))
            assert ok, (message, nt, t0, margin)
    assert found >= 10


def _decode_mask(doc):
    grid = doc["grid"]
    r1, r2 = grid["types"]
    total = r1 * r2 * grid["ns"] * grid["nt"]
    flat = np.zeros(total, dtype=bool)
    pos, value = 0, False
    for run in doc["mask_rle"]:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    return flat


def _encode_mask(flat):
    runs = []
    current, count = False, 0
    for bit in flat:
        b = bool(bit)
        if b == current:
            count += 1
        else:
            runs.append(count)
            current, count = b, 1
    runs.append(count)
    return runs


def test_certificate_verifier_rejects_tampering(middle_fifth):
    out = recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=1)
    doc = region_to_json(out.region, middle_fifth, middle_fifth)

    # grow the member mask by one pruned cell next to the region; the
    # search pruned it because every child-pair image escapes, so the
    # verifier's recomputation must reject the enlarged mask
    flat = _decode_mask(doc)
    members = set(np.flatnonzero(flat).tolist())
    added = next(
        m + delta
        for m in sorted(members)
        for delta in (1, -1)
        if 0 <= m + delta < len(flat) and m + delta not in members
    )
    flat2 = flat.copy()
    flat2[added] = True
    tampered = json.loads(json.dumps(doc))
    tampered["mask_rle"] = _encode_mask(flat2)
    ok, message = verify_certificate(tampered)
    assert not ok
    assert "no child pair" in message or "hull" in message

    # corrupting the declared grid geometry must also fail
    broken = json.loads(json.dumps(doc))
    broken["grid"]["hs"] = broken["grid"]["hs"] * 3.0
    ok2, _ = verify_certificate(broken)
    assert not ok2

    # an inflated margin forces images outside the certified region
    fat = json.loads(json.dumps(doc))
    fat["margin"] = 60
    ok3, _ = verify_certificate(fat)
    assert not ok3


def test_certificate_rejects_malformed_documents():
    ok, message = verify_certificate({"schema": "bogus"})
    assert not ok
    assert message


def test_certificate_without_member_cells_does_not_verify(middle_fifth):
    # well formed, but an empty region certifies nothing
    grid = {"s0": 0.0, "hs": 0.1, "ns": 1, "t0": 0.0, "ht": 0.1, "nt": 1, "types": [2, 2]}
    sets = {"first": set_to_json(middle_fifth), "second": set_to_json(middle_fifth)}
    doc = {"grid": grid, "margin": 0, "sets": sets, "mask_rle": [4]}
    assert verify_certificate(doc) == (False, "certificate has no member cells")


@pytest.mark.parametrize(
    "field, value",
    [
        ("margin", -1),
        ("margin", 1.0),
        ("mask_rle", [5, -1]),
        ("types", [1, 2]),
        ("ht", -0.1),
        pytest.param("margin", 10**400, id="margin-huge"),
        ("s0", 800.0),
        *(pytest.param(field, 10**400, id=f"{field}-huge") for field in ("s0", "hs", "t0", "ht")),
    ],
)
def test_certificate_fields_out_of_range_are_malformed(middle_fifth, field, value):
    # a negative margin or cell size would shrink the boxes the verifier
    # checks, so a valid certificate altered that way must not pass; a
    # margin wider than the grid, an s range where e^s overflows or a grid
    # number beyond the float range cannot be checked in floats at all
    out = recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=1)
    doc = region_to_json(out.region, middle_fifth, middle_fifth)
    target = doc["grid"] if field in doc["grid"] else doc
    target[field] = value
    ok, message = verify_certificate(doc)
    assert not ok
    assert message.startswith("malformed certificate")


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda sets: sets["first"].update(pieces=[["0", "7/10"], ["3/5", "1"]]), id="overlapping"),
        pytest.param(lambda sets: sets["first"]["pieces"][0].__setitem__(1, "abc"), id="piece-end"),
        pytest.param(lambda sets: sets.update(second=5), id="set"),
    ],
)
def test_a_malformed_embedded_set_is_a_malformed_certificate(middle_fifth, mutate):
    # the set's own ValidationError (OverlappingPieces for the first) ended
    # the verifier, where a malformed grid already read False
    out = recurrent_compact_search(middle_fifth, middle_fifth, SEARCH_BOX, SEARCH_GRID, margin=1)
    doc = region_to_json(out.region, middle_fifth, middle_fifth)
    mutate(doc["sets"])
    with pytest.raises(ValidationError):
        for side in ("first", "second"):
            set_from_json(doc["sets"][side])
    ok, message = verify_certificate(doc)
    assert not ok
    assert message.startswith("malformed certificate")


# ---------------------------------------------------------------------------
# perturbation stability of fat intersections


def test_fat_pair_survives_all_perturbations(thick_pair_set):
    frac = d_stable_probe(thick_pair_set, thick_pair_set, 0.0, 0.3, 20, 0.01, 9, seed=0)
    assert frac == 1.0


def test_thin_pair_survives_no_perturbations(thin_pair_set):
    frac = d_stable_probe(thin_pair_set, thin_pair_set, 0.0, 0.3, 20, 0.01, 9, seed=0)
    assert frac == 0.0


def test_probe_fraction_is_deterministic_per_seed(ternary):
    a = d_stable_probe(ternary, ternary, 0.25, 0.3, 20, 0.01, 9, seed=0)
    b = d_stable_probe(ternary, ternary, 0.25, 0.3, 20, 0.01, 9, seed=0)
    c = d_stable_probe(ternary, ternary, 0.25, 0.3, 20, 0.01, 9, seed=1)
    assert a == b == pytest.approx(0.35)
    assert 0.0 <= c <= 1.0


@pytest.mark.parametrize(
    "names",
    [("ternary", "ternary"), ("middle-fifth", "middle-fifth"), ("thick", "thick"),
     ("thin", "thick")],
)
def test_probe_meet_needs_no_merge(names):
    # d_stable_probe counts grid cells of the raw pairwise meet: it must
    # already be strictly increasing and disjoint, and count as its merge
    K1, K2 = (get_set(name) for name in names)
    met = 0
    for index in range(3):
        rng = np.random.default_rng([0, index])
        P1, P2 = perturb_set(K1, 0.01, rng), perturb_set(K2, 0.01, rng)
        for n in (5, 9):
            c1, c2 = refine(P1, n), refine(P2, n)
            for t in (0.0, 0.1, 0.25, -0.3):
                lo, hi = intersect._cover_meet(c1, c2, t)
                if len(lo) == 0:
                    continue
                met += 1
                assert np.all(lo <= hi) and np.all(lo[1:] > hi[:-1])
                m_lo, m_hi = merge_intervals(lo, hi)
                for k in range(3, 21):
                    r = 2.0**-k
                    assert _grid_cells(lo, hi, r) == _grid_cells(m_lo, m_hi, r)
    assert met >= 12


# ---------------------------------------------------------------------------
# density of translates with intersection near a base point


def test_density_profile_full_for_fat_self_pair(ternary):
    deltas = [0.5 / 2**k for k in range(8)]
    profile = tangency_density_experiment(ternary, ternary, 0.0, deltas, 8)
    assert list(profile.deltas) == deltas
    assert all(r == pytest.approx(1.0) for r in profile.ratios)


def test_density_profile_sparse_for_thin_pair(thin_pair_set):
    deltas = [0.5 / 2**k for k in range(8)]
    profile = tangency_density_experiment(thin_pair_set, thin_pair_set, 0.0, deltas, 8)
    assert all(r < 0.01 for r in profile.ratios)


def test_density_profile_requires_base_point_in_difference(ternary):
    with pytest.raises(TZeroNotInDifference):
        tangency_density_experiment(ternary, ternary, 9.0, [0.1], 6)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=str)
def test_probes_refuse_inputs_that_are_not_finite(ternary, x):
    # a nan translation read as a probe fraction of 0.0 and a nan radius
    # raised numpy's OverflowError; a nan delta gave ratio 1.0, inf 0.0
    with pytest.raises(ValidationError):
        d_stable_probe(ternary, ternary, x, 0.3, 2, 0.01, 4)
    with pytest.raises(ValidationError):
        d_stable_probe(ternary, ternary, 0.25, 0.3, 2, x, 4)
    with pytest.raises(ValidationError):
        perturb_set(ternary, x, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        tangency_density_experiment(ternary, ternary, 0.0, [0.1, x], 4)
    with pytest.raises(ValidationError):
        tangency_density_experiment(ternary, ternary, x, [0.1], 4)


# an int beyond the float range: each of these raised OverflowError
# ("int too large to convert to float") before the shared refusal
HUGE = 10**400
BEYOND_FLOATS = {
    "gap_lemma_test t": lambda T: gap_lemma_test(T, T, HUGE),
    "intersect_test t": lambda T: intersect_test(T, T, HUGE, 3),
    "difference_scan t": lambda T: difference_scan(T, T, [HUGE], 3),
    "cover_sum lam": lambda T: cover_sum(T, T, 3, "-", HUGE),
    "d_stable_probe t": lambda T: d_stable_probe(T, T, HUGE, 0.3, 2, 0.01, 4),
    "density t0": lambda T: tangency_density_experiment(T, T, HUGE, [0.1], 4),
    "density delta": lambda T: tangency_density_experiment(T, T, 0.0, [0.1, HUGE], 4),
    "marstrand_scan lam": lambda T: marstrand_scan(T, T, [0.5, HUGE], 2, pair_budget=100),
    "marstrand_scan theta": lambda T: marstrand_scan(T, T, [0.5], 2, theta=HUGE, pair_budget=100),
    "covered_length resolution": lambda T: covered_length(cover_sum(T, T, 3, "+"), HUGE),
    "contains_interval margin": lambda T: contains_interval(cover_sum(T, T, 3, "+"), Interval(0, 2), HUGE),
    "perturb_set radius": lambda T: perturb_set(T, HUGE, np.random.default_rng(0)),
    "refine_to_length target": lambda T: refine_to_length(T, HUGE),
    "recurrent_compact_search box": lambda T: recurrent_compact_search(
        T, T, ((-0.75, 0.75), (-2.25, HUGE)), SEARCH_GRID),
}


@pytest.mark.parametrize("call", BEYOND_FLOATS.values(), ids=BEYOND_FLOATS)
def test_a_number_beyond_the_float_range_is_refused(ternary, call):
    with pytest.raises(ValidationError):
        call(ternary)


# ---------------------------------------------------------------------------
# pairwise cover intersections, a gap lemma without covers, certificate encoding


def _random_family(rng, n):
    """n sorted disjoint closed intervals on a dyadic grid, so that shifts
    by endpoint differences are exact and endpoints can touch."""
    edges = np.cumsum(rng.integers(1, 64, size=2 * n)) / 64.0
    return SimpleNamespace(los=edges[0::2], his=edges[1::2])


def _pairwise_meet(c1, c2, t):
    """Reference: every nonempty a ∩ (b + t), ordered by (a, b)."""
    lo, hi = [], []
    for a_lo, a_hi in zip(c1.los, c1.his):
        for b_lo, b_hi in zip(c2.los + t, c2.his + t):
            if max(a_lo, b_lo) <= min(a_hi, b_hi):
                lo.append(max(a_lo, b_lo))
                hi.append(min(a_hi, b_hi))
    return np.array(lo), np.array(hi)


def test_cover_meet_matches_pairwise_reference():
    rng = np.random.default_rng(7)
    for _ in range(60):
        c1 = _random_family(rng, int(rng.integers(1, 25)))
        c2 = _random_family(rng, int(rng.integers(1, 25)))
        span = c1.his[-1] - c2.los[0]
        shifts = list(rng.uniform(c1.los[0] - c2.his[-1] - 1.0, span + 1.0, size=8))
        # touching endpoints, and shifts past either hull
        shifts += [c1.his[0] - c2.los[0], c1.los[-1] - c2.his[-1]]
        shifts += [c1.his[-1] - c2.los[0] + 0.5, c1.los[0] - c2.his[-1] - 0.5]
        for t in shifts:
            lo, hi = intersect._cover_meet(c1, c2, float(t))
            ref_lo, ref_hi = _pairwise_meet(c1, c2, float(t))
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
    c = SimpleNamespace(los=np.array([0.0, 2.0, 4.0]), his=np.array([1.0, 3.0, 5.0]))
    lo, hi = intersect._cover_meet(c, c, 1.0)
    assert lo.tolist() == hi.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert len(intersect._cover_meet(c, c, 5.5)[0]) == 0
    assert len(intersect._cover_meet(c, c, -5.5)[0]) == 0


def test_gap_lemma_builds_no_cover(monkeypatch, middle_fifth, ternary, thin_pair_set):
    cases = [
        (K1, K2, t)
        for K1, K2 in ((middle_fifth, middle_fifth), (middle_fifth, ternary), (thin_pair_set, ternary))
        for t in (0.0, 0.25, 1.5)
    ]
    expected = [gap_lemma_test(*case) for case in cases]

    def no_cover(*args, **kwargs):
        raise AssertionError("gap_lemma_test walked the cylinder tree")

    monkeypatch.setattr(cantor_core, "_expand", no_cover)
    assert [gap_lemma_test(*case) for case in cases] == expected
    assert [r.certified for r in expected] == [True, True, False] * 2 + [False] * 3


def test_certificate_encoding_with_members_at_both_ends(middle_fifth):
    mask = np.zeros((2, 2, 3, 4), dtype=bool)
    mask.flat[[0, 1, 5, 6, 7, 20, 47]] = True
    region = PositionRegion(s0=0.0, hs=0.1, ns=3, t0=0.0, ht=0.1, nt=4, margin=1, mask=mask)
    doc = region_to_json(region, middle_fifth, middle_fifth)
    assert doc["mask_rle"] == [0, 2, 3, 3, 12, 1, 26, 1]
    assert all(type(x) is int for x in doc["mask_rle"])
    assert np.array_equal(_decode_mask(doc), mask.ravel())
    assert doc["mask_rle"] == _encode_mask(mask.ravel())
