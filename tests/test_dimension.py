"""Box dimension, Moran-equation dimension, thickness, and the
transverse-dimension smallness predicate."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cantorlab import (
    DegenerateCover,
    Interval,
    NoGaps,
    ValidationError,
    box_dimension,
    build_affine,
    builtin_names,
    gauss_cantor,
    get_set,
    hausdorff_dimension_moran,
    moran_root,
    nonuniform_condition,
    perturb_set,
    refine,
    scale_affine,
    thickness,
)
from cantorlab.cantor_core import _address, _ordered_gaps
from conftest import exact_intervals

F = Fraction

LOG2_3 = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# Moran / Hausdorff dimension


def test_moran_dimension_of_symmetric_thirds_is_analytic(ternary):
    for depth in (1, 3, 6):
        est = hausdorff_dimension_moran(ternary, depth)
        assert est.value == pytest.approx(LOG2_3, abs=1e-15)
        assert est.method == "moran"
        assert est.residual < 1e-14


def test_moran_dimension_depth_independent_for_equal_ratios(middle_fifth):
    want = math.log(2) / math.log(5 / 2)
    values = [hausdorff_dimension_moran(middle_fifth, n).value for n in (1, 4, 7)]
    for v in values:
        assert v == pytest.approx(want, abs=1e-15)


def test_moran_dimension_two_scale_set_is_golden_exponent():
    # ratios 1/2 and 1/4: (1/2)^d + (1/4)^d = 1 has the closed-form root
    # log((1+sqrt 5)/2)/log 2
    K = build_affine([(F(0), F(1, 2)), (F(3, 4), F(1))], [(0, 1), (0, 1)])
    want = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
    est = hausdorff_dimension_moran(K, 6)
    assert est.value == pytest.approx(want, abs=1e-15)


def test_moran_dimension_cf_two_digit_set_matches_reference():
    # high-depth root for the digits-{1,2} continued-fraction set;
    # reference value 0.531280506 from independent computations of this
    # classical constant
    est = hausdorff_dimension_moran(gauss_cantor(2), 12)
    assert est.value == pytest.approx(0.531280506, abs=5e-3)


def test_moran_drift_decreases_for_cf_set():
    K = gauss_cantor(2)
    values = [hausdorff_dimension_moran(K, n).value for n in range(2, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] - values[-1] < 1e-3


def test_moran_root_rejects_bad_inputs():
    with pytest.raises(DegenerateCover):
        moran_root([0.5, 0.0])
    with pytest.raises(ValidationError):
        moran_root([0.5, 1.0])
    with pytest.raises(ValidationError):
        # total length above the hull: no root at or below 1
        moran_root([0.7, 0.7])


@pytest.mark.parametrize("c", [0.4999999999999, 0.49999999999999994])
def test_moran_root_is_at_most_one_when_the_sum_at_one_is(c):
    # 2c <= 1, so the root is at most 1; the bisection bracket reaches
    # 1 + 1e-9 and its midpoint once came out as 1.0000000000000107
    assert 2 * c <= 1.0
    root = moran_root([c, c])
    assert root <= 1.0
    assert root == pytest.approx(math.log(2) / -math.log(c), abs=1e-12)


def test_moran_map_is_monotone_in_dimension():
    ratios = [0.4, 0.3, 0.2]
    values = [sum(r**d for r in ratios) for d in (0.2, 0.5, 0.8, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# box dimension


def test_box_dimension_symmetric_thirds(ternary):
    est = box_dimension(ternary, range(2, 11))
    assert est.value == pytest.approx(LOG2_3, abs=0.01)
    assert est.method == "box"
    assert est.depth_used == 10
    # counts 2^(n+1) against radii 3^-(n+1) make the fit essentially exact
    assert est.residual < 1e-12


def test_box_dimension_middle_fifth(middle_fifth):
    want = math.log(2) / math.log(5 / 2)
    est = box_dimension(middle_fifth, range(2, 11))
    assert est.value == pytest.approx(want, abs=0.01)


def test_box_and_moran_agree_for_affine_sets(ternary, middle_fifth, thick_pair_set):
    for K in (ternary, middle_fifth, thick_pair_set):
        box = box_dimension(K, range(2, 9)).value
        moran = hausdorff_dimension_moran(K, 8).value
        assert abs(box - moran) <= 0.02


def test_box_dimension_requires_two_depths(ternary):
    with pytest.raises(ValidationError):
        box_dimension(ternary, [])
    with pytest.raises(ValidationError):
        box_dimension(ternary, [4])


# ---------------------------------------------------------------------------
# thickness


def test_thickness_symmetric_thirds(ternary):
    est = thickness(ternary, 4)
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_thickness_middle_fifth(middle_fifth):
    est = thickness(middle_fifth, 4)
    assert est.value == pytest.approx(2.0, rel=1e-9)


def test_thickness_wide_bridges():
    K = build_affine([(F(0), F(9, 20)), (F(11, 20), F(1))], [(0, 1), (0, 1)])
    est = thickness(K, 4)
    assert est.value == pytest.approx(4.5, rel=1e-9)


def test_thickness_reports_limiting_gap(ternary):
    est = thickness(ternary, 3)
    gap = est.limiting_gap
    # the reported gap really is a gap of the depth-3 cover
    from cantorlab import refine

    cover = refine(ternary, 3)
    gap_pairs = {
        (float(hi), float(lo)) for hi, lo in zip(cover.his[:-1], cover.los[1:])
    }
    assert (float(gap.lo), float(gap.hi)) in gap_pairs


def test_thickness_stable_across_depths_for_self_similar(middle_fifth):
    values = [thickness(middle_fifth, n).value for n in (1, 3, 5, 7)]
    for v in values:
        assert v == pytest.approx(values[0], rel=1e-9)


def test_thickness_requires_positive_depth(ternary):
    with pytest.raises(ValidationError):
        thickness(ternary, 0)


def _reference_thickness(K, n):
    """Thickness in `Fraction`s: an `Interval` with exact ends for every
    interval of the depth-n cover, `_ordered_gaps` on their differences,
    and the first least ratio.  Returns (value, limiting gap, address),
    the address that of the interval left of the gap: the itinerary of
    its midpoint."""
    ivs = exact_intervals(refine(K, n))
    gaps = [
        (left.hi, right.lo, left)
        for left, right in zip(ivs, ivs[1:])
        if right.lo > left.hi
    ]
    best, best_gap = math.inf, gaps[0]
    for gap, left, right in _ordered_gaps((K.hull.lo, K.hull.hi), gaps):
        g_lo, g_hi, _ = gap
        ratio = min(g_lo - left, right - g_hi) / (g_hi - g_lo)
        if ratio < best:
            best, best_gap = ratio, gap
    g_lo, g_hi, iv = best_gap
    return float(best), Interval(g_lo, g_hi), _address(K, Fraction(iv.lo + iv.hi) / 2, n)


def _random_exact_set(rng: random.Random):
    """2-4 pieces with ends on a random lattice, with full or banded
    (each piece onto itself and its neighbours) transitions; redrawn
    until the branches expand."""
    while True:
        r = rng.choice((2, 3, 4))
        denom = rng.choice((12, 20, 30, 42))
        cuts = sorted(rng.sample(range(denom + 1), 2 * r))
        pieces = [(F(cuts[2 * i], denom), F(cuts[2 * i + 1], denom)) for i in range(r)]
        if rng.random() < 0.5:
            rows = [range(r)] * r
        else:
            rows = [range(max(j - 1, 0), min(j + 2, r)) for j in range(r)]
        try:
            return build_affine(pieces, [tuple(row) for row in rows])
        except ValidationError:
            continue


def _rounding_tie_set():
    """Three pieces whose two top gaps have bridge ratios 4/5 and 4/5 -
    (20/3)10^-18, which round to one float: only exact arithmetic finds
    the second, shorter gap limiting."""
    a, g1, g2, p1 = F(1, 5), F(1, 4), F(3, 20), F(3, 25) - F(1, 10**18)
    pieces = [(F(0), a), (a + g1, a + g1 + p1), (a + g1 + p1 + g2, F(1))]
    return build_affine(pieces, [(0, 1, 2)] * 3)


def _thickness_cases():
    for name in builtin_names():
        K = get_set(name)
        for n in range(1, 7 if name.startswith("gauss") else 9):
            yield name, K, n
    for n in range(1, 5):
        yield "rounding-tie", _rounding_tie_set(), n
    rng = random.Random(2026)
    for i in range(48):
        K = _random_exact_set(rng)
        yield f"random-{i}", K, max(n for n in range(1, 9) if K.admissible_count(n) <= 3000)
    gen = np.random.default_rng(2026)
    for i in range(24):
        base = get_set(("ternary", "middle-fifth", "thin", "thick")[i % 4]) if i < 12 else _random_exact_set(rng)
        K = perturb_set(base, 0.005, gen)
        yield f"perturbed-{i}", K, max(n for n in range(1, 9) if K.admissible_count(n) <= 3000)


def test_thickness_matches_its_fraction_reference():
    kinds = set()
    for name, K, n in _thickness_cases():
        est = thickness(K, n)
        value, gap, addr = _reference_thickness(K, n)
        assert est.value == value, (name, n)
        assert (est.limiting_gap.lo, est.limiting_gap.hi) == (gap.lo, gap.hi), (name, n)
        assert all(type(x) is type(y) for x, y in zip((est.limiting_gap.lo, est.limiting_gap.hi), (gap.lo, gap.hi)))
        assert est.limiting_gap_address == addr, (name, n)
        kinds.add(("exact" if K.exact else "float" if K.is_affine else "moebius", K.transitions[0] == K.transitions[-1]))
    # every kind of set, and exact sets whose transitions are not full
    assert {kind for kind, _ in kinds} == {"exact", "float", "moebius"} and ("exact", False) in kinds


def test_thickness_where_the_common_denominator_passes_the_float_range():
    # pieces of length 1/3 + 10^-40: at depth 8 the ends' integer
    # numerators and their gaps have no float, yet their differences
    # still order the gaps exactly
    a = F(1, 3) + F(1, 10**40)
    K = build_affine([(F(0), a), (1 - a, F(1))], [(0, 1), (0, 1)])
    assert refine(K, 8)._leaves.nums[2][0] > 10**320
    est = thickness(K, 8)
    assert (est.value, est.limiting_gap, est.limiting_gap_address) == _reference_thickness(K, 8)
    assert est.value == 1.0


def test_exact_thickness_builds_no_interval_per_node(monkeypatch):
    K = get_set("middle-fifth")
    refine(K, 10)  # the set's tables are built once, before counting
    built = []
    post_init = Interval.__post_init__
    monkeypatch.setattr(Interval, "__post_init__", lambda self: built.append(self) or post_init(self))
    est = thickness(K, 10)
    assert est.value == 2.0
    # the hull and the limiting gap; a per-node view builds 2,048 more
    assert len(built) <= 4


# ---------------------------------------------------------------------------
# invariance under affine rescaling


def test_invariants_unchanged_by_affine_rescaling(ternary):
    K = scale_affine(ternary, F(3), F(7))
    assert abs(
        hausdorff_dimension_moran(K, 6).value
        - hausdorff_dimension_moran(ternary, 6).value
    ) < 1e-12
    assert abs(thickness(K, 4).value - thickness(ternary, 4).value) < 1e-9
    assert abs(
        box_dimension(K, range(2, 9)).value - box_dimension(ternary, range(2, 9)).value
    ) < 1e-12


# ---------------------------------------------------------------------------
# transverse-dimension predicate


def test_transverse_smallness_predicate_values():
    assert nonuniform_condition(0.5, 0.5) is True
    assert nonuniform_condition(0.7, 0.7) is False
    # asymmetric pair: s = 0.9, m = 0.6 -> 0.81 + 0.36 < 1.5
    assert nonuniform_condition(0.3, 0.6) is True


def test_transverse_smallness_predicate_is_strict():
    # along ds = du = t the boundary solves 5t^2 = 3t, i.e. t = 0.6
    assert nonuniform_condition(0.6, 0.6) is False
    assert nonuniform_condition(0.5999, 0.5999) is True


def test_transverse_smallness_rejects_out_of_range():
    with pytest.raises(ValidationError):
        nonuniform_condition(0.0, 0.5)
    with pytest.raises(ValidationError):
        nonuniform_condition(0.5, 1.0)
