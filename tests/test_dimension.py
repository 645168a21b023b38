"""Box dimension, Moran-equation dimension, thickness, and the
transverse-dimension smallness predicate."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from cantorlab import (
    DegenerateCover,
    NoGaps,
    ValidationError,
    box_dimension,
    build_affine,
    gauss_cantor,
    get_set,
    hausdorff_dimension_moran,
    moran_root,
    nonuniform_condition,
    scale_affine,
    thickness,
)

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
