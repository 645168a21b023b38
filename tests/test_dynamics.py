"""Tests for the dynamics experiments: horseshoe factor sets, torus
automorphism hyperbolicity data, and standard-family Lyapunov statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cantorlab.dynamics import (
    AffineHorseshoe,
    cat_map_check,
    enumerate_torus_periodic_points,
    horseshoe_cantor_sets,
    horseshoe_dimension,
    solve_unit_dimension,
    standard_family_lyapunov,
)
from cantorlab.errors import BudgetExceeded, ValidationError
from cantorlab.surd import QuadraticSurd


# ---------------------------------------------------------------------------
# affine horseshoe


class TestHorseshoe:
    def test_factor_sets_are_two_piece_affine(self):
        h = AffineHorseshoe(contraction=Fraction(1, 5), expansion=5)
        ks, ku = horseshoe_cantor_sets(h)
        for k in (ks, ku):
            assert len(k.pieces) == 2
            assert (float(k.hull.lo), float(k.hull.hi)) == (0.0, 1.0)
        assert ks.pieces[0].hi == Fraction(1, 5)
        assert ku.pieces[1].lo == Fraction(4, 5)

    def test_dimension_is_sum_of_factor_roots(self):
        # closed form: each two-piece factor with ratio r has root log2/log(1/r)
        h = AffineHorseshoe(contraction=Fraction(1, 3), expansion=3)
        rep = horseshoe_dimension(h)
        expected = 2.0 * math.log(2.0) / math.log(3.0)
        assert rep.total_dimension == pytest.approx(expected, abs=1e-9)
        assert rep.stable_dimension == pytest.approx(rep.unstable_dimension, abs=1e-9)
        assert not rep.at_unit_dimension

    def test_thin_regime_total_below_one(self):
        rep = horseshoe_dimension(AffineHorseshoe(contraction=Fraction(1, 5), expansion=5))
        assert rep.total_dimension == pytest.approx(2.0 * math.log(2.0) / math.log(5.0), abs=1e-9)
        assert rep.total_dimension < 1.0
        assert not rep.at_unit_dimension

    def test_unit_dimension_solver_reproduces_closed_form(self):
        # with expansion 4 the unstable root is exactly 1/2, so the stable
        # root must be 1/2 as well, i.e. contraction 1/4
        rep = solve_unit_dimension(4.0)
        assert rep.at_unit_dimension
        assert rep.total_dimension == pytest.approx(1.0, abs=1e-9)
        assert rep.stable_dimension == pytest.approx(0.5, abs=1e-9)

    def test_unit_dimension_solver_generic_expansion(self):
        rep = solve_unit_dimension(5.0)
        assert rep.at_unit_dimension
        assert rep.stable_dimension == pytest.approx(
            1.0 - math.log(2.0) / math.log(5.0), abs=1e-9
        )

    def test_report_json_round_trip(self):
        rep = horseshoe_dimension(AffineHorseshoe(contraction=0.25, expansion=4.0))
        assert rep.at_unit_dimension is True
        assert rep.total_dimension == rep.stable_dimension + rep.unstable_dimension

    def test_report_carries_the_palis_yoccoz_condition(self):
        # ds = du = log2/log3: (2d)^2 + d^2 = 5d^2 > 3d, so the condition fails
        fat = horseshoe_dimension(AffineHorseshoe(contraction=Fraction(1, 3), expansion=3))
        assert fat.nonuniform_condition is False
        # total dimension 1 with max(ds, du) < 1: 1 + m^2 < 1 + m holds
        assert solve_unit_dimension(5.0).nonuniform_condition is True
        assert solve_unit_dimension(4.0).nonuniform_condition is True

    def test_condition_is_false_where_a_root_rounds_up_to_one(self):
        # a contraction within 1e-13 of 1/2 gives a stable root within the
        # tolerance of 1; it once rounded up past 1, and it now stays at
        # most 1 while the condition still fails
        rep = horseshoe_dimension(AffineHorseshoe(contraction=0.4999999999999, expansion=3))
        assert 1.0 - 1e-12 <= rep.stable_dimension <= 1.0
        assert rep.nonuniform_condition is False

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            AffineHorseshoe(contraction=Fraction(1, 2), expansion=5)
        with pytest.raises(ValidationError):
            AffineHorseshoe(contraction=Fraction(1, 5), expansion=2)
        with pytest.raises(ValidationError):
            solve_unit_dimension(2.0)


# ---------------------------------------------------------------------------
# torus automorphism


class TestCatMap:
    def test_eigenvalues_exact_surds(self):
        rep = cat_map_check(1)
        golden_plus = QuadraticSurd.make(3, 1, 2, 5)  # (3 + sqrt 5) / 2
        golden_minus = QuadraticSurd.make(3, -1, 2, 5)
        assert rep.eigenvalue_unstable.equals(golden_plus)
        assert rep.eigenvalue_stable.equals(golden_minus)
        assert rep.product_is_one
        assert rep.hyperbolic

    def test_counts_match_lucas_closed_form(self):
        # trace of the n-th power is the Lucas number L_{2n}, so the count
        # is L_{2n} - 2; the recurrence gives an independent oracle
        lucas = [2, 1]
        while len(lucas) < 22:
            lucas.append(lucas[-1] + lucas[-2])
        rep = cat_map_check(10)
        assert rep.all_counts_match
        for n, formula, enumerated in rep.counts:
            assert formula == lucas[2 * n] - 2
            assert enumerated == formula
        assert [c[1] for c in rep.counts] == [
            1, 5, 16, 45, 121, 320, 841, 2205, 5776, 15125,
        ]

    def test_enumerated_points_are_exact_fixed_points(self):
        pts = enumerate_torus_periodic_points(3)
        assert len(pts) == 16
        a11, a12, a21, a22 = 13, 8, 8, 5  # third power of [[2,1],[1,1]]
        for x, y in pts:
            assert (a11 * x + a12 * y) % 1 == x
            assert (a21 * x + a22 * y) % 1 == y
        assert (Fraction(0), Fraction(0)) in pts
        assert len(set(pts)) == len(pts)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            cat_map_check(5, budget=100)  # n=5 needs 121 points

    def test_period_must_be_positive(self):
        with pytest.raises(ValidationError):
            cat_map_check(0)

    def test_json_report(self):
        rep = cat_map_check(2)
        assert float(rep.eigenvalue_unstable) == pytest.approx((3 + math.sqrt(5)) / 2)
        assert rep.counts == ((1, 1, 1), (2, 5, 5))
        assert rep.all_counts_match is True


# ---------------------------------------------------------------------------
# standard family


class TestStandardFamily:
    def test_zero_coupling_has_vanishing_exponents(self):
        rep = standard_family_lyapunov(0.0, 50, 2000, seed=1)
        assert rep.mean_exponent < 0.05
        assert rep.fraction_positive == 0.0
        assert rep.max_abs_pair_sum < 1e-6

    def test_pair_sum_invariant_under_strong_coupling(self):
        # determinant-1 cocycle: the two exponents of every orbit cancel
        rep = standard_family_lyapunov(6.0, 50, 2000, seed=3)
        assert rep.max_abs_pair_sum < 1e-6

    def test_strong_coupling_regression_baseline(self):
        rep = standard_family_lyapunov(6.0, 200, 10_000, seed=0)
        assert rep.fraction_positive > 0.9
        assert rep.mean_exponent > 1.0
        # frozen pilot baseline for this exact (lambda, orbits, iterates, seed)
        assert rep.mean_exponent == pytest.approx(2.937986564109076, rel=1e-6)

    def test_seed_reproducibility(self):
        a = standard_family_lyapunov(6.0, 20, 500, seed=11)
        b = standard_family_lyapunov(6.0, 20, 500, seed=11)
        c = standard_family_lyapunov(6.0, 20, 500, seed=12)
        assert np.array_equal(a.exponents, b.exponents)
        assert not np.array_equal(a.exponents, c.exponents)

    def test_summary_and_csv(self):
        rep = standard_family_lyapunov(1.0, 8, 300, seed=5)
        assert (rep.lam, rep.orbits, rep.iterates, rep.seed) == (1.0, 8, 300, 5)
        assert rep.mean_exponent == float(np.mean(rep.top_exponents))
        assert rep.top_exponents.shape == (8,)
        assert rep.top_exponents[0] == rep.exponents[0, 0]

    def test_exponent_array_shape(self):
        rep = standard_family_lyapunov(2.0, 7, 100, seed=0)
        assert rep.exponents.shape == (7, 2)
        assert rep.top_exponents.shape == (7,)
        assert np.all(rep.exponents[:, 0] >= rep.exponents[:, 1])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            standard_family_lyapunov(1.0, 0, 100)
        with pytest.raises(ValidationError):
            standard_family_lyapunov(1.0, 10, 0)
