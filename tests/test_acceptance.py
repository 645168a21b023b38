"""Acceptance suite: the package's end-to-end guarantees, one test per
criterion.  Every criterion records a single PASS/FAIL line that pytest
prints in the terminal summary, alongside the usual per-test verdicts."""

import bisect
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from cantorlab import build_affine, get_set
from cantorlab.cantor_core import Interval, refine, scale_affine
from cantorlab.cli import run as cli_run
from cantorlab.dimension import (
    hausdorff_dimension_moran,
    moran_root,
    thickness,
)
from cantorlab.dynamics import cat_map_check, standard_family_lyapunov
from cantorlab.intersect import (
    gap_lemma_test,
    recurrent_compact_search,
    region_to_json,
    verify_certificate,
)
from cantorlab.setops import (
    contains_interval,
    cover_sum,
    covered_length,
    marstrand_scan,
)
from cantorlab.spectra import (
    CFSequence,
    _canonical_rotation,
    _is_primitive,
    k_alpha,
    lagrange_sample,
)
from cantorlab.surd import QuadraticSurd

from conftest import ACCEPTANCE_LINES

LOG2_3 = math.log(2.0) / math.log(3.0)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number:2d} [{label}]: FAIL")
        raise
    ACCEPTANCE_LINES.append(f"criterion {number:2d} [{label}]: PASS")


# ---------------------------------------------------------------------------
# shared helpers


def two_piece(ratio: Fraction):
    """Two affine pieces of the given length at each end of [0, 1]."""
    return build_affine(
        [(Fraction(0), Fraction(ratio)), (1 - Fraction(ratio), Fraction(1))],
        [(0, 1), (0, 1)],
    )


def union_box_dimension(U, k_lo: int = 5, k_hi: int = 18) -> float:
    """Box dimension of an interval union: least-squares slope of the
    dyadic grid-cell counts against resolution."""
    ks = np.arange(k_lo, k_hi + 1)
    rs = 2.0 ** (-ks.astype(float))
    counts = np.array([covered_length(U, r) / r for r in rs])
    slope, _ = np.polyfit(np.log(1.0 / rs), np.log(counts), 1)
    return float(slope)


def random_affine_set(rng: random.Random):
    """Random valid affine set: 2-3 pieces with rational endpoints on a
    random lattice, full (hence mixing) transitions."""
    n = rng.choice((2, 2, 2, 3))
    denom = rng.choice((12, 16, 24, 30))
    cuts = sorted(rng.sample(range(0, denom + 1), 2 * n))
    pieces = [
        (Fraction(cuts[2 * i], denom), Fraction(cuts[2 * i + 1], denom))
        for i in range(n)
    ]
    full = tuple(range(n))
    return build_affine(pieces, [full] * n)


# ---------------------------------------------------------------------------
# criteria 1-3: exact dimensions and arithmetic identities


def test_criterion_01_ternary_dimension():
    with criterion(1, "ternary dimension, both methods, < 1 s"):
        start = time.perf_counter()
        rec_moran, _ = cli_run("dim", {"command": "dim", "method": "moran"})
        rec_box, _ = cli_run(
            "dim",
            {"command": "dim", "method": "box", "depth_min": 2, "depth_max": 10},
        )
        elapsed = time.perf_counter() - start
        assert abs(rec_moran["outputs"]["value"] - LOG2_3) <= 1e-9
        assert abs(rec_box["outputs"]["value"] - LOG2_3) <= 0.01
        assert elapsed < 1.0


def test_criterion_02_two_piece_digit_bound_four_sumset():
    with criterion(2, "digit-bound-4 sumset fills its interval, < 2 min"):
        start = time.perf_counter()
        K = get_set("gauss4")
        U = cover_sum(K, K, 8, "+")
        lo, hi = math.sqrt(2.0) - 1.0, 4.0 * (math.sqrt(2.0) - 1.0)
        assert contains_interval(U, Interval(lo, hi), 1e-3)
        assert abs(float(U.hull.lo) - lo) <= 1e-3
        assert abs(float(U.hull.hi) - hi) <= 1e-3
        assert time.perf_counter() - start < 120.0


def test_criterion_03_ternary_sum_and_difference_exact(ternary):
    with criterion(3, "ternary sum [0,2] and difference [-1,1] exact"):
        for depth in range(0, 11):
            s = cover_sum(ternary, ternary, depth, "+")
            assert s.n_components == 1
            assert abs(float(s.hull.lo) - 0.0) <= 1e-12
            assert abs(float(s.hull.hi) - 2.0) <= 1e-12
            d = cover_sum(ternary, ternary, depth, "-")
            assert d.n_components == 1
            assert abs(float(d.hull.lo) + 1.0) <= 1e-12
            assert abs(float(d.hull.hi) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# criteria 4-6: measure and dimension of arithmetic combinations


def test_criterion_04_thin_difference_measure_shrinks(thin_pair_set):
    with criterion(4, "thin-pair difference measure strictly decreasing, < 0.2"):
        measures = [
            cover_sum(thin_pair_set, thin_pair_set, n, "-").total_length
            for n in range(1, 9)
        ]
        for a, b in zip(measures, measures[1:]):
            assert b < a
        assert measures[-1] < 0.2


def test_criterion_05_sum_dimension_law(ternary):
    with criterion(5, "box dimension of sums matches min(1, d1+d2) +/- 0.05"):
        pairs = [
            (two_piece(Fraction(1, 10)), two_piece(Fraction(1, 11)),
             math.log(2) / math.log(10) + math.log(2) / math.log(11)),
            (ternary, two_piece(Fraction(1, 8)),
             LOG2_3 + math.log(2) / math.log(8)),
            (ternary, ternary, 2 * LOG2_3),
        ]
        for K1, K2, dim_sum in pairs:
            U = cover_sum(K1, K2, 10, "+")
            estimate = union_box_dimension(U)
            assert abs(estimate - min(1.0, dim_sum)) <= 0.05


def test_criterion_06_projection_scan(ternary, thin_pair_set):
    with criterion(6, "projection scan: 200 scaled differences, < 10 min"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        lambdas = rng.uniform(0.1, 3.0, size=200)
        resolutions = [2.0 ** (-k) for k in range(6, 13)]
        fat = marstrand_scan(ternary, ternary, lambdas, 8, resolutions, theta=0.1)
        assert fat.fraction_above(0.1) >= 0.9
        thin = marstrand_scan(
            thin_pair_set, thin_pair_set, lambdas, 8, resolutions, theta=0.1
        )
        assert thin.median_slope() >= 0.3
        assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# criterion 7: intersection certificates


def test_criterion_07_certificates(middle_fifth, thin_pair_set):
    with criterion(7, "gap lemma + recurrent-region certificate, re-verify < 10 s"):
        lemma = gap_lemma_test(middle_fifth, middle_fifth, 0.0)
        assert lemma.certified and lemma.linked
        assert lemma.tau1 * lemma.tau2 > 1.0

        box = ((-0.75, 0.75), (-2.25, 1.25))
        grid = (1.5 / 120, 3.5 / 240)
        found = recurrent_compact_search(middle_fifth, middle_fifth, box, grid)
        assert found.found and found.region is not None
        assert int(found.region.mask.sum()) > 0
        doc = region_to_json(found.region, middle_fifth, middle_fifth)
        start = time.perf_counter()
        ok, message = verify_certificate(doc)
        assert ok, message
        assert time.perf_counter() - start < 10.0

        missing = recurrent_compact_search(thin_pair_set, thin_pair_set, box, grid)
        assert not missing.found and missing.region is None


# ---------------------------------------------------------------------------
# criterion 8: spectrum exact values and estimator coherence


def test_criterion_08_spectrum_exacts():
    with criterion(8, "exact spectrum values and estimator coherence <= 1e-9"):
        sqrt5 = QuadraticSurd.sqrt_of_int(5)
        two_sqrt2 = QuadraticSurd.make(0, 2, 1, 2)
        ones = k_alpha(CFSequence(period=(1,)), 6)
        assert ones.exact is not None and ones.exact.equals(sqrt5)
        twos = k_alpha(CFSequence(period=(2,)), 6)
        assert twos.exact is not None and twos.exact.equals(two_sqrt2)

        values = lagrange_sample(6, 4)
        assert values[0].exact is not None and values[0].exact.equals(sqrt5)

        checked = 0
        worst = 0.0
        for length in range(1, 7):
            for word in itertools.product((1, 2, 3, 4), repeat=length):
                if not _is_primitive(word) or word != _canonical_rotation(word):
                    continue
                val = k_alpha(
                    CFSequence(period=word), max(6, 2 * len(word))
                )
                worst = max(worst, val.estimator_gap)
                checked += 1
        assert checked > 900  # all primitive necklaces up to period 6
        assert worst <= 1e-9


# ---------------------------------------------------------------------------
# criteria 9-10: hyperbolic toy models


def test_criterion_09_torus_automorphism():
    with criterion(9, "torus automorphism exact counts for n <= 10, < 30 s"):
        start = time.perf_counter()
        report = cat_map_check(10)
        assert report.eigenvalue_unstable.equals(QuadraticSurd.make(3, 1, 2, 5))
        assert report.eigenvalue_stable.equals(QuadraticSurd.make(3, -1, 2, 5))
        assert report.product_is_one and report.hyperbolic
        assert len(report.counts) == 10
        assert report.all_counts_match
        for _n, formula, enumerated in report.counts:
            assert formula == enumerated
        assert time.perf_counter() - start < 30.0


def test_criterion_10_standard_family():
    with criterion(10, "standard family: null case and strong-coupling baseline"):
        null = standard_family_lyapunov(0.0, 100, 2000, seed=0)
        assert null.mean_exponent < 0.05
        assert null.max_abs_pair_sum < 1e-6
        strong = standard_family_lyapunov(6.0, 200, 10_000, seed=0)
        assert strong.fraction_positive > 0.9
        assert strong.max_abs_pair_sum < 1e-6


# ---------------------------------------------------------------------------
# criterion 11: five property suites, 1000 seeded random cases each

CASES = 1000


def _suite_cover_nestedness(seed: int) -> int:
    rng = random.Random(seed)
    ran = 0
    for _ in range(CASES):
        K = random_affine_set(rng)
        shallow = rng.randrange(0, 3)
        deep = shallow + rng.randrange(1, 3)
        coarse = refine(K, shallow)
        fine = refine(K, deep)
        los = [iv.lo for iv in coarse.intervals]
        for iv in fine.intervals:
            j = bisect.bisect_right(los, iv.lo) - 1
            assert j >= 0
            parent = coarse.intervals[j]
            assert parent.lo <= iv.lo and iv.hi <= parent.hi
        ran += 1
    return ran


def _suite_outer_measure_monotonicity(seed: int) -> int:
    rng = random.Random(seed)
    ran = 0
    for _ in range(CASES):
        K = random_affine_set(rng)
        shallow = rng.randrange(0, 3)
        deep = shallow + rng.randrange(1, 3)
        # K - 0*K is the merged depth-n cover of K
        m_coarse = cover_sum(K, K, shallow, "-", lam=0.0).total_length
        m_fine = cover_sum(K, K, deep, "-", lam=0.0).total_length
        assert m_fine <= m_coarse + 1e-12
        ran += 1
    return ran


def _suite_moran_map_monotonicity(seed: int) -> int:
    rng = random.Random(seed)
    ran = 0
    while ran < CASES:
        k = rng.choice((2, 3, 4))
        ratios = [rng.uniform(0.02, 0.9 / k) for _ in range(k)]
        base = moran_root(ratios)
        grown = list(ratios)
        j = rng.randrange(k)
        room = 0.98 - (sum(ratios) - ratios[j])
        grown[j] = min(ratios[j] + rng.uniform(0.01, 0.05), room)
        if grown[j] <= ratios[j]:
            continue
        assert moran_root(grown) > base + 1e-7
        extended = ratios + [rng.uniform(0.005, 0.02)]
        if sum(extended) < 0.99:
            assert moran_root(extended) > base + 1e-7
        ran += 1
    return ran


def _suite_affine_equivariance(seed: int) -> int:
    rng = random.Random(seed)
    ran = 0
    for _ in range(CASES):
        K = random_affine_set(rng)
        a = Fraction(
            rng.choice((-8, -3, -2, -1, 1, 2, 3, 5, 8)), rng.choice((1, 2, 3, 4))
        )
        b = Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3)))
        moved = scale_affine(K, a, b)
        lo = min(a * K.hull.lo + b, a * K.hull.hi + b)
        hi = max(a * K.hull.lo + b, a * K.hull.hi + b)
        assert (moved.hull.lo, moved.hull.hi) == (lo, hi)
        d0 = hausdorff_dimension_moran(K, 3).value
        d1 = hausdorff_dimension_moran(moved, 3).value
        assert abs(d0 - d1) <= 1e-11
        t0 = thickness(K, 3).value
        t1 = thickness(moved, 3).value
        assert abs(t0 - t1) <= 1e-9
        ran += 1
    return ran


def _decode_mask(doc: dict) -> np.ndarray:
    g = doc["grid"]
    total = g["types"][0] * g["types"][1] * g["ns"] * g["nt"]
    flat = np.zeros(total, dtype=bool)
    pos, value = 0, False
    for run in doc["mask_rle"]:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    return flat


def _encode_mask(flat: np.ndarray) -> list[int]:
    runs: list[int] = []
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


def _suite_certificate_soundness(seed: int) -> int:
    thick = get_set("thick")
    outcome = recurrent_compact_search(
        thick, thick, ((-0.75, 0.75), (-2.25, 1.25)), (1.5 / 30, 3.5 / 60)
    )
    assert outcome.found
    doc = region_to_json(outcome.region, thick, thick)
    ok, message = verify_certificate(doc)
    assert ok, message
    flat = _decode_mask(doc)
    pruned = np.flatnonzero(~flat)
    rng = random.Random(seed)
    ran = 0
    for _ in range(CASES):
        # promote one pruned cell to member: the certificate names no
        # child pair, and the independent checker must always find that
        # none supports the promoted cell
        index = int(pruned[rng.randrange(len(pruned))])
        tampered_flat = flat.copy()
        tampered_flat[index] = True
        tampered = dict(doc)
        tampered["mask_rle"] = _encode_mask(tampered_flat)
        accepted, _reason = verify_certificate(tampered)
        assert not accepted
        ran += 1
    return ran


def test_criterion_11_property_suites():
    with criterion(11, "five property suites x 1000 seeded cases"):
        assert _suite_cover_nestedness(20260815) == CASES
        assert _suite_outer_measure_monotonicity(20260816) == CASES
        assert _suite_moran_map_monotonicity(77) == CASES
        assert _suite_affine_equivariance(4242) == CASES
        assert _suite_certificate_soundness(987) == CASES
