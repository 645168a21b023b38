"""Benchmark workloads: seeded inputs, the fixed op list, and output checks.

An op is one call of a public cantorlab entry point, the same call a CLI
handler makes.  Ops look functions up on their module at call time, so
the tracer's wrappers are used when tracing is on.  A check returns None
when the output is right and a message otherwise; checks run outside the
timed region.  References for inputs that do not depend on the seed were
recorded at the seed commit and live in ``reference.json``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("scan", "sumset", "certify", "spectra")

# Catalog sets each workload builds during set-up.
SETS = {
    "scan": ("ternary", "thin"),
    "sumset": ("ternary", "gauss4", "thin"),
    "certify": ("middle-fifth", "thin", "ternary"),
    "spectra": ("gauss2",),
}

SCAN_LAMBDAS = 16
SCAN_DEPTH = 8
SCAN_RESOLUTIONS = tuple(2.0**-k for k in range(6, 13))
SCAN_THETA = 0.1
RECUR_BOX = ((-0.75, 0.75), (-2.25, 1.25))
RECUR_GRID = (1.5 / 120, 3.5 / 240)
SPECTRUM_PERIOD = 6
SPECTRUM_DIGITS = 4
HALFLINE_TARGETS = 6
CATMAP_N = 8
MORAN_DEPTH = 10

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def build_sets(workload: str) -> dict:
    from cantorlab import get_set

    return {name: get_set(name) for name in SETS[workload]}


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi]: seeded
    inputs whose spread of sizes does not change from seed to seed."""
    return [float(x) for x in lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# ---------------------------------------------------------------------------
# scan: projection scans, where cover construction dominates


def scan_ops(seed: int, rep: int, sets: dict) -> tuple[list[Op], dict]:
    from cantorlab import setops

    ref = REFERENCE["scan"]
    lambdas = stratified(np.random.default_rng(seed), SCAN_LAMBDAS, 0.1, 3.0)
    T, thin = sets["ternary"], sets["thin"]

    def scan(K):
        return lambda: setops.marstrand_scan(
            K, K, lambdas, SCAN_DEPTH, SCAN_RESOLUTIONS, theta=SCAN_THETA
        )

    def shape_ok(s) -> bool:
        return s.table.shape == (SCAN_LAMBDAS, len(SCAN_RESOLUTIONS)) and bool(
            np.all(np.isfinite(s.table))
        )

    def check_fat(s):
        frac = s.fraction_above(SCAN_THETA)
        return _expect(
            shape_ok(s) and frac >= ref["fat_fraction_above_min"],
            f"fat scan fraction above {SCAN_THETA} is {frac}",
        )

    def check_thin(s):
        slope = s.median_slope()
        return _expect(
            shape_ok(s) and slope >= ref["thin_median_slope_min"],
            f"thin scan median slope is {slope}",
        )

    ops = [
        Op("marstrand_scan ternary-ternary", scan(T), check_fat),
        Op("marstrand_scan thin-thin", scan(thin), check_thin),
    ]
    sizes = {
        "n_lambdas": SCAN_LAMBDAS,
        "lambda_range": [0.1, 3.0],
        "depth": SCAN_DEPTH,
        "resolutions": "2^-6..2^-12",
        "theta": SCAN_THETA,
    }
    return ops, sizes


# ---------------------------------------------------------------------------
# sumset: single large pair combinations


def sumset_ops(seed: int, rep: int, sets: dict) -> tuple[list[Op], dict]:
    from cantorlab import intersect, setops
    from cantorlab.cantor_core import Interval

    ref = REFERENCE["sumset"]
    T, G4, thin = sets["ternary"], sets["gauss4"], sets["thin"]
    state: dict = {}
    target = Interval(*ref["hall_target"])

    def check_ternary_sum(U):
        lo, hi = ref["ternary_sum_hull"]
        return _expect(
            U.n_components == ref["ternary_sum_components"]
            and _close(U.hull.lo, lo, 1e-12)
            and _close(U.hull.hi, hi, 1e-12),
            f"ternary sum: {U.n_components} components, hull {U.hull}",
        )

    def hall_sum():
        state["hall"] = setops.cover_sum(G4, G4, 8, "+")
        return state["hall"]

    def check_hall_sum(U):
        lo, hi = ref["hall_target"]
        tol = ref["hall_hull_tol"]
        return _expect(
            _close(U.hull.lo, lo, tol) and _close(U.hull.hi, hi, tol),
            f"hall sum hull {U.hull} is not within {tol} of the target",
        )

    def thin_diff(depth):
        return lambda: setops.cover_sum(thin, thin, depth, "-", 1.0)

    def check_thin_diff(depth, in_sequence=True):
        comps = ref["thin_diff_components"][str(depth)]
        length = ref["thin_diff_length"][str(depth)]

        def check(U):
            # criterion 4: the measure shrinks strictly along depths 1..8
            shrinks = True
            if in_sequence:
                previous = state.get("thin_measure", math.inf) if depth > 1 else math.inf
                shrinks = U.total_length < previous
                state["thin_measure"] = U.total_length
            return _expect(
                U.n_components == comps
                and abs(U.total_length - length) <= 1e-9 * length
                and shrinks
                and (depth < 8 or U.total_length < ref["thin_diff_final_below"]),
                f"thin difference at depth {depth}: {U.n_components} components, "
                f"length {U.total_length}",
            )

        return check

    deltas = [0.5 * 2.0**-k for k in range(8)]

    def check_density(profile):
        return _expect(
            len(profile.ratios) == len(deltas)
            and min(profile.ratios) >= ref["density_ratio_min"] - 1e-12,
            f"density ratios {profile.ratios}",
        )

    ops = [
        Op("cover_sum ternary+ternary depth 10",
           lambda: setops.cover_sum(T, T, 10, "+"), check_ternary_sum),
        Op("cover_sum gauss4+gauss4 depth 8", hall_sum, check_hall_sum),
        Op("contains_interval hall target",
           lambda: setops.contains_interval(state["hall"], target, ref["hall_margin"]),
           lambda ok: _expect(ok is True, "hall sum does not contain its target")),
    ]
    ops += [
        Op(f"cover_sum thin-thin depth {d}", thin_diff(d), check_thin_diff(d))
        for d in range(1, 9)
    ]
    ops += [
        Op("cover_sum thin-thin lambda 1 depth 8", thin_diff(8), check_thin_diff(8, False)),
        Op("tangency_density_experiment ternary t0 0",
           lambda: intersect.tangency_density_experiment(T, T, 0.0, deltas, 8),
           check_density),
    ]
    sizes = {
        "ternary_sum_depth": 10,
        "hall_depth": 8,
        "thin_diff_depths": [1, 8],
        "density_depth": 8,
        "n_deltas": len(deltas),
        "seeded_inputs": "none: sizes follow the README and criteria 2-4",
    }
    return ops, sizes


# ---------------------------------------------------------------------------
# certify: recurrent-region sweep, its verifier, and the probes


def certify_ops(seed: int, rep: int, sets: dict) -> tuple[list[Op], dict]:
    from cantorlab import intersect

    ref = REFERENCE["certify"]
    M, thin, T = sets["middle-fifth"], sets["thin"], sets["ternary"]
    state: dict = {}
    # one translation per repetition, all drawn from the seed; the
    # ternary difference set is [-1, 1], so every one must overlap
    t = float(np.random.default_rng([seed, rep]).uniform(-0.9, 0.9))

    def search_fifth():
        state["found"] = intersect.recurrent_compact_search(M, M, RECUR_BOX, RECUR_GRID)
        return state["found"]

    def certificate():
        state["doc"] = intersect.region_to_json(state["found"].region, M, M)
        return state["doc"]

    def check_gap(lemma):
        return _expect(
            lemma.certified is ref["gap_lemma_certified"]
            and lemma.linked
            and lemma.tau1 * lemma.tau2 > 1.0,
            f"gap lemma: {lemma}",
        )

    def check_probe(frac):
        hits = frac * ref["dstable_perturbations"]
        return _expect(
            0.0 <= frac <= 1.0 and abs(hits - round(hits)) < 1e-9,
            f"d-stable fraction {frac}",
        )

    ops = [
        Op("recurrent_compact_search middle-fifth", search_fifth,
           lambda o: _expect(o.found is ref["middle_fifth_found"] and o.region.n_members > 0,
                             "middle-fifth region not found")),
        Op("region_to_json middle-fifth", certificate,
           lambda doc: _expect(doc.get("kind") == "recurrent-region", "bad certificate")),
        Op("verify_certificate middle-fifth",
           lambda: intersect.verify_certificate(state["doc"]),
           lambda r: _expect(r[0] is ref["middle_fifth_verified"], f"verifier: {r[1]}")),
        Op("recurrent_compact_search thin",
           lambda: intersect.recurrent_compact_search(thin, thin, RECUR_BOX, RECUR_GRID),
           lambda o: _expect(o.found is ref["thin_found"] and o.region is None,
                             "thin pair reported a region")),
        Op("gap_lemma_test middle-fifth",
           lambda: intersect.gap_lemma_test(M, M, 0.0), check_gap),
        Op("intersect_test ternary depth 9",
           lambda: intersect.intersect_test(T, T, t, 9),
           lambda o: _expect(not o.disjoint and o.depth == 9, f"ternary at t={t}: {o}")),
        Op("d_stable_probe ternary",
           lambda: intersect.d_stable_probe(
               T, T, 0.25, 0.3, ref["dstable_perturbations"], 0.01, 9, seed=seed),
           check_probe),
    ]
    sizes = {
        "recur_box": RECUR_BOX,
        "recur_cells": [120, 240],
        "gap_lemma_depth": 8,
        "intersect_depth": 9,
        "translation": t,
        "dstable": {"t": 0.25, "d": 0.3, "perturbations": ref["dstable_perturbations"],
                    "radius": 0.01, "depth": 9, "seed": seed},
    }
    return ops, sizes


# ---------------------------------------------------------------------------
# spectra: exact surd arithmetic, no covers or pairs


def necklaces(length_max: int, digits: int) -> list[tuple[int, ...]]:
    """Primitive words up to rotation, each as its least rotation."""
    out = []
    for length in range(1, length_max + 1):
        for word in itertools.product(range(1, digits + 1), repeat=length):
            rotations = [word[i:] + word[:i] for i in range(length)]
            if word == min(rotations) and rotations.count(word) == 1:
                out.append(word)
    return out


def spectra_ops(seed: int, rep: int, sets: dict) -> tuple[list[Op], dict]:
    from cantorlab import dimension, dynamics, spectra
    from cantorlab.surd import QuadraticSurd

    ref = REFERENCE["spectra"]
    rng = np.random.default_rng(seed)
    words = necklaces(SPECTRUM_PERIOD, SPECTRUM_DIGITS)
    prefixes = [
        tuple(int(d) for d in rng.integers(1, SPECTRUM_DIGITS + 1, size=rng.integers(0, 4)))
        for _ in words
    ]
    targets = stratified(rng, HALFLINE_TARGETS, 6.0, 20.0)
    sqrt5 = QuadraticSurd.sqrt_of_int(5)
    state: dict = {}

    def sample():
        values = spectra.lagrange_sample(SPECTRUM_PERIOD, SPECTRUM_DIGITS)
        state["keys"] = {(v.exact.p, v.exact.q, v.exact.r, v.exact.d)
                         for v in values if v.exact is not None}
        return values

    def check_sample(values):
        floats = [v.value for v in values]
        return _expect(
            len(values) == ref["lagrange_count"]
            and values[0].exact is not None
            and values[0].exact.equals(sqrt5)
            and floats == sorted(floats),
            f"lagrange sample: {len(values)} values, smallest {values[0].value}",
        )

    def k_op(prefix, word):
        seq = spectra.CFSequence(prefix=prefix, period=word)
        return lambda: spectra.k_alpha(seq, max(6, 2 * len(word)))

    def k_check(word):
        def check(v):
            e = v.exact
            ok = (
                e is not None
                and (e.p, e.q, e.r, e.d) in state.get("keys", ())
                and v.estimator_gap <= ref["estimator_tol"]
                and (word != (1,) or e.equals(sqrt5))
            )
            return _expect(ok, f"k of period {word}: {v.value}")

        return check

    def check_halfline(hits):
        ok = len(hits) == len(targets) and all(
            _close(abs(h.k_value - h.target), h.hit_distance, 1e-12)
            and h.hit_distance <= ref["halfline_hit_max"]
            for h in hits
        )
        return _expect(ok, f"half-line hits {[h.hit_distance for h in hits]}")

    def check_catmap(report):
        return _expect(
            report.all_counts_match
            and report.product_is_one
            and report.hyperbolic
            and [list(c) for c in report.counts] == ref["catmap_counts"],
            f"cat map counts {report.counts}",
        )

    def check_moran(est):
        excess = est.value - ref["gauss2_dimension"]
        return _expect(
            0.0 <= excess <= ref["gauss2_depth_drift"],
            f"gauss2 dimension {est.value}",
        )

    ops = [Op("lagrange_sample", sample, check_sample)]
    ops += [
        Op(f"k_alpha {','.join(map(str, w))}", k_op(p, w), k_check(w))
        for p, w in zip(prefixes, words)
    ]
    ops += [
        Op("hall_halfline_probe", lambda: spectra.hall_halfline_probe(targets, 8),
           check_halfline),
        Op("cat_map_check", lambda: dynamics.cat_map_check(CATMAP_N), check_catmap),
        Op("hausdorff_dimension_moran gauss2",
           lambda: dimension.hausdorff_dimension_moran(sets["gauss2"], MORAN_DEPTH),
           check_moran),
    ]
    sizes = {
        "max_period": SPECTRUM_PERIOD,
        "digit_bound": SPECTRUM_DIGITS,
        "k_alpha_calls": len(words),
        "prefix_lengths": [0, 3],
        "halfline_targets": targets,
        "halfline_depth": 8,
        "catmap_n": CATMAP_N,
        "moran_depth": MORAN_DEPTH,
    }
    return ops, sizes


OPS = {
    "scan": scan_ops,
    "sumset": sumset_ops,
    "certify": certify_ops,
    "spectra": spectra_ops,
}
