"""The cylinder-tree walk of cantor_core against an independent reference.

The reference enumerates admissible words recursively and maps the last
piece of each word through the composite of the inverse branches of the
earlier symbols.  It uses none of cantor_core's walks.  Exact sets compose Fractions and Moebius sets integer matrices,
so both sides must agree exactly: Fractions equal, floats to the bit.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from cantorlab import build_affine, builtin_names, contains, get_set, perturb_set, refine, refine_to_length
from cantorlab.cantor_core import _LengthWalk, maxlen_at_depth
from cantorlab.errors import BudgetExceeded
from conftest import exact_intervals

MAX_COVER = 5000  # largest reference cover built per check
DEPTHS = range(0, 11)


def _reference_leaves(K, split):
    """(interval, address) of every leaf of the tree cut by split(iv, word),
    sorted by left endpoint."""
    inverses = [b.inverse() for b in K.branches]
    out = []

    def walk(word, comp):
        # comp maps the piece of word[-1] onto the cylinder of `word`
        piece = K.pieces[word[-1]]
        iv = piece if comp is None else comp.apply_interval(piece)
        if not split(iv, word):
            out.append((iv, word))
            return
        inv = inverses[word[-1]]
        deeper = inv if comp is None else comp.compose(inv)
        for k in K.transitions[word[-1]]:
            walk(word + (k,), deeper)

    for j in range(K.n_pieces):
        walk((j,), None)
    out.sort(key=lambda item: float(item[0].lo))
    return out


@functools.lru_cache(maxsize=None)
def _reference_cover(name, n):
    return _reference_leaves(get_set(name), lambda iv, word: len(word) <= n)


def _cases():
    for name in builtin_names():
        K = get_set(name)
        for n in DEPTHS:
            if K.admissible_count(n) <= MAX_COVER:
                yield name, K, n


def _assert_same(cover, leaves, exact):
    # same-depth cylinders are disjoint: ends and depth name the word
    assert cover._leaves.depth.tolist() == [len(word) - 1 for _, word in leaves]
    ends = exact_intervals(cover)
    assert [(iv.lo, iv.hi) for iv in ends] == [(iv.lo, iv.hi) for iv, _ in leaves]
    kind = Fraction if exact else float
    assert all(type(iv.lo) is kind and type(iv.hi) is kind for iv in ends)
    # the float ends are the exact ones rounded once
    assert list(zip(cover.los.tolist(), cover.his.tolist())) == [(float(iv.lo), float(iv.hi)) for iv, _ in leaves]


def test_refine_matches_reference_on_every_catalog_set():
    seen = set()
    for name, K, n in _cases():
        seen.add(name)
        cover = refine(K, n)
        _assert_same(cover, _reference_cover(name, n), K.exact)
        assert cover.depth == n and set(cover._leaves.depth.tolist()) == {n}
    assert seen == set(builtin_names())


@pytest.mark.parametrize(
    "name, targets",
    [("gauss2", (3e-2, 1e-4, 1e-6)), ("gauss3", (3e-2, 1e-4, 2e-5)), ("gauss4", (3e-2, 1e-3, 3e-4))],
)
def test_refine_to_length_matches_reference_on_gauss_sets(name, targets):
    K = get_set(name)
    for target in targets:
        cover = refine_to_length(K, target)
        leaves = _reference_leaves(K, lambda iv, word: float(iv.length) > target)
        assert len(leaves) <= MAX_COVER
        _assert_same(cover, leaves, K.exact)
        depths = {len(word) - 1 for _, word in leaves}
        assert cover.depth == max(depths)
        assert set(cover._leaves.depth.tolist()) == depths
        assert len(depths) > 1  # mixed depths are what this test is for
        # the budget verdict depends on the finished leaf count only
        refine_to_length(K, target, budget=len(cover))
        with pytest.raises(BudgetExceeded):
            refine_to_length(K, target, budget=len(cover) - 1)


@pytest.mark.parametrize("name", ["unequal-affine", "perturbed-ternary", "gauss2"])
def test_a_length_target_fits_exactly_when_its_reference_cover_does(name):
    if name == "unequal-affine":
        K = build_affine([(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(1))], [(0, 1), (0, 1)])
    elif name == "perturbed-ternary":
        K = perturb_set(get_set("ternary"), 0.01, np.random.default_rng(23))
        assert not K.exact
    else:
        K = get_set(name)
    targets = [0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4]
    random.Random(23).shuffle(targets)
    leaves = {
        t: _reference_leaves(K, lambda iv, word, t=t: float(iv.length) > t) for t in targets
    }
    # budgets n - 1 and n for each reference leaf count n, each one walk
    # asked every target in the shuffled order
    for budget in sorted({len(ref) + k for ref in leaves.values() for k in (-1, 0)}):
        walk = _LengthWalk(K, budget)
        for t in targets:
            ref = leaves[t]
            assert walk.fits(t) == (len(ref) <= budget), (name, t, budget)
            if len(ref) <= budget:
                rows = walk.cover(t)
                assert rows[:, 2].tolist() == [float(iv.lo) for iv, _ in ref]
                assert rows[:, 3].tolist() == [float(iv.hi) for iv, _ in ref]
                assert rows[:, 0].tolist() == [float(iv.length) for iv, _ in ref]


def test_maxlen_at_depth_is_the_cover_maximum():
    for name, K, n in _cases():
        assert maxlen_at_depth(K, n) == max(iv.length for iv, _ in _reference_cover(name, n))


def test_contains_matches_guard_banded_covers():
    rng = random.Random(20240518)
    for name in builtin_names():
        K = get_set(name)
        n = max(d for d in range(7) if K.admissible_count(d) <= MAX_COVER)
        guard = 1e-12 * max(1.0, abs(float(K.hull.length)))
        covers = [[iv.as_floats() for iv, _ in _reference_cover(name, d)] for d in range(n + 1)]
        lo, hi = float(K.hull.lo), float(K.hull.hi)
        points = [rng.uniform(lo - 0.05, hi + 0.05) for _ in range(40)]
        for a, b in rng.sample(covers[n], 20):
            points += [a, b, (a + b) / 2]
        for x in points:
            excluded_at = next(
                (d for d, ivs in enumerate(covers) if not any(a - guard <= x <= b + guard for a, b in ivs)),
                None,
            )
            want = (True, n) if excluded_at is None else (False, excluded_at)
            got = contains(K, x, n)
            assert (got.in_cover, got.depth) == want, (name, x)
