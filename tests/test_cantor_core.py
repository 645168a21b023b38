"""Construction, validation, refinement, and serialization of Cantor sets."""

from __future__ import annotations

import bisect
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import random_affine_set

from cantorlab import (
    BudgetExceeded,
    ContractionViolation,
    Interval,
    NonContiguousTransitions,
    NonMixingTransitions,
    OverlappingPieces,
    QuadraticSurd,
    ValidationError,
    build_affine,
    contains,
    dump_set,
    gauss_cantor,
    get_set,
    load_set,
    perturb_set,
    refine,
    refine_to_length,
    resolve_budget,
    scale_affine,
    set_from_json,
    set_to_json,
)
from cantorlab import cantor_core
from cantorlab.cantor_core import _LengthWalk, maxlen_at_depth

F = Fraction


# ---------------------------------------------------------------------------
# construction and validation


def test_symmetric_thirds_structure(ternary):
    assert ternary.n_pieces == 2
    assert ternary.hull == Interval(F(0), F(1))
    assert ternary.is_affine
    assert ternary.transitions == ((0, 1), (0, 1))


def test_pieces_must_be_sorted_with_positive_gaps():
    with pytest.raises(OverlappingPieces):
        build_affine([(F(0), F(1, 2)), (F(1, 3), F(1))], [(0, 1), (0, 1)])
    with pytest.raises(OverlappingPieces):
        # touching endpoints leave no gap
        build_affine([(F(0), F(1, 2)), (F(1, 2), F(1))], [(0, 1), (0, 1)])
    with pytest.raises(OverlappingPieces):
        build_affine([(F(2, 3), F(1)), (F(0), F(1, 3))], [(0, 1), (0, 1)])


def test_transitions_must_be_mixing():
    with pytest.raises(NonMixingTransitions):
        build_affine([(F(0), F(1, 3)), (F(2, 3), F(1))], [(0,), (1,)])


def test_transition_targets_must_be_contiguous():
    with pytest.raises(NonContiguousTransitions):
        build_affine(
            [(F(0), F(1, 5)), (F(2, 5), F(3, 5)), (F(4, 5), F(1))],
            [(0, 2), (0, 1, 2), (0, 1, 2)],
        )


def test_branches_must_expand():
    # first piece is five times longer than its target block, so its
    # branch would contract; the transition graph itself is mixing
    with pytest.raises(ContractionViolation):
        build_affine(
            [(F(0), F(1, 2)), (F(3, 5), F(7, 10)), (F(4, 5), F(1))],
            [(1,), (0, 1, 2), (0, 1, 2)],
        )


def test_empty_transition_rejected():
    with pytest.raises(ValidationError):
        build_affine([(F(0), F(1, 3)), (F(2, 3), F(1))], [(), (0, 1)])


def test_single_piece_rejected():
    with pytest.raises(ValidationError):
        build_affine([(F(0), F(1))], [(0,)])


def test_non_full_transitions_accepted_when_mixing():
    K = build_affine(
        [(F(0), F(1, 5)), (F(2, 5), F(3, 5)), (F(4, 5), F(1))],
        [(0, 1), (0, 1, 2), (1, 2)],
    )
    assert K.transitions == ((0, 1), (0, 1, 2), (1, 2))
    assert K.n_pieces == 3
    assert refine(K, 3).depth == 3


# ---------------------------------------------------------------------------
# continued-fraction (Moebius) sets


def test_cf_digit_set_hull_is_exact_for_two_digits():
    K = gauss_cantor(2)
    # extremes are the 2-periodic continued fractions with digits 2,1
    y_min = QuadraticSurd.quadratic_root(2, 2, -1, branch=+1)  # digits 2,2,...
    y_max = (1 + y_min).inverse()
    lo, hi = K.hull.lo, K.hull.hi
    assert math.isclose(float(lo), float(y_min), rel_tol=0, abs_tol=1e-15)
    assert math.isclose(float(hi), float(y_max), rel_tol=0, abs_tol=1e-15)


def test_cf_digit_set_four_digit_hull():
    K = gauss_cantor(4)
    s2 = math.sqrt(2)
    assert float(K.hull.lo) == pytest.approx((s2 - 1) / 2, abs=1e-15)
    assert float(K.hull.hi) == pytest.approx(2 * (s2 - 1), abs=1e-15)


def test_cf_digit_set_pieces_sorted_and_within_hull():
    for bound in (2, 3, 4):
        K = gauss_cantor(bound)
        assert K.n_pieces == bound
        assert not K.is_affine
        pieces = K.pieces
        for left, right in zip(pieces, pieces[1:]):
            assert float(left.hi) < float(right.lo)
        assert float(pieces[0].lo) == pytest.approx(float(K.hull.lo), abs=1e-15)
        assert float(pieces[-1].hi) == pytest.approx(float(K.hull.hi), abs=1e-15)


def test_cf_digit_bound_must_be_at_least_two():
    with pytest.raises(ValidationError):
        gauss_cantor(1)


def test_moebius_branches_have_unit_determinant():
    K = gauss_cantor(3)
    for j in range(K.n_pieces):
        branch = K.inverses[j]
        assert abs(branch.det) == 1


# ---------------------------------------------------------------------------
# refinement


def test_refinement_counts_and_lengths(ternary):
    for n in range(0, 6):
        cover = refine(ternary, n)
        assert len(cover) == 2 ** (n + 1)
        assert cover.max_length == F(1, 3 ** (n + 1))
        assert {len(word) for word in cover.addresses} == {n + 1}


def test_maxlen_at_depth_on_unequal_affine_sets(monkeypatch):
    # a leaf below a node ending in the short piece C can outgrow the node
    # times the largest contraction: C's one child is C itself
    skewed = build_affine([(F(0), F(1, 10)), (F(2, 10), F(5, 10)), (F(9, 10), F(1))],
                          [(0, 1, 2), (0, 1, 2), (1,)])
    rng = random.Random(3)
    for K in [skewed] + [random_affine_set(rng) for _ in range(20)]:
        for n in range(6):
            assert maxlen_at_depth(K, n) == refine(K, n).max_length
    # on an equal-ratio set no node below the greedy path is split
    calls = []
    children = cantor_core._children
    # one call splits a batch of nodes: count the nodes
    monkeypatch.setattr(cantor_core, "_children", lambda K, nodes: calls.append(len(nodes)) or children(K, nodes))
    assert maxlen_at_depth(get_set("ternary"), 10) == F(1, 3**11)
    assert sum(calls) == 10


def test_cover_bounds_are_built_once_and_read_only(ternary):
    cover = refine(ternary, 5)
    for name, end in (("los", "lo"), ("his", "hi")):
        first = getattr(cover, name)
        assert getattr(cover, name) is first
        assert not first.flags.writeable
        assert first.tolist() == [float(getattr(iv, end)) for iv in cover.intervals]
        with pytest.raises(ValueError):
            first[0] = 0.0


def test_refinement_is_nested(ternary):
    coarse = refine(ternary, 2)
    fine = refine(ternary, 5)
    starts = coarse.los
    ends = coarse.his
    for lo, hi in zip(fine.los, fine.his):
        inside = ((starts <= lo + 1e-15) & (hi <= ends + 1e-15)).any()
        assert inside


def test_refinement_respects_budget(ternary):
    with pytest.raises(BudgetExceeded):
        refine(ternary, 40, budget=1000)


@pytest.mark.parametrize("env", [None, "12345", "not-a-number"])
def test_budget_default_ignores_the_environment(monkeypatch, env):
    # a budget comes from its argument or the one default, never from
    # the process environment
    if env is None:
        monkeypatch.delenv("CANTORLAB_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CANTORLAB_BUDGET", env)
    assert resolve_budget(None) == 2_000_000
    assert resolve_budget(99) == 99


def test_refine_to_length_hits_target(ternary):
    cover = refine_to_length(ternary, 0.01)
    assert float(cover.max_length) <= 0.01
    shallower = refine(ternary, cover.depth - 1)
    assert float(shallower.max_length) > 0.01


def _lengths_by_address(K, depth):
    """Float length of every cylinder of K down to `depth`, by address."""
    out = {}
    for d in range(depth + 1):
        cover = refine(K, d)
        out.update((addr, float(iv.length)) for addr, iv in zip(cover.addresses, cover.intervals))
    return out


@pytest.mark.parametrize("name", ["unequal-affine", "gauss2"])
def test_one_length_walk_answers_every_target(name):
    if name == "gauss2":
        K = gauss_cantor(2)
    else:
        K = build_affine([(F(0), F(1, 4)), (F(1, 2), F(1))], [(0, 1), (0, 1)])
    targets = [0.3, 0.1, 0.03, 0.01, 2e-3, 5e-4]
    random.Random(4).shuffle(targets)
    lengths = _lengths_by_address(K, max(refine_to_length(K, min(targets)).depth - 1, 0))

    def assert_answers(target, max_depth=64):
        # the rows are refine_to_length's intervals, and each row's parent
        # is the cylinder its address names (a root's parent is inf long)
        rows, cover = walk.cover(target), refine_to_length(K, target, max_depth=max_depth)
        assert rows[:, 3].tolist() == cover.los.tolist()
        assert rows[:, 4].tolist() == cover.his.tolist()
        assert rows[:, 1].tolist() == [lengths.get(addr[:-1], math.inf) for addr in cover.addresses]

    # a node at max_depth is never split, however long it is
    for max_depth in (64, 3):
        walk = _LengthWalk(K, max_depth, 2_000_000)
        for target in targets:
            assert_answers(target, max_depth)
    # a target fits exactly when its cover holds at most the budget's
    # intervals: with a budget one below each cover size, each target raises or answers by its own cover's size, in any order,
    # and coarser targets still answer from the walk after a refusal
    sizes = {t: len(refine_to_length(K, t)) for t in targets}
    for budget in sorted({n - 1 for n in sizes.values()}):
        walk = _LengthWalk(K, 64, budget)
        for target in targets + sorted(targets):
            if sizes[target] > budget:
                with pytest.raises(BudgetExceeded):
                    walk.cover(target)
                with pytest.raises(BudgetExceeded):
                    refine_to_length(K, target, budget=budget)
            else:
                assert_answers(target)


def test_gauss_cover_exactness_at_depth():
    # float evaluation happens last: depth-5 endpoints must match exact
    # Moebius-composition endpoints to full double precision
    K = gauss_cantor(2)
    cover = refine(K, 5)
    assert len(cover) == 2**6
    for lo, hi in zip(cover.los, cover.his):
        assert lo < hi
    total = float(np.sum(cover.his - cover.los))
    assert 0 < total < float(K.hull.length)


def test_membership_uses_cover(ternary):
    assert contains(ternary, F(1, 4), 8).in_cover  # 0.0202... base 3
    assert contains(ternary, F(1), 8).in_cover
    assert not contains(ternary, F(1, 2), 8).in_cover
    assert not contains(ternary, F(5), 2).in_cover


# ---------------------------------------------------------------------------
# the array engine against per-node walks


def _cylinder(K, word):
    """Interval of the cylinder `word`, its inverse branches composed one
    map at a time (in `Fraction`s on an exact set)."""
    comp = None
    for j in word[:-1]:
        comp = K.inverses[j] if comp is None else comp.compose(K.inverses[j])
    return K.pieces[word[-1]] if comp is None else comp.apply_interval(K.pieces[word[-1]])


def _words(K, n):
    """Admissible words of length n + 1, in lexicographic order."""
    words = [(j,) for j in range(K.n_pieces)]
    for _ in range(n):
        words = [w + (k,) for w in words for k in K.transitions[w[-1]]]
    return words


def test_float_covers_match_a_per_node_walk_bit_for_bit():
    skewed = build_affine([(F(0), F(1, 10)), (F(2, 10), F(5, 10)), (F(9, 10), F(1))],
                          [(0, 1, 2), (0, 1, 2), (1,)])
    rng = np.random.default_rng(8)
    for base in [get_set("ternary"), get_set("middle-fifth"), get_set("thin"), skewed] * 3:
        K = perturb_set(base, 0.01, rng)
        assert not K.exact
        for n in range(6):
            leaves = sorted(((_cylinder(K, w), w) for w in _words(K, n)), key=lambda item: item[0].lo)
            cover = refine(K, n)
            assert cover.addresses == tuple(w for _, w in leaves)
            assert cover.los.tolist() == [iv.lo for iv, _ in leaves]
            assert cover.his.tolist() == [iv.hi for iv, _ in leaves]
            assert cover.lengths.tolist() == [iv.hi - iv.lo for iv, _ in leaves]
            assert maxlen_at_depth(K, n) == max(iv.hi - iv.lo for iv, _ in leaves)


def test_exact_ends_stay_exact_past_int64():
    # at depth 40 numerators and denominators pass 2^63 (3^41 > 2^64)
    ternary = get_set("ternary")
    assert maxlen_at_depth(ternary, 40) == F(1, 3**41)
    assert cantor_core._greedy_length(ternary, 40) == F(1, 3**41)
    K = build_affine([(F(0), F(1, 4)), (F(1, 2), F(1))], [(0, 1), (0, 1)])
    assert maxlen_at_depth(K, 40) == cantor_core._greedy_length(K, 40) == _cylinder(K, (1,) * 41).length
    rng = random.Random(5)
    for word in [tuple(rng.randrange(2) for _ in range(41)) for _ in range(20)] + [(0,) * 41]:
        node = cantor_core._roots(K).take([word[0]])
        for k in word[1:]:
            kids = cantor_core._children(K, node)
            node = kids.take(kids.last == k)
        lo, hi, den = (int(x[0]) for x in node.nums)
        assert den > 2**63
        iv = _cylinder(K, word)
        assert (F(lo, den), F(hi, den)) == (iv.lo, iv.hi)
        # each float rounds its exact value once
        assert (node.lo[0], node.hi[0], node.lengths[0]) == (float(iv.lo), float(iv.hi), float(iv.length))
    # membership at depth 40: a point of the set stays in the cover, and a
    # point of a depth-21 gap wider than the guard band leaves it there
    assert contains(ternary, F(1, 4), 40) == cantor_core.MembershipResult(True, 40)
    gap = _cylinder(ternary, (0,) * 21 + (1,)).lo - F(1, 2 * 3**22)
    assert contains(ternary, gap, 40) == cantor_core.MembershipResult(False, 21)


def test_membership_walks_within_the_cover_budget(monkeypatch, ternary):
    # below the guard band a node whose ends are both near x has only near
    # descendants, so the walk stops there: it never doubles to the budget
    splits = []
    children = cantor_core._children

    def counted(K, nodes):
        splits.append(len(nodes))
        assert sum(splits) < 200_000, "the walk split far past the budget"
        return children(K, nodes)

    monkeypatch.setattr(cantor_core, "_children", counted)
    start = time.perf_counter()
    assert contains(ternary, F(1, 4), 60) == cantor_core.MembershipResult(True, 60)
    assert sum(splits) < 100
    assert contains(ternary, F(1, 4), 1000) == cantor_core.MembershipResult(True, 1000)
    assert time.perf_counter() - start < 1.0
    # a walk whose near cylinders pass the cover budget still raises
    monkeypatch.setattr(cantor_core, "DEFAULT_COVER_BUDGET", 3)
    with pytest.raises(BudgetExceeded):
        contains(ternary, F(1, 4), 60)


def test_membership_refuses_a_point_that_is_not_finite_and_a_negative_depth(ternary):
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            contains(ternary, x, 3)
    with pytest.raises(ValidationError):
        contains(ternary, F(1, 4), -1)


def test_a_budget_is_refused_before_the_walk(monkeypatch):
    # every depth-d ternary node is 3^-(d+1) long, so a 1e-13 cover holds
    # 2^28 intervals: refused with no node split
    splits = []
    children = cantor_core._children
    monkeypatch.setattr(cantor_core, "_children", lambda K, nodes: splits.append(len(nodes)) or children(K, nodes))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        refine_to_length(get_set("ternary"), 1e-13, budget=200_000)
    assert time.perf_counter() - start < 1.0 and sum(splits) == 0
    # the bound never passes the cover it bounds
    rng = random.Random(12)
    for K in [random_affine_set(rng) for _ in range(30)] + [get_set("thin")]:
        walk = _LengthWalk(K, 64, 2_000_000)
        for target in (0.2, 0.05, 1e-2, 3e-3, 1e-3):
            assert walk.least(target) <= len(walk.cover(target)) == len(refine_to_length(K, target))
        assert _LengthWalk(K, 3, 10**9).least(1e-9) == K.admissible_count(3)


# ---------------------------------------------------------------------------
# affine rescaling and perturbation


def test_scale_affine_moves_hull_exactly(ternary):
    K = scale_affine(ternary, F(3), F(7))
    assert K.hull == Interval(F(7), F(10))
    cover = refine(K, 3)
    base = refine(ternary, 3)
    assert np.allclose(cover.los, 3 * base.los + 7, rtol=0, atol=1e-12)


def test_scale_affine_with_negative_factor_reverses(ternary):
    K = scale_affine(ternary, F(-1), F(0))
    assert K.hull == Interval(F(-1), F(0))
    assert refine(K, 2).depth == 2


def test_scale_affine_rejects_zero_factor(ternary):
    with pytest.raises(ValidationError):
        scale_affine(ternary, 0, 1)


def test_perturb_set_stays_within_radius_and_validates(ternary):
    rng = np.random.default_rng(7)
    for _ in range(10):
        K = perturb_set(ternary, 0.01, rng)
        for piece, original in zip(K.pieces, ternary.pieces):
            assert abs(float(piece.lo) - float(original.lo)) <= 0.01 + 1e-12
            assert abs(float(piece.hi) - float(original.hi)) <= 0.01 + 1e-12
        refine(K, 3)  # still a valid construction


# ---------------------------------------------------------------------------
# serialization


def test_affine_round_trip_preserves_covers(tmp_path, ternary):
    doc = set_to_json(ternary)
    clone = set_from_json(json.loads(json.dumps(doc)))
    a = refine(ternary, 4)
    b = refine(clone, 4)
    assert np.array_equal(a.los, b.los)
    assert np.array_equal(a.his, b.his)

    path = tmp_path / "set.json"
    dump_set(ternary, path)
    assert np.array_equal(refine(load_set(path), 4).los, a.los)


def test_moebius_round_trip_preserves_covers(tmp_path):
    K = gauss_cantor(3)
    path = tmp_path / "cf3.json"
    dump_set(K, path)
    clone = load_set(path)
    a, b = refine(K, 4), refine(clone, 4)
    assert np.array_equal(a.los, b.los)
    assert np.array_equal(a.his, b.his)
    assert clone.hull == K.hull


def test_set_from_json_rejects_malformed_documents():
    with pytest.raises(ValidationError):
        set_from_json({"kind": "nonsense"})


def test_moebius_branch_from_a_file_must_expand_on_its_whole_piece():
    # both branches map their piece onto [0, 1], but the first has
    # |f'(0)| = 1 / (-2*0 + 1)^2 = 1 at the left end of its piece
    doc = {
        "pieces": [["0", "1/3"], ["2/3", "1"]],
        "transitions": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "branches": [
            {"kind": "moebius", "matrix": [[1, 0], [-2, 1]]},
            {"kind": "moebius", "matrix": [[3, -2], [2, -1]]},
        ],
    }
    with pytest.raises(ContractionViolation) as err:
        set_from_json(doc)
    assert str(err.value) == "branch 0 expansion bound 1.0 is not > 1"


def test_every_constructor_runs_each_check_once(tmp_path, monkeypatch):
    from cantorlab import cantor_core

    path = tmp_path / "cf2.json"
    dump_set(gauss_cantor(2), path)
    checks = ("_check_pieces", "_check_transitions", "_check_branch_images")
    calls = {}
    for name in checks:
        def counted(*args, _check=getattr(cantor_core, name), _name=name, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(cantor_core, name, counted)
    for build in (lambda: get_set("middle-fifth"), lambda: gauss_cantor(4), lambda: load_set(path)):
        calls.update(dict.fromkeys(checks, 0))
        build()
        assert calls == dict.fromkeys(checks, 1)


def _ordered_gaps_by_barriers(hull, gaps):
    """The reference order: the ends of every removed gap go into a sorted
    list of barriers, and a gap's bridges end at its neighbours there."""

    def key(x):
        return float(x), x

    barriers = [key(hull[0]), key(hull[1])]
    for gap in sorted(gaps, key=lambda g: key(g[0] - g[1])):
        lo = key(gap[0])
        i = bisect.bisect_right(barriers, lo)
        yield gap, barriers[i - 1][1], barriers[i][1]
        bisect.insort(barriers, lo)
        bisect.insort(barriers, key(gap[1]))


@pytest.mark.parametrize("exact", [True, False])
def test_ordered_gaps_match_the_barrier_list(exact):
    # few distinct lengths give many ties; a length 10^-20 above another
    # ties with it in floats and is longer in exact arithmetic
    rng = random.Random(5)
    for _ in range(400):
        x, gaps = F(0), []
        for j in range(rng.randrange(1, 40)):
            x += rng.choice((1, 2, 3))
            length = rng.choice((1, 2, 3)) + rng.choice((0, 0, F(1, 10**20)))
            gaps.append((x, x + length, j))
            x += length
        hull = (F(0), x + rng.choice((1, 2, 3)))
        if not exact:
            hull = tuple(map(float, hull))
            gaps = [(float(lo), float(hi), j) for lo, hi, j in gaps]
        got = list(cantor_core._ordered_gaps(hull, gaps))
        assert got == list(_ordered_gaps_by_barriers(hull, gaps))


def test_builtin_catalog_names_resolve():
    from cantorlab import builtin_names

    for name in builtin_names():
        K = get_set(name)
        assert K.n_pieces >= 2


def test_get_set_error_lists_known_names():
    from cantorlab import ConfigInvalid

    with pytest.raises(ConfigInvalid, match="ternary"):
        get_set("no-such-set")


def test_get_set_parses_cf_family_names():
    assert get_set("gauss3").n_pieces == 3
    assert get_set("gauss(5)").n_pieces == 5
