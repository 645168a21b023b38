"""Regular Cantor sets on the line, defined by expanding Markov maps.

A set is described by finitely many closed pieces I_1 < ... < I_r with
positive gaps, a transition relation, and for each piece an expanding
branch (affine or Moebius) mapping the piece onto the convex hull of its
transition targets.  The attractor is the set of points whose full
forward orbit stays inside the pieces; depth-n covers are the connected
components of the n-th preimage of the piece union.  `RegularCantorSet`
holds exactly these three things, `pieces`, `transitions` and
`branches`, plus an `exact` flag and free-form `meta`.

Every question about the cylinder tree is answered by one walk.  A node
holds the composite of inverse branches along its address and its
interval; one child step composes that with the set's precomputed
inverse branch of the last symbol and applies it to each target piece.
`_expand` expands the tree level by level, splitting every node for
which a split rule holds, and each caller is its rule:
`refine` splits by depth, `refine_to_length` by length up to a maximum
depth, `maxlen_at_depth` splits only nodes longer than the depth-n leaf
a greedy descent finds, and `contains` splits the cylinders within a
guard band of the point.

Exactness policy: affine data given as integers or fractions is kept in
rational arithmetic all the way through cover construction, so cover
endpoints are exact.  Moebius branches are composed as integer 2x2
matrices and evaluated in floating point only when an endpoint is
finally produced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .errors import (
    BudgetExceeded,
    ContractionViolation,
    NonAffineInput,
    NonContiguousTransitions,
    NonMixingTransitions,
    OverlappingPieces,
    PrecisionLoss,
    ValidationError,
)
from .surd import QuadraticSurd

Num = Union[int, float, Fraction]
Exact = Union[Fraction, QuadraticSurd]

TAU_MARKOV = 1e-9       # relative tolerance for floating Markov validation
EPS_LEN = 1e-14         # interval-length floor for covers
DEFAULT_COVER_BUDGET = 2_000_000


def resolve_budget(budget: int | None) -> int:
    return DEFAULT_COVER_BUDGET if budget is None else int(budget)


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True, order=False)
class Interval:
    """Closed interval [lo, hi] with lo <= hi.  Endpoints may be exact."""

    lo: Num
    hi: Num

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValidationError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def length(self) -> Num:
        return self.hi - self.lo

    def as_floats(self) -> tuple[float, float]:
        return float(self.lo), float(self.hi)

    def scaled(self, a: Num, b: Num) -> "Interval":
        x, y = a * self.lo + b, a * self.hi + b
        return Interval(min(x, y), max(x, y))


# ---------------------------------------------------------------------------
# branch maps


@dataclass(frozen=True)
class AffineMap:
    """x -> slope*x + offset."""

    slope: Num
    offset: Num

    def apply(self, x: Num) -> Num:
        return self.slope * x + self.offset

    def apply_interval(self, iv: Interval) -> Interval:
        a, b = self.apply(iv.lo), self.apply(iv.hi)
        return Interval(a, b) if a <= b else Interval(b, a)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        return AffineMap(self.slope * inner.slope, self.slope * inner.offset + self.offset)

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.slope, -self.offset / self.slope)

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(Fraction(1), Fraction(0))


@dataclass(frozen=True)
class MoebiusMap:
    """x -> (a*x + b) / (c*x + d) with integer coefficients."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, x: Num) -> Num:
        return (self.a * x + self.b) / (self.c * x + self.d)

    def apply_interval(self, iv: Interval) -> Interval:
        # valid when the pole -d/c is outside [lo, hi]; true for all maps
        # produced by admissible branch compositions on their own domains
        lo, hi = float(iv.lo), float(iv.hi)
        u, v = self.apply(lo), self.apply(hi)
        return Interval(u, v) if u <= v else Interval(v, u)

    def compose(self, inner: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * inner.a + self.b * inner.c,
            self.a * inner.b + self.b * inner.d,
            self.c * inner.a + self.d * inner.c,
            self.c * inner.b + self.d * inner.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1, 0, 0, 1)


MapLike = Union[AffineMap, MoebiusMap]


# ---------------------------------------------------------------------------
# sets


@dataclass(frozen=True)
class RegularCantorSet:
    """Markov pieces, their transition rows, and each piece's forward branch.

    `branches[j]` maps `pieces[j]` onto the convex hull of the pieces in
    `transitions[j]`.  Affine branches are built by `build_affine` and
    are increasing; Moebius branches may reverse orientation.
    """

    pieces: tuple[Interval, ...]
    transitions: tuple[tuple[int, ...], ...]
    branches: tuple[MapLike, ...]
    exact: bool
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    @property
    def hull(self) -> Interval:
        return Interval(self.pieces[0].lo, self.pieces[-1].hi)

    @property
    def is_affine(self) -> bool:
        return all(isinstance(b, AffineMap) for b in self.branches)

    @cached_property
    def inverses(self) -> tuple[MapLike, ...]:
        """Inverse branch of each piece, computed once per set."""
        return tuple(b.inverse() for b in self.branches)

    @cached_property
    def _gap_bounds(self) -> tuple[Exact, Exact] | None:
        """(tau, rho), exact, or None; see `_thickness_bounds`.  Computed
        on first use, never when the set is built."""
        return _thickness_bounds(self)

    def admissible_count(self, n: int, cap: int | None = None) -> int:
        """Exact number of admissible words of length n+1 (cap-aware)."""
        counts = [1] * self.n_pieces
        for _ in range(n):
            counts = [sum(counts[k] for k in ts) for ts in self.transitions]
            if cap is not None and sum(counts) > cap:
                return cap + 1
        return sum(counts)


# ---------------------------------------------------------------------------
# validation


def _check_pieces(pieces: Sequence[Interval]) -> None:
    for p in pieces:
        if not p.length > 0:
            raise OverlappingPieces(f"piece {p} has zero length")
    for left, right in zip(pieces, pieces[1:]):
        if not left.hi < right.lo:
            raise OverlappingPieces(
                f"pieces must be sorted with positive gaps: {left} then {right}"
            )


def _check_transitions(transitions: Sequence[Sequence[int]], r: int) -> tuple[tuple[int, ...], ...]:
    if len(transitions) != r:
        raise ValidationError(f"expected {r} transition rows, got {len(transitions)}")
    rows = []
    for j, ts in enumerate(transitions):
        ts = tuple(sorted(set(int(t) for t in ts)))
        if not ts:
            raise ValidationError(f"piece {j} has no transitions")
        if ts[0] < 0 or ts[-1] >= r:
            raise ValidationError(f"piece {j} transition targets out of range: {ts}")
        if ts != tuple(range(ts[0], ts[-1] + 1)):
            raise NonContiguousTransitions(
                f"piece {j} targets {ts} are not a contiguous block"
            )
        rows.append(ts)
    # primitivity: some power of the transition matrix must be positive;
    # r*r powers suffice for a primitive 0/1 matrix of size r
    reach = [set(ts) for ts in rows]
    current = [set(ts) for ts in rows]
    for _ in range(r * r):
        if all(len(row) == r for row in current):
            return tuple(rows)
        current = [set().union(*(reach[k] for k in row)) for row in current]
    raise NonMixingTransitions("no power of the transition matrix is strictly positive")


def _check_branch_images(
    pieces: Sequence[Interval],
    transitions: Sequence[tuple[int, ...]],
    branches: Sequence[MapLike],
    exact: bool,
) -> None:
    scale = float(pieces[-1].hi - pieces[0].lo)
    for j, br in enumerate(branches):
        ts = transitions[j]
        hull = Interval(pieces[ts[0]].lo, pieces[ts[-1]].hi)
        image = br.apply_interval(pieces[j])
        if exact:
            if image.lo != hull.lo or image.hi != hull.hi:
                raise ValidationError(
                    f"branch {j} image {image} differs from target hull {hull}"
                )
        else:
            tol = TAU_MARKOV * max(1.0, scale)
            if abs(float(image.lo) - float(hull.lo)) > tol or abs(
                float(image.hi) - float(hull.hi)
            ) > tol:
                raise ValidationError(
                    f"branch {j} image {image.as_floats()} misses target hull "
                    f"{hull.as_floats()} beyond tolerance {tol}"
                )


# ---------------------------------------------------------------------------
# constructors


def _to_exact_or_float(x: Num) -> Num:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


def build_affine(
    pieces: Sequence[tuple[Num, Num] | Interval],
    transitions: Sequence[Sequence[int]],
) -> RegularCantorSet:
    """Build an affine regular Cantor set from pieces and a transition relation.

    Each branch is the unique orientation-preserving affine map taking its
    piece onto the convex hull of its transition targets.  Rational input
    endpoints give an exact set.
    """
    ivs = []
    exact = True
    for p in pieces:
        lo, hi = (p.lo, p.hi) if isinstance(p, Interval) else p
        lo, hi = _to_exact_or_float(lo), _to_exact_or_float(hi)
        exact = exact and isinstance(lo, Fraction) and isinstance(hi, Fraction)
        ivs.append(Interval(lo, hi))
    _check_pieces(ivs)
    rows = _check_transitions(transitions, len(ivs))
    branches = []
    for j, piece in enumerate(ivs):
        ts = rows[j]
        hull = Interval(ivs[ts[0]].lo, ivs[ts[-1]].hi)
        slope = hull.length / piece.length if exact else float(hull.length) / float(piece.length)
        if not slope > 1:
            raise ContractionViolation(
                f"branch {j} slope {slope} is not > 1; target hull no longer than piece"
            )
        branches.append(AffineMap(slope, hull.lo - slope * piece.lo))
    _check_branch_images(ivs, rows, branches, exact)
    return RegularCantorSet(tuple(ivs), rows, tuple(branches), exact)


def _gauss_hull_surds(n: int) -> tuple[QuadraticSurd, QuadraticSurd]:
    """Exact hull endpoints [0; n,1,n,1,...] and [0; 1,n,1,n,...] of the
    continued-fraction set with partial quotients in 1..n."""
    # y_min solves n*y^2 + n*y - 1 = 0
    y_min = QuadraticSurd.quadratic_root(n, n, -1, branch=+1)
    return y_min, (QuadraticSurd.from_rational(1) + y_min).inverse()


def gauss_cantor(digit_bound: int) -> RegularCantorSet:
    """Continued-fraction Cantor set with partial quotients in 1..digit_bound.

    Pieces are the convex hulls of the first-digit cylinders; the branch
    on cylinder a is x -> 1/x - a, which is orientation reversing.  The
    hull endpoints are the exact 2-cycle values [0; N,1,N,1,...] and
    [0; 1,N,1,N,...]; for digit_bound = 1 the system degenerates to the
    single golden-mean point, so values below 2 are rejected.
    """
    n = int(digit_bound)
    if n < 2:
        raise ValidationError("digit bound must be >= 2; one symbol gives a single point")
    y_min, y_max = _gauss_hull_surds(n)
    pieces = []
    branches = []
    # digit-a cylinder sits left of digit-(a-1): iterate high digit first
    # so pieces come out position-sorted
    for a in range(n, 0, -1):
        lo_s = (QuadraticSurd.from_rational(a) + y_max).inverse()
        hi_s = (QuadraticSurd.from_rational(a) + y_min).inverse()
        pieces.append(Interval(float(lo_s), float(hi_s)))
        branches.append(MoebiusMap(-a, 1, 1, 0))  # x -> (1 - a x)/x = 1/x - a
    _check_pieces(pieces)
    rows = _check_transitions([range(n)] * n, n)
    _check_branch_images(pieces, rows, branches, exact=False)
    meta = {"digit_bound": n, "hull_min_surd": y_min, "hull_max_surd": y_max}
    return RegularCantorSet(tuple(pieces), rows, tuple(branches), exact=False, meta=meta)


def scale_affine(K: RegularCantorSet, a: Num, b: Num) -> RegularCantorSet:
    """Return the affine image a*K + b (a != 0).  Affine sets only."""
    if not K.is_affine:
        raise NonAffineInput("affine rescaling is defined for affine sets only")
    if a == 0:
        raise ValidationError("scale factor must be nonzero")
    a = _to_exact_or_float(a)
    b = _to_exact_or_float(b)
    r = K.n_pieces
    new_pieces = [p.scaled(a, b) for p in K.pieces]
    if a < 0:
        new_pieces = new_pieces[::-1]
        remap = lambda j: r - 1 - j
    else:
        remap = lambda j: j
    new_transitions: list[tuple[int, ...]] = [()] * r
    for j, ts in enumerate(K.transitions):
        new_transitions[remap(j)] = tuple(sorted(remap(t) for t in ts))
    return build_affine(new_pieces, new_transitions)


# ---------------------------------------------------------------------------
# ordered gaps and proved thickness bounds


def _ordered_gaps(hull: tuple, gaps: list[tuple]) -> Iterator[tuple]:
    """Newhouse's ordered gaps: yield (gap, left, right) for each gap of
    `gaps` (tuples starting (g_lo, g_hi), sorted left to right inside
    `hull`), removed largest first with ties left to right.  The bridges
    of a gap run from `left` to g_lo and from g_hi to `right`, the
    nearest ends of gaps removed before it or of the hull: the nearest
    gap to the left at least as long, to the right strictly longer, both
    found in one monotone-stack pass.  Lengths are compared in the
    endpoints' own arithmetic."""
    # keys of the negated lengths as (float, exact) pairs: rounding is
    # monotone, so only float ties compare in exact arithmetic
    keys = [(float(g[0] - g[1]), g[0] - g[1]) for g in gaps]
    left, right = [hull[0]] * len(gaps), [hull[1]] * len(gaps)
    stack: list[int] = []
    for j, k in enumerate(keys):
        while stack and keys[stack[-1]] > k:
            right[stack.pop()] = gaps[j][0]
        if stack:
            left[j] = gaps[stack[-1]][1]
        stack.append(j)
    for j in sorted(range(len(gaps)), key=keys.__getitem__):
        yield gaps[j], left[j], right[j]


def _presentation_bounds(
    hull: tuple[Exact, Exact], parts: list[tuple[Exact, Exact]], poles: tuple[int, int] | None
) -> tuple[Exact, Exact]:
    """Thickness lower bound and gap-to-hull upper bound of one cylinder
    whose children are `parts` (exact, sorted) inside `hull`.

    The gaps between the children are taken in `_ordered_gaps`' order;
    any order of removal bounds the Newhouse thickness from below.
    `poles` = (s_lo, s_hi) also bounds every image of the cylinder under
    a map x -> 1/(s + x) (up to an affine factor) with pole distance s
    in [s_lo, s_hi]: an image interval [u, v] has length proportional to
    (v - u) / ((s + u)(s + v)), so a bridge over its adjacent gap scales
    by a factor monotone in s, and the extremes at s_lo, s_hi and
    s = inf (the cylinder itself) bound it.
    """
    h_lo, h_hi = hull
    gaps = [(left[1], right[0]) for left, right in zip(parts, parts[1:])]
    tau, rho = None, Fraction(0)
    for (g_lo, g_hi), left, right in _ordered_gaps(hull, gaps):
        gap = g_hi - g_lo
        ratios = [(g_lo - left) / gap, (right - g_hi) / gap]
        spread = 1
        if poles is not None:
            for s in poles:
                ratios += [ratios[0] * (s + g_hi) / (s + left), ratios[1] * (s + g_lo) / (s + right)]
            # (s+h_lo)/(s+g_lo) rises and (s+h_hi)/(s+g_hi) falls with s
            s_lo, s_hi = poles
            spread = max(spread, (s_hi + h_lo) / (s_hi + g_lo) * (s_lo + h_hi) / (s_lo + g_hi))
        tau = min(ratios if tau is None else [tau, *ratios])
        rho = max(rho, gap / (h_hi - h_lo) * spread)
    return tau, rho


def _thickness_bounds(K: RegularCantorSet) -> tuple[Exact, Exact] | None:
    """(tau, rho) holding in every cylinder of K: the limit set inside a
    cylinder I has Newhouse thickness >= tau and no gap longer than
    rho*|I|.  None for a float affine set or a Moebius set other than
    `gauss_cantor`'s.

    Every gap of K lies between two children of exactly one cylinder, so
    it suffices to bound each cylinder's children.  Exact affine sets:
    the children of a cylinder ending in piece j are an affine image of
    the children of piece j, so the bounds are the extremes over the hull
    and the r pieces.  `gauss<N>`: a depth-k cylinder is the image of the
    hull's configuration under x -> [0; a1, ..., ak + x], whose pole lies
    at distance q_k/q_(k-1) in [1, N+1] (inf at depth 0).
    """
    if K.is_affine:
        if not K.exact:
            return None
        configs = [((K.hull.lo, K.hull.hi), [(p.lo, p.hi) for p in K.pieces])]
        for j, piece in enumerate(K.pieces):
            kids = [K.inverses[j].apply_interval(K.pieces[k]) for k in K.transitions[j]]
            configs.append(((piece.lo, piece.hi), [(iv.lo, iv.hi) for iv in kids]))
        poles = None
    elif "digit_bound" in K.meta:
        y_min, y_max = K.meta["hull_min_surd"], K.meta["hull_max_surd"]
        # the inverse branches x -> 1/(a + x) reverse orientation
        parts = [(m.apply(y_max), m.apply(y_min)) for m in K.inverses]
        configs = [((y_min, y_max), parts)]
        poles = (1, K.meta["digit_bound"] + 1)
    else:
        return None
    bounds = [_presentation_bounds(hull, parts, poles) for hull, parts in configs if len(parts) > 1]
    return min(t for t, _ in bounds), max(r for _, r in bounds)


# ---------------------------------------------------------------------------
# covers


def _readonly_floats(values) -> np.ndarray:
    out = np.array([float(v) for v in values], dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Cover:
    """Depth-n construction cover: sorted disjoint intervals with addresses.

    `uniform` is True when every interval sits at exactly `depth`
    subdivisions; length-balanced refinement produces mixed depths, in
    which case `depth` is the deepest one used.
    """

    depth: int
    intervals: tuple[Interval, ...]
    addresses: tuple[tuple[int, ...], ...]
    uniform: bool = True

    def __len__(self) -> int:
        return len(self.intervals)

    # built once per cover, read-only because every holder shares them
    @cached_property
    def los(self) -> np.ndarray:
        return _readonly_floats(iv.lo for iv in self.intervals)

    @cached_property
    def his(self) -> np.ndarray:
        return _readonly_floats(iv.hi for iv in self.intervals)

    @property
    def lengths(self) -> np.ndarray:
        return self.his - self.los

    @property
    def max_length(self) -> Num:
        return max(iv.length for iv in self.intervals)


# A node of the cylinder tree: (last symbol, composite of inverse branches,
# address, interval).  The interval is the composite applied to the piece
# of the last symbol; the roots are the pieces themselves.  A node at
# depth d has an address of length d + 1.
_Node = tuple[int, MapLike, tuple[int, ...], Interval]


def _roots(K: RegularCantorSet) -> list[_Node]:
    identity = AffineMap.identity() if K.is_affine else MoebiusMap.identity()
    return [(j, identity, (j,), K.pieces[j]) for j in range(K.n_pieces)]


def _children(K: RegularCantorSet, node: _Node) -> list[_Node]:
    """Child cylinders of a node, in transition order."""
    last, comp, addr, _iv = node
    deeper = comp.compose(K.inverses[last])
    return [(k, deeper, addr + (k,), deeper.apply_interval(K.pieces[k])) for k in K.transitions[last]]


def _expand(K: RegularCantorSet, split: Callable[[_Node], bool], limit: float) -> list[_Node]:
    """Leaves of the cylinder tree cut by `split`, expanded level by level.

    Every frontier node for which split(node) holds is replaced by its
    children; the others become leaves.  Every node has at least one
    child, so leaves plus frontier never shrink, and passing `limit`
    after some level means the finished cover passes it too.
    """
    leaves: list[_Node] = []
    frontier = _roots(K)
    while frontier:
        deeper: list[_Node] = []
        for node in frontier:
            if split(node):
                deeper.extend(_children(K, node))
            else:
                leaves.append(node)
        frontier = deeper
        if len(leaves) + len(frontier) > limit:
            raise BudgetExceeded(f"cover needs more than {limit} intervals (budget)")
    return leaves


def _sorted_cover(leaves: list[_Node], what: str) -> Cover:
    if any(float(iv.length) < EPS_LEN for _, _, _, iv in leaves):
        raise PrecisionLoss(f"{what} has intervals below the length floor {EPS_LEN}")
    leaves.sort(key=lambda node: float(node[3].lo))
    depths = {len(addr) - 1 for _, _, addr, _ in leaves}
    return Cover(
        depth=max(depths),
        intervals=tuple(iv for _, _, _, iv in leaves),
        addresses=tuple(addr for _, _, addr, _ in leaves),
        uniform=len(depths) == 1,
    )


def refine(K: RegularCantorSet, n: int, *, budget: int | None = None) -> Cover:
    """Depth-n cover of K.  Intervals are sorted by left endpoint.

    Raises BudgetExceeded when the admissible word count passes the
    configured budget and PrecisionLoss when any produced interval is
    shorter than `EPS_LEN`.
    """
    if n < 0:
        raise ValidationError("depth must be >= 0")
    limit = resolve_budget(budget)
    count = K.admissible_count(n, cap=limit)
    if count > limit:
        raise BudgetExceeded(f"depth-{n} cover needs {count}+ intervals, budget {limit}")
    return _sorted_cover(_expand(K, lambda node: len(node[2]) <= n, limit), f"depth-{n} cover")


def _check_target_length(target_length: float) -> None:
    if target_length < EPS_LEN:
        raise PrecisionLoss(f"target length {target_length} below floor {EPS_LEN}")


def _length_cover(
    K: RegularCantorSet, target_length: float, max_depth: int, budget: int | None
) -> tuple[Cover, float, float]:
    """`refine_to_length` with the range [lo, hi) of targets that split the
    same nodes: lo is the longest leaf that stopped for being short enough
    (at least EPS_LEN), hi the shortest node split (inf if none was)."""
    _check_target_length(target_length)
    lo, hi = EPS_LEN, math.inf

    def split(node: _Node) -> bool:
        nonlocal lo, hi
        length = float(node[3].length)
        if length <= target_length:
            lo = max(lo, length)
            return False
        if len(node[2]) > max_depth:
            return False
        hi = min(hi, length)
        return True

    leaves = _expand(K, split, resolve_budget(budget))
    return _sorted_cover(leaves, "length-balanced cover"), lo, hi


def refine_to_length(
    K: RegularCantorSet,
    target_length: float,
    *,
    max_depth: int = 64,
    budget: int | None = None,
) -> Cover:
    """Subdivide until every interval has length <= target_length.

    Depth is balanced by size rather than by count, so heterogeneous
    branch contractions produce mixed-depth covers.  On sets with equal
    contraction everywhere the result coincides with a plain depth-n
    cover.
    """
    return _length_cover(K, target_length, max_depth, budget)[0]


def maxlen_at_depth(K: RegularCantorSet, n: int) -> Num:
    """Exact maximum interval length of the depth-n cover.

    A greedy descent to the longest child gives one depth-n length; a
    node no longer than that cannot hold a longer leaf, so only longer
    nodes are split and almost all of the tree is skipped.  On an exact
    affine set a depth-n leaf below a depth-k node ending in piece j is
    at most |node| * c^(n-k) * max|P| / |P_j| long, c the largest
    inverse-branch slope; a node whose bound does not pass the greedy
    length is skipped too, so equal-ratio sets split no node at all.
    """
    if n < 0:
        raise ValidationError("depth must be >= 0")
    node = max(_roots(K), key=lambda c: c[3].length)
    for _ in range(n):
        node = max(_children(K, node), key=lambda c: c[3].length)
    bound = node[3].length
    grows = None
    if K.exact:
        c = max(m.slope for m in K.inverses)
        longest = max(p.length for p in K.pieces)
        reach = [c ** (n - k) * longest for k in range(n + 1)]
        # how far a leaf below a node ending in piece j outgrows the node,
        # by the node's depth k
        grows = [[r / p.length for r in reach] for p in K.pieces]

    def split(node: _Node) -> bool:
        last, _, addr, iv = node
        if len(addr) > n or iv.length <= bound:
            return False
        return grows is None or iv.length * grows[last][len(addr) - 1] > bound

    leaves = _expand(K, split, math.inf)
    return max([bound] + [iv.length for _, _, addr, iv in leaves if len(addr) == n + 1])


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a depth-bounded membership test.

    in_cover=False means x cleared every interval of the depth-`depth`
    cover by more than the guard band: a certificate of exclusion.
    in_cover=True means x stayed inside the cover down to depth `depth`,
    which is evidence of membership only.
    """

    in_cover: bool
    depth: int


def contains(K: RegularCantorSet, x: Num, n: int) -> MembershipResult:
    """Locate x against covers of depth 0..n.

    The guard band errs on the side of membership so that floating
    rounding can never produce a false exclusion certificate.
    """
    xf = float(x)
    guard = 1e-12 * max(1.0, abs(float(K.hull.length)))

    def near(node: _Node) -> bool:
        lo, hi = node[3].as_floats()
        return lo - guard <= xf <= hi + guard

    leaves = _expand(K, lambda node: near(node) and len(node[2]) <= n, math.inf)
    if any(near(node) for node in leaves):
        return MembershipResult(True, n)
    return MembershipResult(False, max(len(node[2]) for node in leaves) - 1)


# ---------------------------------------------------------------------------
# serialization


def _num_to_json(x: Num):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    return float(x)


def _num_from_json(v) -> Num:
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):
        raise ValidationError("booleans are not interval endpoints")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise ValidationError(f"cannot parse number {v!r}")


def set_to_json(K: RegularCantorSet) -> dict:
    doc: dict = {
        "pieces": [[_num_to_json(p.lo), _num_to_json(p.hi)] for p in K.pieces],
        "transitions": [[j, t] for j, ts in enumerate(K.transitions) for t in ts],
    }
    if K.is_affine:
        doc["branches"] = "affine-auto"
    else:
        doc["branches"] = [
            {"kind": "moebius", "matrix": [[b.a, b.b], [b.c, b.d]]}
            for b in K.branches
        ]
    return doc


def set_from_json(doc: dict) -> RegularCantorSet:
    try:
        raw_pieces = doc["pieces"]
        raw_transitions = doc["transitions"]
        raw_branches = doc.get("branches", "affine-auto")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"set definition missing field: {exc}") from exc
    try:
        pieces = [(_num_from_json(lo), _num_from_json(hi)) for lo, hi in raw_pieces]
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"pieces must be [lo, hi] number pairs: {exc}") from exc
    rows: list[list[int]] = [[] for _ in pieces]
    try:
        for j, t in raw_transitions:
            if not (0 <= int(j) < len(pieces)):
                raise ValidationError(f"transition source {j} out of range")
            rows[int(j)].append(int(t))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"transitions must be [source, target] integer pairs: {exc}") from exc
    if raw_branches == "affine-auto":
        return build_affine(pieces, rows)
    ivs = [Interval(lo, hi) for lo, hi in pieces]
    _check_pieces(ivs)
    rows = _check_transitions(rows, len(ivs))
    if not isinstance(raw_branches, list):
        raise ValidationError('branches must be "affine-auto" or a list of moebius branches')
    if len(raw_branches) != len(ivs):
        raise ValidationError("one branch per piece required")
    branches = []
    for j, (piece, spec_branch) in enumerate(zip(ivs, raw_branches)):
        if not isinstance(spec_branch, dict) or spec_branch.get("kind") != "moebius":
            raise ValidationError("explicit branches must be moebius; use affine-auto otherwise")
        try:
            (a, b), (c, d) = spec_branch["matrix"]
            m = MoebiusMap(int(a), int(b), int(c), int(d))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValidationError(f"branch {j} matrix must be [[a, b], [c, d]] integers: {exc}") from exc
        if abs(m.det) != 1:
            raise ValidationError(f"moebius branch determinant must be +-1, got {m.det}")
        # |f'(x)| = 1 / (c*x + d)^2 is monotone on a piece free of the pole
        denoms = [m.c * float(x) + m.d for x in (piece.lo, piece.hi)]
        if not (min(denoms) > 0 or max(denoms) < 0):
            raise ValidationError(f"moebius branch {j} has its pole on its piece")
        bound = min(1 / e ** 2 for e in denoms)
        if bound <= 1.0:
            raise ContractionViolation(f"branch {j} expansion bound {bound} is not > 1")
        branches.append(m)
    _check_branch_images(ivs, rows, branches, exact=False)
    return RegularCantorSet(tuple(ivs), rows, tuple(branches), exact=False)


def load_set(path) -> RegularCantorSet:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValidationError(f"set file {path} is not valid JSON: {exc}") from exc
    return set_from_json(doc)


def dump_set(K: RegularCantorSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(set_to_json(K), fh, indent=2, sort_keys=True)
        fh.write("\n")
