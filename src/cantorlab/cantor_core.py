"""Regular Cantor sets on the line, defined by expanding Markov maps.

A set is described by finitely many closed pieces I_1 < ... < I_r with
positive gaps, a transition relation, and for each piece an expanding
branch (affine or Moebius) mapping the piece onto the convex hull of its
transition targets.  The attractor is the set of points whose full
forward orbit stays inside the pieces; depth-n covers are the connected
components of the n-th preimage of the piece union.  `RegularCantorSet`
holds exactly these three things, `pieces`, `transitions` and
`branches`; everything else it knows (exactness, the exact hull ends,
the proved thickness bounds) is derived from them, once, on first use.

Every question about the cylinder tree is answered by one engine.  A
node is its last symbol, its depth and the composite of inverse branches
along its address; `_children` makes the children of a whole array of
nodes at once, composing each map with the inverse branch of the node's
last symbol and applying it to the target pieces.  No node keeps its
parent: an address is the itinerary of a point of the cylinder, read by
`_address` only where one is reported.  `_expand` runs the child step a
level at a time, splitting the nodes a vectorised split rule selects,
and each caller is its rule: `refine` splits by depth, `maxlen_at_depth`
nodes longer than the greedy depth-n leaf, and `contains` the cylinders
within a guard band of the point.  `_LengthWalk` splits the nodes longer
than a length target and keeps every node it made, so one walk answers
every target: `refine_to_length` asks one, a pair budget a ladder.  A
target fits while its cover holds at most the budget's intervals.  A
`Cover` holds arrays to its last reader.  On an exact set the count and
the extreme lengths of the depth-d cylinders are read off the transition
rows with no walk (`_Tables.sizes`).

Exactness policy: an exact (rational affine) set keeps each node's map
as Python-int numerators over the level's common denominator, so cover
ends are exact `Fraction(num, den)`, their floats are the correctly
rounded int/int quotients, and exact lengths compare as cross-multiplied
ints.  A float affine set composes slopes and offsets in float64, and a
Moebius set integer 2x2 matrices evaluated in floating point only when
an end is produced, each by the same float operations as
`AffineMap.apply_interval` and `MoebiusMap.apply_interval`.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
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
    finite,
    resolve_budget,
)
from .surd import QuadraticSurd, _gauss_hull_surds

Num = Union[int, float, Fraction]
Exact = Union[Fraction, QuadraticSurd]

TAU_MARKOV = 1e-9       # relative tolerance for floating Markov validation
EPS_LEN = 1e-14         # interval-length floor for covers


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

    def __eq__(self, other: object) -> bool:
        """Equal fields and equally exact (dyadic floats are not `Fraction`s)."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pieces, self.transitions, self.branches, self.exact) == (
            other.pieces, other.transitions, other.branches, other.exact)

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
    def exact(self) -> bool:
        """Affine with every piece end a `Fraction`: covers are exact."""
        return self.is_affine and all(isinstance(x, Fraction) for p in self.pieces for x in (p.lo, p.hi))

    @cached_property
    def _exact_hull(self) -> tuple[Exact, Exact] | None:
        """Ends of the hull, exact: the pieces' own for an exact set, the
        2-cycle surds for a set equal to `gauss_cantor(r)`, else None."""
        if self.exact:
            return self.hull.lo, self.hull.hi
        if not self.is_affine and self.n_pieces > 1 and self == gauss_cantor(self.n_pieces):
            return _gauss_hull_surds(self.n_pieces)
        return None

    @cached_property
    def inverses(self) -> tuple[MapLike, ...]:
        """Inverse branch of each piece, computed once per set."""
        return tuple(b.inverse() for b in self.branches)

    @cached_property
    def _tables(self) -> "_Tables":
        """What the child step reads of the set, built on first use."""
        return _Tables(self)

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


def _check_branch_images(K: RegularCantorSet) -> RegularCantorSet:
    """K, once each branch maps its piece onto its target hull: exactly
    for an exact set, else to within TAU_MARKOV relative to the hull."""
    tol = TAU_MARKOV * max(1.0, float(K.hull.length))
    for j, br in enumerate(K.branches):
        ts = K.transitions[j]
        hull = Interval(K.pieces[ts[0]].lo, K.pieces[ts[-1]].hi)
        image = br.apply_interval(K.pieces[j])
        if K.exact:
            if image.lo != hull.lo or image.hi != hull.hi:
                raise ValidationError(
                    f"branch {j} image {image} differs from target hull {hull}"
                )
        elif abs(float(image.lo) - float(hull.lo)) > tol or abs(float(image.hi) - float(hull.hi)) > tol:
            raise ValidationError(
                f"branch {j} image {image.as_floats()} misses target hull "
                f"{hull.as_floats()} beyond tolerance {tol}"
            )
    return K


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
    return _check_branch_images(RegularCantorSet(tuple(ivs), rows, tuple(branches)))


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
    return _check_branch_images(RegularCantorSet(tuple(pieces), rows, tuple(branches)))


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
    endpoints' own arithmetic: ints, floats, `Fraction`s or surds."""
    keys = [g[0] - g[1] for g in gaps]  # the negated lengths
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
    rho*|I|.  None for a set without an exact hull: a float affine set
    or a Moebius set not equal to a `gauss_cantor` set.

    Every gap of K lies between two children of exactly one cylinder, so
    it suffices to bound each cylinder's children.  Exact affine sets:
    the children of a cylinder ending in piece j are an affine image of
    the children of piece j, so the bounds are the extremes over the hull
    and the r pieces.  `gauss<N>`: a depth-k cylinder is the image of the
    hull's configuration under x -> [0; a1, ..., ak + x], whose pole lies
    at distance q_k/q_(k-1) in [1, N+1] (inf at depth 0).
    """
    hull = K._exact_hull
    if hull is None:
        return None
    if K.is_affine:
        configs = [(hull, [(p.lo, p.hi) for p in K.pieces])]
        for j, piece in enumerate(K.pieces):
            kids = [K.inverses[j].apply_interval(K.pieces[k]) for k in K.transitions[j]]
            configs.append(((piece.lo, piece.hi), [(iv.lo, iv.hi) for iv in kids]))
        poles = None
    else:
        y_min, y_max = hull
        # the inverse branches x -> 1/(a + x) reverse orientation
        configs = [(hull, [(m.apply(y_max), m.apply(y_min)) for m in K.inverses])]
        poles = (1, K.n_pieces + 1)
    bounds = [_presentation_bounds(hull, parts, poles) for hull, parts in configs if len(parts) > 1]
    return min(t for t, _ in bounds), max(r for _, r in bounds)


# ---------------------------------------------------------------------------
# the cylinder engine


class _Tables:
    """What the child step reads of a set, built once (`K._tables`).

    A node's composite map of inverse branches is held as arrays of its
    entries.  Exact set: x -> (A*x + B) / q^k at depth k, A and B Python
    ints and q the common denominator of the inverse branches, so the
    node's ends are integer numerators over q^k * P, P the common
    denominator of the piece ends.  Float affine set: slope and offset in
    float64 (q = P = 1).  Moebius set: the integer matrix entries.  An
    exact set also has the count and the least and greatest length of
    its cylinders at each depth (`sizes`), read with no tree walk.
    """

    def __init__(self, K: RegularCantorSet) -> None:
        self.kind = "exact" if K.exact else "float" if K.is_affine else "moebius"
        self.counts = np.array([len(ts) for ts in K.transitions])
        # row j: the children's last symbols, padded with -1
        self.kids = np.array([[*ts, *[-1] * (max(self.counts) - len(ts))] for ts in K.transitions])
        ends, names = [(p.lo, p.hi) for p in K.pieces], ("slope", "offset")
        if self.kind == "exact":
            self.P = math.lcm(*(x.denominator for e in ends for x in e))
            self.q = math.lcm(*(getattr(m, f).denominator for m in K.inverses for f in names))
            self.ends = np.array([[int(x * self.P) for x in e] for e in ends], dtype=object)
            self.inv = tuple(_objects(int(getattr(m, f) * self.q) for m in K.inverses) for f in names)
            self._dens = _objects([self.P])
            self.transitions = K.transitions
            # per piece: count, least and greatest numerator of the deepest
            # depth not yet in `_sizes`, over q^d * P
            self._row = [(1, hi - lo, hi - lo) for lo, hi in self.ends.tolist()]
            self._sizes: list[tuple[int, Fraction, Fraction]] = []
            self.least: list[float] = []  # each built depth's least length, rounded once
        else:
            self.P = self.q = 1.0
            self.ends = np.array(ends, dtype=float)
            kind = float if self.kind == "float" else object
            self.inv = tuple(np.array([getattr(m, f) for m in K.inverses], dtype=kind)
                             for f in (names if kind is float else "abcd"))
        # the pieces, as every walk's first nodes (never written to)
        r = len(self.ends)
        unit = (1, 0, 0, 1) if self.kind == "moebius" else (1, 0)
        maps = tuple(np.full(r, v, dtype=float if self.kind == "float" else object) for v in unit)
        if self.kind == "exact":
            ends = self.place(maps, np.arange(r), np.zeros(r, dtype=int))
        else:
            ends = (*self.ends.T.copy(), self.ends[:, 1] - self.ends[:, 0], None)
        self.roots = (np.arange(r), np.zeros(r, dtype=int), maps, *ends)

    def dens(self, depth: np.ndarray) -> np.ndarray:
        """q^k * P for each depth k (exact sets)."""
        if depth.max(initial=0) >= len(self._dens):
            dens = list(self._dens)
            while len(dens) <= depth.max():
                dens.append(dens[-1] * self.q)
            self._dens = _objects(dens)
        return self._dens[depth]

    def sizes(self, d: int) -> tuple[int, Fraction, Fraction]:
        """Count, least and greatest exact length of the depth-d cylinders
        (exact sets), built a depth at a time on first use.  Piece j's
        cylinders are its inverse branch's images of the depth-(d-1)
        cylinders in its targets, so each depth is one step over the
        transition rows (the graph-directed lengths of Mauldin-Williams)."""
        while len(self._sizes) <= d:
            counts, least, greatest = zip(*self._row)
            den = self.P * self.q ** len(self._sizes)
            self._sizes.append((sum(counts), Fraction(min(least), den), Fraction(max(greatest), den)))
            self.least.append(float(self._sizes[-1][1]))
            self._row = [(sum(counts[k] for k in ts), s * min(least[k] for k in ts), s * max(greatest[k] for k in ts))
                         for s, ts in zip(self.inv[0].tolist(), self.transitions)]
        return self._sizes[d]

    def compose(self, maps: tuple, last: np.ndarray) -> tuple:
        """Each map composed with the inverse branch of `last`, as
        `AffineMap.compose` and `MoebiusMap.compose` do it."""
        inv = tuple(x[last] for x in self.inv)
        if self.kind != "moebius":
            (A, B), (s, o) = maps, inv
            return A * s, A * o + B * self.q
        (a, b, c, d), (al, be, ga, de) = maps, inv
        return a * al + b * ga, a * be + b * de, c * al + d * ga, c * be + d * de

    def place(self, maps: tuple, sym: np.ndarray, depth: np.ndarray) -> tuple:
        """(lo, hi, lengths, nums) of maps applied to the pieces sym, in the
        float operations of `AffineMap.apply_interval` and
        `MoebiusMap.apply_interval`; exact ends are rounded once (int / int
        rounds correctly), and `nums` holds their numerators and
        denominators."""
        x_lo, x_hi = self.ends[sym].T
        if self.kind == "moebius":
            fa, fb, fc, fd = (x.astype(float) for x in maps)
            u, v = ((fa * x + fb) / (fc * x + fd) for x in (x_lo, x_hi))
            lo, hi = np.where(u <= v, u, v), np.where(u <= v, v, u)
            return lo, hi, hi - lo, None
        A, B = maps
        BP = B * self.P
        lo, hi = A * x_lo + BP, A * x_hi + BP
        if self.kind == "float":
            return lo, hi, hi - lo, None
        dens = self.dens(depth)
        return (*(np.array([lo, hi, hi - lo]) / dens).astype(float), (lo, hi, dens))


def _objects(values) -> np.ndarray:
    return np.array(list(values), dtype=object)


@dataclass(slots=True)
class _Nodes:
    """Nodes of the cylinder tree as parallel arrays: last symbol, depth
    (a node at depth d has an address of length d + 1), composite map
    entries (None once no longer split), float ends and lengths, and on an
    exact set the integer numerators and denominators of the ends.  The
    roots are the pieces themselves.  No node records its parent: an
    address is read off a point of the cylinder (`_address`)."""

    last: np.ndarray
    depth: np.ndarray
    maps: tuple | None
    lo: np.ndarray
    hi: np.ndarray
    lengths: np.ndarray
    nums: tuple | None

    def __len__(self) -> int:
        return len(self.last)

    def take(self, idx, maps: bool = True) -> "_Nodes":
        """The nodes at idx, an index, mask or slice; maps dropped unless `maps`."""
        return _Nodes(self.last[idx], self.depth[idx],
                      tuple(x[idx] for x in self.maps) if maps and self.maps else None,
                      self.lo[idx], self.hi[idx], self.lengths[idx],
                      self.nums and tuple(x[idx] for x in self.nums))

    @staticmethod
    def concat(parts: list["_Nodes"]) -> "_Nodes":
        if len(parts) == 1:
            return parts[0]
        cat = lambda name: np.concatenate([getattr(p, name) for p in parts])
        join = lambda name: getattr(parts[0], name) and tuple(map(np.concatenate, zip(*(getattr(p, name) for p in parts))))
        return _Nodes(cat("last"), cat("depth"), join("maps"),
                      cat("lo"), cat("hi"), cat("lengths"), join("nums"))


def _roots(K: RegularCantorSet) -> _Nodes:
    return _Nodes(*K._tables.roots)


def _children(K: RegularCantorSet, nodes: _Nodes) -> _Nodes:
    """Child cylinders of every node, each node's in transition order: the
    one child step of every walk."""
    t = K._tables
    kids = t.kids[nodes.last]
    up, col = np.nonzero(kids >= 0)
    sym, depth = kids[up, col], nodes.depth[up] + 1
    maps = tuple(x[up] for x in t.compose(nodes.maps, nodes.last))
    return _Nodes(sym, depth, maps, *t.place(maps, sym, depth))


def _expand(K: RegularCantorSet, split: Callable[[_Nodes], np.ndarray], limit: float) -> _Nodes:
    """Leaves of the cylinder tree cut by `split`, expanded level by level.

    Every frontier node where the mask split(frontier) holds is replaced
    by its children; the others become leaves.  Every node has at least
    one child, so leaves plus frontier never shrink, and passing `limit`
    after some level means the finished cover passes it too.
    """
    leaves: list[_Nodes] = []
    count, frontier = 0, _roots(K)
    while True:
        mask = split(frontier)
        if not mask.all():
            leaves.append(frontier.take(~mask, maps=False))
            count += len(leaves[-1])
            if not mask.any():
                return _Nodes.concat(leaves)
            frontier = frontier.take(mask)
        frontier = _children(K, frontier)
        if count + len(frontier) > limit:
            raise BudgetExceeded(f"cover needs more than {limit} intervals (budget)")


def _address(K: RegularCantorSet, x: Num, n: int) -> tuple[int, ...]:
    """Address of the depth-n cylinder holding x: the pieces holding x and
    its next n forward images (same-depth cylinders are disjoint), exact
    for a `Fraction` x on an exact or Moebius set."""
    word = []
    for _ in range(n + 1):
        j = next(j for j, p in enumerate(K.pieces) if p.lo <= x <= p.hi)
        word.append(j)
        x = K.branches[j].apply(x)
    return tuple(word)


# ---------------------------------------------------------------------------
# covers


def _readonly(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class Cover:
    """Depth-n construction cover: sorted disjoint intervals as read-only
    arrays of their ends and their lengths (the exact length rounded once
    on an exact set).

    Length-balanced refinement produces mixed depths, in which case
    `depth` is the deepest one used.  The leaves keep each interval's
    depth and, on an exact set, the ends' integer numerators and
    denominators (`_leaves.nums`), which `thickness` reads.  An
    interval's address is not kept: `_address` reads it off a point.
    """

    depth: int
    los: np.ndarray
    his: np.ndarray
    lengths: np.ndarray
    _leaves: _Nodes = field(repr=False)

    def __len__(self) -> int:
        return len(self.los)


def _leaf_cover(leaves: _Nodes, what: str) -> Cover:
    if np.any(leaves.lengths < EPS_LEN):
        raise PrecisionLoss(f"{what} has intervals below the length floor {EPS_LEN}")
    leaves = leaves.take(np.argsort(leaves.lo, kind="stable"), maps=False)
    return Cover(
        depth=int(leaves.depth.max()),
        los=_readonly(leaves.lo),
        his=_readonly(leaves.hi),
        lengths=_readonly(leaves.lengths),
        _leaves=leaves,
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
    return _leaf_cover(_expand(K, lambda nodes: nodes.depth < n, limit), f"depth-{n} cover")


def _check_target_length(target_length: float) -> None:
    if finite(target_length, "target length must be finite, got {!r}") < EPS_LEN:
        raise PrecisionLoss(f"target length {target_length} below floor {EPS_LEN}")


class _LengthWalk:
    """K's cylinder tree, split as far as the targets asked need.  Each node
    leaves a row (length, parent's length, lo, hi), and a split node
    nothing more.  The length-t cover is every row no longer than t whose
    parent is longer than t: one walk answers every target.  Every branch
    expands, so every node has descendants no longer than t, and their
    count grows with depth: the budget alone bounds the walk.

    A target fits when its cover holds at most `budget` intervals.  The
    rows already in the cover and the open nodes longer than the target,
    each of which holds at least one interval, bound its size from below;
    `fits` splits those longer nodes, in their stored order, until the
    bound passes the budget or none is left, when the bound is the cover's
    size.  Near the budget it splits only as many as can keep the bound
    within it.  On an exact set a target whose cover `least` proves too
    large is refused without a split.
    """

    def __init__(self, K: RegularCantorSet, budget: int) -> None:
        self.K, self.budget = K, budget
        self.open = _roots(K)  # the nodes not split
        self._rows = [self._block(self.open, np.full(K.n_pieces, math.inf))]

    @staticmethod
    def _block(nodes: _Nodes, parent: np.ndarray) -> np.ndarray:
        return np.column_stack((nodes.lengths, parent, nodes.lo, nodes.hi))

    def least(self, target: float) -> int:
        """A lower bound on the size of the length-target cover, capped at
        budget + 1.  On an exact set every node shallower than the first
        depth d0 whose least length (`_Tables.sizes`, rounded once as the
        nodes' are) reaches the target is split, so each depth-d0 node
        holds a leaf.  1 on other sets.  Counts grow and least lengths
        shrink with depth: the first depth past the budget or the target is
        bisected for among the depths built, or else found building deeper."""
        _check_target_length(target)
        t = self.K._tables
        if t.kind != "exact":
            return 1
        d = min(bisect.bisect_right(t._sizes, self.budget, key=operator.itemgetter(0)),
                bisect.bisect_left(t.least, -target, key=operator.neg))
        while d == len(t.least) and t.sizes(d)[0] <= self.budget and t.least[d] > target:
            d += 1
        return min(t._sizes[d][0], self.budget + 1)

    def _longer(self, target: float) -> np.ndarray:
        """Indices of the open nodes longer than target."""
        return np.flatnonzero(self.open.lengths > target)

    def _held(self, target: float) -> np.ndarray:
        """Mask of the rows in the length-target cover."""
        length, parent, _, _ = self.rows().T
        return (length <= target) & (parent > target)

    def fits(self, target: float) -> bool:
        """Whether the length-target cover holds at most `budget` intervals."""
        if self.least(target) > self.budget:
            return False
        t = self.K._tables
        longer = self._longer(target)
        size = int(np.count_nonzero(self._held(target))) + len(longer)
        while len(longer) and size <= self.budget:
            nodes = self.open
            idx = longer[:(self.budget - size) // max(1, int(t.counts.max()) - 1) + 1]
            split = nodes if len(idx) == len(nodes) else nodes.take(idx)
            kids = _children(self.K, split)
            self._rows.append(self._block(kids, np.repeat(split.lengths, t.counts[split.last])))
            if split is nodes:
                self.open = kids
            else:
                keep = np.ones(len(nodes), dtype=bool)
                keep[idx] = False
                self.open = _Nodes.concat([nodes.take(keep), kids])
            # each split node, counted once, is now its children
            size += len(kids) - len(idx)
            longer = self._longer(target)
        return size <= self.budget

    def rows(self) -> np.ndarray:
        """One row per node made, in the order made."""
        if len(self._rows) > 1:
            self._rows = [np.concatenate(self._rows)]
        return self._rows[0]

    def cover(self, target: float) -> tuple[np.ndarray, np.ndarray] | None:
        """Lower and upper ends of the length-target cover, sorted by lo, or
        None when it holds more than `budget` intervals (`fits`)."""
        if not self.fits(target):
            return None
        length, _, lo, hi = self.rows()[self._held(target)].T
        if np.any(length < EPS_LEN):
            raise PrecisionLoss(f"length-balanced cover has intervals below the length floor {EPS_LEN}")
        order = np.argsort(lo, kind="stable")
        return lo[order], hi[order]


def refine_to_length(K: RegularCantorSet, target_length: float, *, budget: int | None = None) -> Cover:
    """Subdivide until every interval has length <= target_length.

    Depth is balanced by size rather than by count, so heterogeneous
    branch contractions produce mixed-depth covers.  On sets with equal
    contraction everywhere the result coincides with a plain depth-n
    cover.  No depth stops the walk: a cover past the budget raises
    BudgetExceeded.
    """
    walk = _LengthWalk(K, resolve_budget(budget))
    if not walk.fits(target_length):
        raise BudgetExceeded(f"cover needs more than {walk.budget} intervals (budget)")
    return _leaf_cover(walk.open, "length-balanced cover")  # the nodes left unsplit


def _maxlen_seed(K: RegularCantorSet, n: int) -> Num:
    """A depth-n cylinder length no longer than the longest, found with no
    walk: the longest itself on an exact set (`_Tables.sizes`), else the
    one a greedy descent to the longest child reaches."""
    if n < 0:
        raise ValidationError("depth must be >= 0")
    if K.exact:
        return K._tables.sizes(n)[2]
    node = _roots(K)
    for _ in range(n):
        i = int(np.argmax(node.lengths))
        node = _children(K, node.take(slice(i, i + 1)))
    return float(node.lengths.max())


def maxlen_at_depth(K: RegularCantorSet, n: int) -> Num:
    """Exact maximum interval length of the depth-n cover.

    On an exact set it is read off the transition rows (`_Tables.sizes`),
    a `Fraction`.  Elsewhere the greedy depth-n length (`_maxlen_seed`)
    bounds it below; a node no longer than that cannot hold a longer
    leaf, so only longer nodes are split and most of the tree is skipped.
    """
    bound = _maxlen_seed(K, n)
    if K.exact:
        return bound
    leaves = _expand(K, lambda nodes: (nodes.depth < n) & (nodes.lengths > bound), math.inf)
    return float(leaves.lengths[leaves.depth == n].max(initial=bound))


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
    rounding can never produce a false exclusion certificate.  The walk
    stops once membership is decided: a node whose ends are both within
    the band of x has only near descendants.  Raises BudgetExceeded only
    when the near cylinders pass the default cover budget first.
    """
    xf = finite(x, "x must be finite and depth >= 0")
    if n < 0:
        raise ValidationError("x must be finite and depth >= 0")
    guard = 1e-12 * max(1.0, abs(float(K.hull.length)))

    def near(nodes: _Nodes) -> np.ndarray:
        return (nodes.lo - guard <= xf) & (xf <= nodes.hi + guard)

    def split(nodes: _Nodes) -> np.ndarray:
        if ((nodes.hi - guard <= xf) & (xf <= nodes.lo + guard)).any():
            return np.zeros(len(nodes), dtype=bool)
        return near(nodes) & (nodes.depth < n)

    leaves = _expand(K, split, resolve_budget(None))
    if near(leaves).any():
        return MembershipResult(True, n)
    return MembershipResult(False, int(leaves.depth.max()))


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
    return _check_branch_images(RegularCantorSet(tuple(ivs), rows, tuple(branches)))


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
