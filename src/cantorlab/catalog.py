"""Built-in Cantor set catalog.

Each entry names a ready-made regular Cantor set, pairing a short
description of its defining expanding map with a factory that builds a
fully validated set.  The names are accepted anywhere the command-line
interface expects a set (``--set``, ``--set1``, ``--set2``), alongside
``gauss(N)``/``gauss:N``/``gaussN`` for any digit bound N >= 2 and
JSON definition files.  A factory imports `cantor_core` when it first
builds a set, so listing the catalog loads no numpy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .dynamics import AffineHorseshoe, _two_piece_set, horseshoe_cantor_sets
from .errors import ConfigInvalid

if TYPE_CHECKING:
    from .cantor_core import RegularCantorSet

__all__ = [
    "CatalogEntry",
    "DEFAULT_HORSESHOE",
    "builtin_names",
    "get_set",
    "list_builtin_sets",
]

# Default strip geometry used for the horseshoe factor entries: squeeze
# by 1/4 vertically, stretch by 5 horizontally.
DEFAULT_HORSESHOE = AffineHorseshoe(
    contraction=Fraction(1, 4), expansion=Fraction(5)
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    build: Callable[[], RegularCantorSet]


def _gauss(digit_bound: int) -> RegularCantorSet:
    from .cantor_core import gauss_cantor

    return gauss_cantor(digit_bound)


def _ternary() -> RegularCantorSet:
    return _two_piece_set(Fraction(1, 3))


def _middle_fifth() -> RegularCantorSet:
    return _two_piece_set(Fraction(2, 5))


def _thin() -> RegularCantorSet:
    return _two_piece_set(Fraction(1, 10))


def _thick() -> RegularCantorSet:
    return _two_piece_set(Fraction(9, 20))


def _horseshoe_stable() -> RegularCantorSet:
    return horseshoe_cantor_sets(DEFAULT_HORSESHOE)[0]


def _horseshoe_unstable() -> RegularCantorSet:
    return horseshoe_cantor_sets(DEFAULT_HORSESHOE)[1]


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "ternary",
        "pieces [0,1/3] and [2/3,1]; both branches are x -> 3x mod 1 "
        "(slope 3 onto [0,1]); dimension log2/log3",
        _ternary,
    ),
    CatalogEntry(
        "middle-fifth",
        "pieces [0,2/5] and [3/5,1]; affine branches of slope 5/2 onto "
        "[0,1]; removes the middle fifth at every step",
        _middle_fifth,
    ),
    CatalogEntry(
        "thin",
        "pieces [0,1/10] and [9/10,1]; slope 10 onto [0,1]; dimension "
        "log2/log10, small thickness (1/8)",
        _thin,
    ),
    CatalogEntry(
        "thick",
        "pieces [0,9/20] and [11/20,1]; slope 20/9 onto [0,1]; "
        "thickness 4.5",
        _thick,
    ),
    CatalogEntry(
        "gauss2",
        "numbers in [0,1] whose continued-fraction digits are all 1 or "
        "2; Moebius branches x -> 1/x - a",
        lambda: _gauss(2),
    ),
    CatalogEntry(
        "gauss3",
        "continued-fraction digits bounded by 3; Moebius branches "
        "x -> 1/x - a",
        lambda: _gauss(3),
    ),
    CatalogEntry(
        "gauss4",
        "continued-fraction digits bounded by 4; Moebius branches "
        "x -> 1/x - a; the sum of two copies fills a full interval",
        lambda: _gauss(4),
    ),
    CatalogEntry(
        "horseshoe-stable",
        "stable factor of the default affine horseshoe: two pieces of "
        "ratio 1/4 spanning [0,1]",
        _horseshoe_stable,
    ),
    CatalogEntry(
        "horseshoe-unstable",
        "unstable factor of the default affine horseshoe: two pieces "
        "of ratio 1/5 spanning [0,1]",
        _horseshoe_unstable,
    ),
)

_BY_NAME = {e.name: e for e in _ENTRIES}

_GAUSS_RE = re.compile(r"^gauss[:(]?(\d+)\)?$")


def list_builtin_sets() -> list[CatalogEntry]:
    """All built-in entries, in catalog order."""
    return list(_ENTRIES)


def builtin_names() -> list[str]:
    return [e.name for e in _ENTRIES]


def get_set(name: str) -> RegularCantorSet:
    """Build the named Cantor set.

    Accepts any catalog name plus the parametrized family
    ``gauss(N)`` (also written ``gauss:N`` or ``gaussN``) for N >= 2.
    """
    key = str(name).strip().lower().replace("_", "-")
    if key in _BY_NAME:
        return _BY_NAME[key].build()
    m = _GAUSS_RE.match(key)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise ConfigInvalid("gauss digit bound must be >= 2")
        return _gauss(n)
    known = ", ".join(builtin_names())
    raise ConfigInvalid(
        f"unknown set name {name!r}; built-ins are: {known}, gauss(N)"
    )
