"""cantorlab: a numerical laboratory for regular Cantor sets.

Construct Cantor sets from expanding Markov maps, measure fractal
invariants (box and Moran dimension, thickness), form arithmetic sums
and differences, scan one-parameter projections, certify robust
intersections through recurrent regions of relative positions, compute
best-rational-approximation spectra from continued fractions, and probe
simple hyperbolic dynamics (affine horseshoes, a linear torus map, the
standard family).

Each public name is listed once, in `_EXPORTS` under the module that
defines it, and `__all__` is read off that table.  Importing the package
imports none of its modules: a module is imported when one of its names,
or the module itself (`cantorlab.setops`), is first read (PEP 562), so a
caller that needs no array never loads numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cantor_core": (
        "AffineMap",
        "Cover",
        "Interval",
        "MembershipResult",
        "MoebiusMap",
        "RegularCantorSet",
        "build_affine",
        "contains",
        "dump_set",
        "gauss_cantor",
        "load_set",
        "refine",
        "refine_to_length",
        "scale_affine",
        "set_from_json",
        "set_to_json",
    ),
    "catalog": ("CatalogEntry", "builtin_names", "get_set", "list_builtin_sets"),
    "dimension": (
        "DimensionEstimate",
        "ThicknessEstimate",
        "box_dimension",
        "hausdorff_dimension_moran",
        "moran_root",
        "thickness",
    ),
    "dynamics": (
        "AffineHorseshoe",
        "CatMapReport",
        "HorseshoeReport",
        "LyapunovReport",
        "cat_map_check",
        "enumerate_torus_periodic_points",
        "horseshoe_cantor_sets",
        "horseshoe_dimension",
        "nonuniform_condition",
        "solve_unit_dimension",
        "standard_family_lyapunov",
    ),
    "errors": (
        "BudgetExceeded",
        "CantorLabError",
        "ConfigInvalid",
        "ContractionViolation",
        "DegenerateCover",
        "EmptyTarget",
        "EstimatorMismatch",
        "NoGaps",
        "NonAffineInput",
        "NonContiguousTransitions",
        "NonMixingTransitions",
        "OverlappingPieces",
        "PrecisionLoss",
        "ResourceError",
        "TZeroNotInDifference",
        "ValidationError",
        "resolve_budget",
    ),
    "intersect": (
        "DensityProfile",
        "DifferenceProfile",
        "GapLemmaResult",
        "IntersectionOutcome",
        "PositionRegion",
        "SearchOutcome",
        "d_stable_probe",
        "difference_scan",
        "gap_lemma_test",
        "intersect_test",
        "perturb_set",
        "recurrent_compact_search",
        "region_to_json",
        "save_certificate",
        "tangency_density_experiment",
        "verify_certificate",
    ),
    "setops": (
        "IntervalUnion",
        "ProjectionScan",
        "contains_interval",
        "covered_length",
        "cover_sum",
        "marstrand_scan",
        "merge_intervals",
    ),
    "spectra": (
        "CFSequence",
        "HalflineHit",
        "SpectrumValue",
        "cf_value",
        "convergents",
        "hall_halfline_probe",
        "k_alpha",
        "lagrange_sample",
        "two_sided_values",
    ),
    "surd": ("QuadraticSurd", "periodic_value"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module that defines `name` (or is `name`) on first read."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    """Every public name, whether or not its module is loaded yet."""
    return sorted({*globals(), *__all__})
