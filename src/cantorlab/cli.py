"""Command-line front end.

Single binary with subcommands::

    dim thickness sum diff hall marstrand intersect recur dstable
    density spectrum halfline horseshoe catmap stdmap list-sets

Every run emits one JSON result record::

    {"schema": 1, "command": ..., "inputs": {...},
     "inputs_digest": sha256-of-canonical-inputs, "outputs": {...},
     "runtime_seconds": ...}

written to ``--out`` (default stdout).  Records are byte-identical for
identical configuration and seed, apart from ``runtime_seconds``.  The
digest covers the semantic inputs only — artifact paths are excluded.

Configuration precedence: command-line flags > ``--config`` JSON file >
built-in defaults.  Config file keys use the flag names with underscores
(``set1``, ``depth_max``, ``lam`` — ``lambda`` is accepted as an alias).

Exit codes: 0 success, 2 budget exhaustion, 3 invalid arguments,
invalid configuration or validation failure (including missing files,
which are reported by path).  The environment variable
``CANTORLAB_BUDGET`` overrides the default interval budget when no
``--budget`` flag is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

import numpy as np

from .cantor_core import (
    Interval,
    RegularCantorSet,
    gauss_cantor,
    load_set,
    resolve_budget,
)
from .catalog import get_set, list_builtin_sets
from .dimension import (
    box_dimension,
    dimension_csv,
    hausdorff_dimension_moran,
    thickness,
)
from .dynamics import (
    AffineHorseshoe,
    cat_map_check,
    horseshoe_dimension,
    solve_unit_dimension,
    standard_family_lyapunov,
)
from .errors import (
    BudgetExceeded,
    CantorLabError,
    ConfigInvalid,
    ResourceError,
    ValidationError,
)
from .intersect import (
    d_stable_probe,
    gap_lemma_test,
    intersect_test,
    recurrent_compact_search,
    save_certificate,
    tangency_density_experiment,
    verify_certificate,
)
from .setops import (
    SCAN_PAIR_BUDGET,
    IntervalUnion,
    contains_interval,
    cover_sum,
    marstrand_scan,
)
from .spectra import (
    HALL_TARGET,
    CFSequence,
    hall_halfline_probe,
    k_alpha,
    lagrange_sample,
    spectrum_csv,
)

__all__ = ["main", "build_parser", "HALL_TARGET"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVALID = 3

# Keys that never enter the inputs digest: output locations do not
# affect the numbers.
_NON_DIGEST_KEYS = {"config", "out", "csv", "cert_out"}

_COMMON_DEFAULTS = {
    "config": None,
    "out": None,
    "csv": None,
    "budget": None,
}

DEFAULTS: dict[str, dict] = {
    "dim": {
        "set": "ternary",
        "set_file": None,
        "method": "moran",
        "tol": 1e-9,
        "depth": 8,
        "depth_min": 2,
        "depth_max": 10,
    },
    "thickness": {"set": "ternary", "set_file": None, "depth": 8},
    "sum": {
        "set1": "ternary",
        "set1_file": None,
        "set2": "ternary",
        "set2_file": None,
        "depth": 8,
    },
    "diff": {
        "set1": "ternary",
        "set1_file": None,
        "set2": "ternary",
        "set2_file": None,
        "depth": 8,
        "lam": 1.0,
    },
    "hall": {"depth": 8, "margin": 1e-3},
    "marstrand": {
        "set1": "ternary",
        "set1_file": None,
        "set2": "ternary",
        "set2_file": None,
        "n_lambdas": 200,
        "lambda_lo": 0.1,
        "lambda_hi": 3.0,
        "depth": 8,
        "res_exp_lo": 6,
        "res_exp_hi": 12,
        "theta": 0.1,
        "seed": 0,
    },
    "intersect": {
        "set1": "ternary",
        "set1_file": None,
        "set2": "ternary",
        "set2_file": None,
        "t": 0.0,
        "depth": 8,
    },
    "recur": {
        "set1": "middle-fifth",
        "set1_file": None,
        "set2": "middle-fifth",
        "set2_file": None,
        "s_lo": -0.75,
        "s_hi": 0.75,
        "t_lo": -2.25,
        "t_hi": 1.25,
        "ns": 120,
        "nt": 240,
        "margin": 1,
        "cert_out": None,
        "verify": None,
    },
    "dstable": {
        "set1": "ternary",
        "set1_file": None,
        "set2": "ternary",
        "set2_file": None,
        "t": 0.0,
        "d": 0.3,
        "perturbations": 20,
        "radius": 0.01,
        "depth": 9,
        "seed": 0,
    },
    "density": {
        "set1": "ternary",
        "set1_file": None,
        "set2": "ternary",
        "set2_file": None,
        "t0": 0.0,
        "delta_max": 0.5,
        "n_deltas": 8,
        "depth": 8,
    },
    "spectrum": {
        "period": None,
        "prefix": None,
        "window": 6,
        "sample": False,
        "max_period": 6,
        "digit_bound": 4,
    },
    "halfline": {
        "targets": "6,7,8,9.5,12,20",
        "depth": 8,
    },
    "horseshoe": {
        "contraction": "1/4",
        "expansion": "5",
        "solve_unit": False,
        "tol": 1e-12,
    },
    "catmap": {"n": 10},
    "stdmap": {"lam": 0.0, "orbits": 100, "iterates": 2000, "seed": 0},
    "list-sets": {},
}
for _cmd_defaults in DEFAULTS.values():
    _cmd_defaults.update(_COMMON_DEFAULTS)


# ---------------------------------------------------------------------------
# small helpers


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(inputs: dict) -> str:
    return hashlib.sha256(_canonical_json(inputs).encode("utf-8")).hexdigest()


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _surd_json(s):
    if s is None:
        return None
    return {"p": s.p, "q": s.q, "r": s.r, "d": s.d, "float": float(s)}


def _parse_list(text, what: str, kind: type, noun: str) -> tuple:
    if isinstance(text, (list, tuple)):
        items = list(text)
    else:
        items = [p for p in str(text).replace(" ", "").split(",") if p]
    try:
        out = tuple(kind(p) for p in items)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{what} must be comma-separated {noun}, got {text!r}")
    if not out:
        raise ConfigInvalid(f"{what} is empty")
    return out


def _parse_ratio(value, what: str):
    """Exact rational when possible ('1/4', '0.25', 3), else float."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigInvalid(f"{what} must be a number, got {value!r}")


def _resolve_set(cfg: dict, prefix: str) -> tuple[RegularCantorSet, object]:
    """Build the set named by `prefix`/`prefix_file`; returns (set, descriptor)."""
    path = cfg.get(f"{prefix}_file")
    if path:
        return load_set(path), {"file": str(path)}
    name = cfg.get(prefix)
    if not name:
        raise ConfigInvalid(f"no {prefix} given (use --{prefix} or --{prefix}-file)")
    return get_set(str(name)), str(name)


def _union_csv(U: IntervalUnion, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("lo,hi\n")
        for lo, hi in zip(U.los, U.his):
            fh.write(f"{lo!r},{hi!r}\n")


def _union_outputs(U: IntervalUnion) -> dict:
    meta = {k: _jsonable(v) for k, v in sorted(U.meta.items())}
    return {
        "n_components": int(U.n_components),
        "total_length": float(U.total_length),
        "lo": float(U.hull.lo),
        "hi": float(U.hull.hi),
        "meta": meta,
    }


def _pair_budget(cfg: dict, default: int | None = None) -> int | None:
    """The --budget flag read as a pairwise budget, else `default`."""
    return int(cfg["budget"]) if cfg["budget"] is not None else default


def _require_positive(cfg: dict, keys) -> None:
    for k in keys:
        v = cfg.get(k)
        if v is not None and not (isinstance(v, (int, float)) and v > 0):
            raise ConfigInvalid(f"{k} must be positive, got {v!r}")


# ---------------------------------------------------------------------------
# command handlers (each returns the outputs dict)


def _cmd_dim(cfg: dict) -> dict:
    K, desc = _resolve_set(cfg, "set")
    method = str(cfg["method"])
    if method == "moran":
        est = hausdorff_dimension_moran(
            K, int(cfg["depth"]), float(cfg["tol"]), budget=cfg["budget"]
        )
    elif method == "box":
        depths = range(int(cfg["depth_min"]), int(cfg["depth_max"]) + 1)
        est = box_dimension(K, depths, budget=cfg["budget"])
    else:
        raise ConfigInvalid(f"method must be 'moran' or 'box', got {method!r}")
    if cfg.get("csv"):
        dimension_csv(est, cfg["csv"])
    out = est.to_json()
    out["set"] = _jsonable(desc)
    return out


def _cmd_thickness(cfg: dict) -> dict:
    K, desc = _resolve_set(cfg, "set")
    est = thickness(K, int(cfg["depth"]), budget=cfg["budget"])
    out = est.to_json()
    out["set"] = _jsonable(desc)
    return out


def _cmd_sum_or_diff(cfg: dict, op: str) -> dict:
    K1, d1 = _resolve_set(cfg, "set1")
    K2, d2 = _resolve_set(cfg, "set2")
    lam = float(cfg.get("lam", 1.0))
    U = cover_sum(K1, K2, int(cfg["depth"]), op, lam, pair_budget=_pair_budget(cfg))
    if cfg.get("csv"):
        _union_csv(U, cfg["csv"])
    out = _union_outputs(U)
    out["set1"] = _jsonable(d1)
    out["set2"] = _jsonable(d2)
    return out


def _cmd_sum(cfg: dict) -> dict:
    return _cmd_sum_or_diff(cfg, "+")


def _cmd_diff(cfg: dict) -> dict:
    return _cmd_sum_or_diff(cfg, "-")


def _cmd_hall(cfg: dict) -> dict:
    depth = int(cfg["depth"])
    margin = float(cfg["margin"])
    K = gauss_cantor(4)
    U = cover_sum(K, K, depth, "+", pair_budget=_pair_budget(cfg))
    target = Interval(HALL_TARGET[0], HALL_TARGET[1])
    ok = contains_interval(U, target, margin)
    if cfg.get("csv"):
        _union_csv(U, cfg["csv"])
    return {
        "contains": bool(ok),
        "target": [HALL_TARGET[0], HALL_TARGET[1]],
        "margin": margin,
        "depth": depth,
        "cover_min": float(U.hull.lo),
        "cover_max": float(U.hull.hi),
        "min_error": float(abs(U.hull.lo - HALL_TARGET[0])),
        "max_error": float(abs(U.hull.hi - HALL_TARGET[1])),
        "n_components": int(U.n_components),
    }


def _cmd_marstrand(cfg: dict) -> dict:
    K1, d1 = _resolve_set(cfg, "set1")
    K2, d2 = _resolve_set(cfg, "set2")
    n_lam = int(cfg["n_lambdas"])
    lo, hi = float(cfg["lambda_lo"]), float(cfg["lambda_hi"])
    if not (n_lam >= 1 and hi > lo):
        raise ConfigInvalid("need n_lambdas >= 1 and lambda_hi > lambda_lo")
    rng = np.random.default_rng(int(cfg["seed"]))
    lambdas = rng.uniform(lo, hi, size=n_lam)
    e_lo, e_hi = int(cfg["res_exp_lo"]), int(cfg["res_exp_hi"])
    if e_hi < e_lo:
        raise ConfigInvalid("res_exp_hi must be >= res_exp_lo")
    resolutions = [2.0**-k for k in range(e_lo, e_hi + 1)]
    scan = marstrand_scan(
        K1, K2, lambdas, int(cfg["depth"]), resolutions,
        theta=float(cfg["theta"]), pair_budget=_pair_budget(cfg, SCAN_PAIR_BUDGET),
    )
    if cfg.get("csv"):
        scan.to_csv(cfg["csv"])
    out = scan.summary_json()
    out.update(
        {
            "set1": _jsonable(d1),
            "set2": _jsonable(d2),
            "n_lambdas": n_lam,
            "lambda_lo": lo,
            "lambda_hi": hi,
            "seed": int(cfg["seed"]),
            "finest_resolution": resolutions[-1],
        }
    )
    return out


def _cmd_intersect(cfg: dict) -> dict:
    K1, d1 = _resolve_set(cfg, "set1")
    K2, d2 = _resolve_set(cfg, "set2")
    t = float(cfg["t"])
    depth = int(cfg["depth"])
    outcome = intersect_test(K1, K2, t, depth, budget=cfg["budget"])
    lemma = gap_lemma_test(K1, K2, t, depth=depth)
    return {
        "set1": _jsonable(d1),
        "set2": _jsonable(d2),
        "t": t,
        "state": str(outcome),
        "disjoint": outcome.disjoint,
        "depth": outcome.depth,
        "gap_lemma": {
            "certified": lemma.certified,
            "tau1": lemma.tau1,
            "tau2": lemma.tau2,
            "linked": lemma.linked,
            "reason": lemma.reason,
        },
    }


def _cmd_recur(cfg: dict) -> dict:
    if cfg.get("verify"):
        with open(cfg["verify"]) as fh:
            doc = json.load(fh)
        ok, reason = verify_certificate(doc)
        return {"verified": bool(ok), "reason": reason, "certificate": str(cfg["verify"])}
    K1, d1 = _resolve_set(cfg, "set1")
    K2, d2 = _resolve_set(cfg, "set2")
    s_lo, s_hi = float(cfg["s_lo"]), float(cfg["s_hi"])
    t_lo, t_hi = float(cfg["t_lo"]), float(cfg["t_hi"])
    ns, nt = int(cfg["ns"]), int(cfg["nt"])
    if ns < 1 or nt < 1:
        raise ConfigInvalid("grid counts ns, nt must be >= 1")
    hs = (s_hi - s_lo) / ns
    ht = (t_hi - t_lo) / nt
    outcome = recurrent_compact_search(
        K1,
        K2,
        ((s_lo, s_hi), (t_lo, t_hi)),
        (hs, ht),
        int(cfg["margin"]),
        budget=cfg["budget"],
    )
    out = {
        "set1": _jsonable(d1),
        "set2": _jsonable(d2),
        "found": outcome.found,
        "sweeps": outcome.sweeps,
        "n_members": outcome.region.n_members if outcome.found else 0,
        "box": [[s_lo, s_hi], [t_lo, t_hi]],
        "grid": [hs, ht],
        "margin": int(cfg["margin"]),
    }
    if outcome.found and cfg.get("cert_out"):
        save_certificate(cfg["cert_out"], outcome.region, K1, K2)
        out["certificate"] = str(cfg["cert_out"])
    return out


def _cmd_dstable(cfg: dict) -> dict:
    K1, d1 = _resolve_set(cfg, "set1")
    K2, d2 = _resolve_set(cfg, "set2")
    frac = d_stable_probe(
        K1,
        K2,
        float(cfg["t"]),
        float(cfg["d"]),
        int(cfg["perturbations"]),
        float(cfg["radius"]),
        int(cfg["depth"]),
        seed=int(cfg["seed"]),
        budget=cfg["budget"],
    )
    return {
        "set1": _jsonable(d1),
        "set2": _jsonable(d2),
        "t": float(cfg["t"]),
        "d": float(cfg["d"]),
        "perturbations": int(cfg["perturbations"]),
        "radius": float(cfg["radius"]),
        "depth": int(cfg["depth"]),
        "seed": int(cfg["seed"]),
        "fraction_passing": frac,
    }


def _cmd_density(cfg: dict) -> dict:
    K1, d1 = _resolve_set(cfg, "set1")
    K2, d2 = _resolve_set(cfg, "set2")
    n_deltas = int(cfg["n_deltas"])
    delta_max = float(cfg["delta_max"])
    _require_positive({"delta_max": delta_max, "n_deltas": n_deltas}, ["delta_max", "n_deltas"])
    deltas = [delta_max * 2.0**-k for k in range(n_deltas)]
    prof = tangency_density_experiment(
        K1, K2, float(cfg["t0"]), deltas, int(cfg["depth"]), pair_budget=_pair_budget(cfg)
    )
    if cfg.get("csv"):
        prof.to_csv(cfg["csv"])
    out = prof.to_json()
    out["set1"] = _jsonable(d1)
    out["set2"] = _jsonable(d2)
    return out


def _cmd_spectrum(cfg: dict) -> dict:
    if cfg.get("sample"):
        budget = resolve_budget(cfg["budget"])
        values = lagrange_sample(
            int(cfg["max_period"]), int(cfg["digit_bound"]), budget=budget
        )
        if cfg.get("csv"):
            spectrum_csv(values, cfg["csv"])
        smallest = values[0]
        return {
            "mode": "sample",
            "max_period": int(cfg["max_period"]),
            "digit_bound": int(cfg["digit_bound"]),
            "count": len(values),
            "min_value": float(smallest),
            "min_exact": _surd_json(smallest.exact),
            "min_witness": list(smallest.witness),
        }
    if not cfg.get("period"):
        raise ConfigInvalid("spectrum needs --period DIGITS or --sample")
    period = _parse_list(cfg["period"], "period", int, "integers")
    prefix = _parse_list(cfg["prefix"], "prefix", int, "integers") if cfg.get("prefix") else ()
    seq = CFSequence(prefix=prefix, period=period)
    val = k_alpha(seq, int(cfg["window"]))
    return {
        "mode": "single",
        "sequence": seq.describe(),
        "window": val.window,
        "value": float(val),
        "exact": _surd_json(val.exact),
        "witness": list(val.witness),
        "estimator_gap": val.estimator_gap,
    }


def _cmd_halfline(cfg: dict) -> dict:
    targets = _parse_list(cfg["targets"], "targets", float, "numbers")
    hits = hall_halfline_probe(targets, depth=int(cfg["depth"]))
    rows = [
        {
            "target": h.target,
            "k_value": h.k_value,
            "hit_distance": h.hit_distance,
            "witness": list(h.witness),
        }
        for h in hits
    ]
    return {
        "depth": int(cfg["depth"]),
        "hits": rows,
        "max_hit_distance": max(h.hit_distance for h in hits),
    }


def _cmd_horseshoe(cfg: dict) -> dict:
    tol = float(cfg["tol"])
    expansion = _parse_ratio(cfg["expansion"], "expansion")
    if cfg.get("solve_unit"):
        report = solve_unit_dimension(float(expansion), tol)
        out = report.to_json()
        # two equal pieces of ratio c have dimension log2/log(1/c)
        out["contraction_solved"] = 2.0 ** (-1.0 / report.stable_dimension)
        out["expansion"] = float(expansion)
        return out
    contraction = _parse_ratio(cfg["contraction"], "contraction")
    h = AffineHorseshoe(contraction=contraction, expansion=expansion)
    out = horseshoe_dimension(h, tol).to_json()
    out["contraction"] = float(contraction)
    out["expansion"] = float(expansion)
    return out


def _cmd_catmap(cfg: dict) -> dict:
    report = cat_map_check(int(cfg["n"]), budget=cfg["budget"])
    return report.to_json()


def _cmd_stdmap(cfg: dict) -> dict:
    report = standard_family_lyapunov(
        float(cfg["lam"]),
        int(cfg["orbits"]),
        int(cfg["iterates"]),
        int(cfg["seed"]),
    )
    if cfg.get("csv"):
        report.to_csv(cfg["csv"])
    return report.summary_json()


def _cmd_list_sets(cfg: dict) -> dict:
    return {"sets": [e.to_json() for e in list_builtin_sets()]}


HANDLERS = {
    "dim": _cmd_dim,
    "thickness": _cmd_thickness,
    "sum": _cmd_sum,
    "diff": _cmd_diff,
    "hall": _cmd_hall,
    "marstrand": _cmd_marstrand,
    "intersect": _cmd_intersect,
    "recur": _cmd_recur,
    "dstable": _cmd_dstable,
    "density": _cmd_density,
    "spectrum": _cmd_spectrum,
    "halfline": _cmd_halfline,
    "horseshoe": _cmd_horseshoe,
    "catmap": _cmd_catmap,
    "stdmap": _cmd_stdmap,
    "list-sets": _cmd_list_sets,
}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorlab",
        description=(
            "Numerical laboratory for regular Cantor sets: dimensions, "
            "thickness, sums and differences, projection scans, "
            "intersection certificates, continued-fraction spectra, and "
            "simple hyperbolic dynamics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(
            name, help=help_text, argument_default=argparse.SUPPRESS
        )
        sp.add_argument("--config", help="JSON config file (flags win)")
        sp.add_argument("--out", help="write the JSON result record here")
        sp.add_argument("--csv", help="write the per-row CSV artifact here")
        sp.add_argument("--budget", type=int, help="interval/cell budget")
        return sp

    def add_set(sp, prefix="set"):
        sp.add_argument(f"--{prefix}", help="built-in set name")
        sp.add_argument(
            f"--{prefix}-file", dest=f"{prefix}_file", help="set definition JSON"
        )

    def add_pair(sp):
        add_set(sp, "set1")
        add_set(sp, "set2")

    sp = add("dim", "box or Moran dimension of a set")
    add_set(sp)
    sp.add_argument("--method", choices=("moran", "box"))
    sp.add_argument("--tol", type=float)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--depth-min", dest="depth_min", type=int)
    sp.add_argument("--depth-max", dest="depth_max", type=int)

    sp = add("thickness", "gap-to-bridge thickness of a set")
    add_set(sp)
    sp.add_argument("--depth", type=int)

    sp = add("sum", "outer cover of the arithmetic sum of two sets")
    add_pair(sp)
    sp.add_argument("--depth", type=int)

    sp = add("diff", "outer cover of the scaled difference K1 - lam*K2")
    add_pair(sp)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--lambda", dest="lam", type=float)

    sp = add("hall", "check the sum of two digit<=4 CF sets fills its interval")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--margin", type=float)

    sp = add("marstrand", "covered length of random projections x - lam*y")
    add_pair(sp)
    sp.add_argument("--n-lambdas", dest="n_lambdas", type=int)
    sp.add_argument("--lambda-lo", dest="lambda_lo", type=float)
    sp.add_argument("--lambda-hi", dest="lambda_hi", type=float)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--res-exp-lo", dest="res_exp_lo", type=int)
    sp.add_argument("--res-exp-hi", dest="res_exp_hi", type=int)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--seed", type=int)

    sp = add("intersect", "cover intersection and thickness certificate at t")
    add_pair(sp)
    sp.add_argument("--t", type=float)
    sp.add_argument("--depth", type=int)

    sp = add("recur", "search/verify a recurrent region of relative positions")
    add_pair(sp)
    sp.add_argument("--s-lo", dest="s_lo", type=float)
    sp.add_argument("--s-hi", dest="s_hi", type=float)
    sp.add_argument("--t-lo", dest="t_lo", type=float)
    sp.add_argument("--t-hi", dest="t_hi", type=float)
    sp.add_argument("--ns", type=int)
    sp.add_argument("--nt", type=int)
    sp.add_argument("--margin", type=int)
    sp.add_argument("--cert-out", dest="cert_out", help="write certificate JSON")
    sp.add_argument("--verify", help="re-verify an existing certificate file")

    sp = add("dstable", "fraction of perturbed pairs keeping a fat intersection")
    add_pair(sp)
    sp.add_argument("--t", type=float)
    sp.add_argument("--d", type=float)
    sp.add_argument("--perturbations", type=int)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--seed", type=int)

    sp = add("density", "density of the difference cover near a translation t0")
    add_pair(sp)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--delta-max", dest="delta_max", type=float)
    sp.add_argument("--n-deltas", dest="n_deltas", type=int)
    sp.add_argument("--depth", type=int)

    sp = add("spectrum", "best-approximation constant of a CF sequence")
    sp.add_argument("--period", help="comma-separated repeating digits, e.g. 2,1")
    sp.add_argument("--prefix", help="comma-separated leading digits")
    sp.add_argument("--window", type=int)
    sp.add_argument("--sample", action="store_true", help="enumerate periodic words")
    sp.add_argument("--max-period", dest="max_period", type=int)
    sp.add_argument("--digit-bound", dest="digit_bound", type=int)

    sp = add("halfline", "hit large spectrum targets with digit<=4 words")
    sp.add_argument("--targets", help="comma-separated targets, all >= 6")
    sp.add_argument("--depth", type=int)

    sp = add("horseshoe", "stable/unstable/total dimension of an affine horseshoe")
    sp.add_argument("--contraction", help="strip ratio, e.g. 1/4")
    sp.add_argument("--expansion", help="stretch factor > 2")
    sp.add_argument("--solve-unit", dest="solve_unit", action="store_true")
    sp.add_argument("--tol", type=float)

    sp = add("catmap", "torus map periodic-point counts vs the trace formula")
    sp.add_argument("--n", type=int)

    sp = add("stdmap", "Lyapunov exponents of the standard family")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--orbits", type=int)
    sp.add_argument("--iterates", type=int)
    sp.add_argument("--seed", type=int)

    add("list-sets", "names and descriptions of the built-in sets")

    return parser


# ---------------------------------------------------------------------------
# run loop


def _load_config(path: str, command: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"config file {path} must hold a JSON object")
    allowed = set(DEFAULTS[command]) - {"config"}
    out = {}
    for key, value in doc.items():
        k = str(key).replace("-", "_")
        if k == "lambda":
            k = "lam"
        if k not in allowed:
            raise ConfigInvalid(
                f"config key {key!r} is not valid for command {command!r}"
            )
        out[k] = value
    return out


def _effective_config(command: str, cli_ns: dict) -> dict:
    cfg = dict(DEFAULTS[command])
    cfg_path = cli_ns.get("config")
    if cfg_path:
        cfg.update(_load_config(cfg_path, command))
        cfg["config"] = cfg_path
    cfg.update({k: v for k, v in cli_ns.items() if k != "command"})
    if cfg.get("budget") is not None and int(cfg["budget"]) <= 0:
        raise ConfigInvalid(f"budget must be positive, got {cfg['budget']!r}")
    return cfg


def run(command: str, cli_ns: dict) -> tuple[dict, str | None]:
    """Execute one command; returns (result record, output path)."""
    if command not in HANDLERS:
        raise ConfigInvalid(f"unknown command {command!r}")
    cfg = _effective_config(command, cli_ns)
    inputs = {
        k: _jsonable(v)
        for k, v in sorted(cfg.items())
        if k not in _NON_DIGEST_KEYS and v is not None
    }
    start = time.perf_counter()
    outputs = HANDLERS[command](cfg)
    runtime = time.perf_counter() - start
    record = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "outputs": outputs,
        "runtime_seconds": runtime,
    }
    return record, cfg.get("out")


def _emit(record: dict, out_path: str | None) -> None:
    text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed usage or help; a usage error is invalid input
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    ns = vars(args)
    try:
        record, out_path = run(ns["command"], ns)
        _emit(record, out_path)
    except BudgetExceeded as exc:
        print(f"cantorlab: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as exc:
        path = exc.filename if exc.filename else str(exc)
        print(f"cantorlab: missing file: {path}", file=sys.stderr)
        return EXIT_INVALID
    except (ConfigInvalid, ValidationError) as exc:
        print(f"cantorlab: invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ResourceError, CantorLabError) as exc:
        print(f"cantorlab: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cantorlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
