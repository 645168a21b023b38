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
inputs, and so the digest, hold the settings the handler read, minus
output locations and unset values, and a file the command reads
(``--set-file``, ``--set1-file``, ``--set2-file``, ``--verify``) enters
by its path and the SHA-256 of its bytes.

Each command's settings are declared once, in ``COMMANDS``: a default,
a parser type and a help text per key.  That table builds the subcommand
parsers, the default configuration and the keys a config file may hold.
Configuration precedence: command-line flags > ``--config`` JSON file >
built-in defaults.  Config file keys use the flag names with underscores
(``set1``, ``depth_max``, ``lam`` — ``lambda`` is accepted as an alias).
A config value is parsed as its flag's would be, so both give the same
record and digest: a number setting refuses a JSON bool, and an integer
setting a number with a fractional part.  A flag's value may be a
negative number in exponent form (``--t -1e-3``).

Each handler builds its own outputs dict from the library's result
types; no library module formats a record or a CSV.  Only commands that
write a per-row artifact take ``--csv`` (dim, sum, diff, hall, marstrand,
density, spectrum, stdmap), and every such file goes through
``_write_csv``: a header row, then comma-separated rows, with ``\r\n``
line ends.  ``--budget`` is a pair budget for sum, diff, hall, marstrand
and density; elsewhere it caps the intervals per cover (dim, thickness,
intersect, dstable), the grid cells (recur), the words (spectrum
--sample) or the periodic points (catmap); the other commands do not
take it.  When the pair budget coarsens a sum (meta ``capped``, or a scan's
``capped_rows``), the command prints one note to stderr; the record is the
same either way.  An option a command does not take exits 3, as a flag
and as a config key, and so does a float setting that is not finite or a
negative seed.

Each handler imports the library modules it calls when it runs, so a
command loads only those: ``list-sets``, ``spectrum``, ``halfline``,
``horseshoe`` and ``catmap`` work on integers, surds and closed forms and
never import numpy.  At load time the CLI imports only ``errors`` and
``spectra`` (``HALL_TARGET`` and the spectrum handlers' functions),
neither of which imports numpy.

Exit codes: 0 success, 2 budget exhaustion, 3 invalid arguments,
invalid configuration or validation failure (including missing files,
which are reported by path).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .errors import BudgetExceeded, CantorLabError, ConfigInvalid, ValidationError
from .spectra import HALL_TARGET, CFSequence, hall_halfline_probe, k_alpha, lagrange_sample

if TYPE_CHECKING:
    from .cantor_core import RegularCantorSet
    from .setops import IntervalUnion

__all__ = ["main", "build_parser", "HALL_TARGET"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVALID = 3

# Keys that never enter the inputs digest: output locations do not
# affect the numbers.
_NON_DIGEST_KEYS = {"config", "out", "csv", "cert_out"}
# Settings that name a file the command reads: the inputs hold the
# SHA-256 of its bytes next to its path, so the digest follows its content.
_INPUT_FILE_KEYS = ("set_file", "set1_file", "set2_file", "verify")

# A flag value that reads as a negative number, exponent form included:
# argparse's own pattern takes only -3 and -0.5, so `--t -1e-3` would
# read -1e-3 as an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


# ---------------------------------------------------------------------------
# small helpers


def _digest(inputs: dict) -> str:
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Settings(dict):
    """A command's settings; `read` holds every key looked up in them."""

    def __init__(self, values: dict) -> None:
        super().__init__(values)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


def _inputs(cfg: _Settings) -> dict:
    """The record's inputs: every setting the handler read except output
    locations and unset values, plus the SHA-256 of each input file."""
    inputs = {k: _jsonable(cfg[k]) for k in sorted(cfg.read - _NON_DIGEST_KEYS) if cfg.get(k) is not None}
    for k in _INPUT_FILE_KEYS:
        if inputs.get(k):
            with open(inputs[k], "rb") as fh:
                inputs[f"{k}_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return inputs


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if np is not None and isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _surd_json(s):
    return {"p": s.p, "q": s.q, "r": s.r, "d": s.d, "float": float(s)}


def finite_float(value) -> float:
    """A float setting: any finite number."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not finite")
    return x


def nonnegative_int(value) -> int:
    """A seed setting: an integer >= 0."""
    n = int(value)
    if n < 0:
        raise ValueError(f"{value!r} is negative")
    return n


def exact_ratio(value) -> Fraction:
    """A ratio setting: an exact fraction ('1/4', '0.25', 3) that a float
    can hold.  A JSON float reads as it prints, so 0.25 is 1/4."""
    try:
        x = Fraction(str(value))
        float(x)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{value!r} is not a finite ratio") from None
    return x


def _json_value(kind, value):
    """`kind(value)`, refusing what the flag would refuse: a JSON bool, or
    a number whose fractional part an integer setting would drop."""
    if isinstance(value, bool):
        raise ValueError(value)
    x = kind(value)
    if isinstance(x, int) and isinstance(value, float) and x != value:
        raise ValueError(value)
    return x


def _items(value) -> list:
    """A list setting's items: a JSON list, or a comma-separated string."""
    if isinstance(value, list):
        return value
    return [p for p in str(value).replace(" ", "").split(",") if p]


def int_list(value) -> tuple[int, ...]:
    """A digit-list setting: comma-separated integers, or a JSON list."""
    return tuple(_json_value(int, x) for x in _items(value))


def float_list(value) -> tuple[float, ...]:
    """A number-list setting: comma-separated numbers, or a JSON list."""
    return tuple(_json_value(float, x) for x in _items(value))


def _resolve_set(cfg: dict, prefix: str) -> tuple[RegularCantorSet, object]:
    """Build the set named by `prefix`/`prefix_file`; returns (set, descriptor)."""
    path = cfg.get(f"{prefix}_file")
    if path:
        from .cantor_core import load_set

        return load_set(path), {"file": str(path)}
    name = cfg.get(prefix)
    if not name:
        raise ConfigInvalid(f"no {prefix} given (use --{prefix} or --{prefix}-file)")
    from .catalog import get_set

    return get_set(str(name)), str(name)


def _resolve_pair(cfg: dict) -> tuple[RegularCantorSet, RegularCantorSet, dict]:
    """Build set1 and set2; returns (K1, K2, their descriptors by key)."""
    K1, d1 = _resolve_set(cfg, "set1")
    K2, d2 = _resolve_set(cfg, "set2")
    return K1, K2, {"set1": d1, "set2": d2}


def _write_csv(path, header, rows) -> None:
    """Every --csv artifact: a header row, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _union_csv(U: IntervalUnion, path) -> None:
    rows = ([repr(float(lo)), repr(float(hi))] for lo, hi in zip(U.los, U.his))
    _write_csv(path, ["lo", "hi"], rows)


def _note_capped(capped: int, of: int) -> None:
    """One stderr line when the pair budget coarsened `capped` of `of`
    sums; the record is the same either way."""
    if capped:
        print(f"cantorlab: note: the pair budget coarsened {int(capped)} of {of} sums "
              "below the depth asked for (raise --budget)", file=sys.stderr)


def _union_outputs(U: IntervalUnion) -> dict:
    meta = {k: _jsonable(v) for k, v in sorted(U.meta.items())}
    return {
        "n_components": int(U.n_components),
        "total_length": float(U.total_length),
        "lo": float(U.hull.lo),
        "hi": float(U.hull.hi),
        "meta": meta,
    }


# ---------------------------------------------------------------------------
# command handlers (each returns the outputs dict)


def _cmd_dim(cfg: dict) -> dict:
    from .dimension import box_dimension, hausdorff_dimension_moran

    K, desc = _resolve_set(cfg, "set")
    method = str(cfg["method"])
    if method == "moran":
        est = hausdorff_dimension_moran(K, cfg["depth"], budget=cfg["budget"])
    elif method == "box":
        depths = range(cfg["depth_min"], cfg["depth_max"] + 1)
        est = box_dimension(K, depths, budget=cfg["budget"])
    else:
        raise ConfigInvalid(f"method must be 'moran' or 'box', got {method!r}")
    if cfg.get("csv"):
        rows = ([n, count, repr(r)] for n, count, r in zip(est.depths, est.counts, est.radii))
        _write_csv(cfg["csv"], ["depth", "N", "r"], rows)
    return {
        "value": est.value,
        "method": est.method,
        "residual": est.residual,
        "depth_used": est.depth_used,
        "set": desc,
    }


def _cmd_thickness(cfg: dict) -> dict:
    from .dimension import thickness

    K, desc = _resolve_set(cfg, "set")
    est = thickness(K, cfg["depth"], budget=cfg["budget"])
    return {
        "value": est.value,
        "depth": est.depth,
        "limiting_gap": list(est.limiting_gap.as_floats()),
        "limiting_gap_address": list(est.limiting_gap_address),
        "set": desc,
    }


def _cmd_cover_sum(cfg: dict, op: str) -> dict:
    from .setops import cover_sum

    K1, K2, names = _resolve_pair(cfg)
    lam = cfg.get("lam", 1.0)
    U = cover_sum(K1, K2, cfg["depth"], op, lam, pair_budget=cfg["budget"])
    _note_capped(U.meta.get("capped", False), 1)
    if cfg.get("csv"):
        _union_csv(U, cfg["csv"])
    return {**_union_outputs(U), **names}


def _cmd_hall(cfg: dict) -> dict:
    from .cantor_core import Interval, gauss_cantor
    from .setops import contains_interval, cover_sum

    depth = cfg["depth"]
    margin = cfg["margin"]
    K = gauss_cantor(4)
    U = cover_sum(K, K, depth, "+", pair_budget=cfg["budget"])
    _note_capped(U.meta["capped"], 1)
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
    import numpy as np

    from .setops import marstrand_scan

    K1, K2, names = _resolve_pair(cfg)
    n_lam = cfg["n_lambdas"]
    lo, hi = cfg["lambda_lo"], cfg["lambda_hi"]
    if not (n_lam >= 1 and hi > lo):
        raise ConfigInvalid("need n_lambdas >= 1 and lambda_hi > lambda_lo")
    rng = np.random.default_rng(cfg["seed"])
    lambdas = rng.uniform(lo, hi, size=n_lam)
    e_lo, e_hi = cfg["res_exp_lo"], cfg["res_exp_hi"]
    if e_hi < e_lo:
        raise ConfigInvalid("res_exp_hi must be >= res_exp_lo")
    resolutions = [2.0**-k for k in range(e_lo, e_hi + 1)]
    scan = marstrand_scan(
        K1, K2, lambdas, cfg["depth"], resolutions,
        theta=cfg["theta"], pair_budget=cfg["budget"],
    )
    _note_capped(scan.capped_rows, len(scan.lambdas))
    if cfg.get("csv"):
        rows = (
            [repr(lam), repr(res), repr(float(length))]
            for lam, lengths in zip(scan.lambdas, scan.table)
            for res, length in zip(scan.resolutions, lengths)
        )
        _write_csv(cfg["csv"], ["lambda", "resolution", "covered_length"], rows)
    return {
        **names,
        "fraction_above_theta": scan.fraction_above(),
        "median_slope": scan.median_slope(),
        "theta": scan.theta,
        "n": scan.depth,
        "n_lambdas": n_lam,
        "lambda_lo": lo,
        "lambda_hi": hi,
        "seed": cfg["seed"],
        "finest_resolution": resolutions[-1],
    }


def _cmd_intersect(cfg: dict) -> dict:
    from .intersect import gap_lemma_test, intersect_test

    K1, K2, names = _resolve_pair(cfg)
    t = cfg["t"]
    outcome = intersect_test(K1, K2, t, cfg["depth"], budget=cfg["budget"])
    lemma = gap_lemma_test(K1, K2, t)
    return {
        **names,
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
    from .intersect import recurrent_compact_search, save_certificate, verify_certificate

    if cfg.get("verify"):
        with open(cfg["verify"]) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ValidationError(f"certificate {cfg['verify']} is not valid JSON: {exc}") from exc
        ok, reason = verify_certificate(doc, budget=cfg["budget"])
        return {"verified": bool(ok), "reason": reason, "certificate": str(cfg["verify"])}
    K1, K2, names = _resolve_pair(cfg)
    s_lo, s_hi = cfg["s_lo"], cfg["s_hi"]
    t_lo, t_hi = cfg["t_lo"], cfg["t_hi"]
    ns, nt = cfg["ns"], cfg["nt"]
    if ns < 1 or nt < 1:
        raise ConfigInvalid("grid counts ns, nt must be >= 1")
    hs = (s_hi - s_lo) / ns
    ht = (t_hi - t_lo) / nt
    outcome = recurrent_compact_search(
        K1,
        K2,
        ((s_lo, s_hi), (t_lo, t_hi)),
        (hs, ht),
        cfg["margin"],
        budget=cfg["budget"],
    )
    out = {
        **names,
        "found": outcome.found,
        "sweeps": outcome.sweeps,
        "n_members": outcome.region.n_members if outcome.found else 0,
        "box": [[s_lo, s_hi], [t_lo, t_hi]],
        "grid": [hs, ht],
        "margin": cfg["margin"],
    }
    if outcome.found and cfg.get("cert_out"):
        save_certificate(cfg["cert_out"], outcome.region, K1, K2)
        out["certificate"] = str(cfg["cert_out"])
    return out


def _cmd_dstable(cfg: dict) -> dict:
    from .intersect import d_stable_probe

    K1, K2, names = _resolve_pair(cfg)
    frac = d_stable_probe(
        K1,
        K2,
        cfg["t"],
        cfg["d"],
        cfg["perturbations"],
        cfg["radius"],
        cfg["depth"],
        seed=cfg["seed"],
        budget=cfg["budget"],
    )
    return {
        **names,
        "t": cfg["t"],
        "d": cfg["d"],
        "perturbations": cfg["perturbations"],
        "radius": cfg["radius"],
        "depth": cfg["depth"],
        "seed": cfg["seed"],
        "fraction_passing": frac,
    }


def _cmd_density(cfg: dict) -> dict:
    from .intersect import tangency_density_experiment

    K1, K2, names = _resolve_pair(cfg)
    n_deltas = cfg["n_deltas"]
    delta_max = cfg["delta_max"]
    for key, v in (("delta_max", delta_max), ("n_deltas", n_deltas)):
        if not v > 0:
            raise ConfigInvalid(f"{key} must be positive, got {v!r}")
    deltas = [delta_max * 2.0**-k for k in range(n_deltas)]
    prof = tangency_density_experiment(
        K1, K2, cfg["t0"], deltas, cfg["depth"], pair_budget=cfg["budget"]
    )
    if cfg.get("csv"):
        rows = ([repr(delta), repr(ratio)] for delta, ratio in zip(prof.deltas, prof.ratios))
        _write_csv(cfg["csv"], ["delta", "ratio"], rows)
    out = asdict(prof)
    _note_capped(out.pop("capped"), 1)
    return {**out, **names}


def _cmd_spectrum(cfg: dict) -> dict:
    if cfg.get("sample"):
        values = lagrange_sample(
            cfg["max_period"], cfg["digit_bound"], budget=cfg["budget"]
        )
        if cfg.get("csv"):
            rows = ([repr(v.value), "-".join(map(str, v.witness)), v.window] for v in values)
            _write_csv(cfg["csv"], ["value", "witness_digits", "window"], rows)
        smallest = values[0]
        return {
            "mode": "sample",
            "max_period": cfg["max_period"],
            "digit_bound": cfg["digit_bound"],
            "count": len(values),
            "min_value": float(smallest),
            "min_exact": _surd_json(smallest.exact),
            "min_witness": list(smallest.witness),
        }
    if not cfg.get("period"):
        raise ConfigInvalid("spectrum needs --period DIGITS or --sample")
    seq = CFSequence(prefix=cfg["prefix"] or (), period=cfg["period"])
    val = k_alpha(seq, cfg["window"])
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
    hits = hall_halfline_probe(cfg["targets"], depth=cfg["depth"])
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
        "depth": cfg["depth"],
        "hits": rows,
        "max_hit_distance": max(h.hit_distance for h in hits),
    }


def _cmd_horseshoe(cfg: dict) -> dict:
    from .dynamics import AffineHorseshoe, horseshoe_dimension, solve_unit_dimension

    expansion = cfg["expansion"]
    if cfg.get("solve_unit"):
        report = solve_unit_dimension(float(expansion))
        # two equal pieces of ratio c have dimension log2/log(1/c)
        solved = {"contraction_solved": 2.0 ** (-1.0 / report.stable_dimension)}
    else:
        report = horseshoe_dimension(AffineHorseshoe(cfg["contraction"], expansion))
        solved = {"contraction": float(cfg["contraction"])}
    return {**asdict(report), **solved, "expansion": float(expansion)}


def _cmd_catmap(cfg: dict) -> dict:
    from .dynamics import cat_map_check

    report = cat_map_check(cfg["n"], budget=cfg["budget"])
    return {
        "eigenvalue_unstable": float(report.eigenvalue_unstable),
        "eigenvalue_stable": float(report.eigenvalue_stable),
        "product_is_one": report.product_is_one,
        "hyperbolic": report.hyperbolic,
        "counts": [list(c) for c in report.counts],
        "all_counts_match": report.all_counts_match,
    }


def _cmd_stdmap(cfg: dict) -> dict:
    from .dynamics import standard_family_lyapunov

    report = standard_family_lyapunov(
        cfg["lam"],
        cfg["orbits"],
        cfg["iterates"],
        cfg["seed"],
    )
    if cfg.get("csv"):
        rows = ([i, repr(float(e))] for i, e in enumerate(report.top_exponents))
        _write_csv(cfg["csv"], ["orbit_id", "exponent"], rows)
    return {
        "lambda": report.lam,
        "orbits": report.orbits,
        "iterates": report.iterates,
        "seed": report.seed,
        "mean_exponent": report.mean_exponent,
        "fraction_positive": report.fraction_positive,
        "max_abs_pair_sum": report.max_abs_pair_sum,
    }


def _cmd_list_sets(cfg: dict) -> dict:
    from .catalog import list_builtin_sets

    return {"sets": [{"name": e.name, "description": e.description} for e in list_builtin_sets()]}


# ---------------------------------------------------------------------------
# settings: each declared once, with its default, parser type and help


class Setting(NamedTuple):
    default: object
    type: type
    help: str | None = None


def _one_set(prefix: str, name: str) -> dict[str, Setting]:
    return {
        prefix: Setting(name, str, "built-in set name"),
        f"{prefix}_file": Setting(None, str, "set definition JSON"),
    }


def _pair(name: str = "ternary") -> dict[str, Setting]:
    return {**_one_set("set1", name), **_one_set("set2", name)}


_SET = _one_set("set", "ternary")
_CSV = {"csv": Setting(None, str, "write the per-row CSV artifact here")}
_PAIR_BUDGET = {"budget": Setting(None, int, "pair budget: most interval pairs in one sum")}
_INTERVAL_BUDGET = {"budget": Setting(None, int, "interval budget: most intervals in one cover")}
# every command takes these; `config` is the one key a config file may not set
_COMMON = {
    "config": Setting(None, str, "JSON config file (flags win)"),
    "out": Setting(None, str, "write the JSON result record here"),
}

# command -> (handler, help, settings).  A flag is its key with "_" turned
# into "-", except `lam`, which is --lambda; a bool setting is a switch.
COMMANDS: dict[str, tuple] = {
    "dim": (_cmd_dim, "box or Moran dimension of a set", {
        **_SET,
        "method": Setting("moran", str, "'moran' or 'box'"),
        "depth": Setting(8, int),
        "depth_min": Setting(2, int),
        "depth_max": Setting(10, int),
        **_CSV,
        **_INTERVAL_BUDGET,
    }),
    "thickness": (_cmd_thickness, "gap-to-bridge thickness of a set", {
        **_SET,
        "depth": Setting(8, int),
        **_INTERVAL_BUDGET,
    }),
    "sum": (partial(_cmd_cover_sum, op="+"), "outer cover of the arithmetic sum of two sets", {
        **_pair(),
        "depth": Setting(8, int),
        **_CSV,
        **_PAIR_BUDGET,
    }),
    "diff": (partial(_cmd_cover_sum, op="-"), "outer cover of the scaled difference K1 - lam*K2", {
        **_pair(),
        "depth": Setting(8, int),
        "lam": Setting(1.0, finite_float),
        **_CSV,
        **_PAIR_BUDGET,
    }),
    "hall": (_cmd_hall, "check the sum of two digit<=4 CF sets fills its interval", {
        "depth": Setting(8, int),
        "margin": Setting(1e-3, finite_float),
        **_CSV,
        **_PAIR_BUDGET,
    }),
    "marstrand": (_cmd_marstrand, "covered length of random projections x - lam*y", {
        **_pair(),
        "n_lambdas": Setting(200, int),
        "lambda_lo": Setting(0.1, finite_float),
        "lambda_hi": Setting(3.0, finite_float),
        "depth": Setting(8, int),
        "res_exp_lo": Setting(6, int),
        "res_exp_hi": Setting(12, int),
        "theta": Setting(0.1, finite_float),
        "seed": Setting(0, nonnegative_int),
        **_CSV,
        **_PAIR_BUDGET,
    }),
    "intersect": (_cmd_intersect, "cover intersection and gap-lemma certificate at t", {
        **_pair(),
        "t": Setting(0.0, finite_float),
        "depth": Setting(8, int),
        **_INTERVAL_BUDGET,
    }),
    "recur": (_cmd_recur, "search/verify a recurrent region of relative positions", {
        **_pair("middle-fifth"),
        "s_lo": Setting(-0.75, finite_float),
        "s_hi": Setting(0.75, finite_float),
        "t_lo": Setting(-2.25, finite_float),
        "t_hi": Setting(1.25, finite_float),
        "ns": Setting(120, int),
        "nt": Setting(240, int),
        "margin": Setting(1, int),
        "cert_out": Setting(None, str, "write certificate JSON"),
        "verify": Setting(None, str, "re-verify an existing certificate file"),
        "budget": Setting(None, int, "cell budget: most grid cells in the search"),
    }),
    "dstable": (_cmd_dstable, "fraction of perturbed pairs keeping a fat intersection", {
        **_pair(),
        "t": Setting(0.0, finite_float),
        "d": Setting(0.3, finite_float),
        "perturbations": Setting(20, int),
        "radius": Setting(0.01, finite_float),
        "depth": Setting(9, int),
        "seed": Setting(0, nonnegative_int),
        **_INTERVAL_BUDGET,
    }),
    "density": (_cmd_density, "density of the difference cover near a translation t0", {
        **_pair(),
        "t0": Setting(0.0, finite_float),
        "delta_max": Setting(0.5, finite_float),
        "n_deltas": Setting(8, int),
        "depth": Setting(8, int),
        **_CSV,
        **_PAIR_BUDGET,
    }),
    "spectrum": (_cmd_spectrum, "best-approximation constant of a CF sequence", {
        "period": Setting(None, int_list, "comma-separated repeating digits, e.g. 2,1"),
        "prefix": Setting(None, int_list, "comma-separated leading digits"),
        "window": Setting(6, int),
        "sample": Setting(False, bool, "enumerate periodic words"),
        "max_period": Setting(6, int),
        "digit_bound": Setting(4, int),
        **_CSV,
        "budget": Setting(None, int, "word budget: most cyclic words --sample lists"),
    }),
    "halfline": (_cmd_halfline, "hit large spectrum targets with digit<=4 words", {
        "targets": Setting((6.0, 7.0, 8.0, 9.5, 12.0, 20.0), float_list,
                           "comma-separated targets, all >= 6"),
        "depth": Setting(8, int),
    }),
    "horseshoe": (_cmd_horseshoe, "stable/unstable/total dimension of an affine horseshoe", {
        "contraction": Setting(Fraction(1, 4), exact_ratio, "strip ratio, e.g. 1/4"),
        "expansion": Setting(Fraction(5), exact_ratio, "stretch factor > 2"),
        "solve_unit": Setting(False, bool),
    }),
    "catmap": (_cmd_catmap, "torus map periodic-point counts vs the trace formula", {
        "n": Setting(10, int),
        "budget": Setting(None, int, "point budget: most periodic points enumerated"),
    }),
    "stdmap": (_cmd_stdmap, "Lyapunov exponents of the standard family", {
        "lam": Setting(0.0, finite_float),
        "orbits": Setting(100, int),
        "iterates": Setting(2000, int),
        "seed": Setting(0, nonnegative_int),
        **_CSV,
    }),
    "list-sets": (_cmd_list_sets, "names and descriptions of the built-in sets", {}),
}


def _settings(command: str) -> dict[str, Setting]:
    return {**_COMMON, **COMMANDS[command][2]}


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
    for command, (_, help_text, _) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        for key, s in _settings(command).items():
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            if s.type is bool:
                sp.add_argument(flag, dest=key, action="store_true", help=s.help)
            else:
                sp.add_argument(flag, dest=key, type=s.type, help=s.help)
    return parser


# ---------------------------------------------------------------------------
# run loop


def _load_config(path: str, command: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigInvalid(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"config file {path} must hold a JSON object")
    settings = _settings(command)
    out = {}
    for key, value in doc.items():
        k = str(key).replace("-", "_")
        if k == "lambda":
            k = "lam"
        if k not in settings or k == "config":
            raise ConfigInvalid(
                f"config key {key!r} is not valid for command {command!r}"
            )
        try:
            out[k] = _config_value(settings[k], value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigInvalid(
                f"config key {key!r} must be {settings[k].type.__name__}, got {value!r}"
            ) from None
    return out


def _config_value(s: Setting, value):
    """A config value as its flag would hold it; raises where the flag would refuse it.

    So a config and the flags it mirrors give the same values and the same
    inputs digest.  A str setting (a set name or a path) keeps the value as
    written.
    """
    if value is None:
        if s.default is None:
            return None
    elif s.type is str:
        return value
    elif s.type is bool:
        if isinstance(value, bool):
            return value
    else:
        return _json_value(s.type, value)
    raise ValueError(value)


def _effective_config(command: str, cli_ns: dict) -> dict:
    cfg = {key: s.default for key, s in _settings(command).items()}
    cfg_path = cli_ns.get("config")
    if cfg_path:
        cfg.update(_load_config(cfg_path, command))
        cfg["config"] = cfg_path
    cfg.update({k: v for k, v in cli_ns.items() if k != "command"})
    # no leading digits is no prefix, so both give one inputs digest
    if cfg.get("prefix") == ():
        cfg["prefix"] = None
    if cfg.get("budget") is not None and cfg["budget"] <= 0:
        raise ConfigInvalid(f"budget must be positive, got {cfg['budget']!r}")
    return cfg


def run(command: str, cli_ns: dict) -> tuple[dict, str | None]:
    """Execute one command; returns (result record, output path)."""
    if command not in COMMANDS:
        raise ConfigInvalid(f"unknown command {command!r}")
    cfg = _Settings(_effective_config(command, cli_ns))
    start = time.perf_counter()
    outputs = COMMANDS[command][0](cfg)
    runtime = time.perf_counter() - start
    inputs = _inputs(cfg)
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
    except ValidationError as exc:
        print(f"cantorlab: invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CantorLabError as exc:
        print(f"cantorlab: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cantorlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
