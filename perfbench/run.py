"""cantorlab benchmark.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Runs one workload against the cantorlab sources in ``src/`` next to this
directory.  Each repetition of the workload's fixed op list runs in a
fresh interpreter, one at a time, until ``--seconds`` is used up; a
CLI user pays import and set construction on every command, and no
cache can carry over from one repetition to the next.  Every output is
checked.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced repetitions and reports the per-layer metrics from
the traced ones, plus the tracing overhead and the share of wall time
the listed self times leave unexplained.  Records, and the spans of the
first traced repetition, are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "sumset", "certify", "spectra")
HARD_LIMIT_S = 160.0  # the whole run, children included, stays under this
MIN_REPS = 3
MIN_SETUP_SAMPLES = 9
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
# Times are reported at the machine speed where the yardstick takes this
# long (about its median on the baseline machine): each time is multiplied by
# YARDSTICK_NOMINAL_S over the yardstick timed beside it.  See NOTES.md.
YARDSTICK_NOMINAL_S = 0.005

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> list[tuple[str, str]]:
    def timed(layer, fns, kinds=("calls", "self_s")):
        return [f"{layer}.{fn}.{kind}" for fn in fns for kind in kinds]

    names = (
        timed("cantor_core", ("refine", "refine_to_length", "maxlen_at_depth"))
        + ["cantor_core.cover_intervals", "cantor_core.cover_repeat_share"]
        + timed("setops", ("cover_sum", "merge_intervals", "covered_length", "contains_interval"))
        + ["setops.marstrand_scan.self_s", "setops.pairs", "setops.components_per_pair",
           "setops.capped"]
        + timed("intersect", ("recurrent_compact_search", "verify_certificate"))
        + ["intersect.sweeps", "intersect.cells_verified"]
        + timed("intersect", ("gap_lemma_test", "intersect_test", "d_stable_probe",
                              "tangency_density_experiment"), ("self_s",))
        + timed("dimension", ("thickness", "hausdorff_dimension_moran"), ("self_s",))
        + timed("spectra", ("k_alpha", "lagrange_sample", "hall_halfline_probe"), ("self_s",))
        + ["spectra.k_alpha.calls", "spectra.exact_share"]
        + timed("surd", ("periodic_value", "periodic_tail_value", "periodic_value_float"))
        + ["dynamics.cat_map_check.self_s", "trace.overhead_share", "trace.unattributed_share"]
    )

    def unit(name):
        if name.endswith(".self_s"):
            return "s"
        if name.endswith("_share") or name.endswith("_per_pair"):
            return "ratio"
        return "count"

    return [(name, unit(name)) for name in names]


PER_LAYER = _per_layer()


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CANTORLAB_BUDGET"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args, env: dict, rep: int, mode: str, deadline: float, spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a repetition could start")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition {rep} exceeded the time limit") from None
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} repetition {rep} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["setup_end"] - start
    result["setup_s"] = result["raw_setup_s"] * YARDSTICK_NOMINAL_S / result["setup_yardstick_s"]
    if "ops" in result:
        result["raw_op_s"] = [seconds for _name, seconds, _error in result["ops"]]
        for op, yard in zip(result["ops"], result["op_yardstick_s"]):
            op[1] *= YARDSTICK_NOMINAL_S / yard
    result["process_s"] = end - start
    result["mode"] = mode
    return result


def _machine(reps: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in reps if "numpy" in r), "unknown"),
        "platform": platform.platform(),
    }


def _op_wall(rep: dict) -> float:
    return sum(seconds for _name, seconds, _error in rep["ops"])


def _layer_values(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (overhead excluded).
    Self times are scaled by the repetition's median yardstick."""
    trace = rep["trace"]
    calls, own, counts = trace["calls"], trace["self_s"], trace["counts"]
    scale = YARDSTICK_NOMINAL_S / statistics.median(rep["op_yardstick_s"])

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    derived = {
        "cantor_core.cover_intervals": counts.get("cantor_core.cover_intervals", 0.0),
        "cantor_core.cover_repeat_share": ratio("cantor_core.cover_repeats",
                                                "cantor_core.cover_requests"),
        "setops.pairs": counts.get("setops.pairs", 0.0),
        "setops.components_per_pair": ratio("setops.components", "setops.pairs"),
        "setops.capped": counts.get("setops.capped", 0.0),
        "intersect.sweeps": counts.get("intersect.sweeps", 0.0),
        "intersect.cells_verified": counts.get("intersect.cells_verified", 0.0),
        "spectra.exact_share": ratio("spectra.exact_values", "spectra.values"),
    }
    values = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = float(calls.get(name[: -len(".calls")], 0))
        elif name.endswith(".self_s"):
            values[name] = own.get(name[: -len(".self_s")], 0.0)
    listed = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["trace.unattributed_share"] = 1.0 - listed / sum(rep["raw_op_s"])
    for name in values:
        if name.endswith(".self_s"):
            values[name] *= scale
    return values


def _end_to_end(reps: list[dict], setup_samples: list[float]) -> dict[str, float]:
    latencies = [s for rep in reps for _n, s, _e in rep["ops"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(_op_wall(rep) for rep in reps),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def _load_baseline(workload: str, trace: int):
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {"commit": doc.get("commit"), "machine": doc.get("machine"),
            "metrics": doc.get(key, {}).get(workload)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cantorlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cantorlab" / "__init__.py").is_file():
        print(f"perfbench: no cantorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}.json"
    env = _worker_env()

    reps: list[dict] = []
    durations: list[float] = []
    min_reps = 2 * MIN_REPS if args.trace else MIN_REPS
    try:
        while True:
            k = len(reps)
            traced = bool(args.trace) and k % 2 == 0
            rep = _run_worker(args, env, k, "traced" if traced else "timed", deadline,
                              spans_path if traced and k == 0 else None)
            reps.append(rep)
            durations.append(rep["process_s"])
            elapsed = time.monotonic() - started
            estimate = statistics.median(durations)
            if elapsed + estimate > HARD_LIMIT_S - 5.0:
                break
            if len(reps) >= min_reps and elapsed + estimate > args.seconds:
                break
        setup_samples = [rep["setup_s"] for rep in reps if rep["mode"] == "timed"]
        while not args.trace and len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_samples.append(
                _run_worker(args, env, len(reps) + len(setup_samples), "setup", deadline)["setup_s"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(rep["ops"]) for rep in reps)
    failures = [(rep["mode"], name, error) for rep in reps for name, _s, error in rep["ops"]
                if error is not None]
    timed = [rep for rep in reps if rep["mode"] == "timed"]
    ops_per_rep = len(reps[0]["ops"])
    latencies = [s for rep in timed for _n, s, _e in rep["ops"]]
    machine = _machine(reps)

    print(f"perfbench {args.workload}: seed {args.seed}, {len(reps)} repetitions "
          f"({len(timed)} untraced), {ops_per_rep} ops each, {attempted} ops attempted, "
          f"{time.monotonic() - started:.1f} s")
    print("machine: " + json.dumps(machine))
    print("sizes: " + json.dumps(reps[0]["sizes"]))
    for mode, name, error in failures[:10]:
        print(f"FAILED ({mode}) {name}: {error}")
    print(f"fail_ratio: {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "sizes": reps[0]["sizes"],
              "ops_per_rep": ops_per_rep, "attempted": attempted, "failed": len(failures),
              "failures": failures, "reps": [
                  {k: v for k, v in rep.items() if k != "sizes"} for rep in reps]}
    if args.trace:
        traced = [rep for rep in reps if rep["mode"] == "traced"]
        per_rep = [_layer_values(rep) for rep in traced]
        values = {name: statistics.median(v[name] for v in per_rep) for name, _u in PER_LAYER
                  if name != "trace.overhead_share"}
        values["trace.overhead_share"] = (
            statistics.median(_op_wall(rep) for rep in traced)
            / statistics.median(_op_wall(rep) for rep in timed) - 1.0)
        units = dict(PER_LAYER)
        print(f"per-layer metrics: median of {len(traced)} traced repetitions; "
              f"{traced[0]['trace']['spans']} spans in the first, written to {spans_path.name}")
        print("waiting time: not applicable (one process, one thread, no queues or locks)")
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _u in PER_LAYER}
    else:
        values = _end_to_end(timed, setup_samples)
        yard = statistics.median(y for rep in timed for y in rep["op_yardstick_s"])
        raw_latencies = [s for rep in timed for s in rep["raw_op_s"]]
        print(f"yardstick: median {1000 * yard:.4g} ms, nominal {1000 * YARDSTICK_NOMINAL_S:.4g} ms; "
              f"unscaled medians: wall_s {statistics.median(sum(r['raw_op_s']) for r in timed):.6g} s, "
              f"op_p50_ms {1000 * statistics.median(raw_latencies):.6g} ms, "
              f"setup_s {statistics.median(r['raw_setup_s'] for r in timed):.6g} s")
        print(f"setup samples: {len(setup_samples)}; op latencies: {len(latencies)}")
        if len(latencies) >= P90_MIN_OPS:
            p90 = statistics.quantiles(latencies, n=10)[-1] * 1000.0
            print(f"op_p90_ms: {p90:.6g} ms ({len(latencies)} ops)")
        else:
            print(f"op_p90_ms: not reported ({len(latencies)} ops < {P90_MIN_OPS})")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    baseline = _load_baseline(args.workload, args.trace)
    record["metrics"] = metrics
    record["baseline"] = baseline
    for name, m in metrics.items():
        line = f"  {name:<44} {m['value']:.6g} {m['unit']}"
        if baseline and baseline["metrics"] and name in baseline["metrics"]:
            line += f"   (baseline {baseline['metrics'][name]:.6g})"
        print(line)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
