"""One repetition of a workload in a fresh interpreter.

Imports cantorlab, builds the workload's sets and stamps the monotonic
clock (the parent stamped it just before starting this process, so the
difference is the set-up time).  It then times the yardstick, a fixed
piece of benchmark-owned work that gauges how fast the machine runs at
that moment; in ``setup`` mode it stops there.  Otherwise it runs the op
list once, timing each op and checking its output outside the timed
region, times the yardstick again whenever a quarter second has passed
and after the last op, and prints one JSON line with the results: each
op carries the mean of the yardsticks timed just before and just after
it.  In ``traced`` mode every public layer function is wrapped
first and the spans are aggregated (and optionally written out) at the
end.
"""

from __future__ import annotations

import argparse
import bisect
import json
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction

import numpy

import workloads
from tracer import Tracer

YARDSTICK_EVERY_S = 0.25


def yardstick() -> float:
    """Seconds taken by a fixed piece of pure-Python work that calls no
    cantorlab code: small-integer arithmetic and a growing continued
    fraction in ``Fraction`` arithmetic, in about equal parts.  On a shared
    host its time follows the machine's current speed, which drifts in
    phases of seconds to minutes; numpy kernels followed it less well."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    for _ in range(3):
        f = Fraction(1)
        for i in range(1, 300):
            f = 1 / (f + i)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    sets = workloads.build_sets(args.workload)
    setup_end = time.monotonic()
    yardstick()  # warm-up, so that one-off first-call costs stay out
    yardsticks = [(time.perf_counter(), yardstick())]
    out: dict = {"setup_end": setup_end, "setup_yardstick_s": yardsticks[0][1]}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    ops, sizes = workloads.OPS[args.workload](args.seed, args.rep, sets)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()

    results = []
    starts = []
    clock = time.perf_counter
    for op in ops:
        error = None
        start = clock()
        try:
            value = op.run()
        except Exception as exc:  # an op that raises counts as failed
            elapsed = clock() - start
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = clock() - start
            try:
                error = op.check(value)
            except Exception as exc:  # a check that cannot read the output fails it
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append([op.name, elapsed, error])
        starts.append(start)
        if clock() - yardsticks[-1][0] >= YARDSTICK_EVERY_S:
            yardsticks.append((clock(), yardstick()))
    yardsticks.append((clock(), yardstick()))
    stamps = [stamp for stamp, _seconds in yardsticks]
    op_yardsticks = []
    for start in starts:
        after = bisect.bisect_right(stamps, start)
        op_yardsticks.append((yardsticks[after - 1][1] + yardsticks[after][1]) / 2.0)

    out.update(
        {
            "ops": results,
            "op_yardstick_s": op_yardsticks,
            "yardsticks": len(yardsticks),
            "sizes": sizes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
    )
    if tracer is not None:
        calls, own = tracer.self_times()
        out["trace"] = {
            "calls": calls,
            "self_s": own,
            "counts": dict(tracer.counts),
            "spans": len(tracer.spans),
        }
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
