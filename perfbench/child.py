"""Run one call of one workload in this (fresh) interpreter.

    python3 perfbench/child.py --root CHECKOUT --workload W --call NAME \
        --seed N --trace 0|1

Imports the package from ``CHECKOUT/src``, builds the call's inputs, runs
the call between two timings of the host probe, checks the result and
prints one JSON line with monotonic-clock timestamps (comparable with the
parent's on the same host), the median probe time, the check report, peak
resident set and, when tracing, the per-layer counters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction


def host_probe() -> list[float]:
    """Three timings of a fixed piece of work that uses nothing from the package.

    Timed in the same process right before and right after the call, it
    measures how fast the host runs this process around the call:
    interpreter-bound integer, list and Fraction arithmetic like the oracle
    and K, and complex numpy element-wise work like the predictor.
    """
    import numpy as np

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc = (acc * 31 + i) % 1000003
        row = tuple(range(40))
        for i in range(2000):
            c = [(a * 7 + i) % 13 for a in row]
            while c and c[-1] == 0:
                c.pop()
        f = Fraction(1, 3)
        for i in range(800):
            f = (f * Fraction(i + 2, i + 1) + Fraction(1, 7)) / 2
        z = np.exp(1j * np.linspace(0.0, 1.0, 4096))
        for _ in range(60):
            z = z * z / np.abs(z) + 0.1
        return time.perf_counter() - start

    return [once() for _ in range(3)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--call", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import qlmoments
    import numpy

    if not os.path.abspath(qlmoments.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported qlmoments from {qlmoments.__file__}, "
                         f"not from {src}")
    import workloads

    call = workloads.get_call(args.workload, args.call)
    inputs = call.prepare(args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    record = {"numpy": numpy.__version__, "python": sys.version.split()[0]}
    record["setup_done_ns"] = time.monotonic_ns()
    probe = host_probe()
    ready = time.monotonic_ns()
    try:
        result = call.run(inputs)
    except Exception:
        record["error"] = traceback.format_exc(limit=4)
        result = None
    done = time.monotonic_ns()
    probe += host_probe()
    record.update(ready_ns=ready, done_ns=done,
                  probe_s=statistics.median(probe))
    if tracer is not None:
        record["trace"] = tracer.report()
    if "error" not in record:
        try:
            ok, report = call.check(result)
        except Exception:
            ok, report = False, {"error": traceback.format_exc(limit=4)}
        record["ok"] = ok
        record["report"] = report
    else:
        record["ok"] = False
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
