"""qlmoments benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined in
workloads.py; each call of a workload runs in a fresh interpreter
(child.py), so every sample pays interpreter start and imports the way a
``qlm`` invocation does, and no state is carried from one sample to the
next.  Calls run in workload order, one cycle after another, until the
next cycle would end past ``--seconds``; at least one cycle always runs
(two when tracing).

Every time reported is scaled to a reference host speed: each child times
a fixed probe (child.host_probe) right before and after its call, and its
times are multiplied by PROBE_REF_S over the probe's median.  The unscaled
figures are in the detail line.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics:

* ``setup_s``: median over every child of the time from spawning it until
  its call is ready (interpreter start, imports, input generation);
* ``wall_s``: the workload's time to solution after set-up, the sum over
  its calls of each call's median time;
* ``peak_rss_mb``: the largest per-call median of the child's peak
  resident set.

With ``--trace 1`` traced and untraced cycles alternate; the traced ones
wrap every layer boundary (tracing.py) and the last line reports the
per-layer metrics, each the (low) median over traced cycles of its per-cycle
value, plus ``trace.overhead``, the median traced cycle time over the
median untraced one.  A layer that the workload does not reach reports 0.

Every call's output is checked against the references in refs/; a call
that raises, exits non-zero or fails its check counts as failed.  The line
before the last one is a JSON record with per-call statistics, the
predictions' accuracy against their references, the program's own
diagnostics and the host (CPU count, load, Python and numpy versions).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

#: A run stops starting cycles well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0

#: Host probe time (child.host_probe) that defines the reference speed.
#: Every reported time is scaled by PROBE_REF_S / (the probe's median in
#: the same child around the call), i.e. expressed in seconds of a host on
#: which the probe takes 20 ms.  On the 2-CPU host this was set on, the
#: probe alternates between ~17 and ~26 ms within seconds, and the share
#: of slow periods drifts over minutes; unscaled, the medians of 30 s runs
#: differed by up to 40% from one run to the next.
PROBE_REF_S = 0.020

#: Variables that would let a library or the program start extra threads
#: or processes whose work the wrappers cannot see.
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QLM_WORKERS"}
    for var in SINGLE_THREAD_ENV:
        env[var] = "1"
    return env


def run_child(workload: str, call: str, seed: int, trace: bool,
              timeout: float) -> dict:
    argv = [sys.executable, CHILD, "--root", ROOT, "--workload", workload,
            "--call", call, "--seed", str(seed), "--trace", str(int(trace))]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"call": call, "ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"call": call, "ok": False,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}"}
    scale = PROBE_REF_S / record["probe_s"]
    setup_raw = (record["setup_done_ns"] - spawned) / 1e9
    run_raw = (record["done_ns"] - record["ready_ns"]) / 1e9
    sample = {
        "call": call,
        "ok": bool(record["ok"]) and proc.returncode == 0,
        "scale": scale,
        "setup_s": setup_raw * scale, "setup_raw_s": setup_raw,
        "run_s": run_raw * scale, "run_raw_s": run_raw,
        "rss_mb": record["peak_rss_kb"] / 1024,
        "report": record.get("report", {}),
        "versions": {"python": record["python"], "numpy": record["numpy"]},
    }
    if "error" in record:
        sample["error"] = record["error"]
    if "trace" in record:
        sample["trace"] = record["trace"]
    return sample


# ---------------------------------------------------------------------------
# per-layer metrics, computed per traced cycle


def _span(spans: dict, name: str) -> list[int]:
    return spans.get(name, [0, 0, 0])


def _calls(name):
    return lambda sp, ct: _span(sp, name)[0]


def _self_s(name):
    return lambda sp, ct: _span(sp, name)[2] / 1e9


def _count(name):
    return lambda sp, ct: ct.get(name, 0)


def _ratio(num, den):
    def value(sp, ct):
        d = den(sp, ct)
        return num(sp, ct) / d if d else 0.0
    return value


def _profile_s(sp, ct):
    return sum(_span(sp, n)[1] for n in
               ("predictor.q1_profile", "predictor.q2_term_profile")) / 1e9


#: name -> (unit, value from one traced cycle's spans and counts).  Call
#: counts and the other "count" metrics repeat exactly from cycle to cycle.
PER_LAYER = {
    "ffpoly.squarefree.calls": ("count", _calls("ffpoly.squarefree")),
    "ffpoly.squarefree.self_s": ("s", _self_s("ffpoly.squarefree")),
    "ffpoly.squarefree.per_d": ("ratio", _ratio(
        _calls("ffpoly.squarefree"), _count("moments.d_enumerated"))),
    "ffpoly.symbol_raw.calls": ("count", _calls("ffpoly.symbol_raw")),
    "ffpoly.symbol_raw.self_s": ("s", _self_s("ffpoly.symbol_raw")),
    "ffpoly.build_sieve.calls": ("count", _calls("ffpoly.build_sieve")),
    "ffpoly.build_sieve.self_s": ("s", _self_s("ffpoly.build_sieve")),
    "lfunc.l_coefficients.calls": ("count", _calls("lfunc.l_coefficients")),
    "lfunc.l_coefficients.self_s": ("s", _self_s("lfunc.l_coefficients")),
    "lfunc.character_row_sums.self_s": (
        "s", _self_s("lfunc.character_row_sums")),
    "lfunc.reflect.self_s": ("s", _self_s("lfunc.reflect")),
    "lfunc.distinct_share": ("ratio", _ratio(
        _count("lfunc.distinct"), _calls("lfunc.l_coefficients"))),
    "moments.moment.calls": ("count", _calls("moments.moment")),
    "moments.moment.self_s": ("s", _self_s("moments.moment")),
    "moments.d_squarefree": ("count", _count("moments.d_squarefree")),
    "predictor.q1_profile.self_s": ("s", _self_s("predictor.q1_profile")),
    "predictor.q2_term_profile.self_s": (
        "s", _self_s("predictor.q2_term_profile")),
    "predictor.euler_level_one.calls": (
        "count", _calls("predictor.euler_level_one")),
    "predictor.euler_level_one.self_s": (
        "s", _self_s("predictor.euler_level_one")),
    "predictor.euler_regularized.calls": (
        "count", _calls("predictor.euler_regularized")),
    "predictor.euler_regularized.self_s": (
        "s", _self_s("predictor.euler_regularized")),
    "predictor.weights.self_s": ("s", _self_s("predictor.weights")),
    "predictor.tail.self_s": ("s", _self_s("predictor.tail")),
    "predictor.grid_points": ("count", _count("predictor.grid_points")),
    "predictor.grid_points_per_s": ("1/s", _ratio(
        _count("predictor.grid_points"), _profile_s)),
    "cocycle.mbar_closed.self_s": ("s", _self_s("cocycle.mbar_closed")),
    "cocycle.de_diagonals.self_s": ("s", _self_s("cocycle.de_diagonals")),
    "cocycle.gamma_factor_exact.calls": (
        "count", _calls("cocycle.gamma_factor_exact")),
    "cocycle.gamma_factor_exact.self_s": (
        "s", _self_s("cocycle.gamma_factor_exact")),
    "cocycle.cocycle_matrix.self_s": ("s", _self_s("cocycle.cocycle_matrix")),
    "cocycle.local_residue_factor.calls": (
        "count", _calls("cocycle.local_residue_factor")),
    "cocycle.local_residue_factor.self_s": (
        "s", _self_s("cocycle.local_residue_factor")),
    "exactnum.mul.calls": ("count", _calls("exactnum.mul")),
    "exactnum.mul.self_s": ("s", _self_s("exactnum.mul")),
    "exactnum.inv.calls": ("count", _calls("exactnum.inv")),
    "exactnum.inv.self_s": ("s", _self_s("exactnum.inv")),
    "kacmoody.roots": ("count", _count("kacmoody.roots")),
    "kacmoody.reduction_word.self_s": (
        "s", _self_s("kacmoody.reduction_word")),
    "cli.self_s": ("s", _self_s("cli")),
    "cli.stdout_bytes": ("bytes", _count("cli.stdout_bytes")),
}


def cycle_layers(samples: list[dict]) -> dict:
    spans: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for s in samples:
        for name, (calls, total_ns, self_ns) in s["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total_ns * s["scale"]
            acc[2] += self_ns * s["scale"]
        for name, v in s["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + v
        counts["cli.stdout_bytes"] = counts.get("cli.stdout_bytes", 0) + \
            s["report"].get("stdout_bytes", 0)
    return {name: fn(spans, counts) for name, (_unit, fn) in PER_LAYER.items()}


# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def host() -> dict:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qlmoments", "__init__.py")):
        print(f"no package at {src}/qlmoments: run from a qlmoments checkout",
              file=sys.stderr)
        return 2
    # the build: byte-compile once, so no child pays for it
    if not compileall.compile_dir(src, quiet=1):
        print("byte-compiling src failed", file=sys.stderr)
        return 2

    calls = [c.name for c in workloads.WORKLOADS[args.workload]]
    host_start = host()
    start = time.monotonic()
    cycles: list[dict] = []
    while True:
        traced = bool(args.trace) and len(cycles) % 2 == 1
        began = time.monotonic()
        samples = []
        for call in calls:
            left = HARD_LIMIT_S + 20 - (time.monotonic() - start)
            samples.append(run_child(args.workload, call, args.seed, traced,
                                     max(left, 1.0)))
        cycles.append({"traced": traced, "samples": samples,
                       "seconds": time.monotonic() - began})
        elapsed = time.monotonic() - start
        longest = max(c["seconds"] for c in cycles)
        enough = len(cycles) >= (2 if args.trace else 1)
        if enough and elapsed + longest > args.seconds:
            break
        if elapsed + longest > HARD_LIMIT_S:
            break

    all_samples = [s for c in cycles for s in c["samples"]]
    failed = [s for s in all_samples if not s["ok"]]
    for s in failed:
        print(f"FAILED {s['call']}: {s.get('error') or s.get('report')}",
              file=sys.stderr)
    timed = [s for s in all_samples if "run_s" in s]
    plain = [s for c in cycles if not c["traced"] for s in c["samples"]
             if "run_s" in s]
    by_call = {c: [s for s in plain if s["call"] == c] for c in calls}
    missing = [c for c, ss in by_call.items() if not ss]
    if missing:
        print(f"calls never timed: {missing}", file=sys.stderr)
        return 1

    per_call = {}
    for c, ss in by_call.items():
        per_call[c] = {
            "run_s": quartiles([s["run_s"] for s in ss]),
            "run_raw_s": quartiles([s["run_raw_s"] for s in ss]),
            "setup_s": statistics.median(s["setup_s"] for s in ss),
            "probe_s": statistics.median(PROBE_REF_S / s["scale"] for s in ss),
            "rss_mb": statistics.median(s["rss_mb"] for s in ss),
            "report": ss[-1]["report"],
        }
    wall_s = sum(v["run_s"]["median"] for v in per_call.values())
    end_to_end = {
        "setup_s": (statistics.median(s["setup_s"] for s in timed), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (max(v["rss_mb"] for v in per_call.values()), "MB"),
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cycles": len(cycles), "elapsed_s": time.monotonic() - start,
        "host": {**host_start, "loadavg_end": host()["loadavg"],
                 **timed[0]["versions"]},
        "calls": per_call,
        "end_to_end": {k: v for k, (v, _u) in end_to_end.items()},
        "unscaled": {
            "setup_s": statistics.median(s["setup_raw_s"] for s in timed),
            "wall_s": sum(v["run_raw_s"]["median"] for v in per_call.values()),
        },
    }
    if args.workload == "predict":
        for which in ("q1", "q2"):
            detail[f"{which}_s"] = per_call[f"predict-{which}"]["run_s"]["median"]
            detail[f"{which}_rel_err"] = \
                per_call[f"predict-{which}"]["report"].get("rel_err")

    if args.trace:
        traced = [c for c in cycles if c["traced"]]
        layers = [cycle_layers([s for s in c["samples"] if "trace" in s])
                  for c in traced]
        metrics = {name: (statistics.median_low(row[name] for row in layers), unit)
                   for name, (unit, _fn) in PER_LAYER.items()}
        unsteady = sorted(name for name, (unit, _fn) in PER_LAYER.items()
                          if unit == "count" and
                          len({row[name] for row in layers}) > 1)
        cycle_s = {flag: statistics.median(
            sum(s.get("run_s", 0.0) for s in c["samples"])
            for c in cycles if c["traced"] == flag) for flag in (True, False)}
        metrics["trace.overhead"] = (cycle_s[True] / cycle_s[False], "ratio")
        detail["traced_wall_s"] = cycle_s[True]
        detail["unsteady_counts"] = unsteady
    else:
        metrics = end_to_end

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
