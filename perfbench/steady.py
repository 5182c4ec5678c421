"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 perfbench/steady.py --workload W [--workload W ...] \
        --seeds 1-10 [--trace 0|1] [--out FILE]

For every end-to-end metric (or, with --trace 1, every per-layer metric)
prints the median of the runs and the spread: the distance between the
first and third quartile, as statistics.quantiles(values, n=4) gives them,
as a share of the median.  Each time metric other than setup_s should stay
below a third of its bound in BENCHMARK.json.  Count metrics must not vary
at all.  --out writes every run's last two lines and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if sorted(result["metrics"]) != sorted(bounds):
                print(f"{workload}: metrics {sorted(result['metrics'])} do "
                      f"not match BENCHMARK.json", file=sys.stderr)
                return 1
            runs.append({"detail": detail, "result": result})
            values = {k: round(v["value"], 4) for k, v in
                      result["metrics"].items() if v["unit"] in ("s", "MB")}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} cycles={detail['cycles']} "
                  f"{values}", flush=True)
        table = {}
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            table[name] = {"median": statistics.median(vals),
                           "spread": spread(vals), "bound": bound,
                           "values": vals}
            note = ""
            if bound is not None and name != "setup_s" and \
                    table[name]["spread"] >= bound / 3:
                note = "  <-- spread above a third of the bound"
            print(f"  {name:40s} median {table[name]['median']:<14.6g} "
                  f"spread {table[name]['spread']:.4f}{note}")
        summary[workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "metrics": table, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
