"""Regenerate the references in refs/ from the package at the checkout root.

    python3 perfbench/make_refs.py [moments] [predict] [residue]

With no argument every part is rebuilt.  The references are the package's
own outputs at the commit that defined the benchmark, cross-checked once
where an independent route exists:

* the moment tables are compared row by row with ``--method sieve``
  (full-degree character sums) wherever that route finishes in minutes;
  the degrees compared are recorded in refs/crosscheck.json;
* the predictions are computed at n = 64 nodes per circle, twice the
  resolution the workload runs, with the same pmax and rho;
* the exact residue factors are stored as Gaussian-rational coordinates.

Rebuilding a reference is a change to the benchmark, not to the program.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

#: Degrees at which the sieve route is run for each moments call.
SIEVE_DEGREES = {"moments-q5": 5, "moments-q13": 3}


def _write(name: str, text: str) -> None:
    with open(os.path.join(workloads.REFS, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def build_moments() -> None:
    checked = []
    names = {c.name: c for w in ("moments-table", "moments-q13")
             for c in workloads.WORKLOADS[w]}
    for name, call in sorted(names.items()):
        out = workloads.run_cli(call.prepare(0))
        assert out["code"] == 0
        _write(f"{name}.csv", out["stdout"])
        argv = call.prepare(0)
        q, r = argv[argv.index("--q") + 1], argv[argv.index("--r") + 1]
        dmax = SIEVE_DEGREES[name.rsplit("-", 1)[0]]
        sieve = workloads.run_cli(
            ["moments", "--q", q, "--r", r, "--dmin", "1", "--dmax", str(dmax),
             "--method", "sieve", "--workers", "1"])
        ref_rows = out["stdout"].splitlines()[1:dmax + 1]
        if sieve["stdout"].splitlines()[1:] != ref_rows:
            raise SystemExit(f"{name}: sieve route disagrees")
        checked.append({"call": name, "q": int(q), "r": int(r),
                        "degrees": list(range(1, dmax + 1))})
        print(f"{name}: reference written, sieve route agrees for D <= {dmax}")
    _write("crosscheck.json", json.dumps(
        {"method": "sieve", "checked": checked}, indent=1) + "\n")


def build_predict() -> None:
    from qlmoments import predictor

    euler = predictor.EulerSpec(pmax=12)
    refs = {}
    q1 = predictor.q1_coefficient(
        5, 4, 6, euler, predictor.QuadSpec(rho=0.1, n_points=64), refine=False)
    refs["q1"] = {"value": q1.value, "q": 5, "r": 4, "D": 6, "pmax": 12,
                  "rho": 0.1, "n_points": 64}
    print("q1", q1.value)
    rho2 = predictor.Q2_QUAD.rho
    q2 = predictor.q2_coefficient(
        5, 4, 6, euler, predictor.QuadSpec(rho=rho2, n_points=64),
        refine=False)
    refs["q2"] = {"value": q2.value, "q": 5, "r": 4, "D": 6, "pmax": 12,
                  "rho": rho2, "n_points": 64}
    print("q2", q2.value)
    _write("predict.json", json.dumps(refs, indent=1) + "\n")


def build_residue() -> None:
    refs = {}
    for call in workloads.WORKLOADS["residue-exact"]:
        if not call.name.startswith("gamma-r"):
            continue
        result = call.run(call.prepare(0))
        refs[call.name] = [
            {"k": list(k), "word": list(w), "a_sign": s, "zeta_power": z,
             "coords": workloads.coords(v)} for k, w, s, z, v in result]
        print(f"{call.name}: {len(result)} exact values")
    _write("residue.json", json.dumps(refs, indent=0) + "\n")


def main(parts: list[str]) -> None:
    os.makedirs(workloads.REFS, exist_ok=True)
    steps = {"moments": build_moments, "predict": build_predict,
             "residue": build_residue}
    for part in parts or list(steps):
        steps[part]()


if __name__ == "__main__":
    main(sys.argv[1:])
