"""Command-line front end.

Subcommands: moments, predict q1|q2, roots, cocycle eval|gamma-table,
verify, selftest.  All output is deterministic for a fixed configuration;
the seconds column of moments is zeroed unless --timing is passed.
The worker count of the per-d reference routes can be overridden with the
QLM_WORKERS environment variable.  Invalid input ends in one line on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cocycle, kacmoody, moments, predictor
from .exactnum import KNum
from .ffpoly import BudgetExceededError, _require_modulus, build_sieve

VERIFY_NOTE = "normalization: unit auxiliary series assumed for r = 4"


def check_moment_input(args) -> None:
    """The input checks moments and verify share: q, r and the degree range."""
    _require_modulus(args.q)
    if args.r < 1:
        raise ValueError("need r >= 1")
    if not 1 <= args.dmin <= args.dmax:
        raise ValueError("need 1 <= dmin <= dmax")


def cmd_moments(args) -> int:
    check_moment_input(args)
    workers = args.workers or moments.default_workers()
    if args.format == "csv":
        print("q,r,D,moment_a,moment_b,moment_float,count,seconds")
    for D in range(args.dmin, args.dmax + 1):
        res = moments.moment(args.q, args.r, D, workers=workers,
                             method=args.method)
        if args.format == "csv":
            print(res.csv_row(with_timing=args.timing))
        else:
            print(json.dumps({
                "q": res.q, "r": res.r, "D": res.D,
                "moment_a": str(res.a), "moment_b": str(res.b),
                "moment_float": res.value, "count": res.count,
                "seconds": res.seconds if args.timing else 0.0,
            }, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    euler = predictor.EulerSpec(pmax=args.pmax)
    rho = args.rho
    if rho is None:
        rho = 0.1 if args.which == "q1" else predictor.Q2_QUAD.rho
    quad = predictor.QuadSpec(rho=rho, n_points=args.quad)
    if args.which == "q1":
        res = predictor.q1_coefficient(args.q, args.r, args.D, euler, quad)
    else:
        res = predictor.q2_coefficient(args.q, args.r, args.D, euler, quad)
    payload = {
        "kind": args.which, "q": res.q, "r": res.r, "D": res.D,
        "value": res.value, "imag_rel": res.imag_rel,
        "truncation_tail": res.tail_estimate,
        "refinement_delta": res.refine_delta,
    }
    if args.which == "q1" and res.note:
        payload["note"] = res.note
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        keys = sorted(payload)
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))
    return 0


def cmd_roots(args) -> int:
    roots = kacmoody.positive_real_roots_at_level(args.r, args.level)
    for alpha in roots:
        word = kacmoody.reduction_word(alpha)
        print(json.dumps({
            "k": list(alpha.k), "height": alpha.height,
            "word": list(word),
        }, sort_keys=True))
    return 0


def cmd_cocycle_eval(args) -> int:
    word = tuple(int(x) for x in args.word.split(","))
    z = tuple(complex(x) for x in args.z.split(","))
    if len(z) < max(word) or len(z) < 2:
        raise ValueError("z must have r+1 coordinates covering every letter")
    q = float(args.q)
    m = cocycle.cocycle_matrix(word, z, q, q**0.5, 0.5)
    for row in m:
        print(json.dumps([[v.real, v.imag] for v in row]))
    return 0


def cmd_cocycle_gamma_table(args) -> int:
    q = args.q
    names = {0: "zeta=1 sgn=+1", 1: "zeta=i sgn=-1",
             2: "zeta=-1 sgn=+1", 3: "zeta=-i sgn=-1"}
    for k in (0, 2, 1, 3):
        val = cocycle.gamma_table_entry(k, q)
        coords = [[str(c[0]), str(c[1])] for c in val.coords]
        print(json.dumps({
            "case": names[k],
            "coords_1_q4_q2_q34": coords,
            "value": [val.embed().real, val.embed().imag],
        }, sort_keys=True))
    return 0


def default_theta(n_terms: int) -> float:
    """Midpoint of the admissible window (1/(N+1), 1/N)."""
    return 0.5 * (1 / (n_terms + 1) + 1 / n_terms)


def cmd_verify(args) -> int:
    check_moment_input(args)
    theta = args.theta if args.theta is not None else default_theta(args.N)
    if not 1 / (args.N + 1) < theta < 1 / args.N:
        raise ValueError(f"theta must lie in (1/{args.N + 1}, 1/{args.N})")
    degrees = list(range(args.dmin, args.dmax + 1))
    preds = predictor.moment_prediction(
        args.q, args.r, degrees, args.N, predictor.EulerSpec(pmax=args.pmax),
        predictor.QuadSpec(rho=args.rho, n_points=args.quad))
    rows = moments.residual_table(
        args.q, args.r, degrees, preds, theta,
        workers=args.workers or moments.default_workers())
    if args.format == "csv":
        if args.r == 4:
            print(f"# note: {VERIFY_NOTE}")
        print("D,moment_a,moment_b,moment,prediction,residual,normalized")
        for row in rows:
            print(f"{row.D},{row.moment_a},{row.moment_b},{row.moment_value!r},"
                  f"{row.prediction!r},{row.residual!r},{row.normalized!r}")
    else:
        print(json.dumps({
            "note": VERIFY_NOTE if args.r == 4 else "",
            "config": {"q": args.q, "r": args.r, "N": args.N,
                       "theta": theta, "pmax": args.pmax,
                       "rho": args.rho, "quad": args.quad},
            "rows": [{
                "D": row.D, "moment_a": str(row.moment_a),
                "moment_b": str(row.moment_b), "moment": row.moment_value,
                "prediction": row.prediction, "residual": row.residual,
                "normalized": row.normalized,
            } for row in rows],
        }, sort_keys=True))
    return 0


def cmd_selftest(args) -> int:
    q = 5
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    sieve = build_sieve(q, 3)
    ok = True
    for deg in (1, 2, 3):
        for idx in range(q**deg):
            from .ffpoly import monic_from_index, _mul, _divmod
            c = monic_from_index(q, deg, idx)
            rebuilt = (1,)
            rest = c
            while len(rest) > 1:
                p = sieve.smallest_factor_raw(rest)
                rebuilt = _mul(rebuilt, p, q)
                rest = _divmod(rest, p, q)[0]
            if _mul(rebuilt, rest, q) != c:
                ok = False
    check("sieve reconstructs every monic polynomial (deg <= 3)", ok)

    ok = all(cocycle.gamma_table_entry(k, q) ==
             cocycle.gamma_table_polynomial(k, q) for k in range(4))
    check("residue table matches its closed form", ok)

    half = KNum.rational("1/2", q)
    u = cocycle.u_matrix(half)
    one = KNum.one(q)
    check("U^2 = I", cocycle.mat_mul(u, u) ==
          cocycle.identity3(one, one - one))
    b = cocycle.b_matrix(half)
    binv = cocycle.b_inverse_matrix(one)
    check("B B^{-1} = I", cocycle.mat_mul(b, binv) ==
          cocycle.identity3(one, one - one))

    rep = kacmoody.wstar_report(5, 8)
    check("core-reflection inequality report clean (r=5, height 8)", rep.ok)

    m1 = moments.moment(q, 2, 3, method="reflect")
    m2 = moments.moment(q, 2, 3, method="naive")
    check("moment oracle dual-route equality (q=5, r=2, D=3)",
          (m1.a, m1.b) == (m2.a, m2.b))

    v = predictor.vandermonde_core_integral(64, 0.1)
    check("triple contour constant", abs(v + 48) < 1e-6)
    check("binomial determinant family",
          all(predictor.binomial_determinant(r) ==
              (-2) ** ((r - 3) * (r - 4) // 2) for r in range(4, 9)))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qlm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact moments over squarefree d")
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--dmin", type=int, default=1)
    p.add_argument("--dmax", type=int, default=6)
    p.add_argument("--method", default="reflect",
                   choices=["reflect", "sieve", "naive"])
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("predict", help="predicted coefficients")
    p.add_argument("which", choices=["q1", "q2"])
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--pmax", type=int, default=12)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--quad", type=int, default=64)
    p.add_argument("--format", default="json", choices=["csv", "json"])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("roots", help="positive real roots at a level")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("cocycle", help="cocycle evaluation")
    csub = p.add_subparsers(dest="sub", required=True)
    pe = csub.add_parser("eval")
    pe.add_argument("--word", required=True, help="comma-separated letters")
    pe.add_argument("--z", required=True, help="comma-separated coordinates")
    pe.add_argument("--q", type=float, default=5)
    pe.set_defaults(func=cmd_cocycle_eval)
    pg = csub.add_parser("gamma-table")
    pg.add_argument("--q", type=int, default=5)
    pg.set_defaults(func=cmd_cocycle_gamma_table)

    p = sub.add_parser("verify", help="moments vs predictions")
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--dmin", type=int, default=3)
    p.add_argument("--dmax", type=int, default=6)
    p.add_argument("--N", type=int, default=1, choices=[1, 2])
    p.add_argument("--theta", type=float, default=None,
                   help="defaults to the midpoint of (1/(N+1), 1/N)")
    p.add_argument("--pmax", type=int, default=12)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--quad", type=int, default=64)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in property checks")
    p.set_defaults(func=cmd_selftest)
    return top


def main(argv=None) -> int:
    """Run one subcommand; invalid input ends in one stderr line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        print(f"qlm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
