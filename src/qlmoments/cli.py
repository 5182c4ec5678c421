"""Command-line front end.

Subcommands: moments, predict q1|q2, roots, cocycle eval|gamma-table,
verify.  All output is deterministic for a fixed configuration; the
seconds column of moments is zeroed unless --timing is passed.
Invalid input ends in one line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cocycle, kacmoody, moments, predictor

VERIFY_NOTE = "normalization: unit auxiliary series assumed for r = 4"


def cmd_moments(args) -> int:
    degrees = moments.check_request(args.q, args.r,
                                    range(args.dmin, args.dmax + 1), args.method)
    if args.format == "csv":
        print("q,r,D,moment_a,moment_b,moment_float,count,seconds")
    for D in degrees:
        res = moments.moment(args.q, args.r, D, method=args.method)
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


def require_finite(what: str, values: dict, pmax: int) -> None:
    """Reject non-finite prediction numbers (an overflowing Euler product)."""
    bad = [k for k, v in values.items()
           if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {what} ({', '.join(bad)}); "
                         f"try a --pmax below {pmax}")


def cmd_predict(args) -> int:
    euler = predictor.EulerSpec(pmax=args.pmax)
    rho = args.rho
    if rho is None:
        rho = predictor.QuadSpec.rho if args.which == "q1" else predictor.Q2_QUAD.rho
    quad = predictor.QuadSpec(rho=rho, n_points=args.quad)
    coefficient = (predictor.q1_coefficient if args.which == "q1"
                   else predictor.q2_coefficient)
    with np.errstate(all="ignore"):  # a non-finite result is reported below
        res = coefficient(args.q, args.r, args.D, euler, quad)
    payload = {
        "kind": args.which, "q": res.q, "r": res.r, "D": res.D,
        "value": res.value, "imag_rel": res.imag_rel,
        "truncation_tail": res.tail_estimate,
        "refinement_delta": res.refine_delta,
    }
    require_finite(f"{args.which} prediction at D = {args.D}", payload, args.pmax)
    if res.note:
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
    # every word before any output, so a rejected root prints nothing
    words = [kacmoody.reduction_word(alpha) for alpha in roots]
    for alpha, word in zip(roots, words):
        print(json.dumps({
            "k": list(alpha.k), "height": alpha.height,
            "word": list(word),
        }, sort_keys=True))
    return 0


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def cmd_cocycle_eval(args) -> int:
    word = tuple(int(x) for x in args.word.split(","))
    z = tuple(complex(x) for x in args.z.split(","))
    if len(z) < max(word) or len(z) < 2:
        raise ValueError("z must have r+1 coordinates covering every letter")
    q = args.q
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"q must be finite and positive, got {q}")
    bad = [str(k) for k, v in enumerate(z, 1) if not _finite(v)]
    if bad:
        raise ValueError(f"non-finite z coordinate ({', '.join(bad)})")
    m = cocycle.cocycle_matrix(word, z, q, q**0.5, 0.5)
    if not all(_finite(v) for row in m for v in row):
        raise ValueError("non-finite cocycle matrix entry (overflow at this z)")
    # + 0.0 prints an exact zero as 0.0 whatever its sign
    for row in m:
        print(json.dumps([[v.real + 0.0, v.imag + 0.0] for v in row]))
    return 0


def cmd_cocycle_gamma_table(args) -> int:
    q = args.q
    names = {0: "1", 1: "i", 2: "-1", 3: "-i"}
    for k in (0, 2, 1, 3):
        val = cocycle.gamma_table_entry(k, q)
        coords = [[str(c[0]), str(c[1])] for c in val.coords]
        print(json.dumps({
            "case": f"zeta={names[k]} sgn={cocycle.square_class_sign(k):+d}",
            "coords_1_q4_q2_q34": coords,
            "value": [val.embed().real, val.embed().imag],
        }, sort_keys=True))
    return 0


def default_theta(n_terms: int) -> float:
    """Midpoint of the admissible window (1/(N+1), 1/N)."""
    return 0.5 * (1 / (n_terms + 1) + 1 / n_terms)


def cmd_verify(args) -> int:
    degrees = moments.check_request(args.q, args.r,
                                    range(args.dmin, args.dmax + 1), "reflect")
    theta = args.theta if args.theta is not None else default_theta(args.N)
    if not 1 / (args.N + 1) < theta < 1 / args.N:
        raise ValueError(f"theta must lie in (1/{args.N + 1}, 1/{args.N})")
    with np.errstate(all="ignore"):  # a non-finite result is reported below
        preds = predictor.moment_prediction(
            args.q, args.r, degrees, args.N, predictor.EulerSpec(pmax=args.pmax),
            predictor.QuadSpec(rho=args.rho, n_points=args.quad))
    require_finite("prediction", {f"D = {D}": v for D, v in preds.items()},
                   args.pmax)
    rows = moments.residual_table(args.q, args.r, degrees, preds, theta)
    if args.format == "csv":
        if args.r == 4:
            print(f"# note: {VERIFY_NOTE}")
        print("D,moment_a,moment_b,moment,prediction,residual,normalized")
        for row in rows:
            print(f"{row.D},{row.moment_a},{row.moment_b},{row.moment_value!r},"
                  f"{row.prediction!r},{row.residual!r},{row.normalized!r}")
    else:
        config = {"q": args.q, "r": args.r, "N": args.N, "theta": theta,
                  "pmax": args.pmax, "rho": args.rho, "quad": args.quad}
        if args.N == 2:  # the second term runs on its own radius
            config["rho_q2"] = predictor.Q2_QUAD.rho
        print(json.dumps({
            "note": VERIFY_NOTE if args.r == 4 else "",
            "config": config,
            "rows": [{
                "D": row.D, "moment_a": str(row.moment_a),
                "moment_b": str(row.moment_b), "moment": row.moment_value,
                "prediction": row.prediction, "residual": row.residual,
                "normalized": row.normalized,
            } for row in rows],
        }, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qlm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact moments over squarefree d")
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--dmin", type=int, default=1)
    p.add_argument("--dmax", type=int, default=6)
    p.add_argument("--method", default="reflect",
                   choices=moments.METHODS)
    # ignored; kept until a benchmark revision, since perfbench passes --workers 1
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("predict", help="predicted coefficients")
    p.add_argument("which", choices=["q1", "q2"])
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--pmax", type=int, default=predictor.EulerSpec.pmax)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--quad", type=int, default=predictor.QuadSpec.n_points)
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
    p.add_argument("--pmax", type=int, default=predictor.EulerSpec.pmax)
    p.add_argument("--rho", type=float, default=predictor.QuadSpec.rho)
    p.add_argument("--quad", type=int, default=predictor.QuadSpec.n_points)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    """Run one subcommand; invalid input ends in one stderr line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, cocycle.SingularPointError) as exc:
        print(f"qlm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
