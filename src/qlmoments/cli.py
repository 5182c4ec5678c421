"""Command-line front end.

Subcommands: moments, predict q1|q2, roots, cocycle eval|gamma-table,
verify, selftest.  All output is deterministic for a fixed configuration
and seed; wall-clock timing columns are zeroed unless --timing is passed.
The worker count of the per-d reference routes can be overridden with the
QLM_WORKERS environment variable.  Invalid input ends in one line on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from math import factorial

from . import cocycle, kacmoody, moments, predictor
from .exactnum import KNum
from .ffpoly import BudgetExceededError, _require_modulus, build_sieve

VERIFY_NOTE = "normalization: unit auxiliary series assumed for r = 4"


@dataclass
class RunConfig:
    q: int = 5
    r: int = 4
    d_min: int = 1
    d_max: int = 6
    n_terms: int = 1
    theta: float = 0.45
    pmax: int = 6
    rho: float = 0.1
    quad: int = 64
    workers: int = 1
    fmt: str = "csv"
    timing: bool = False

    def validate(self) -> None:
        _require_modulus(self.q)
        if not 1 / (self.n_terms + 1) < self.theta < 1 / self.n_terms:
            raise ValueError(
                f"theta must lie in (1/{self.n_terms + 1}, 1/{self.n_terms})"
            )
        if self.d_min < 1 or self.d_max < self.d_min:
            raise ValueError("need 1 <= dmin <= dmax")
        if self.n_terms >= 2 and self.r < 4:
            raise ValueError("the second term (N = 2) needs r >= 4")


def cmd_moments(args) -> int:
    _require_modulus(args.q)
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
    _require_modulus(args.q)
    euler = predictor.EulerSpec(pmax=args.pmax)
    rho = args.rho
    if rho is None:
        rho = 0.1 if args.which == "q1" else predictor.Q2_QUAD.rho
    quad = predictor.QuadSpec(rho=rho, n_points=args.quad)
    if args.which == "q1":
        res = predictor.q1_coefficient(args.q, args.r, args.D, euler, quad)
        payload = {
            "kind": "q1", "q": res.q, "r": res.r, "D": res.D,
            "value": res.value, "imag_rel": res.imag_rel,
            "truncation_tail": res.tail_estimate,
            "refinement_delta": res.refine_delta,
        }
        if res.note:
            payload["note"] = res.note
    else:
        res = predictor.q2_coefficient(args.q, args.r, args.D, euler, quad)
        payload = {
            "kind": "q2", "q": res.q, "r": res.r, "D": res.D,
            "value": res.value, "imag_rel": res.imag_rel,
            "truncation_tail": res.tail_estimate,
            "refinement_delta": res.refine_delta,
        }
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
    theta = args.theta if args.theta is not None else default_theta(args.N)
    cfg = RunConfig(q=args.q, r=args.r, d_min=args.dmin, d_max=args.dmax,
                    n_terms=args.N, theta=theta, pmax=args.pmax,
                    rho=args.rho, quad=args.quad,
                    workers=args.workers or moments.default_workers(),
                    fmt=args.format, timing=args.timing)
    cfg.validate()
    degrees = list(range(cfg.d_min, cfg.d_max + 1))
    euler = predictor.EulerSpec(pmax=cfg.pmax)
    quad = predictor.QuadSpec(rho=cfg.rho, n_points=cfg.quad)
    q1 = predictor.q1_profile(cfg.q, cfg.r, degrees, euler, quad)
    preds = {D: q1[D].real * cfg.q**D for D in degrees}
    if cfg.n_terms >= 2:
        quad2 = predictor.QuadSpec(rho=predictor.Q2_QUAD.rho,
                                   n_points=cfg.quad)
        norm = 1 / (2**5 * 6 * factorial(cfg.r - 3))
        for zeta in predictor.ZETA_FOURTH:
            prof = predictor.q2_term_profile(cfg.q, cfg.r, degrees, zeta,
                                             euler, quad2)
            for D in degrees:
                l1, l2 = prof[D]
                piece = zeta**D * norm * ((1 - cfg.q**0.5)**(-cfg.r) * l1 + l2)
                preds[D] += piece.real * cfg.q ** (0.75 * D)
    rows = []
    for D in degrees:
        res = moments.moment(cfg.q, cfg.r, D, workers=cfg.workers)
        residual = res.value - preds[D]
        normalized = residual / cfg.q ** (D * (1 + cfg.theta) / 2)
        rows.append((D, res, preds[D], residual, normalized))
    if cfg.fmt == "csv":
        if cfg.r == 4:
            print(f"# note: {VERIFY_NOTE}")
        print("D,moment_a,moment_b,moment,prediction,residual,normalized")
        for D, res, pred, residual, normalized in rows:
            print(f"{D},{res.a},{res.b},{res.value!r},{pred!r},"
                  f"{residual!r},{normalized!r}")
    else:
        print(json.dumps({
            "note": VERIFY_NOTE if cfg.r == 4 else "",
            "config": {"q": cfg.q, "r": cfg.r, "N": cfg.n_terms,
                       "theta": cfg.theta, "pmax": cfg.pmax,
                       "rho": cfg.rho, "quad": cfg.quad},
            "rows": [{
                "D": D, "moment_a": str(res.a), "moment_b": str(res.b),
                "moment": res.value, "prediction": pred,
                "residual": residual, "normalized": normalized,
            } for D, res, pred, residual, normalized in rows],
        }, sort_keys=True))
    return 0


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
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
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in property checks")
    p.add_argument("--seed", type=int, default=0)
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
