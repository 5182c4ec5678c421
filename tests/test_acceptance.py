"""One test per acceptance criterion; each prints a PASS line with details.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 11 is exploratory: its table is always emitted and the
decay observation is reported, not asserted.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import comb

import numpy as np

from qlmoments import cocycle as cc
from qlmoments import kacmoody as km
from qlmoments import moments
from qlmoments import predictor as pr
from qlmoments.exactnum import KNum
from qlmoments.kacmoody import Root

import oracles
from conftest import random_k_point
from fe_check import fe_chunk_worst
from test_predictor import poly_h, separated_unit_points

WORKERS = min(8, os.cpu_count() or 1)


def report(n: int, detail: str) -> None:
    print(f"\ncriterion {n:2d}: PASS - {detail}")


def test_criterion_01_dual_oracle_exact():
    start = time.perf_counter()
    for D in range(1, 5):
        naive = {}
        for r in range(1, 5):
            fast = moments.moment(5, r, D, method="reflect")
            ref = moments.moment(5, r, D, method="naive")
            sv = moments.moment(5, r, D, method="sieve")
            assert (fast.a, fast.b) == (ref.a, ref.b) == (sv.a, sv.b)
            naive[r] = ref
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(1, f"oracle routes agree exactly for q=5, r<=4, D<=4 in {elapsed:.1f}s")


def test_criterion_02_functional_equation():
    worst = 0.0
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        futures = []
        for q in (5, 13):
            for deg in range(1, 5):
                total = q**deg
                step = max(total // WORKERS, 1)
                for start in range(0, total, step):
                    futures.append(pool.submit(
                        fe_chunk_worst, q, deg, start, min(start + step, total),
                        10, 17 + start))
        for f in futures:
            worst = max(worst, f.result())
    assert worst <= 1e-10
    report(2, f"functional equation exhaustive q in (5,13), deg<=4: "
              f"worst scaled residual {worst:.2e}")


def test_criterion_03_root_counts():
    start = time.perf_counter()
    for r in range(3, 8):
        phi1 = km.positive_real_roots_at_level(r, 1)
        phi2 = km.positive_real_roots_at_level(r, 2)
        assert len(phi1) == 2**r
        assert len(phi2) == comb(r, 3) * 2 ** (r - 3)
        for alpha in phi1 + phi2:
            assert all(v <= alpha.level for v in alpha.k[:r])
        for alpha in phi2:
            head = list(alpha.k[:r])
            assert head.count(1) == 3 and all(v in (0, 1, 2) for v in head)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(3, f"level sets sized 2^r and C(r,3)2^(r-3) for r=3..7 in {elapsed:.1f}s")


def test_criterion_04_cocycle_consistency(rng):
    q = 5
    one = KNum.one(q)
    half = KNum.rational(Fraction(1, 2), q)
    qk = KNum.rational(q, q)
    sq = KNum.sqrt_q(q)
    ident = cc.identity3(one, one - one)
    r = 4
    for _ in range(20):
        z = random_k_point(rng, r + 1)
        assert cc.cocycle_matrix((1, 2), z, qk, sq, half) == \
            cc.cocycle_matrix((2, 1), z, qk, sq, half)
        assert cc.cocycle_matrix((2, r + 1, 2), z, qk, sq, half) == \
            cc.cocycle_matrix((r + 1, 2, r + 1), z, qk, sq, half)
        for letter in (1, r + 1):
            m = cc.cocycle_matrix((letter,), z, qk, sq, half)
            back = cc.cocycle_matrix(
                (letter,), oracles.act_on_z((letter,), z, qk, sq), qk, sq, half)
            assert cc.mat_mul(m, back) == ident
    u = oracles.u_matrix(half)
    assert cc.mat_mul(u, u) == ident
    assert cc.mat_mul(oracles.b_matrix(half), oracles.b_inverse_matrix(one)) == ident
    report(4, "word independence, inverse law, U^2 = I exact at 20 K-points")


def test_criterion_05_gamma_table_exact():
    for k in range(4):
        assert cc.gamma_table_entry(k, 5) == cc.gamma_table_polynomial(k, 5)
    vals = [cc.gamma_table_entry(k, 5).embed() for k in range(4)]
    report(5, "residue table equals the four exact q^(1/4)-polynomials; "
              f"values {[f'{v:.6g}' for v in vals]}")


def test_criterion_06_closed_form_cross_checks(rng):
    q = 5
    one = KNum.one(q)
    half = KNum.rational(Fraction(1, 2), q)
    qk = KNum.rational(q, q)
    sq = KNum.sqrt_q(q)
    t = KNum.root4(q)
    r = 4
    for _ in range(20):
        z = random_k_point(rng, r + 1)
        generic = cc.mbar_matrix((1, 2, 3, r + 1), z, qk, sq, half)
        closed = cc.mbar_closed(z[0], z[1], z[2], z[r], qk, sq)
        assert generic == closed
    for trial in range(20):
        zeta = KNum.fourth_root_of_unity(q, trial % 4)
        xi = random_k_point(rng, 3)
        z = cc.residue_point(Root((1, 1, 1, 2)), xi, zeta, qk, sq, t)
        d_diag = cc.mat_inv3(cc.cocycle_matrix(
            (1, 2, 3), oracles.act_on_z((4,), z, qk, sq), qk, sq, half))
        e_mat = cc.mat_inv3(cc.cocycle_matrix((4,), z, qk, sq, half))
        u = oracles.u_matrix(half)
        e_diag = cc.mat_mul(cc.mat_mul(u, e_mat), u)
        d1, d2, d3, e1, e2, e3 = cc.de_diagonals(xi[0], xi[1], xi[2], zeta, t)
        assert (d_diag[0][0], d_diag[1][1], d_diag[2][2]) == (d1, d2, d3)
        assert (e_diag[0][0], e_diag[1][1], e_diag[2][2]) == (e1, e2, e3)
    report(6, "split-diagonal and global closed forms equal the generic "
              "cocycle exactly at 20 K-points each")


def test_criterion_07_closed_series():
    for r in range(4, 9):
        c = oracles.regularized_factor_series(r, 6)
        assert c[0] == 1 and c[1] == 0 and c[2] == 0
        assert c[3] == -14 * (r - 2)
        assert c[4] == -Fraction(r**4 + 12 * r**3 + 59 * r**2 - 696 * r + 1164, 12)
    got = oracles.rank3_local_poly_x1_coeffs(20)

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    want = [Fraction(1)]
    for _ in range(5):
        want = mul(want, [1, -1])
    want = mul(want, [1, 1])
    want = mul(want, [1, 4, 11, 10, -11, 0, 11, -4, -1])
    want += [Fraction(0)] * (20 - len(want))
    assert got == want[:20]
    report(7, "central factor series exact for r=4..8; rank-3 specialization "
              "factorizes as displayed")


def test_criterion_08_constants():
    v = oracles.vandermonde_core_integral(64, 0.1)
    assert abs(v - (-48)) < 1e-6
    for r in range(4, 11):
        assert oracles.binomial_determinant(r) == (-2) ** ((r - 3) * (r - 4) // 2)
    report(8, f"triple contour integral = {v.real:.9f}; binomial determinants "
              "exact for r=4..10")


def test_criterion_09_residue_lemmas(rng):
    start = time.perf_counter()
    worst_pair = 0.0
    for trial in range(100):
        r = (2, 3, 3, 4)[trial % 4]
        a = separated_unit_points(r, rng)
        h = poly_h(rng)
        lhs = oracles.symmetric_pair_sum(h, a).embed()
        rhs = oracles.symmetric_pair_integral(
            h, [v.embed() for v in a], 0.3, 48 if r == 4 else 64)
        worst_pair = max(worst_pair, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst_pair <= 1e-8
    worst_mixed = 0.0
    for trial in range(100):
        r = (3, 3, 4, 3)[trial % 4]
        m = trial % r if r == 3 else 3
        a = separated_unit_points(r, rng)
        h = poly_h(rng)
        lhs = oracles.permuted_kernel_sum(h, a, m).embed()
        rhs = oracles.permuted_kernel_integral(
            h, [v.embed() for v in a], m, 0.3, 48 if r == 4 else 64)
        worst_mixed = max(worst_mixed, abs(lhs - rhs) / max(abs(lhs), 1.0))
    elapsed = time.perf_counter() - start
    assert worst_mixed <= 1e-8
    assert elapsed < 300
    report(9, f"100+100 residue-sum identities: worst {worst_pair:.2e} / "
              f"{worst_mixed:.2e} in {elapsed:.0f}s")


def test_criterion_10_q2_structure():
    start = time.perf_counter()
    q, r = 5, 4
    euler = pr.EulerSpec(12)
    quad = pr.Q2_QUAD
    degrees = list(range(20, 41))
    pieces = {D: {zeta: pair[1] for zeta, pair in by_zeta.items()}  # at pmax
              for D, by_zeta in pr.q2_term_profile(q, r, degrees, euler, quad).items()}

    # degree-7 fit per class: each root-of-unity piece is a polynomial in D.
    # The sgn(a) = +1 pieces (zeta = +-1) are real, so their imaginary part
    # is roundoff and is gated as a share of the real part, not fitted.
    def fit_resid(ys):
        ds = np.array(degrees, float)
        vand = np.vander(ds / 40.0, 8)
        coef, *_ = np.linalg.lstsq(vand, ys, rcond=None)
        return np.linalg.norm(ys - vand @ coef) / np.linalg.norm(ys)

    worst_fit = 0.0
    worst_imag = 0.0
    for zeta, a_sign in pr.ZETA_FOURTH.items():
        ys = np.array([pieces[D][zeta] for D in degrees])
        worst_fit = max(worst_fit, fit_resid(ys.real))
        if a_sign == 1:
            worst_imag = max(worst_imag,
                             np.linalg.norm(ys.imag) / np.linalg.norm(ys.real))
        else:
            worst_fit = max(worst_fit, fit_resid(ys.imag))
    # measured on this grid (n = 64): fits 7.4e-16 to 2.5e-15, zeta = +-1
    # imaginary shares 5.1e-11 and 6.4e-11; the gates leave ~40x and ~15x
    assert worst_fit <= 1e-13
    assert worst_imag <= 1e-9

    # diagnostic: the assembled coefficient mixes the classes with period-4
    # phases of comparable size, so a plain parity fit is structurally lossy
    q2 = {D: sum(z**D * p for z, p in pieces[D].items()).real
          for D in degrees}
    parity_resid = []
    for parity in (0, 1):
        ds = np.array([D for D in degrees if D % 2 == parity], float)
        ys = np.array([q2[int(D)] for D in ds])
        vand = np.vander(ds / 40.0, 8)
        coef, *_ = np.linalg.lstsq(vand, ys, rcond=None)
        parity_resid.append(np.linalg.norm(ys - vand @ coef) / np.linalg.norm(ys))

    # leading coefficient via 7th differences of the per-root-of-unity pieces
    def lead7(zeta):
        vals = [pieces[D][zeta] for D in range(20, 28)]
        for _ in range(7):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        return vals[0] / 5040

    predicted = pr.q2_leading_coefficient(q, r, euler)
    worst_lead = 0.0
    for zeta, key in ((1 + 0j, "zeta^0"), (-1 + 0j, "zeta^2"),
                      (1j, "zeta^1"), (-1j, "zeta^3")):
        fit = lead7(zeta)
        rel = abs(fit - predicted[key]) / abs(predicted[key])
        worst_lead = max(worst_lead, rel)
    fit_even = (lead7(1 + 0j) + lead7(-1 + 0j)).real
    rel_even = abs(fit_even - predicted["even"].real) / abs(predicted["even"].real)
    worst_lead = max(worst_lead, rel_even)
    assert worst_lead <= 0.01
    report(10, f"degree-7 fit residual {worst_fit:.2e} per root-of-unity class, "
               f"zeta = +-1 imaginary share {worst_imag:.2e} "
               f"(plain parity fit residuals {parity_resid[0]:.2e}/"
               f"{parity_resid[1]:.2e} reflect the period-4 mixing); fitted "
               f"leading coefficients within {worst_lead:.2e} of the closed form "
               f"in {time.perf_counter() - start:.0f}s")


def test_criterion_11_end_to_end_decay():
    q, r = 5, 4
    degrees = [3, 4, 5, 6, 7]
    preds = pr.moment_prediction(q, r, degrees, 1, pr.EulerSpec(16),
                                 pr.QuadSpec(0.1, 64))
    rows = moments.residual_table(q, r, degrees, preds, theta=0.55)
    print("\nD,moment_a,moment_b,moment,prediction,residual,"
          "normalized_theta,residual_over_q34")
    ratios = []
    for row in rows:
        r34 = row.residual / q ** (0.75 * row.D)
        ratios.append((row.D, r34))
        print(f"{row.D},{row.moment_a},{row.moment_b},{row.moment_value!r},"
              f"{row.prediction!r},{row.residual!r},{row.normalized!r},{r34!r}")
    tail = {d: abs(v) for d, v in ratios if d >= 5}
    bounded = max(tail.values()) < 50
    non_increasing = all(tail[d + 1] <= tail[d] * 1.05
                         for d in (5, 6) if d + 1 in tail)
    assert bounded
    report(11, "full table emitted; normalized residuals at D>=5: "
               + ", ".join(f"D={d}: {v:.3f}" for d, v in sorted(tail.items()))
               + f"; non-increasing observed: {non_increasing} (reported, not gated)")
