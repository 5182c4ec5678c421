import cmath
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qlmoments import predictor as pr
from qlmoments.exactnum import KNum
from qlmoments.ffpoly import irreducible_count

import oracles

Q = 5


def unit_point(t: Fraction, q=Q) -> KNum:
    den = 1 + t * t
    return KNum.gaussian((1 - t * t) / den, 2 * t / den, q)


def separated_unit_points(r: int, rng: random.Random) -> list[KNum]:
    mags = rng.sample(range(1, 9), r)
    return [unit_point(Fraction(k * rng.choice([-1, 1]), 200)) for k in mags]


def poly_h(rng: random.Random):
    c = [rng.randint(-3, 3) for _ in range(4)]

    def h(zs):
        e1 = 0
        p = 1
        s2 = 0
        for z in zs:
            e1 = e1 + z
            p = p * z
            s2 = s2 + z * z
        return c[0] + c[1] * e1 + c[2] * p + c[3] * s2

    return h


@pytest.fixture
def no_walk(monkeypatch):
    """Fail any call that reaches the contour nodes, where the grid pass of
    Q1 and of Q2 starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("the grid walk started")

    monkeypatch.setattr(pr, "_circle", refuse)


@pytest.fixture
def product_leads(monkeypatch) -> list:
    """The z_1 argument of every call to the level-two product, in order."""
    leads = []
    product = pr.euler_product_regularized

    def counted(zs, q, pmax):
        leads.append(zs[0])
        return product(zs, q, pmax)

    monkeypatch.setattr(pr, "euler_product_regularized", counted)
    return leads


class TestSpecs:
    def test_quad_spec_validation(self):
        with pytest.raises(ValueError):
            pr.QuadSpec(rho=0.6)
        with pytest.raises(ValueError):
            pr.QuadSpec(n_points=40)
        pr.QuadSpec(rho=0.2, n_points=32)

    def test_euler_spec_validation(self):
        with pytest.raises(ValueError):
            pr.EulerSpec(pmax=0)


class TestEntryValidation:
    EULER = pr.EulerSpec(6)
    QUAD = pr.QuadSpec(0.1, 8)

    @pytest.mark.parametrize("q", [9, 7, 3])  # not a prime = 1 mod 4
    def test_entry_points_reject_modulus(self, q):
        with pytest.raises(ValueError, match="modulus"):
            pr.q1_coefficient(q, 4, 4, self.EULER, self.QUAD)
        with pytest.raises(ValueError, match="modulus"):
            pr.q2_coefficient(q, 4, 4, self.EULER, self.QUAD)
        with pytest.raises(ValueError, match="modulus"):
            pr.q2_leading_coefficient(q, 4, self.EULER)

    def test_q1_rejects_rank_zero(self):
        with pytest.raises(ValueError, match="r >= 1"):
            pr.q1_profile(Q, 0, [4], self.EULER, self.QUAD)

    @pytest.mark.parametrize("D", [0, -3])
    def test_q2_rejects_degree_below_one(self, D):
        with pytest.raises(ValueError, match="need every degree D >= 1"):
            pr.q2_coefficient(Q, 4, D, self.EULER, self.QUAD)

    @pytest.mark.parametrize("call", [
        lambda euler, quad: pr.q1_profile(Q, 4, [], euler, quad),
        lambda euler, quad: pr.q2_term_profile(Q, 4, [], euler, quad),
        lambda euler, quad: pr.moment_prediction(Q, 4, [], 2, euler, quad),
    ], ids=["q1_profile", "q2_term_profile", "moment_prediction"])
    def test_empty_degree_list_is_refused_before_any_grid_work(self, no_walk,
                                                               call):
        with pytest.raises(ValueError, match="need at least one degree"):
            call(self.EULER, self.QUAD)

    # the largest cutoffs with q^pmax a finite float
    @pytest.mark.parametrize("q, top", [(5, 441), (13, 276), (17, 250)])
    def test_pmax_range_ends_where_q_to_the_pmax_overflows(self, q, top):
        pr.EulerSpec(top).check_range(q)
        with pytest.raises(ValueError, match=f"pmax must be <= {top} at q = {q}"):
            pr.EulerSpec(top + 1).check_range(q)

    @pytest.mark.parametrize("q, pmax", [(5, 442), (5, 445), (13, 277)])
    @pytest.mark.parametrize("call", [
        lambda q, euler, quad: pr.q1_coefficient(q, 4, 4, euler, quad),
        lambda q, euler, quad: pr.q2_coefficient(q, 4, 4, euler, quad),
        lambda q, euler, quad: pr.moment_prediction(q, 4, [3], 2, euler, quad),
        lambda q, euler, quad: pr.q2_leading_coefficient(q, 4, euler),
    ], ids=["q1", "q2", "moment_prediction", "q2_leading"])
    def test_pmax_out_of_range_is_refused_before_any_grid_work(
            self, no_walk, call, q, pmax):
        with pytest.raises(ValueError, match="pmax must be <= "):
            call(q, pr.EulerSpec(pmax), self.QUAD)


class TestContour:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_simple_poles_have_unit_residue(self, r):
        # r = 1 is one vectorised slice, r > 1 one slice per node of z_1
        def fn(zs):
            out = 1
            for z in zs:
                out = out / (z - 1)
            return out

        assert abs(oracles.contour_integral(fn, r, 0.1, 16) - 1) < 1e-12


class TestLevelOneEuler:
    def test_zero_point_is_trivial(self):
        zs = [0.0] * 4
        for e in (1, 2, 3):
            assert oracles.level_one_local_factor(zs, Q, e) == 1
        assert abs(oracles.big_g(zs, Q, 6) - 1) < 1e-14

    def test_product_identity_per_degree(self, rng):
        # raw moment factor = (1 - |p|^-2) * A_e / prod(1 - (xi_i xi_j)^e/|p|)
        for _ in range(15):
            r = rng.randint(2, 4)
            xis = [complex(rng.uniform(0.5, 0.9), rng.uniform(-0.2, 0.2))
                   for _ in range(r)]
            for e in (1, 2, 3):
                qe = float(Q) ** e
                lhs = oracles.local_moment_factor(xis, Q, e)
                pairs = 1
                for i in range(r):
                    for j in range(i, r):
                        pairs *= 1 - (xis[i] * xis[j]) ** e / qe
                rhs = (1 - qe**-2) * oracles.level_one_local_factor(xis, Q, e) / pairs
                assert abs(lhs - rhs) < 1e-8 * abs(lhs)

    def test_cauchy_convergence_of_cutoffs(self):
        xis = [0.9] * 4
        g4 = oracles.big_g(xis, Q, 4)
        g5 = oracles.big_g(xis, Q, 5)
        g6 = oracles.big_g(xis, Q, 6)
        assert abs(g5 - g6) < abs(g4 - g5)

    def test_log_route_matches_direct_product(self, rng):
        zs = [complex(rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1))
              for _ in range(4)]
        direct = 1
        for e in range(1, 7):
            direct = direct * oracles.level_one_local_factor(zs, Q, e) \
                ** irreducible_count(Q, e)
        stable = pr.euler_product_level_one(zs, Q, 6)[1]
        assert abs(direct - stable) < 1e-10 * abs(direct)

    # measured at most 5.8e-15 over 40 random points per (q, pmax); the
    # bound leaves a margin of 3.4x
    @pytest.mark.parametrize("q", [5, 13])
    @pytest.mark.parametrize("pmax", [6, 12])
    def test_matches_fifty_digit_log_sum(self, rng, q, pmax):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for _ in range(6):
                zs = [1 + 0.1 * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                      for _ in range(4)]
                log_sum = mpmath.fsum(
                    irreducible_count(q, e) * mpmath.log(oracles.level_one_local_factor(
                        [mpmath.mpc(z) for z in zs], mpmath.mpf(q), e))
                    for e in range(1, pmax + 1))
                got = pr.euler_product_level_one(zs, q, pmax)[1]
                want = mpmath.exp(log_sum)
                assert abs(got - want) <= 2e-14 * abs(want)

    @pytest.mark.parametrize("pmax", [1, 5, 12])
    def test_lower_cutoff_is_the_product_at_half_pmax(self, rng, pmax):
        zs = [complex(rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1))
              for _ in range(4)]
        lower, _ = pr.euler_product_level_one(zs, Q, pmax)
        assert lower == pr.euler_product_level_one(zs, Q, pmax // 2)[1]


class TestTruncationTail:
    """The tail is the relative change from Euler cutoff pmax to pmax // 2."""

    def test_q1_tail_covers_the_gap_to_twice_the_cutoff(self):
        quad = pr.QuadSpec(0.1, 16)
        res = pr.q1_coefficient(Q, 4, 4, pr.EulerSpec(12), quad)
        far = pr.q1_coefficient(Q, 4, 4, pr.EulerSpec(24), quad)
        assert res.tail_estimate >= abs(res.value - far.value) / abs(res.value)

    def test_q2_tail_flags_the_unconverged_q13_value(self):
        # the value at pmax = 12 is +0.533 where pmax = 6..10 give ~ -0.334
        res = pr.q2_coefficient(13, 4, 6, pr.EulerSpec(12), pr.QuadSpec(0.05, 16))
        assert res.tail_estimate > 1

    def test_pmax_one_gives_a_finite_tail(self):
        # pmax // 2 = 0: the value is compared with the empty product 1
        q1 = pr.q1_coefficient(Q, 4, 4, pr.EulerSpec(1), pr.QuadSpec(0.1, 8))
        q2 = pr.q2_coefficient(Q, 4, 4, pr.EulerSpec(1), pr.QuadSpec(0.05, 8))
        for res in (q1, q2):
            assert np.isfinite(res.tail_estimate) and res.tail_estimate > 0


class TestRegularizedFactor:
    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("zeta,sgn", [(1 + 0j, 1), (-1 + 0j, 1),
                                          (1j, -1), (-1j, -1)])
    def test_central_value_is_closed_polynomial(self, r, zeta, sgn):
        ones = [1.0 + 0j] * r
        for e in (1, 2, 3):
            got = oracles.regularized_local_factor(ones, zeta, sgn, Q, e)
            want = pr.regularized_factor_value(r, (sgn**e) * Q ** (-0.5 * e))
            assert abs(got - want) < 1e-10 * abs(want)

    def test_rank3_equal_arguments_collapse(self, rng):
        for _ in range(10):
            xi = cmath.exp(1j * rng.uniform(-0.3, 0.3)) * rng.uniform(0.95, 1.05)
            zeta, sgn = rng.choice([(1 + 0j, 1), (-1 + 0j, 1), (1j, -1)])
            for e in (1, 2):
                got = oracles.regularized_local_factor([xi] * 3, zeta, sgn, Q, e)
                want = oracles.rank3_local_poly((sgn**e) * xi ** (2 * e), Q ** (-0.5 * e))
                assert abs(got - want) < 1e-9 * abs(want)

    def test_normalization_scale(self, rng):
        # |S - 1| <= C |p|^{-3/2} near the central torus; report the fit
        worst = 0.0
        for _ in range(50):
            xi = [cmath.exp(1j * rng.uniform(-0.3, 0.3)) *
                  (1 + rng.uniform(-0.02, 0.02)) for _ in range(4)]
            zeta, sgn = rng.choice([(1 + 0j, 1), (-1 + 0j, 1), (1j, -1), (-1j, -1)])
            for e in (2, 3, 4):
                v = oracles.regularized_local_factor(xi, zeta, sgn, Q, e)
                worst = max(worst, abs(v - 1) * Q ** (1.5 * e))
        assert worst < 100.0

    def test_closed_form_matches_generic_cocycle_route(self, rng):
        # the same local factor through the generic cocycle inversion
        from qlmoments.cocycle import local_residue_factor
        from qlmoments.kacmoody import Root
        r = 4
        alpha = Root((1, 1, 1, 0, 2))
        word = (1, 2, 3, r + 1)
        q, sq, t = 5.0, 5**0.5, 5**0.25
        for _ in range(6):
            xis = [cmath.exp(1j * rng.uniform(-0.2, 0.2)) *
                   rng.uniform(0.95, 1.05) for _ in range(r)]
            zeta, sgn = rng.choice([(1 + 0j, 1), (-1 + 0j, 1), (1j, -1)])
            for e in (1, 2):
                raw = local_residue_factor(word, alpha, xis, zeta, sgn,
                                           q, sq, t, e, 0.5)
                xe = [v**e for v in xis]
                ze, qe, q4 = zeta**e, q**e, q ** (0.25 * e)
                avec = (ze * xe[1] * xe[2] / (q4 * xe[0]),
                        ze * xe[0] * xe[2] / (q4 * xe[1]),
                        ze * xe[0] * xe[1] / (q4 * xe[2]))
                r3_inv = 1 - qe * (avec[0] * avec[1] * avec[2]) ** 2
                for i in range(3):
                    for j in range(i, 3):
                        r3_inv *= 1 - avec[i] * avec[j]
                corr = 1
                for i in range(3):
                    for j in range(3, r):
                        corr *= (1 - xe[i] ** 2 * xe[j] ** 2 / qe)
                        corr *= (1 - xe[j] ** 2 / (xe[i] ** 2 * qe))
                for k in range(3, r):
                    for l in range(k, r):
                        corr *= 1 - xe[k] ** 2 * xe[l] ** 2 / qe
                got = raw * r3_inv * corr
                want = oracles.regularized_local_factor(xis, zeta, sgn, Q, e)
                assert abs(got - want) < 1e-9 * abs(want)

    def test_r_p_3_shape(self):
        z = (0.2, 0.3, 0.1)
        got = oracles.r_p_3(*z, Q)
        want = 1 / (1 - Q * (z[0] * z[1] * z[2]) ** 2)
        for i in range(3):
            for j in range(i, 3):
                want /= 1 - z[i] * z[j]
        assert abs(got - want) < 1e-14


class TestRegularizedProduct:
    @staticmethod
    def slice_point(r: int, n: int, index: int = 3):
        """The grid variables of one torus slice, by default off the real axis."""
        _, zs, _ = next(itertools.islice(oracles.torus_slices(r, n, 0.05), index, None))
        return zs

    # r = 4, n = 32 puts each factor (512 KiB) above numpy's 256 KiB elision size
    @pytest.mark.parametrize("q", [5, 13])
    @pytest.mark.parametrize("r,n", [(4, 16), (4, 32), (5, 8)])
    @pytest.mark.parametrize("pmax", [6, 12])
    def test_bit_identical_to_per_root_product(self, q, r, n, pmax):
        zs = self.slice_point(r, n)
        got = pr.euler_product_regularized(zs, q, pmax)[1]
        want = oracles.euler_product_regularized_per_root(zs, q, pmax)
        assert list(got) == [1, -1]
        for zeta, a_sign in pr.ZETA_FOURTH.items():
            assert np.array_equal(got[a_sign], want[zeta])

    # Against the factors raised to their counts one by one: measured at most
    # 3.5e-14 at r = 4 and 4.6e-13 at r = 5 over every slice of these grids.
    # The r = 5 gap sits at e = 1, where |f| ~ 0.033 and log(1 + (f - 1))
    # has an absolute error of ~eps / |f|^2.  The bounds leave a margin of ~3x.
    @pytest.mark.parametrize("q", [5, 13])
    @pytest.mark.parametrize("r,n,bound", [(4, 16, 1e-13), (4, 32, 1e-13),
                                           (5, 8, 1.5e-12)])
    @pytest.mark.parametrize("pmax", [6, 12])
    def test_log_form_matches_the_powered_product(self, q, r, n, bound, pmax):
        zs = self.slice_point(r, n)
        got = pr.euler_product_regularized(zs, q, pmax)[1]
        want = oracles.euler_product_regularized_powered(zs, q, pmax)
        for zeta, a_sign in pr.ZETA_FOURTH.items():
            assert np.all(abs(got[a_sign] - want[zeta]) <= bound * abs(want[zeta]))

    def test_same_non_finite_pattern_past_overflow(self):
        zs = self.slice_point(4, 8, index=1)  # part finite, part inf/nan
        with np.errstate(all="ignore"):
            got = pr.euler_product_regularized(zs, Q, 28)[1]
            want = oracles.euler_product_regularized_per_root(zs, Q, 28)
        finite = [np.isfinite(v) for v in want.values()]
        assert all(f.any() and not f.all() for f in finite)
        for zeta, a_sign in pr.ZETA_FOURTH.items():
            assert np.array_equal(got[a_sign], want[zeta], equal_nan=True)

    @pytest.mark.parametrize("pmax", [6, 12, 16])
    def test_each_factor_once_per_degree_and_sign(self, monkeypatch, pmax):
        calls = {"_shared_factor": 0, "_root_factor": 0}
        for name in calls:
            def counted(*args, real=getattr(pr, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(pr, name, counted)
        pr.euler_product_regularized(self.slice_point(4, 4), Q, pmax)
        # two signs sgn(a)^e at odd e, one at even e; sharing by zeta^e alone
        # would leave 4 at odd e, 2 at e = 2 mod 4 and 1 at e = 0 mod 4
        distinct = 2 * ((pmax + 1) // 2) + pmax // 2
        assert calls == {"_shared_factor": pmax, "_root_factor": distinct}
        if pmax == 12:
            assert distinct == 18

    @pytest.mark.parametrize("pmax", [1, 7, 12])
    def test_lower_cutoff_is_the_product_at_half_pmax(self, pmax):
        zs = self.slice_point(4, 8)
        lower, _ = pr.euler_product_regularized(zs, Q, pmax)
        want = oracles.euler_product_regularized_per_root(zs, Q, pmax // 2)
        assert list(lower) == [1, -1]
        for zeta, a_sign in pr.ZETA_FOURTH.items():
            assert np.array_equal(lower[a_sign], want[zeta])


class TestClosedSeries:
    def test_rank3_poly_x1_factorization(self):
        got = oracles.rank3_local_poly_x1_coeffs(20)
        factor = [Fraction(1)]

        def mul(a, b):
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        for _ in range(5):
            factor = mul(factor, [1, -1])
        factor = mul(factor, [1, 1])
        factor = mul(factor, [1, 4, 11, 10, -11, 0, 11, -4, -1])
        factor += [Fraction(0)] * (20 - len(factor))
        assert got == factor[:20]

    @pytest.mark.parametrize("r", range(4, 9))
    def test_series_low_order(self, r):
        c = oracles.regularized_factor_series(r, 6)
        assert c[0] == 1 and c[1] == 0 and c[2] == 0
        assert c[3] == -14 * (r - 2)
        assert c[4] == -Fraction(r**4 + 12 * r**3 + 59 * r**2 - 696 * r + 1164, 12)

    def test_series_matches_value(self):
        c = oracles.regularized_factor_series(4, 24)
        t = 0.07
        series_val = sum(float(v) * t**n for n, v in enumerate(c))
        assert abs(series_val - pr.regularized_factor_value(4, t)) < 1e-12


class TestResidueLemmas:
    def test_pair_lemma_random_instances(self, rng):
        for trial in range(25):
            r = 2 + trial % 3
            a = separated_unit_points(r, rng)
            h = poly_h(rng)
            lhs = oracles.symmetric_pair_sum(h, a).embed()
            af = [v.embed() for v in a]
            rhs = oracles.symmetric_pair_integral(h, af, 0.3, 48 if r == 4 else 64)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)

    def test_mixed_kernel_lemma_random_instances(self, rng):
        for trial in range(12):
            r = 3 + trial % 2
            m = trial % r
            a = separated_unit_points(r, rng)
            h = poly_h(rng)
            lhs = oracles.permuted_kernel_sum(h, a, m).embed()
            af = [v.embed() for v in a]
            rhs = oracles.permuted_kernel_integral(h, af, m, 0.3, 48 if r == 4 else 64)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


class TestWeights:
    def test_central_weights_match_residue_table(self):
        # clearing the displayed prefactors recovers the exact table entries
        for k, zeta in ((0, 1 + 0j), (2, -1 + 0j), (1, 1j), (3, -1j)):
            sgn = 1 if k % 2 == 0 else -1
            g1, g2 = pr.secondary_weight_functions([1.0 + 0j] * 4, zeta, Q)
            table = (g1 * (1 - sgn * Q**0.5) ** 7 / (1 - Q**0.5) ** 4
                     + g2 * (1 - sgn * Q**0.5) ** 7)
            from qlmoments.cocycle import gamma_table_entry
            want = gamma_table_entry(k, Q).embed()
            assert abs(table - want) < 1e-9 * abs(want)


class TestQ1:
    def test_refinement_and_reality(self):
        res = pr.q1_coefficient(Q, 4, 5, pr.EulerSpec(8), pr.QuadSpec(0.1, 32))
        assert res.imag_rel < 1e-8
        assert res.refine_delta is not None and res.refine_delta < 1e-6
        assert res.tail_estimate < 1e-2
        assert res.note == ""

    def test_no_refinement_delta_below_sixteen_points(self):
        res = pr.q1_coefficient(Q, 4, 4, pr.EulerSpec(6), pr.QuadSpec(0.1, 8))
        assert res.refine_delta is None
        res = pr.q1_coefficient(Q, 4, 4, pr.EulerSpec(6), pr.QuadSpec(0.1, 16))
        assert res.refine_delta is not None and res.refine_delta > 0

    def test_refine_off_only_blanks_the_delta(self):
        # perfbench/make_refs.py passes refine=False
        args = (Q, 4, 4, pr.EulerSpec(6), pr.QuadSpec(0.1, 16))
        on, off = pr.q1_coefficient(*args), pr.q1_coefficient(*args, refine=False)
        assert off == dataclasses.replace(on, refine_delta=None)

    def test_small_rank_flagged(self):
        res = pr.q1_coefficient(Q, 2, 3, pr.EulerSpec(6), pr.QuadSpec(0.1, 16))
        assert "r >= 4" in res.note

    def test_parity_structure_only_uses_matching_branch(self):
        # even and odd degrees use different integrand cores, both finite
        prof = pr.q1_profile(Q, 3, [2, 3], pr.EulerSpec(6), pr.QuadSpec(0.1, 16))
        assert abs(prof[2][1]) > 0 and abs(prof[3][1]) > 0

    # q1_profile(5, 1, [1..6], EulerSpec(6), QuadSpec(0.1, 16)) from a
    # vectorised r = 1 evaluation that multiplies the integrand in another
    # order than the torus walk, so the two agree to rounding only
    R1_PROFILE = {
        1: 0.9450666143040313 + 5.551115123125783e-16j,
        2: 0.40872325187088976 + 6.466962920170373e-16j,
        3: 1.6080234695522018 + 4.662936703425658e-16j,
        4: 1.0716801071190514 + 6.287325061276752e-16j,
        5: 2.2709803248003833 + 5.995204332975846e-16j,
        6: 1.73463696236718 + 5.568773625702265e-16j,
    }

    def test_rank_one_profile_matches_vectorised_route(self):
        got = pr.q1_profile(Q, 1, range(1, 7), pr.EulerSpec(6), pr.QuadSpec(0.1, 16))
        for D, want in self.R1_PROFILE.items():
            assert abs(got[D][1] - want) <= 1e-14 * abs(want)

    def test_circle_mode_matches_analytic_extraction(self):
        quad = pr.QuadSpec(0.1, 16)
        an = pr.q1_profile(Q, 3, [3, 4], pr.EulerSpec(6), quad)
        for D in (3, 4):
            ci = oracles.q1_coefficient_circle(Q, 3, D, pr.EulerSpec(6), quad, n_xi=24)
            assert abs(an[D][1] - ci) < 1e-6 * abs(an[D][1])


class TestQ1TopCoefficient:
    """Q1 at each parity of D is a polynomial of degree K = r(r+1)/2 in
    m = D // 2, whose top coefficient is the Keating-Snaith constant
    2^K prod_(j<=r) j!/(2j)! times (1 - 1/q) A(1), with A(1) the level-one
    product at z = 1: Andrade and Keating's arithmetic factor (Conjectures
    for the integral moments and ratios of L-functions over function
    fields, 2014).  The K-th finite difference in m of one profile pass
    reads it off with no fit."""

    # (q, r, n): the largest relative gap measured over both parities, and
    # a bound ~10x above it; at r = 4 the gaps are 1.2e-8 (even D) and
    # 4.4e-9 (odd D), where the contour sum cancels most
    GAP = {(5, 1, 64): (5.0e-16, 5e-15), (13, 1, 64): (2.6e-16, 3e-15),
           (5, 2, 64): (4.0e-14, 4e-13), (13, 2, 64): (3.4e-14, 4e-13),
           (5, 3, 32): (5.6e-12, 6e-11), (13, 3, 32): (6.5e-12, 7e-11),
           (5, 4, 32): (1.2e-8, 1.2e-7)}

    @pytest.mark.parametrize("q, r, n", sorted(GAP))
    def test_matches_the_closed_form(self, q, r, n):
        K = r * (r + 1) // 2
        euler = pr.EulerSpec(32)
        a_one = pr.euler_product_level_one([np.ones(1)] * r, q, euler.pmax)[1][0]
        want = (1 - 1 / q) * a_one.real * 2**K * math.prod(
            math.factorial(j) / math.factorial(2 * j) for j in range(1, r + 1))
        prof = pr.q1_profile(q, r, range(1, 2 * K + 3), euler, pr.QuadSpec(0.1, n))
        for parity, m0 in ((0, 1), (1, 0)):  # D = 2m + parity >= 1
            diff = sum((-1) ** (K - k) * math.comb(K, k)
                       * prof[2 * (m0 + k) + parity][1].real for k in range(K + 1))
            got = diff / math.factorial(K)
            assert abs(got - want) <= self.GAP[q, r, n][1] * abs(want)


class TestQ1Combinations:
    """q1_profile sums over the strictly increasing node-index tuples, one
    block per largest index; oracles.q1_profile_per_point sums over every
    grid point."""

    @pytest.mark.parametrize("n, r", [(4, 1), (5, 3), (8, 4), (6, 5), (4, 5)])
    def test_columns_are_the_increasing_tuples_in_colex_order(self, n, r):
        tuples = pr._combinations(n, r)
        assert tuples.shape == (r, math.comb(n, r))
        assert np.all(np.diff(tuples, axis=0) > 0)  # strictly increasing
        want = sorted(itertools.combinations(range(n), r), key=lambda c: c[::-1])
        assert [tuple(c) for c in tuples.T.tolist()] == want
        # the block of largest index t is columns C(t, r) .. C(t + 1, r)
        for t in range(n):
            block = tuples[:, math.comb(t, r):math.comb(t + 1, r)]
            assert np.all(block[-1] == t)

    @pytest.mark.parametrize("r, n", [(1, 16), (3, 8), (4, 16), (5, 8)])
    def test_level_one_runs_on_the_increasing_tuples(self, monkeypatch, r, n):
        points = []
        euler = pr.euler_product_level_one

        def counted(zs, q, pmax):
            points.append(np.broadcast(*zs).size)
            return euler(zs, q, pmax)

        monkeypatch.setattr(pr, "euler_product_level_one", counted)
        pr.q1_profile(Q, r, [4, 5], pr.EulerSpec(6), pr.QuadSpec(0.1, n))
        assert sum(points) == math.comb(n, r)
        # one call per nonempty block: C(t, r - 1) <= C(n - 1, r - 1) points
        # for largest index t, and at r = 1 one call on all n nodes
        assert points == ([n] if r == 1 else
                          [math.comb(t, r - 1) for t in range(r - 1, n)])

    def test_rank_above_the_node_count_is_zero(self):
        # no increasing 5-tuple of 4 nodes exists, and every grid point has
        # two equal nodes, where the kernel is exactly 0
        euler, quad = pr.EulerSpec(6), pr.QuadSpec(0.1, 4)
        got = pr.q1_profile(Q, 5, [4, 5], euler, quad)
        want = oracles.q1_profile_per_point(Q, 5, [4, 5], euler, quad)
        assert list(got) == list(want) == [4, 5]
        for D in (4, 5):
            assert all(g == 0j for g in got[D])
            assert got[D] == want[D]

    # Largest relative gap measured over q = 5 and 13, D = 3..6 and the
    # three entries of each degree: 0 at r = 1 (the same points in the same
    # order), 3.6e-12 at r = 3, 1.1e-8 at r = 4, 6.3e-13 at r = 5 on 8
    # nodes, 4.3e-5 at r = 5 on 16.  The tuple sum adds each increasing
    # tuple once, where the walk adds its r! orders apart, so the roundings
    # of the two sums differ, and the contour sum's cancellation ratio
    # sum |w f| / |sum w f| (1.6e9 at r = 4, D = 2, n = 16; 5.8e10 at r = 5,
    # D = 4, n = 16) carries the difference into Q1.  Bounds are ~10x the
    # gaps.
    GATHER_GAP = {(1, 8): 0.0, (1, 16): 0.0, (3, 8): 5e-11, (3, 16): 5e-11,
                  (4, 8): 1e-7, (4, 16): 1e-7, (5, 8): 1e-11, (5, 16): 5e-4}

    @pytest.mark.parametrize("q", [5, 13])
    @pytest.mark.parametrize("r, n", sorted(GATHER_GAP))
    def test_gather_matches_the_per_point_walk(self, q, r, n):
        euler, quad = pr.EulerSpec(12), pr.QuadSpec(0.1, n)
        got = pr.q1_profile(q, r, range(3, 7), euler, quad)
        want = oracles.q1_profile_per_point(q, r, range(3, 7), euler, quad)
        assert list(got) == list(want)
        bound = self.GATHER_GAP[r, n]
        for D, entries in want.items():
            for g, w in zip(got[D], entries):
                assert abs(g - w) <= bound * abs(w)


class TestQ2:
    def test_rank_guard(self):
        with pytest.raises(ValueError, match="r >= 4"):
            pr.q2_coefficient(Q, 3, 5)
        with pytest.raises(ValueError, match="r >= 4"):
            pr.q2_leading_coefficient(Q, 3)

    # The oracle walks the same blocks of node triples with every factor
    # formed per root, and takes its half grid from a pass on n / 2 nodes.
    @pytest.mark.parametrize("q, r, n, degrees", [(5, 4, 16, [6, 20, 30, 40]),
                                                  (5, 4, 32, [6, 20]),
                                                  (13, 4, 16, [6, 20]),
                                                  (5, 5, 8, [4, 6])])
    def test_slice_factors_once_match_the_per_root_loop(self, q, r, n, degrees):
        euler, quad = pr.EulerSpec(12), pr.QuadSpec(0.05, n)
        got = pr.q2_term_profile(q, r, degrees, euler, quad)
        want = oracles.q2_term_profile_per_root(q, r, degrees, euler, quad)
        assert repr(got) == repr(want)

    # Largest relative gap of a piece measured over D = 3..6, the four roots
    # and the three entries of each degree: 1.55e-5 at r = 4 on 16 nodes,
    # 4.05e-6 on 32 and 1.44e-7 at r = 5 on 8, all at the pmax and half-grid
    # entries (under 6e-10 at pmax // 2).  The every-slice walk adds each
    # triple's 3! orders apart, and the level-two f_e - 1, formed by
    # subtraction, rounds differently in each order, which the irreducible
    # counts amplify (ROADMAP item 1 step two).  At q = 13 that reaches ~10%
    # of Q2 on 16 nodes, so no bound is kept there.  Bounds are ~10x the gaps.
    SLICE_GAP = {(4, 16): 1.5e-4, (4, 32): 4e-5, (5, 8): 1.5e-6}

    @pytest.mark.parametrize("r, n", sorted(SLICE_GAP))
    def test_triple_sum_matches_the_every_slice_walk(self, r, n):
        euler, quad = pr.EulerSpec(12), pr.QuadSpec(0.05, n)
        got = pr.q2_term_profile(Q, r, range(3, 7), euler, quad)
        want = oracles.q2_term_profile_every_slice(Q, r, range(3, 7), euler, quad)
        assert list(got) == list(want)
        bound = self.SLICE_GAP[r, n]
        for D, pieces in want.items():
            assert list(got[D]) == list(pieces)
            for zeta, entries in pieces.items():
                for g, w in zip(got[D][zeta], entries):
                    assert abs(g - w) <= bound * abs(w)

    def test_value_reality_and_refinement(self):
        res = pr.q2_coefficient(Q, 4, 6, pr.EulerSpec(8), pr.QuadSpec(0.1, 32))
        assert res.imag_rel < 1e-7
        # the halved grid has 16 nodes; only coarse agreement is meaningful
        assert res.refine_delta < 5e-3

    def test_no_refinement_delta_below_sixteen_points(self):
        res = pr.q2_coefficient(Q, 4, 4, pr.EulerSpec(6), pr.QuadSpec(0.05, 8))
        assert res.refine_delta is None

    def test_coefficient_is_assembled_by_q2_term_profile(self):
        euler, quad = pr.EulerSpec(6), pr.QuadSpec(0.05, 8)
        res = pr.q2_coefficient(Q, 4, 5, euler, quad)
        pieces = pr.q2_term_profile(Q, 4, [4, 5], euler, quad)
        assert list(pieces) == [4, 5]
        assert list(pieces[5]) == list(pr.ZETA_FOURTH)
        assert res.value == sum(z**5 * p[1] for z, p in pieces[5].items()).real

    def test_one_torus_walk_serves_every_root(self, monkeypatch):
        # every profile builds its nodes once, and Q2 one torus for all roots
        circles = []
        circle = pr._circle

        def counted(*args):
            circles.append(args)
            return circle(*args)

        monkeypatch.setattr(pr, "_circle", counted)
        pieces = pr.q2_term_profile(Q, 4, [4, 5], pr.EulerSpec(6),
                                    pr.QuadSpec(0.05, 8))
        assert circles == [(8, 0.05)]
        assert all(list(pieces[D]) == list(pr.ZETA_FOURTH) for D in (4, 5))
        # a coefficient reads its refinement delta off the same pass
        for coefficient, rho in ((pr.q1_coefficient, 0.1), (pr.q2_coefficient, 0.05)):
            circles.clear()
            res = coefficient(Q, 4, 5, pr.EulerSpec(6), pr.QuadSpec(rho, 16))
            assert circles == [(16, rho)]
            assert res.refine_delta is not None
        # a two-term prediction runs Q1's grid, then Q2's on its own radius
        circles.clear()
        pr.moment_prediction(Q, 4, [4, 5], 2, pr.EulerSpec(6), pr.QuadSpec(0.1, 8))
        assert circles == [(8, 0.1), (8, pr.Q2_QUAD.rho)]

    def test_leading_coefficient_pieces(self):
        lead = pr.q2_leading_coefficient(Q, 4, pr.EulerSpec(8))
        assert set(lead) >= {"zeta^0", "zeta^1", "zeta^2", "zeta^3", "even", "odd"}
        # the two square-class pieces are real; the others conjugate-paired
        assert abs(lead["zeta^0"].imag) < 1e-24
        assert abs(lead["zeta^2"].imag) < 1e-24
        assert abs(lead["zeta^1"] - lead["zeta^3"].conjugate()) < 1e-22
        assert abs(lead["even"] - (lead["zeta^0"] + lead["zeta^2"])) < 1e-24


class TestGridBudget:
    """Every contour sum checks GRID_BUDGET before its grid walk starts."""

    @pytest.mark.parametrize("call", [
        lambda: pr.q1_profile(Q, 13, [4], pr.EulerSpec(6), pr.QuadSpec(0.1, 4)),
        lambda: pr.q1_coefficient(Q, 40, 4, pr.EulerSpec(6), pr.QuadSpec(0.1, 4)),
        lambda: pr.q2_coefficient(Q, 5, 4, pr.EulerSpec(6), pr.QuadSpec(0.05, 64)),
        lambda: pr.moment_prediction(Q, 7, [4], 2, pr.EulerSpec(6),
                                     pr.QuadSpec(0.1, 16)),
        # 4^12 points are within GRID_BUDGET, 4^11 per slice are not
        lambda: pr.q1_profile(Q, 12, [4], pr.EulerSpec(4), pr.QuadSpec(0.1, 4)),
        lambda: pr.q2_coefficient(Q, 12, 6, pr.EulerSpec(4), pr.QuadSpec(0.05, 4)),
    ])
    def test_over_budget_is_refused_before_the_walk(self, no_walk, call):
        with pytest.raises(ValueError, match="budget"):
            call()

    def test_budget_is_inclusive(self, monkeypatch, no_walk):
        monkeypatch.setattr(pr, "GRID_BUDGET", 4**4)
        with pytest.raises(AssertionError, match="walk started"):
            pr.q1_profile(Q, 4, [4], pr.EulerSpec(6), pr.QuadSpec(0.1, 4))
        with pytest.raises(ValueError, match="budget"):
            pr.q1_profile(Q, 5, [4], pr.EulerSpec(6), pr.QuadSpec(0.1, 4))
        monkeypatch.setattr(pr, "SLICE_BUDGET", 4**3)
        with pytest.raises(AssertionError, match="walk started"):
            pr.q1_profile(Q, 4, [4], pr.EulerSpec(6), pr.QuadSpec(0.1, 4))
        monkeypatch.setattr(pr, "GRID_BUDGET", 4**5)
        with pytest.raises(ValueError, match="per grid slice"):
            pr.q1_profile(Q, 5, [4], pr.EulerSpec(6), pr.QuadSpec(0.1, 4))


class TestGridSums:
    def test_walk_stops_at_the_first_non_finite_sum(self, product_leads):
        quad = pr.QuadSpec(0.05, 8)
        # at pmax = 29 the level-two product overflows on the first block;
        # at 28 it peaks at 1.5e250 there and only overflowed on coincident
        # nodes, where the kernel's 0 made 0 * inf, which no sum visits now
        with np.errstate(over="ignore", invalid="ignore"):
            res = pr.q2_coefficient(Q, 4, 6, pr.EulerSpec(29), quad)
        assert not math.isfinite(res.value)
        assert len(product_leads) == 1
        product_leads.clear()
        res = pr.q2_coefficient(Q, 4, 6, pr.EulerSpec(12), quad)
        # the fixed triples and one block per largest index t = 2..7
        assert math.isfinite(res.value) and len(product_leads) == 1 + 6


class TestConjugateGrid:
    """The nodes come in exact conjugate pairs, so q2_term_profile reads the
    sum over each lower node triple's partner off the conjugate root's sum;
    the oracle walks every slice, each lead followed by its partner."""

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_circle_nodes_and_weights_are_exact_conjugate_pairs(self, n):
        rho = 0.05
        nodes, w = pr._circle(n, rho)
        mirror = -np.arange(n) % n
        for values in (nodes, w):
            assert np.array_equal(values[mirror], values.conj())
        assert nodes[0] == 1 + rho and nodes[n // 2] == 1 - rho
        # the half rule's nodes are the even-index ones, bit for bit
        half, _ = pr._circle(n // 2, rho)
        assert nodes[::2].tobytes() == half.tobytes()

    @pytest.mark.parametrize("r, n", [(4, 16), (5, 8)])
    def test_level_two_product_runs_once_per_block(self, product_leads, r, n):
        pr.q2_term_profile(Q, r, [4], pr.EulerSpec(6), pr.QuadSpec(0.05, n))
        nodes, _ = pr._circle(n, 0.05)
        blocks = pr._q2_blocks(n)
        assert len(product_leads) == len(blocks)
        for z1, (_, block) in zip(product_leads, blocks):
            assert z1.ravel().tobytes() == nodes[block[0]].tobytes()

    @pytest.mark.parametrize("r, n", [(2, 8), (4, 16), (5, 8)])
    def test_torus_follows_each_lead_with_its_partner(self, r, n):
        nodes, w = pr._circle(n, 0.05)
        order = [0] + [i for k in range(1, n // 2) for i in (k, n - k)] + [n // 2]
        slices = [(w_i, zs[0]) for w_i, zs, _ in oracles.torus_slices(r, n, 0.05)]
        assert slices == [(w[i], nodes[i]) for i in order]


class TestQ2Triples:
    """The premises of q2_term_profile's sum over increasing node triples:
    the integrand is 0 where two of z_1..z_3 share a node and symmetric in
    them, and conjugation pairs the triples that _q2_blocks splits."""

    @staticmethod
    def cores(q, r, n, triples):
        """_q2_cores at the index triples (columns) against all of z_4..z_r."""
        nodes, _ = pr._circle(n, 0.05)
        shapes = [[n if b == a else 1 for b in range(r - 2)] for a in range(1, r - 2)]
        column = (-1,) + (1,) * (r - 3)
        zs = [nodes[a].reshape(column) for a in triples]
        return pr._q2_cores(zs + [nodes.reshape(s) for s in shapes], 1.0, q, 12)

    @pytest.mark.parametrize("r, n", [(4, 8), (5, 8)])
    def test_cores_vanish_where_two_of_the_triple_coincide(self, r, n):
        triples = np.array([t for t in itertools.product(range(n), repeat=3)
                            if len(set(t)) < 3]).T
        for per_cutoff in self.cores(Q, r, n, triples).values():
            for core in per_cutoff:
                assert np.all(core == 0)

    # Largest relative gap of a core under a permutation, measured at
    # pmax = 12: 2.0e-8 at r = 4 on 8 and 16 nodes and at r = 5 on 8 (under
    # 3.1e-12 at pmax // 2); the level-two f_e - 1 rounds differently in
    # each argument order and the counts amplify it.  The bound is ~5x that.
    @pytest.mark.parametrize("r, n", [(4, 16), (5, 8)])
    def test_cores_agree_under_the_six_orders_of_the_triple(self, r, n):
        triples = pr._combinations(n, 3)
        base = self.cores(Q, r, n, triples)
        for perm in itertools.permutations(range(3)):
            cores = self.cores(Q, r, n, triples[list(perm)])
            for key, per_cutoff in base.items():
                for want, got in zip(per_cutoff, cores[key]):
                    assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want))

    @staticmethod
    def split(n):
        """(fixed, lower) triples of _q2_blocks(n), as lists of tuples."""
        fixed, lower = [], []
        for is_fixed, block in pr._q2_blocks(n):
            (fixed if is_fixed else lower).extend(map(tuple, block.T.tolist()))
        return fixed, lower

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_fixed_lower_and_partner_triples_cover_all_once(self, n):
        fixed, lower = self.split(n)
        partners = [tuple(sorted(-a % n for a in t)) for t in lower]
        colex = sorted(itertools.combinations(range(n), 3), key=lambda c: c[::-1])
        rank = {t: i for i, t in enumerate(colex)}
        assert all(rank[t] < rank[p] for t, p in zip(lower, partners))
        assert sorted(fixed + lower + partners) == sorted(colex)
        assert len(fixed) + 2 * len(lower) == math.comb(n, 3)
        # fixed first, then one block per largest index, each in colex order
        blocks = pr._q2_blocks(n)
        assert [f for f, _ in blocks] == [True] + [False] * (len(blocks) - 1)
        tops = [int(block[2, 0]) for _, block in blocks[1:]]
        assert tops == sorted(set(tops))
        for _, block in blocks:
            keys = [rank[t] for t in map(tuple, block.T.tolist())]
            assert keys == sorted(keys)
        for t, (_, block) in zip(tops, blocks[1:]):
            assert np.all(block[2] == t)

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_fixed_triples_are_a_self_conjugate_node_and_a_pair(self, n):
        fixed, _ = self.split(n)
        want = {frozenset((c, k, n - k)) for c in (0, n // 2) for k in range(1, n // 2)}
        assert len(fixed) == len(want) == n - 2
        assert {frozenset(t) for t in fixed} == want

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_even_triples_halved_are_the_half_split(self, n):
        halved = []
        for is_fixed, block in pr._q2_blocks(n):
            even = block[:, ~(block % 2).any(axis=0)]
            if even.size:
                halved.append((is_fixed, (even // 2).tolist()))
        assert halved == [(f, b.tolist()) for f, b in pr._q2_blocks(n // 2)]


class TestHalfGrid:
    """The half-grid entry of a profile, read off the even-index nodes of its
    one pass, is the pmax entry of the same profile on n // 2 nodes."""

    @staticmethod
    def values(profile, k):
        """Entry k of every degree (and root) of a profile, as a flat list."""
        out = []
        for per_degree in profile.values():
            for entries in (per_degree.values() if isinstance(per_degree, dict)
                            else [per_degree]):
                entry = entries[k]
                out.extend(entry if isinstance(entry, tuple) else [entry])
        return out

    # The n = 32 row keeps the bound of the former slice walk, whose 32^3
    # complex slices (512 KiB) exceeded numpy's 256 KiB temporary-elision
    # size, where the shared values could differ in the last bits.  Q1's
    # blocks on 64 nodes (up to C(63, 3) points, 635 KiB) exceed it too,
    # and so do Q2's (up to 42,240 points, 660 KiB), where the 32-node
    # pass's stay below it; both match bit for bit because _q1_kernel,
    # _q2_kernel and the level-two cross factor keep their operand order.
    @pytest.mark.parametrize("profile, q, r, n, rel", [
        (pr.q1_profile, 5, 4, 16, 0.0),
        (pr.q1_profile, 13, 4, 16, 0.0),
        (pr.q1_profile, 5, 1, 16, 0.0),
        (pr.q1_profile, 5, 3, 16, 0.0),
        (pr.q1_profile, 5, 4, 32, 1e-10),
        (pr.q1_profile, 5, 4, 64, 0.0),
        (pr.q2_term_profile, 5, 4, 16, 0.0),
        (pr.q2_term_profile, 13, 4, 16, 0.0),
        (pr.q2_term_profile, 5, 4, 64, 0.0),
    ])
    def test_half_grid_is_the_half_walk(self, profile, q, r, n, rel):
        rho = 0.1 if profile is pr.q1_profile else 0.05
        euler = pr.EulerSpec(12)
        got = self.values(profile(q, r, [4, 5], euler, pr.QuadSpec(rho, n)), 2)
        want = self.values(profile(q, r, [4, 5], euler, pr.QuadSpec(rho, n // 2)), 1)
        if rel == 0.0:
            assert repr(got) == repr(want)
        else:
            assert len(got) == len(want)
            assert all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


class TestMomentPrediction:
    EULER = pr.EulerSpec(6)
    QUAD = pr.QuadSpec(0.1, 8)

    def test_first_term_is_q1_times_q_to_the_d(self):
        q1 = pr.q1_profile(Q, 4, [3, 4], self.EULER, self.QUAD)
        got = pr.moment_prediction(Q, 4, [3, 4], 1, self.EULER, self.QUAD)
        assert got == {D: q1[D][1].real * Q**D for D in (3, 4)}

    def test_second_term_adds_q2_on_the_level_two_radius(self):
        one = pr.moment_prediction(Q, 4, [3, 4], 1, self.EULER, self.QUAD)
        two = pr.moment_prediction(Q, 4, [3, 4], 2, self.EULER, self.QUAD)
        quad2 = pr.QuadSpec(pr.Q2_QUAD.rho, self.QUAD.n_points)
        for D in (3, 4):
            q2 = pr.q2_coefficient(Q, 4, D, self.EULER, quad2)
            assert two[D] == one[D] + q2.value * Q ** (0.75 * D)

    def test_degrees_may_be_a_one_shot_iterable(self):
        for n_terms in (1, 2):
            got = pr.moment_prediction(Q, 4, (D for D in [3, 4]), n_terms,
                                       self.EULER, self.QUAD)
            assert got == pr.moment_prediction(Q, 4, [3, 4], n_terms,
                                               self.EULER, self.QUAD)
        pieces = pr.q2_term_profile(Q, 4, (D for D in [3, 4]), self.EULER,
                                    self.QUAD)
        assert sorted(pieces) == [3, 4]

    def test_rejects_bad_term_count_before_any_grid_pass(self):
        with pytest.raises(ValueError, match="N = 1 or N = 2"):
            pr.moment_prediction(Q, 4, [3], 3)
        with pytest.raises(ValueError, match="r >= 4"):
            pr.moment_prediction(Q, 3, [3], 2)
