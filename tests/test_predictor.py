import cmath
import random
from fractions import Fraction

import pytest

from qlmoments import predictor as pr
from qlmoments.exactnum import KNum
from qlmoments.ffpoly import irreducible_count

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
            pr.q1_coefficient(q, 4, 4, self.EULER, self.QUAD, refine=False)
        with pytest.raises(ValueError, match="modulus"):
            pr.q2_coefficient(q, 4, 4, self.EULER, self.QUAD, refine=False)
        with pytest.raises(ValueError, match="modulus"):
            pr.q2_leading_coefficient(q, 4, self.EULER)

    def test_q1_rejects_rank_zero(self):
        with pytest.raises(ValueError, match="r >= 1"):
            pr.q1_profile(Q, 0, [4], self.EULER, self.QUAD)

    @pytest.mark.parametrize("D", [0, -3])
    def test_q2_rejects_degree_below_one(self, D):
        with pytest.raises(ValueError, match="degrees must be >= 1"):
            pr.q2_coefficient(Q, 4, D, self.EULER, self.QUAD, refine=False)


class TestLevelOneEuler:
    def test_zero_point_is_trivial(self):
        zs = [0.0] * 4
        for e in (1, 2, 3):
            assert pr.level_one_local_factor(zs, Q, e) == 1
        assert abs(pr.big_g(zs, Q, 6) - 1) < 1e-14

    def test_product_identity_per_degree(self, rng):
        # raw moment factor = (1 - |p|^-2) * A_e / prod(1 - (xi_i xi_j)^e/|p|)
        for _ in range(15):
            r = rng.randint(2, 4)
            xis = [complex(rng.uniform(0.5, 0.9), rng.uniform(-0.2, 0.2))
                   for _ in range(r)]
            for e in (1, 2, 3):
                qe = float(Q) ** e
                lhs = pr.local_moment_factor(xis, Q, e)
                pairs = 1
                for i in range(r):
                    for j in range(i, r):
                        pairs *= 1 - (xis[i] * xis[j]) ** e / qe
                rhs = (1 - qe**-2) * pr.level_one_local_factor(xis, Q, e) / pairs
                assert abs(lhs - rhs) < 1e-8 * abs(lhs)

    def test_cauchy_convergence_of_cutoffs(self):
        xis = [0.9] * 4
        g4 = pr.big_g(xis, Q, 4)
        g5 = pr.big_g(xis, Q, 5)
        g6 = pr.big_g(xis, Q, 6)
        assert abs(g5 - g6) < abs(g4 - g5)

    def test_log_route_matches_direct_product(self, rng):
        zs = [complex(rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1))
              for _ in range(4)]
        direct = 1
        for e in range(1, 7):
            direct = direct * pr.level_one_local_factor(zs, Q, e) \
                ** irreducible_count(Q, e)
        stable = pr.euler_product_level_one(zs, Q, 6)
        assert abs(direct - stable) < 1e-10 * abs(direct)

    def test_tail_estimate_sane(self):
        tail6 = pr.level_one_tail_estimate(Q, 4, 6)
        tail12 = pr.level_one_tail_estimate(Q, 4, 12)
        assert 0 < tail12 < tail6 < 1


class TestRegularizedFactor:
    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("zeta,sgn", [(1 + 0j, 1), (-1 + 0j, 1),
                                          (1j, -1), (-1j, -1)])
    def test_central_value_is_closed_polynomial(self, r, zeta, sgn):
        ones = [1.0 + 0j] * r
        for e in (1, 2, 3):
            got = pr.regularized_local_factor(ones, zeta, sgn, Q, e)
            want = pr.regularized_factor_value(r, (sgn**e) * Q ** (-0.5 * e))
            assert abs(got - want) < 1e-10 * abs(want)

    def test_rank3_equal_arguments_collapse(self, rng):
        for _ in range(10):
            xi = cmath.exp(1j * rng.uniform(-0.3, 0.3)) * rng.uniform(0.95, 1.05)
            zeta, sgn = rng.choice([(1 + 0j, 1), (-1 + 0j, 1), (1j, -1)])
            for e in (1, 2):
                got = pr.regularized_local_factor([xi] * 3, zeta, sgn, Q, e)
                want = pr.rank3_local_poly((sgn**e) * xi ** (2 * e), Q ** (-0.5 * e))
                assert abs(got - want) < 1e-9 * abs(want)

    def test_normalization_scale(self, rng):
        # |S - 1| <= C |p|^{-3/2} near the central torus; report the fit
        worst = 0.0
        for _ in range(50):
            xi = [cmath.exp(1j * rng.uniform(-0.3, 0.3)) *
                  (1 + rng.uniform(-0.02, 0.02)) for _ in range(4)]
            zeta, sgn = rng.choice([(1 + 0j, 1), (-1 + 0j, 1), (1j, -1), (-1j, -1)])
            for e in (2, 3, 4):
                v = pr.regularized_local_factor(xi, zeta, sgn, Q, e)
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
                want = pr.regularized_local_factor(xis, zeta, sgn, Q, e)
                assert abs(got - want) < 1e-9 * abs(want)

    def test_r_p_3_shape(self):
        z = (0.2, 0.3, 0.1)
        got = pr.r_p_3(*z, Q)
        want = 1 / (1 - Q * (z[0] * z[1] * z[2]) ** 2)
        for i in range(3):
            for j in range(i, 3):
                want /= 1 - z[i] * z[j]
        assert abs(got - want) < 1e-14


class TestClosedSeries:
    def test_rank3_poly_x1_factorization(self):
        got = pr.rank3_local_poly_x1_coeffs(20)
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
        c = pr.regularized_factor_series(r, 6)
        assert c[0] == 1 and c[1] == 0 and c[2] == 0
        assert c[3] == -14 * (r - 2)
        assert c[4] == -Fraction(r**4 + 12 * r**3 + 59 * r**2 - 696 * r + 1164, 12)

    def test_series_matches_value(self):
        c = pr.regularized_factor_series(4, 24)
        t = 0.07
        series_val = sum(float(v) * t**n for n, v in enumerate(c))
        assert abs(series_val - pr.regularized_factor_value(4, t)) < 1e-12

    @pytest.mark.parametrize("r", range(4, 11))
    def test_binomial_determinant(self, r):
        assert pr.binomial_determinant(r) == (-2) ** ((r - 3) * (r - 4) // 2)

    def test_triple_contour_constant(self):
        v = pr.vandermonde_core_integral(64, 0.1)
        assert abs(v - (-48)) < 1e-6


class TestResidueLemmas:
    def test_pair_lemma_random_instances(self, rng):
        for trial in range(25):
            r = 2 + trial % 3
            a = separated_unit_points(r, rng)
            h = poly_h(rng)
            lhs = pr.symmetric_pair_sum(h, a).embed()
            af = [v.embed() for v in a]
            rhs = pr.symmetric_pair_integral(h, af, 0.3, 48 if r == 4 else 64)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)

    def test_mixed_kernel_lemma_random_instances(self, rng):
        for trial in range(12):
            r = 3 + trial % 2
            m = trial % r
            a = separated_unit_points(r, rng)
            h = poly_h(rng)
            lhs = pr.permuted_kernel_sum(h, a, m).embed()
            af = [v.embed() for v in a]
            rhs = pr.permuted_kernel_integral(h, af, m, 0.3, 48 if r == 4 else 64)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


class TestWeights:
    def test_central_weights_match_residue_table(self):
        # clearing the displayed prefactors recovers the exact table entries
        for k, zeta in ((0, 1 + 0j), (2, -1 + 0j), (1, 1j), (3, -1j)):
            sgn = 1 if k % 2 == 0 else -1
            g1, g2 = pr.secondary_weight_functions([1.0 + 0j] * 4, zeta, sgn, Q)
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

    def test_small_rank_flagged(self):
        res = pr.q1_coefficient(Q, 2, 3, pr.EulerSpec(6), pr.QuadSpec(0.1, 16),
                                refine=False)
        assert "r >= 4" in res.note

    def test_parity_structure_only_uses_matching_branch(self):
        # even and odd degrees use different integrand cores, both finite
        prof = pr.q1_profile(Q, 3, [2, 3], pr.EulerSpec(6), pr.QuadSpec(0.1, 16))
        assert abs(prof[2]) > 0 and abs(prof[3]) > 0

    def test_circle_mode_matches_analytic_extraction(self):
        quad = pr.QuadSpec(0.1, 16)
        an = pr.q1_profile(Q, 3, [3, 4], pr.EulerSpec(6), quad)
        for D in (3, 4):
            ci = pr.q1_coefficient_circle(Q, 3, D, pr.EulerSpec(6), quad, n_xi=24)
            assert abs(an[D] - ci) < 1e-6 * abs(an[D])


class TestQ2:
    def test_rank_guard(self):
        with pytest.raises(ValueError):
            pr.q2_coefficient(Q, 3, 5)

    def test_value_reality_and_refinement(self):
        res = pr.q2_coefficient(Q, 4, 6, pr.EulerSpec(8), pr.QuadSpec(0.1, 32),
                                refine=True)
        assert res.imag_rel < 1e-7
        # the halved grid has 16 nodes; only coarse agreement is meaningful
        assert res.refine_delta < 5e-3
        assert set(res.by_zeta) == set(pr.ZETA_FOURTH)

    def test_no_refinement_delta_below_sixteen_points(self):
        res = pr.q2_coefficient(Q, 4, 4, pr.EulerSpec(6), pr.QuadSpec(0.05, 8))
        assert res.refine_delta is None

    def test_coefficient_is_assembled_by_q2_profile(self):
        euler, quad = pr.EulerSpec(6), pr.QuadSpec(0.05, 8)
        res = pr.q2_coefficient(Q, 4, 5, euler, quad)
        pieces = pr.q2_profile(Q, 4, [4, 5], euler, quad)
        assert list(pieces) == [4, 5]
        assert list(res.by_zeta) == list(pr.ZETA_FOURTH)
        assert res.by_zeta == pieces[5]
        assert res.value == sum(z**5 * p for z, p in pieces[5].items()).real

    def test_leading_coefficient_pieces(self):
        lead = pr.q2_leading_coefficient(Q, 4, pr.EulerSpec(8))
        assert set(lead) >= {"zeta^0", "zeta^1", "zeta^2", "zeta^3", "even", "odd"}
        # the two square-class pieces are real; the others conjugate-paired
        assert abs(lead["zeta^0"].imag) < 1e-24
        assert abs(lead["zeta^2"].imag) < 1e-24
        assert abs(lead["zeta^1"] - lead["zeta^3"].conjugate()) < 1e-22
        assert abs(lead["even"] - (lead["zeta^0"] + lead["zeta^2"])) < 1e-24


class TestMomentPrediction:
    EULER = pr.EulerSpec(6)
    QUAD = pr.QuadSpec(0.1, 8)

    def test_first_term_is_q1_times_q_to_the_d(self):
        q1 = pr.q1_profile(Q, 4, [3, 4], self.EULER, self.QUAD)
        got = pr.moment_prediction(Q, 4, [3, 4], 1, self.EULER, self.QUAD)
        assert got == {D: q1[D].real * Q**D for D in (3, 4)}

    def test_second_term_adds_q2_on_the_level_two_radius(self):
        one = pr.moment_prediction(Q, 4, [3, 4], 1, self.EULER, self.QUAD)
        two = pr.moment_prediction(Q, 4, [3, 4], 2, self.EULER, self.QUAD)
        quad2 = pr.QuadSpec(pr.Q2_QUAD.rho, self.QUAD.n_points)
        for D in (3, 4):
            q2 = pr.q2_coefficient(Q, 4, D, self.EULER, quad2, refine=False)
            term = q2.value * Q ** (0.75 * D)
            assert abs(two[D] - one[D] - term) <= 1e-9 * abs(two[D])

    def test_rejects_bad_term_count_before_any_grid_pass(self):
        with pytest.raises(ValueError, match="N = 1 or N = 2"):
            pr.moment_prediction(Q, 4, [3], 3)
        with pytest.raises(ValueError, match="r >= 4"):
            pr.moment_prediction(Q, 3, [3], 2)
