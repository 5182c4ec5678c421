from fractions import Fraction

import pytest

from qlmoments import lfunc
from qlmoments.exactnum import KNum
from qlmoments.ffpoly import FqPoly

import oracles


def poly(coeffs, q=5):
    return FqPoly.make(coeffs, q)


class TestLPolynomial:
    def test_linear_d_gives_constant_one(self, sieve5):
        assert lfunc.l_coefficients(poly([0, 1]), sieve5) == [1]
        assert oracles.l_at_half_pair(poly([3, 1]), sieve5) == (Fraction(1), Fraction(0))

    def test_known_quadratic(self, sieve5):
        # brute-force character sum: sum_c (x^2+2 / x+c) = -1
        assert lfunc.l_coefficients(poly([2, 0, 1]), sieve5) == [1, -1]

    def test_rejects_non_squarefree(self, sieve5):
        with pytest.raises(ValueError):
            lfunc.l_coefficients(poly([0, 0, 1]), sieve5)

    def test_leading_coefficient_bounds(self, sieve5):
        for d in oracles.enumerate_monic(5, 3, "squarefree"):
            coeffs = lfunc.l_coefficients(d, sieve5)
            assert coeffs[0] == 1 and len(coeffs) == 3
            assert all(abs(a) <= 5**n for n, a in enumerate(coeffs))

    @pytest.mark.parametrize("deg", [1, 2, 3, 4, 5])
    def test_reflection_equals_sieve_exhaustive(self, sieve5, deg):
        h = lfunc._half_degree(deg)
        for d in oracles.enumerate_monic(5, deg, "squarefree"):
            full = lfunc.l_coefficients(d, sieve5)
            assert lfunc._reflect_coefficients(full[:h + 1], deg, 5) == full

    def test_reflection_equals_sieve_sampled_high_degree(self, sieve5, rng):
        q = 5
        for deg in (6, 7):
            h = lfunc._half_degree(deg)
            found = 0
            while found < 25:
                d = FqPoly.make([rng.randrange(q) for _ in range(deg)] + [1], q)
                if not d.is_squarefree():
                    continue
                full = lfunc.l_coefficients(d, sieve5)
                assert lfunc._reflect_coefficients(full[:h + 1], deg, q) == full
                found += 1


class TestCentralValue:
    def test_constant_d_closed_forms(self):
        q = 5
        one = FqPoly.make([1], q)
        theta = FqPoly.make([2], q)
        assert abs(oracles.l_eval(one, 0.3) - 1 / (1 - q ** (1 - 0.3))) < 1e-12
        assert abs(oracles.l_eval(theta, 0.3) - 1 / (1 + q ** (1 - 0.3))) < 1e-12
        assert oracles.l_at_half(one) == (KNum.one(q) - KNum.sqrt_q(q)).inv()
        assert oracles.l_at_half(theta) == (KNum.one(q) + KNum.sqrt_q(q)).inv()

    def test_exact_value_matches_float_evaluation(self, sieve5, rng):
        for _ in range(40):
            deg = rng.randint(1, 4)
            d = FqPoly.make([rng.randrange(5) for _ in range(deg)] + [1], 5)
            if not d.is_squarefree():
                continue
            exact = oracles.l_at_half(d, sieve5).embed()
            approx = oracles.l_eval(d, 0.5, sieve5)
            assert abs(exact - approx) < 1e-10 * (1 + abs(approx))


class TestFunctionalEquation:
    def test_exhaustive_q5(self, sieve5, rng):
        for deg in range(1, 5):
            for d in oracles.enumerate_monic(5, deg, "squarefree"):
                for _ in range(10):
                    s = complex(rng.uniform(-1, 2), rng.uniform(-3, 3))
                    resid = oracles.functional_equation_residual(d, s, sieve5)
                    scale = 1 + abs(oracles.l_eval(d, s, sieve5))
                    assert abs(resid) <= 1e-10 * scale

    def test_sampled_q13(self, sieve13, rng):
        q = 13
        for deg in (2, 3, 4):
            found = 0
            while found < 15:
                d = FqPoly.make([rng.randrange(q) for _ in range(deg)] + [1], q)
                if not d.is_squarefree():
                    continue
                s = complex(rng.uniform(0, 1.5), rng.uniform(-2, 2))
                resid = oracles.functional_equation_residual(d, s, sieve13)
                scale = 1 + abs(oracles.l_eval(d, s, sieve13))
                assert abs(resid) <= 1e-10 * scale
                found += 1

    def test_odd_degree_epsilon_factor_collapses(self, rng):
        q = 5
        for _ in range(20):
            s = complex(rng.uniform(-1, 2), rng.uniform(-2, 2))
            d = poly([rng.randrange(q), rng.randrange(q), rng.randrange(q), 1])
            got = oracles.gamma_q(q, s, d)
            assert abs(got - q ** (s - 0.5)) < 1e-12 * (1 + abs(got))
