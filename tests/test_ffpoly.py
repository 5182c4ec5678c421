import pytest
from hypothesis import given, settings, strategies as st

from qlmoments import ffpoly
from qlmoments.ffpoly import (
    BudgetExceededError,
    FactorSieve,
    FqPoly,
    index_of_monic,
    irreducible_count,
    monic_from_index,
)

import oracles
from oracles import enumerate_monic, quadratic_symbol


def poly(coeffs, q=5):
    return FqPoly.make(coeffs, q)


class TestSymbol:
    def test_unit_over_unit(self):
        assert quadratic_symbol(poly([1]), poly([1])) == 1

    def test_nonresidue_constant(self):
        # 2^((5-1)/2) = 4 = -1 mod 5
        assert quadratic_symbol(poly([2]), poly([0, 1])) == -1

    def test_linear_pair(self):
        # x = 4 mod (x+1), and 4 is a square mod 5
        assert quadratic_symbol(poly([0, 1]), poly([1, 1])) == 1

    def test_shared_factor_is_zero(self):
        assert quadratic_symbol(poly([0, 1]), poly([0, 0, 1])) == 0

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            quadratic_symbol(poly([1]), poly([1, 2]))

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            FqPoly.make([1], 7)  # 7 = 3 mod 4
        with pytest.raises(ValueError):
            FqPoly.make([1], 9)  # not prime

    @pytest.mark.parametrize("q,dmax", [(5, 3), (13, 2)])
    def test_reciprocity_exhaustive_small(self, q, dmax):
        polys = [
            c
            for deg in range(1, dmax + 1)
            for c in (monic_from_index(q, deg, i) for i in range(q**deg))
        ]
        for dc in polys:
            for mc in polys:
                if len(ffpoly._gcd(dc, mc, q)) != 1:
                    continue
                assert ffpoly.symbol_raw(dc, mc, q) == ffpoly.symbol_raw(mc, dc, q)

    @pytest.mark.parametrize("q", [5, 13])
    def test_reciprocity_sampled_deg5(self, q, rng):
        for _ in range(400):
            deg_d, deg_m = rng.randint(1, 5), rng.randint(1, 5)
            dc = monic_from_index(q, deg_d, rng.randrange(q**deg_d))
            mc = monic_from_index(q, deg_m, rng.randrange(q**deg_m))
            if len(ffpoly._gcd(dc, mc, q)) != 1:
                continue
            assert ffpoly.symbol_raw(dc, mc, q) == ffpoly.symbol_raw(mc, dc, q)

    def test_euler_criterion_oracle_exhaustive(self, sieve5):
        q = 5
        irreducibles = [p for deg in (1, 2, 3) for p in sieve5.irreducibles(deg)]
        ds = [
            monic_from_index(q, deg, i)
            for deg in (1, 2, 3)
            for i in range(q**deg)
        ]
        for p in irreducibles:
            for dc in ds:
                assert ffpoly.symbol_raw(dc, p, q) == oracles.symbol_euler(dc, p, q)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_multiplicative_in_both_arguments(self, data):
        q = 5
        def rand_poly(min_deg):
            deg = data.draw(st.integers(min_deg, 3))
            idx = data.draw(st.integers(0, q**deg - 1))
            return monic_from_index(q, deg, idx)

        d1, d2 = rand_poly(0), rand_poly(0)
        m1, m2 = rand_poly(1), rand_poly(1)
        lhs = ffpoly.symbol_raw(ffpoly._mul(d1, d2, q), m1, q)
        assert lhs == ffpoly.symbol_raw(d1, m1, q) * ffpoly.symbol_raw(d2, m1, q)
        lhs = ffpoly.symbol_raw(d1, ffpoly._mul(m1, m2, q), q)
        assert lhs == ffpoly.symbol_raw(d1, m1, q) * ffpoly.symbol_raw(d1, m2, q)


class TestSieveAndEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_monic(5, 1, "irreducible")) == 5
        assert sum(1 for _ in enumerate_monic(5, 2, "squarefree")) == 20
        assert sum(1 for _ in enumerate_monic(5, 2, "irreducible")) == 10

    def test_enumeration_deterministic(self):
        a = [p.coeffs for p in enumerate_monic(5, 2, "all")]
        b = [p.coeffs for p in enumerate_monic(5, 2, "all")]
        assert a == b and len(a) == 25 and len(set(a)) == 25

    def test_irreducible_counts_match_formula(self, sieve5):
        for deg in range(1, 7):
            assert len(sieve5.irreducible[deg]) == irreducible_count(5, deg)

    def test_sieve_reconstructs_products(self, sieve5):
        q = 5
        for deg in (1, 2, 3, 4):
            for idx, ent in enumerate(sieve5.factor_pointers(deg)):
                if ent is None:  # an irreducible
                    continue
                e, p_idx, cof_deg, k_idx = ent
                p = sieve5.irreducibles(e)[p_idx]
                cofactor = monic_from_index(q, cof_deg, k_idx)
                assert cof_deg == deg - e >= e
                assert ffpoly._mul(p, cofactor, q) == monic_from_index(q, deg, idx)

    def test_irreducibles_map_to_themselves(self, sieve5):
        p = sieve5.irreducibles(3)[7]
        assert oracles.smallest_factor(sieve5, p) == p

    def test_memory_guard(self):
        # ~3.05e8 cells, above CELL_BUDGET = 5e7; raised before any allocation
        with pytest.raises(BudgetExceededError):
            FactorSieve(5, 12)

    def test_index_round_trip(self):
        q = 5
        for deg in (1, 2, 3):
            for idx in range(q**deg):
                assert index_of_monic(monic_from_index(q, deg, idx), q) == idx


class TestPolyType:
    def test_sign(self):
        assert poly([0, 1]).sign() == 1
        assert poly([0, 2]).sign() == -1  # 2 is a non-square mod 5

    def test_squarefree(self):
        assert poly([2, 0, 1]).is_squarefree()
        assert not (poly([0, 1]) * poly([0, 1])).is_squarefree()
