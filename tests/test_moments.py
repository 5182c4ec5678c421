import ast
import random
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

from qlmoments import ffpoly, lfunc, moments
from qlmoments.exactnum import KNum
from qlmoments.ffpoly import BudgetExceededError, FqPoly

import oracles


@lru_cache(maxsize=None)
def histogram(q, D):
    return moments.low_half_histogram(q, D)


class TestOracleRoutes:
    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_three_routes_agree_exactly(self, D, r):
        ref = moments.moment(5, r, D, method="reflect")
        sv = moments.moment(5, r, D, method="sieve")
        nv = moments.moment(5, r, D, method="naive")
        assert (ref.a, ref.b, ref.count) == (sv.a, sv.b, sv.count) == \
            (nv.a, nv.b, nv.count)
        assert moments.l_histogram(5, D, "reflect") == \
            moments.l_histogram(5, D, "sieve") == \
            moments.l_histogram(5, D, "naive")

    def test_degree_one_moments(self):
        # every monic linear character has L(1/2) = 1
        for r in (1, 4):
            m = moments.moment(5, r, 1)
            assert (m.a, m.b) == (Fraction(5), Fraction(0))

    def test_counts(self):
        for D in (1, 2, 3, 4):
            m = moments.moment(5, 1, D)
            assert m.count == moments.squarefree_count(5, D)
        assert moments.squarefree_count(5, 3) == 100

    @pytest.mark.parametrize("D", [1, 2, 3, 4])
    def test_power_matches_sum_of_powers_in_k(self, D, sieve5):
        # every route takes its exact power through _scaled_power; here the
        # central values are summed in K term by term (oracles.l_at_half)
        # and their r-th powers taken and summed in K
        values = [oracles.l_at_half(d, sieve5)
                  for d in oracles.enumerate_monic(5, D, "squarefree")]
        for r in range(1, 5):
            m = moments.moment(5, r, D)
            total = sum((v**r for v in values), KNum.zero(5))
            assert total == KNum.rational(m.a, 5) + KNum.rational(m.b, 5) * KNum.sqrt_q(5)

    def test_float_matches_exact_embedding(self):
        m = moments.moment(5, 2, 3)
        assert abs(m.value - (float(m.a) + float(m.b) * 5**0.5)) < 1e-12 * abs(m.value)

    def test_budget_guard(self):
        # 5^17 ~ 7.6e11 symbol evaluations, above OP_BUDGET = 2e11
        with pytest.raises(BudgetExceededError):
            moments.moment(5, 2, 9, method="naive")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            moments.moment(5, 0, 3)
        with pytest.raises(ValueError):
            moments.moment(5, 2, 3, method="magic")
        with pytest.raises(ValueError):
            moments.l_histogram(5, 3, "magic")
        for q in (9, 3, 7):  # not a prime = 1 mod 4
            with pytest.raises(ValueError):
                moments.moment(q, 2, 3)
            with pytest.raises(ValueError):
                moments.low_half_histogram(q, 3)

    def test_table_route_budget_counts_low_half_entries(self):
        # q^D d times the monic irreducibles of degree <= h = 3: 5 + 10 + 40
        assert moments._estimated_ops(5, 7, "reflect") == 5**7 * 55
        assert moments._estimated_ops(5, 7, "sieve") == 5**13
        # h = 5 at D = 12: 5 + 10 + 40 + 150 + 624 irreducibles
        assert moments._estimated_ops(5, 12, "reflect") == 5**12 * 829

    @pytest.mark.parametrize("q, d_max", [(5, 11), (13, 7), (17, 6)])
    def test_default_budget_boundary(self, q, d_max):
        budget = moments.OP_BUDGET
        assert moments._estimated_ops(q, d_max, "reflect") <= budget
        assert moments._estimated_ops(q, d_max + 1, "reflect") > budget
        moments.check_budget(q, d_max)
        with pytest.raises(BudgetExceededError):
            moments.check_budget(q, d_max + 1)
        with pytest.raises(BudgetExceededError):
            moments.moment(q, 1, d_max + 1)

    def test_budget_sizes_each_route_by_its_own_sieve(self, monkeypatch):
        # at q = 5 a factor sieve of degree 3 has 155 cells, of degree 4 780;
        # the table route builds degree D // 2, the sieve route D - 1
        monkeypatch.setattr(ffpoly, "CELL_BUDGET", 155)
        moments.check_budget(5, 7, "reflect")
        with pytest.raises(BudgetExceededError, match="sieve would need 780 "):
            moments.check_budget(5, 8, "reflect")
        moments.check_budget(5, 4, "sieve")
        with pytest.raises(BudgetExceededError, match="sieve would need 780 "):
            moments.check_budget(5, 5, "sieve")
        moments.check_budget(5, 8, "naive")  # builds no sieve


class TestTableRoute:
    """The table route ("reflect") against the per-d reference routes.

    Equal histograms give equal moments of every order, since every route's
    moment is the same power sum over its histogram.
    """

    @pytest.mark.parametrize("D", [4, 5])
    def test_equals_sieve(self, D):
        assert moments.l_histogram(5, D) == moments.l_histogram(5, D, "sieve")

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_equals_sieve_q13(self, D):
        assert moments.l_histogram(13, D) == moments.l_histogram(13, D, "sieve")

    @pytest.mark.parametrize("q, n_max", [(5, 3), (13, 2)])
    def test_square_table_is_euler_criterion(self, q, n_max):
        # the table marks squares of F_q[x]/P; Euler's criterion
        # d^((|P| - 1) / 2) mod P is independent of that construction
        sieve = ffpoly.build_sieve(q, n_max)
        for n in range(1, n_max + 1):
            primes = sieve.irreducibles(n)
            plan = moments._DegreePlan(q, 2 * n, n, 1, primes)
            for j, p in enumerate(primes):
                for t, digits in enumerate(plan.residues.tolist()):
                    res = ffpoly._trim(digits)
                    assert plan.table[j, t] == oracles.symbol_euler(res, p, q)

    def test_histogram_sizes(self):
        sizes = {(13, 4): 15, (13, 5): 364, (5, 5): 81, (5, 7): 1283,
                 (5, 8): 1633}
        for (q, D), size in sizes.items():
            assert len(histogram(q, D)) == size
            assert sum(histogram(q, D).values()) == moments.squarefree_count(q, D)

    @pytest.mark.parametrize("D", [6, 7, 8, 9])
    def test_sampled_d_match_histogram(self, D, sieve5):
        # D = 9 has h = 4, where the prime squares of degree 2 and the
        # fourth powers of linear primes enter s_4
        q = 5
        hist = histogram(q, D)
        h = moments._half_degree(D)
        rng = random.Random(1000 + D)
        checked = 0
        while checked < 50:
            coeffs = ffpoly.monic_from_index(q, D, rng.randrange(q**D))
            if not ffpoly._is_squarefree(coeffs, q):
                continue
            d = FqPoly(coeffs, q)
            low = tuple(lfunc.character_row_sums(d, h, sieve5))
            assert low in hist
            if D - 1 <= sieve5.max_deg:  # the full list needs degree D - 1
                full = lfunc.l_coefficients(d, sieve5)
                assert lfunc._reflect_coefficients(list(low), D, q) == full
            checked += 1

    @pytest.mark.parametrize("D", range(1, 9))
    def test_weil_bound(self, D):
        # RH for curves: |a_n| <= C(D-1, n) q^(n/2), checked in integers
        q = 5
        for low in histogram(q, D):
            full = lfunc._reflect_coefficients(list(low), D, q)
            assert len(full) == D and full[0] == 1
            for n, a in enumerate(full):
                bound = comb(D - 1, n)
                assert a * a <= bound * bound * q**n


class TestSeriesAndResiduals:
    def test_residual_table_with_and_without_predictions(self):
        rows = moments.residual_table(5, 2, [1, 2], None, theta=0.45)
        assert rows[0].prediction == 0.0
        assert rows[0].residual == rows[0].moment_value
        preds = {1: rows[0].moment_value}
        rows2 = moments.residual_table(5, 2, [1], preds, theta=0.45)
        assert abs(rows2[0].residual) < 1e-12
        assert abs(rows2[0].normalized) < 1e-12

    def test_csv_row_shape(self):
        m = moments.moment(5, 2, 2)
        row = m.csv_row()
        assert row.split(",")[:3] == ["5", "2", "2"]
        assert row.endswith("0.000")
        assert len(row.split(",")) == 8


def _package_imports(path: Path) -> set[str]:
    """The qlmoments modules a source file imports, relative or absolute."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "qlmoments":
                    continue
                parts = parts[1:]
            out |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("qlmoments.")}
    return out


@pytest.mark.parametrize("module", ["ffpoly", "lfunc", "moments"])
def test_oracle_imports_only_ffpoly_and_lfunc(module):
    # the exact oracle stands alone: no K arithmetic, no predictor
    path = Path(moments.__file__).with_name(f"{module}.py")
    assert _package_imports(path) <= {"ffpoly", "lfunc"}
