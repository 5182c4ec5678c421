from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qlmoments import kacmoody as km

import oracles


class TestReflections:
    def test_raise_last_simple(self):
        r = 4
        got = km.reflect(1, km.simple_root(5, r))
        assert got.k == (1, 0, 0, 0, 1)

    def test_level_descent(self):
        got = km.reflect(4, km.Root((1, 1, 1, 2)))
        assert got.k == (1, 1, 1, 1)

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_involution(self, r, data):
        k = tuple(data.draw(st.integers(-3, 3)) for _ in range(r + 1))
        i = data.draw(st.integers(1, r + 1))
        alpha = km.Root(k)
        assert km.reflect(i, km.reflect(i, alpha)) == alpha

    def test_index_range(self):
        with pytest.raises(ValueError):
            km.reflect(6, km.Root((0, 0, 0, 1)))


class TestEnumeration:
    @pytest.mark.parametrize("r", range(3, 8))
    def test_level_counts(self, r):
        assert len(km.positive_real_roots_at_level(r, 1)) == 2**r
        assert len(km.positive_real_roots_at_level(r, 2)) == comb(r, 3) * 2 ** (r - 3)

    def test_level_one_shape(self):
        roots = km.positive_real_roots_at_level(4, 1)
        assert all(set(a.k[:4]) <= {0, 1} and a.k[4] == 1 for a in roots)

    def test_level_two_shape(self):
        for r in (3, 4, 5):
            for a in km.positive_real_roots_at_level(r, 2):
                head = list(a.k[:r])
                assert head.count(1) == 3
                assert all(v in (0, 1, 2) for v in head)
                assert a.k[r] == 2

    def test_rank3_level_two_single_root(self):
        assert [a.k for a in km.positive_real_roots_at_level(3, 2)] == [(1, 1, 1, 2)]

    def test_level_bound(self):
        for a in km.positive_real_roots_up_to_height(5, 9):
            if a.level >= 1:
                assert all(v <= a.level for v in a.k[:5])

    def test_star_conditions(self):
        # non-simple roots with all k_j <= level/2 satisfy the height-drop bound
        for a in km.positive_real_roots_up_to_height(4, 10):
            if a.height > 1 and all(2 * v <= a.level for v in a.k[:4]):
                assert sum(a.k[:4]) <= 2 * a.level - 1

    def test_root_budget(self):
        # level one has 2^r roots: r = 13 fits the budget, r = 14 does not
        assert len(km.positive_real_roots_at_level(13, 1)) == 2**13 <= km.ROOT_BUDGET
        with pytest.raises(ValueError, match=f"more than {km.ROOT_BUDGET}"):
            km.positive_real_roots_at_level(14, 1)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            km.positive_real_roots_at_level(4, 0)

    def test_determinant_formula(self):
        for r in range(1, 9):
            det = oracles.exact_det(oracles.cartan_matrix(r))
            assert det == -(2 ** (r - 1)) * (r - 4)
        mat = oracles.cartan_matrix(4)
        assert mat[0][4] == mat[4][0] == -1 and mat[2][2] == 2 and mat[0][1] == 0


class TestWords:
    def test_trivial_word(self):
        assert km.reduction_word(km.simple_root(5, 4)) == ()

    def test_single_letter(self):
        assert km.reduction_word(km.Root((1, 0, 0, 0, 1))) == (1,)

    def test_rank3_level_two_word(self):
        w = km.reduction_word(km.Root((1, 1, 1, 2)))
        assert sorted(w) == [1, 2, 3, 4] and len(w) == 4
        assert oracles.apply_word(w, km.Root((1, 1, 1, 2))) == km.simple_root(4, 3)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_words_reduce_and_have_expected_length(self, r):
        target = km.simple_root(r + 1, r)
        for n in (1, 2):
            for alpha in km.positive_real_roots_at_level(r, n):
                w = km.reduction_word(alpha)
                assert oracles.apply_word(w, alpha) == target
                assert km.is_reduced(w, r)
                if n == 1:
                    assert len(w) == sum(alpha.k[:r])
                else:
                    twos = sum(1 for v in alpha.k[:r] if v == 2)
                    assert len(w) == 4 + twos

    @pytest.mark.parametrize("level", [3, 4])
    def test_levels_above_two_are_rejected(self, level):
        for alpha in km.positive_real_roots_at_level(4, level):
            with pytest.raises(ValueError, match="levels 1 and 2"):
                km.reduction_word(alpha)

    def test_simple_root_detour(self):
        w = km.reduction_word(km.simple_root(2, 4))
        assert len(w) == 2
        assert oracles.apply_word(w, km.simple_root(2, 4)) == km.simple_root(5, 4)

    def test_inversion_set_counts_word_length(self):
        w = km.reduction_word(km.Root((1, 1, 1, 0, 2, 2)))  # r = 5, one doubled node
        inv = km.inversion_roots(w, 5)
        assert len({b.k for b in inv}) == len(w)
        assert all(b.is_positive for b in inv)


class TestWstar:
    def test_word_shape(self):
        assert oracles.wstar_word(4) == (1, 2, 5, 1, 2, 1, 3, 5, 1, 3, 2, 3, 5, 2, 3)

    @pytest.mark.parametrize("r", [4, 5])
    def test_classification_clean(self, r):
        rep = oracles.wstar_report(r, 8)
        assert rep.ok
        assert len(rep.negative_class) == 11
        neg = {a.k for a in rep.negative_class}
        simple1 = tuple([1] + [0] * r)
        assert simple1 in neg
        full = [1, 1, 1] + [0] * (r - 3) + [2]
        assert tuple(full) in neg

    def test_needs_rank_four(self):
        with pytest.raises(ValueError):
            oracles.wstar_word(3)
