import random
from fractions import Fraction

import pytest

from qlmoments import cocycle as cc
from qlmoments import kacmoody as km
from qlmoments.exactnum import KNum
from qlmoments.kacmoody import Root

import oracles
from conftest import random_k, random_k_point

Q = 5


@pytest.fixture(scope="module")
def kctx():
    one = KNum.one(Q)
    return {
        "one": one,
        "half": KNum.rational(Fraction(1, 2), Q),
        "q": KNum.rational(Q, Q),
        "sq": KNum.sqrt_q(Q),
        "t": KNum.root4(Q),
    }


class TestAction:
    def test_single_letter_inverts_own_coordinate(self):
        z = (0.2 + 0.1j, 0.3, 0.4, 0.5, 0.6)
        out = cc.act_one(1, z, 5.0, 5**0.5)
        assert abs(out[0] - 1 / (5 * z[0])) < 1e-14
        assert out[1] == z[1] and out[2] == z[2]
        assert abs(out[4] - 5**0.5 * z[0] * z[4]) < 1e-14

    def test_involution(self, rng):
        z = tuple(complex(rng.uniform(0.2, 0.9), rng.uniform(-0.2, 0.2))
                  for _ in range(5))
        for i in (2, 5):
            back = cc.act_one(i, cc.act_one(i, z, 5.0, 5**0.5), 5.0, 5**0.5)
            assert max(abs(a - b) for a, b in zip(back, z)) < 1e-13

    def test_order_three_braid_action(self, rng):
        z = tuple(complex(rng.uniform(0.2, 0.9), rng.uniform(-0.2, 0.2))
                  for _ in range(5))
        word = (2, 5, 2, 5, 2, 5)
        out = oracles.act_on_z(word, z, 5.0, 5**0.5)
        assert max(abs(a - b) for a, b in zip(out, z)) < 1e-12


class TestCocycleMatrix:
    def test_empty_word_is_identity(self, kctx):
        z = (kctx["one"],) * 4
        m = cc.cocycle_matrix((), z, kctx["q"], kctx["sq"], kctx["half"])
        assert m == cc.identity3(kctx["one"], kctx["one"] - kctx["one"])

    def test_single_letter_diagonal(self, kctx, rng):
        z = random_k_point(rng, 4)
        m = cc.cocycle_matrix((1,), z, kctx["q"], kctx["sq"], kctx["half"])
        u = z[0]
        q, sq = kctx["q"], kctx["sq"]
        assert m[0][0] == -(1 - q * u) / (q * u * (1 - u))
        assert m[1][1] == 1 / (sq * u)
        assert m[2][2] == (1 + q * u) / (q * u * (1 + u))
        assert m[0][1] == m[1][0] == KNum.zero(Q)

    def test_diagonal_inverse_closed_form(self, kctx, rng):
        # the inverse of a single-letter matrix for letters 1..r
        z = random_k_point(rng, 4)
        m = cc.cocycle_matrix((2,), z, kctx["q"], kctx["sq"], kctx["half"])
        inv = cc.mat_inv3(m)
        u = z[1]
        q, sq = kctx["q"], kctx["sq"]
        assert inv[0][0] == -q * u * (1 - u) / (1 - q * u)
        assert inv[1][1] == sq * u
        assert inv[2][2] == q * u * (1 + u) / (1 + q * u)

    @pytest.mark.parametrize("pair", [((1, 2), (2, 1)), ((3, 1), (1, 3))])
    def test_commuting_letters(self, kctx, rng, pair):
        for _ in range(20):
            z = random_k_point(rng, 5)
            a = cc.cocycle_matrix(pair[0], z, kctx["q"], kctx["sq"], kctx["half"])
            b = cc.cocycle_matrix(pair[1], z, kctx["q"], kctx["sq"], kctx["half"])
            assert a == b

    def test_braid_pair(self, kctx, rng):
        r = 4
        for _ in range(20):
            z = random_k_point(rng, r + 1)
            a = cc.cocycle_matrix((1, r + 1, 1), z, kctx["q"], kctx["sq"], kctx["half"])
            b = cc.cocycle_matrix((r + 1, 1, r + 1), z, kctx["q"], kctx["sq"], kctx["half"])
            assert a == b

    def test_inverse_law_single_letters(self, kctx, rng):
        ident = cc.identity3(kctx["one"], kctx["one"] - kctx["one"])
        for _ in range(20):
            z = random_k_point(rng, 4)
            for letter in (1, 3, 4):
                a = cc.cocycle_matrix((letter,), z, kctx["q"], kctx["sq"], kctx["half"])
                moved = oracles.act_on_z((letter,), z, kctx["q"], kctx["sq"])
                b = cc.cocycle_matrix((letter,), moved, kctx["q"], kctx["sq"], kctx["half"])
                assert cc.mat_mul(a, b) == ident

    def test_complex_and_exact_agree(self, kctx, rng):
        z = random_k_point(rng, 4)
        zf = tuple(v.embed() for v in z)
        me = cc.cocycle_matrix((1, 2, 4), z, kctx["q"], kctx["sq"], kctx["half"])
        mf = cc.cocycle_matrix((1, 2, 4), zf, 5.0, 5**0.5, 0.5)
        for i in range(3):
            for j in range(3):
                assert abs(me[i][j].embed() - mf[i][j]) < 1e-10

    def test_singular_point_reports_letter(self, kctx):
        z = (KNum.one(Q), random_k(random.Random(0)), KNum.one(Q),
             random_k(random.Random(1)))
        with pytest.raises(cc.SingularPointError) as info:
            cc.cocycle_matrix((1,), z, kctx["q"], kctx["sq"], kctx["half"])
        assert info.value.letter == 1


def _sweep_point(rng, n):
    """n coordinates, each real or complex with parts of either sign."""
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if rng.random() < 0.5
                         else 0.0) for _ in range(n))


class TestAgainstReference:
    """cocycle_matrix applies each letter by its shape; the reference in
    oracles forms the letter's base matrix and takes a full product."""

    @staticmethod
    def _k_point(rng, n):
        # Gaussian-rational coordinates with a q^(1/4) part
        return tuple(KNum(((Fraction(rng.randint(2, 9), rng.choice([11, 13, 17])),
                            Fraction(rng.randint(-3, 3), 7)),
                           (Fraction(rng.randint(-3, 3), 5), 0), (0, 0), (0, 0)), Q)
                     for _ in range(n))

    @pytest.mark.parametrize("r", [4, 5])
    def test_reduction_words_exact(self, kctx, r):
        rng = random.Random(5077 + r)
        args = (kctx["q"], kctx["sq"], kctx["half"])
        for n in (1, 2):
            for alpha in km.positive_real_roots_at_level(r, n):
                word = km.reduction_word(alpha)
                z = self._k_point(rng, r + 1)
                assert cc.cocycle_matrix(word, z, *args) == \
                    oracles.cocycle_matrix_reference(word, z, *args)

    def test_random_words_exact(self, kctx):
        rng = random.Random(5081)
        args = (kctx["q"], kctx["sq"], kctx["half"])
        for r in range(1, 6):
            for _ in range(12):
                word = tuple(rng.randint(1, r + 1) for _ in range(rng.randint(1, 7)))
                z = self._k_point(rng, r + 1)
                assert cc.cocycle_matrix(word, z, *args) == \
                    oracles.cocycle_matrix_reference(word, z, *args)

    def test_complex_sweep_matches_reference_floats(self):
        # every entry ==, so every nonzero part is bit-identical; only the
        # sign of an exact zero may differ from the reference
        rng = random.Random(5087)
        q, sq = 5.0, 5**0.5
        for _ in range(6000):
            r = rng.randint(1, 5)
            word = tuple(rng.randint(1, r + 1) for _ in range(rng.randint(1, 8)))
            z = _sweep_point(rng, r + 1)
            got = cc.cocycle_matrix(word, z, q, sq, 0.5)
            want = oracles.cocycle_matrix_reference(word, z, q, sq, 0.5)
            for row_got, row_want in zip(got, want):
                for x, y in zip(row_got, row_want):
                    assert (x.real, x.imag) == (y.real, y.imag), (word, z)

    def test_singular_point_same_letter_and_position(self, kctx):
        # the point is moved back from one whose coordinate at the chosen
        # letter is +-1, so that letter's base matrix is the first singular
        # one along the chain; the letter is taken at its first application,
        # since a second one can move that coordinate back
        rng = random.Random(5099)
        args = (kctx["q"], kctx["sq"], kctx["half"])
        for r in range(1, 6):
            for _ in range(8):
                word = tuple(rng.randint(1, r + 1) for _ in range(rng.randint(1, 6)))
                letter = rng.choice(word)
                pos = max(k for k, v in enumerate(word) if v == letter)
                moved = list(self._k_point(rng, r + 1))
                moved[letter - 1] = KNum.rational(rng.choice((1, -1)), Q)
                z = oracles.act_on_z(tuple(reversed(word[pos + 1:])), tuple(moved),
                                     kctx["q"], kctx["sq"])
                raised = []
                for route in (cc.cocycle_matrix, oracles.cocycle_matrix_reference):
                    with pytest.raises(cc.SingularPointError) as info:
                        route(word, z, *args)
                    raised.append((info.value.letter, info.value.position))
                assert raised == [(letter, pos)] * 2


def _count_products(monkeypatch, during=None):
    """Wrap KNum's product and count its calls, and those with an exact-zero
    operand; with `during`, a function name in cocycle, only the products
    made while that function runs."""
    seen = {"calls": 0, "zero": 0}
    active = [during is None]
    mul = KNum.__mul__

    def counted(a, b):
        if active[0]:
            seen["calls"] += 1
            if a.is_zero or (b.is_zero if isinstance(b, KNum) else b == 0):
                seen["zero"] += 1
        return mul(a, b)

    monkeypatch.setattr(KNum, "__mul__", counted)
    monkeypatch.setattr(KNum, "__rmul__", counted)
    if during is not None:
        inner = getattr(cc, during)

        def watched(*args):
            active[0] = True
            try:
                return inner(*args)
            finally:
                active[0] = False

        monkeypatch.setattr(cc, during, watched)
    return seen


class TestNoWastedProducts:
    @staticmethod
    def residue_factors_products(monkeypatch, r, during):
        """The products counted during one function over the residue
        factors of every level-1 and level-2 root at rank r, all four zeta."""
        seen = _count_products(monkeypatch, during=during)
        for level in (1, 2):
            for alpha in km.positive_real_roots_at_level(r, level):
                word = km.reduction_word(alpha)
                for k in range(4):
                    cc.gamma_factor_exact(word, alpha, 1, cc.square_class_sign(k),
                                          KNum.fourth_root_of_unity(Q, k), Q)
        return seen

    @pytest.mark.parametrize("r", [4, 5])
    def test_residue_cocycles_form_no_product_by_zero(self, monkeypatch, r):
        # the product stays diagonal up to the first letter r+1, so neither
        # cocycle_matrix nor the mat_mul it calls multiplies by a structural
        # zero
        seen = self.residue_factors_products(monkeypatch, r, "cocycle_matrix")
        assert seen["calls"] > 0
        assert seen["zero"] == 0

    @pytest.mark.parametrize("r", [4, 5])
    def test_residue_sandwich_forms_no_product_by_zero(self, monkeypatch, r):
        # the sandwich row . Mbar . column skips a diagonal Mbar's zeros
        seen = self.residue_factors_products(monkeypatch, r, "gamma_factor_exact")
        assert seen["calls"] > 0
        assert seen["zero"] == 0

    def test_reciprocal_forms_no_product(self, monkeypatch, rng):
        xs = [random_k_point(rng, 1)[0] + KNum.root4(Q),
              KNum.gaussian(2, -3, Q) * KNum.root4(Q, 3)]
        seen = _count_products(monkeypatch)
        for x in xs:
            1 / x
        assert seen["calls"] == 0


class TestConstantMatrices:
    def test_u_squares_to_identity(self, kctx):
        u = oracles.u_matrix(kctx["half"])
        one = kctx["one"]
        assert cc.mat_mul(u, u) == cc.identity3(one, one - one)

    def test_b_inverse(self, kctx):
        b = oracles.b_matrix(kctx["half"])
        binv = oracles.b_inverse_matrix(kctx["one"])
        one = kctx["one"]
        ident = cc.identity3(one, one - one)
        assert cc.mat_mul(b, binv) == ident
        assert cc.mat_mul(binv, b) == ident


class TestGamma:
    def test_identity_word_cases(self):
        alpha = Root((0, 0, 0, 0, 1))  # the last simple root, r = 4
        for a2 in (1, -1):
            for a, zeta_pow in ((1, 0), (1, 2), (-1, 1), (-1, 3)):
                zeta = KNum.fourth_root_of_unity(Q, zeta_pow)
                got = cc.gamma_factor_exact((), alpha, a2, a, zeta, Q)
                want = KNum.rational(1 if a2 == a else 0, Q)
                assert got == want

    def test_level_one_closed_form(self, rng):
        # the residue factor for level-one words splits into two products
        r = 4
        for _ in range(6):
            ks = [rng.randint(0, 1) for _ in range(r)]
            if not any(ks):
                continue
            alpha = Root(tuple(ks) + (1,))
            word = tuple(i + 1 for i in range(r) if ks[i])
            xi = random_k_point(rng, r)
            for a2 in (1, -1):
                for a in (1, -1):
                    zeta = KNum.rational(a, Q)
                    got = cc.gamma_factor_exact(word, alpha, a2, a, zeta, Q, xi)
                    sq = KNum.sqrt_q(Q)
                    half = KNum.rational(Fraction(1, 2), Q)
                    prod1 = KNum.one(Q)
                    prod2 = KNum.one(Q)
                    for i in range(r):
                        if ks[i]:
                            prod1 = prod1 * (1 - sq / xi[i]) / (1 - sq * xi[i])
                            prod2 = prod2 * xi[i].inv()
                    scaled = half * prod1 + half * a * a2 * prod2
                    want = (2 ** len(word)) * scaled
                    assert got == want

    @pytest.mark.parametrize("r", [4, 5])
    def test_level_two_off_unit_point_matches_floats(self, r):
        # every level-two root at a random Gaussian-rational xi != 1, against
        # the sandwich on complex floats at the embedded point
        # z_i = sqrt(q) xi_i^2, z_{r+1} = zeta^(-1) q^(1/4) prod xi_i^(-k_i)
        rng = random.Random(4049 + r)
        sq = Q**0.5
        worst = 0.0
        for alpha in km.positive_real_roots_at_level(r, 2):
            word = km.reduction_word(alpha)
            xi = tuple(KNum.gaussian(Fraction(rng.randint(7, 13), 10),
                                     Fraction(rng.randint(-2, 2), 10), Q)
                       for _ in range(r))
            assert any(x != KNum.one(Q) for x in xi)
            k = rng.randrange(4)
            a, a2 = cc.square_class_sign(k), rng.choice((1, -1))
            got = cc.gamma_factor_exact(word, alpha, a2, a,
                                        KNum.fourth_root_of_unity(Q, k), Q, xi)
            xf = [x.embed() for x in xi]
            last = Q**0.25 / 1j**k
            for x, kx in zip(xf, alpha.k[:r]):
                last = last * x ** (-kx)
            z = tuple(sq * x * x for x in xf) + (last,)
            m = cc.cocycle_matrix(word, z, 1 / Q, 1 / sq, 0.5)
            col = (0.5, a * 0.5, 0.5)
            row0, row1 = (sum(m[i][j] * col[j] for j in range(3)) for i in (0, 1))
            want = 2 ** len(word) * (row0 + a2 * row1)
            worst = max(worst, abs(got.embed() - want) / abs(want))
        assert worst <= 1e-10

    def test_gamma_table_matches_closed_polynomials(self):
        for k in range(4):
            assert cc.gamma_table_entry(k, Q) == cc.gamma_table_polynomial(k, Q)

    def test_gamma_table_other_modulus(self):
        for k in (0, 1):
            assert cc.gamma_table_entry(k, 13) == cc.gamma_table_polynomial(k, 13)


class TestLocalData:
    def test_identity_word_row(self, kctx, rng):
        z = random_k_point(rng, 5)
        for chi in (1, -1):
            l1, l2, l3 = cc.local_coefficient_row((), z, kctx["q"], kctx["sq"],
                                                  chi, kctx["half"])
            assert l1 == KNum.rational(chi, Q)
            assert l2 == KNum.zero(Q)
            assert l3 == KNum.one(Q)

    def test_identity_word_local_factor_closed_form(self, rng):
        # S_p for the trivial word: (1 - 1/|p|)(1/|p| + half-sum of products)
        r = 3
        alpha = Root((0,) * r + (1,))
        q, sq, t = 5.0, 5**0.5, 5**0.25
        for e in (1, 2):
            xi = tuple(complex(rng.uniform(0.7, 1.3), rng.uniform(-0.2, 0.2))
                       for _ in range(r))
            for a in (1, -1):
                zeta = complex(a)
                got = cc.local_residue_factor((), alpha, xi, zeta, a, q, sq, t, e, 0.5)
                qe = q**e
                zk = [(x / sq) ** e for x in xi]
                pm = 1.0
                pp = 1.0
                for v in zk:
                    pm *= 1 - v
                    pp *= 1 + v
                want = (1 - 1 / qe) * (1 / qe + 0.5 / pm + 0.5 / pp)
                assert abs(got - want) < 1e-12 * abs(want)

    def test_level_one_factor_is_sign_flip(self, rng):
        # a level-one word flips its support coordinates xi -> 1/xi
        r = 3
        ks = (1, 0, 1)
        alpha = Root(ks + (1,))
        word = (1, 3)
        q, sq, t = 5.0, 5**0.5, 5**0.25
        xi = tuple(complex(rng.uniform(0.8, 1.2), rng.uniform(-0.1, 0.1))
                   for _ in range(r))
        flipped = tuple(1 / x if k else x for x, k in zip(xi, ks))
        trivial = Root((0,) * r + (1,))
        for a in (1, -1):
            zeta = complex(a)
            got = cc.local_residue_factor(word, alpha, xi, zeta, a, q, sq, t, 1, 0.5)
            want = cc.local_residue_factor((), trivial, flipped, zeta, a, q, sq, t, 1, 0.5)
            assert abs(got - want) < 1e-11 * abs(want)

    def test_float_sign_is_raised_to_the_degree(self):
        # sgn(a) -> sgn(a)^e whatever the sign's numeric type
        args = ((1, 2, 3, 5), Root((1, 1, 1, 0, 2)), (1.01, 0.99, 1.02, 0.98), 1j)
        rest = (5.0, 5**0.5, 5**0.25, 2, 0.5)
        as_int = cc.local_residue_factor(*args, -1, *rest)
        as_float = cc.local_residue_factor(*args, -1.0, *rest)
        assert as_float == as_int

    def test_residue_point_constraint(self, rng):
        # prod_i z_i^{k_i} * z_last^n = zeta^{-n} q^{-(d+1)/2}, exactly in K
        for ks, zeta_pow in (((1, 1, 1, 0, 2), 1), ((1, 0, 1, 1, 1), 0),
                             ((1, 1, 1, 2, 2), 3)):
            alpha = Root(ks)
            n = alpha.level
            zeta = KNum.fourth_root_of_unity(Q, zeta_pow)
            xi = random_k_point(rng, alpha.rank)
            qk = KNum.rational(Q, Q)
            z = cc.residue_point(alpha, xi, zeta, qk, KNum.sqrt_q(Q),
                                 KNum.root4(Q))
            prod = z[-1] ** n
            for v, k in zip(z[:-1], ks[:-1]):
                prod = prod * v**k
            want = zeta ** (-n) * KNum.root4(Q, -2 * (alpha.height + 1))
            assert prod == want
