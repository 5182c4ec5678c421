import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qlmoments.exactnum import KNum, l_at_half_unit, zeta_at_half

Q = 5


def k_from_ints(vals, q=Q):
    coords = tuple(
        (Fraction(vals[2 * j], 1), Fraction(vals[2 * j + 1], 1)) for j in range(4)
    )
    return KNum(coords, q)


def test_defining_relation():
    t = KNum.root4(Q)
    assert t**4 == KNum.rational(Q, Q)
    assert (t * t) * (t * t) == KNum.rational(Q, Q)


def test_modulus_validation():
    with pytest.raises(ValueError):
        KNum.rational(1, 7)
    with pytest.raises(ValueError):
        KNum.rational(1, 21)


def test_zeta_at_half_coordinates():
    z = zeta_at_half(Q)
    a, b = z.sqrt_pair()
    assert (a, b) == (Fraction(-1, 4), Fraction(-1, 4))
    assert abs(z.embed() - 1 / (1 - Q**0.5)) < 1e-14


def test_l_at_half_unit():
    assert abs(l_at_half_unit(Q).embed() - 1 / (1 + Q**0.5)) < 1e-14


def test_sqrt_pair_rejects_outside_quadratic_subfield():
    with pytest.raises(ValueError):
        KNum.root4(Q).sqrt_pair()
    with pytest.raises(ValueError):
        KNum.i_unit(Q).sqrt_pair()
    assert KNum.rational(Q, Q).sqrt_pair() == (Fraction(Q), Fraction(0))


def test_inverse_of_one_minus_sqrt_q_matches_rationalization():
    x = KNum.one(Q) - KNum.sqrt_q(Q)
    assert x.inv() == KNum.from_sqrt_pair(Fraction(-1, 4), Fraction(-1, 4), Q)


def test_conj_i_is_ring_automorphism():
    x = k_from_ints([1, 2, 0, 1, 3, 0, 0, 1])
    y = k_from_ints([0, 1, 2, 0, 1, 1, 2, 0])
    assert (x * y).conj_i() == x.conj_i() * y.conj_i()
    assert KNum.i_unit(Q).conj_i() == -KNum.i_unit(Q)


def test_fourth_roots_of_unity():
    i = KNum.fourth_root_of_unity(Q, 1)
    assert i * i == KNum.rational(-1, Q)
    assert i**4 == KNum.one(Q)


def test_inversion_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        KNum.zero(Q).inv()


def test_mass_inverse_roundtrip():
    rng = random.Random(17)
    one = KNum.one(Q)
    for _ in range(10_000):
        coords = tuple(
            (Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
             Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            for _ in range(4)
        )
        x = KNum(coords, Q)
        if x.is_zero:
            continue
        assert x * x.inv() == one


_BIG = 10**12
_RATIONALS = st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG))


@st.composite
def sparse_k(draw):
    """A K element with q in {5, 13, 17}: a monomial, an element of Q(i), of
    Q(sqrt q), or a full element with random zero coordinates."""
    q = draw(st.sampled_from([5, 13, 17]))
    shape = draw(st.sampled_from(["monomial", "gaussian", "sqrt", "full"]))
    coords = [[Fraction(0), Fraction(0)] for _ in range(4)]
    if shape == "monomial":
        coords[draw(st.integers(0, 3))] = [draw(_RATIONALS), draw(_RATIONALS)]
    elif shape == "gaussian":
        coords[0] = [draw(_RATIONALS), draw(_RATIONALS)]
    elif shape == "sqrt":
        coords[0][0], coords[2][0] = draw(_RATIONALS), draw(_RATIONALS)
    else:
        for c in coords:
            for part in range(2):
                if draw(st.booleans()):
                    c[part] = draw(_RATIONALS)
    return KNum(tuple(tuple(c) for c in coords), q)


@given(sparse_k())
@settings(max_examples=300, deadline=None)
def test_inverse_roundtrip_large_denominators(x):
    assume(not x.is_zero)
    assert x * x.inv() == KNum.one(x.q)


@given(st.lists(st.integers(-5, 5), min_size=16, max_size=16))
@settings(max_examples=150, deadline=None)
def test_embedding_is_ring_homomorphism(vals):
    x = k_from_ints(vals[:8])
    y = k_from_ints(vals[8:])
    lhs = (x * y).embed()
    rhs = x.embed() * y.embed()
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    assert abs((x + y).embed() - (x.embed() + y.embed())) <= 1e-12 * (1 + abs(lhs))


def test_embedding_roots():
    t = KNum.root4(Q)
    assert abs(t.embed() - Q**0.25) < 1e-15
    assert abs(t.embed(1) - 1j * Q**0.25) < 1e-15
    assert abs(KNum.i_unit(Q).embed() - 1j) < 1e-15


def test_scalar_coercion():
    t = KNum.root4(Q)
    assert 1 - (1 - t) == t
    assert (Fraction(1, 2) * t) + (Fraction(1, 2) * t) == t
    assert 2 / (t * t * 2 / Q) == t * t  # 2/(2 sqrt(q)/q) = sqrt(q)


def test_pow_negative():
    t = KNum.root4(Q)
    assert t**-4 == KNum.rational(Fraction(1, Q), Q)
