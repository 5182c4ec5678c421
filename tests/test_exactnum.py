import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from qlmoments.exactnum import KNum, l_at_half_unit, zeta_at_half

from oracles import k_inverse_tower

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
        KNum.gaussian(0, 1, Q).sqrt_pair()
    assert KNum.rational(Q, Q).sqrt_pair() == (Fraction(Q), Fraction(0))


def test_inverse_of_one_minus_sqrt_q_matches_rationalization():
    x = KNum.one(Q) - KNum.sqrt_q(Q)
    want = KNum.rational(Fraction(-1, 4), Q) \
        + KNum.rational(Fraction(-1, 4), Q) * KNum.sqrt_q(Q)
    assert x.inv() == want


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
def sparse_k(draw, q=None):
    """A K element with q in {5, 13, 17} unless given: a monomial, an element
    of Q(i), of Q(sqrt q), or a full element with random zero coordinates."""
    if q is None:
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


def same_q(count):
    """count K elements that share one modulus q in {5, 13, 17}."""
    return st.sampled_from([5, 13, 17]).flatmap(
        lambda q: st.tuples(*(sparse_k(q) for _ in range(count))))


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
    assert abs(KNum.gaussian(0, 1, Q).embed() - 1j) < 1e-15


def test_scalar_coercion():
    t = KNum.root4(Q)
    assert 1 - (1 - t) == t
    assert (Fraction(1, 2) * t) + (Fraction(1, 2) * t) == t
    assert 2 / (t * t * 2 / Q) == t * t  # 2/(2 sqrt(q)/q) = sqrt(q)


def test_pow_negative():
    t = KNum.root4(Q)
    assert t**-4 == KNum.rational(Fraction(1, Q), Q)


def _seeded_k(rng, q, bound):
    """A K element with parts num/den, |num| and den up to bound, and about a
    quarter of its eight parts zero."""
    return KNum(tuple(
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
              if rng.random() < 0.75 else Fraction(0) for _ in range(2))
        for _ in range(4)), q)


def test_inverse_matches_tower_on_large_elements():
    rng = random.Random(20261020)
    for q in (5, 13, 17):
        one = KNum.one(q)
        for _ in range(150):
            x = _seeded_k(rng, q, 10**40)
            if x.is_zero:
                continue
            assert x.inv().coords == k_inverse_tower(x.coords, q)
            assert x * x.inv() == one
        with pytest.raises(ZeroDivisionError):
            KNum.zero(q).inv()


def test_monomial_inverse_matches_tower():
    # c t^k with both parts of c nonzero, in each sign pattern, over large
    # denominators
    rng = random.Random(4093)
    for q in (5, 13, 17):
        for k in range(4):
            for sr, si in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                coords = [(Fraction(0), Fraction(0))] * 4
                coords[k] = (sr * Fraction(rng.randint(1, 10**40), rng.randint(1, 10**40)),
                             si * Fraction(rng.randint(1, 10**40), rng.randint(1, 10**40)))
                x = KNum(tuple(coords), q)
                assert x.inv().coords == k_inverse_tower(x.coords, q)
                assert x * x.inv() == KNum.one(q)


def test_scalar_over_element_is_inverse_times_scalar():
    rng = random.Random(4099)
    for q in (5, 13):
        for _ in range(20):
            x = _seeded_k(rng, q, 10**6)
            if x.is_zero:
                continue
            for n in (1, -1, 7, Fraction(-3, 11)):
                assert n / x == x.inv() * n


def test_pow_matches_repeated_products():
    rng = random.Random(4051)
    for q in (5, 13):
        one = KNum.one(q)
        for _ in range(10):
            x = _seeded_k(rng, q, 10**6)
            if x.is_zero:
                continue
            for n in (0, 1, 2, 3, 5, 8, -1, -3):
                want = one
                for _ in range(abs(n)):
                    want = want * (x if n > 0 else x.inv())
                assert x**n == want
        with pytest.raises(ZeroDivisionError):
            KNum.zero(q) ** -1


# -- reference: K on Gaussian-rational Fraction pairs -----------------------
# An independent route for the same arithmetic, sharing no code with
# exactnum: an element is four (re, im) Fraction pairs, the coefficients of
# 1, t, t^2, t^3.  Inverses come from oracles.k_inverse_tower.

_GZERO = (Fraction(0), Fraction(0))


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_add(a, b):
    return tuple(_gadd(x, y) for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(_gsub(x, y) for x, y in zip(a, b))


def ref_mul(a, b, q):
    raw = [_GZERO] * 7
    for i in range(4):
        if a[i] == _GZERO:
            continue
        for j in range(4):
            if b[j] != _GZERO:
                raw[i + j] = _gadd(raw[i + j], _gmul(a[i], b[j]))
    qf = (Fraction(q), Fraction(0))
    out = list(raw[:4])
    for k in range(4, 7):
        if raw[k] != _GZERO:
            out[k - 4] = _gadd(out[k - 4], _gmul(raw[k], qf))
    return tuple(out)


def ref_pow(coords, n, q):
    """coords ** n by n repeated products (of the inverse when n < 0)."""
    base = k_inverse_tower(coords, q) if n < 0 else coords
    out = ((Fraction(1), Fraction(0)), _GZERO, _GZERO, _GZERO)
    for _ in range(abs(n)):
        out = ref_mul(out, base, q)
    return out


def ref_scalar(s):
    return ((Fraction(s), Fraction(0)), _GZERO, _GZERO, _GZERO)


_SCALARS = st.one_of(st.integers(-_BIG, _BIG), _RATIONALS)


@given(same_q(2), _SCALARS, st.integers(-3, 4))
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_fraction_reference(xy, s, n):
    x, y = xy
    q = x.q
    a, b, c = x.coords, y.coords, ref_scalar(s)
    assert (x + y).coords == ref_add(a, b)
    assert (x - y).coords == ref_sub(a, b)
    assert (x * y).coords == ref_mul(a, b, q)
    assert (x + s).coords == (s + x).coords == ref_add(a, c)
    assert (x - s).coords == ref_sub(a, c)
    assert (s - x).coords == ref_sub(c, a)
    assert (x * s).coords == (s * x).coords == ref_mul(a, c, q)
    if s != 0:
        assert (x / s).coords == ref_mul(a, k_inverse_tower(c, q), q)
    if not x.is_zero:
        assert x.inv().coords == k_inverse_tower(a, q)
        assert (s / x).coords == ref_mul(c, k_inverse_tower(a, q), q)
        assert (y / x).coords == ref_mul(b, k_inverse_tower(a, q), q)
    if n >= 0 or not x.is_zero:
        assert (x ** n).coords == ref_pow(a, n, q)


def _canonical(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1


@given(same_q(3), _SCALARS, st.integers(-2, 3))
@settings(max_examples=200, deadline=None)
def test_results_are_canonical(xyz, s, n):
    x, y, z = xyz
    q = x.q
    results = [x, x + y, x - y, x * y, -x, x + s, s - x, x * s]
    if s != 0:
        results.append(x / s)
    if not x.is_zero:
        results += [x.inv(), y / x, s / x]
    if n >= 0 or not x.is_zero:
        results.append(x ** n)
    assert all(_canonical(v) for v in results)
    # one value reached by different routes: equal numerators, equal hashes
    pairs = [((x * y) * z, x * (y * z)), (x - x, KNum.zero(q)), (-x, x * -1),
             (x + y - y, x), (KNum(x.coords, q), x)]
    if not x.is_zero:
        pairs.append((x * x.inv(), KNum.one(q)))
    for u, v in pairs:
        assert u == v and hash(u) == hash(v)
        assert (u.num, u.den) == (v.num, v.den)


def test_mixed_moduli_and_zero_rejected():
    five, thirteen = KNum.root4(5), KNum.root4(13)
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(ValueError):
            op(five, thirteen)
    zero = KNum.zero(5)
    assert _canonical(zero) and zero.den == 1
    for divide in (zero.inv, lambda: five / zero, lambda: 1 / zero,
                   lambda: five / 0, lambda: five / Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            divide()
