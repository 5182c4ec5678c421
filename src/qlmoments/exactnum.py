"""Exact arithmetic in K = Q(i)[t]/(t^4 - q).

An element is stored as eight integer numerators over one common
denominator: the real and imaginary parts of its four coordinates on the
basis {1, t, t^2, t^3}, with t^4 reduced to q.  The form is canonical: the
denominator is positive and shares no factor with all eight numerators, so
equal elements have equal numerators, denominators and hashes.  A product
is sixteen Gaussian-integer products, the fold t^4 -> q and one gcd; the
`Fraction` coordinates are built only when `coords` is read.  K holds every
special value the residue machinery evaluates at: q^(1/4) = t,
sqrt(q) = t^2, their inverses, the fourth roots of unity, and rationalized
values like 1/(1 - sqrt(q)).

Inversion takes the norm down the tower K > Q(i)(sqrt q) > Q(i): x times
its conjugate under t -> -t lies in Q(i)(sqrt q), and that times its
conjugate under sqrt q -> -sqrt q is the norm n of x, an element of Q(i);
1/x is the product of the two conjugates divided by n.  The moduli q are
primes q = 1 mod 4 (checked at construction), for which t^4 - q is
irreducible over Q(i) (Eisenstein at a Gaussian prime factor of q).  So K
is a field, t -> -t and sqrt q -> -sqrt q are field automorphisms, and the
norm, a product of nonzero conjugates, vanishes only at x = 0; inversion
raises ArithmeticError should it ever vanish elsewhere.  A monomial c t^k,
the shape of q, sqrt(q), q^(1/4) and the residue points built from them, is
inverted directly as t^(4-k) conj(c) / (q |c|^2), and as conj(c) / |c|^2
at k = 0.  The reciprocal 1/x is the inverse itself, and a product by the
integer 1 returns the element, so neither forms a product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .ffpoly import _require_modulus

__all__ = ["KNum", "zeta_at_half", "l_at_half_unit"]

Scalar = Union[int, Fraction]
_Num = tuple[int, int, int, int, int, int, int, int]  # re, im of c0, .., c3


def _make(num: _Num, den: int, q: int) -> "KNum":
    """The element num / den of K, for den > 0, in canonical form."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = tuple(v // g for v in num)
    x = object.__new__(KNum)
    x._num = num
    x._den = den
    x._q = q
    return x


def _inverse(num: _Num, den: int, q: int) -> "KNum":
    """Inverse of num / den: directly for a monomial, otherwise by its norm
    down K > Q(i)(s) > Q(i), s = t^2.

    With x = A + tB, A = c0 + c2 s and B = c1 + c3 s, x (A - tB) = a + b s and
    (a + b s)(a - b s) = n lies in Q(i), so 1/x = (A - tB)(a - b s) / n.  The
    norm is taken on the Gaussian-integer numerators c_k = a_k + i b_k, so
    den/x is that quotient and the result is den (A - tB)(a - b s) conj(n) /
    |n|^2.  Every Gaussian product is written out on the integer parts, as in
    KNum.__mul__.
    """
    support = [k for k in range(0, 8, 2) if num[k] or num[k + 1]]
    if not support:
        raise ZeroDivisionError("inversion of zero in K")
    if len(support) == 1:
        # a monomial c t^k: 1/x = den t^(4-k) conj(c) / (q |c|^2), and
        # den conj(c) / |c|^2 at k = 0
        k = support[0]
        a, b = num[k], num[k + 1]
        out = [0] * 8
        j = -k % 8
        out[j], out[j + 1] = den * a, -den * b
        norm = a * a + b * b
        return _make(tuple(out), q * norm if k else norm, q)
    a0, b0, a1, b1, a2, b2, a3, b3 = num
    # a = c0^2 + q c2^2 - 2q c1 c3 and b = 2 c0 c2 - c1^2 - q c3^2
    ar = a0*a0 - b0*b0 + q*(a2*a2 - b2*b2 - 2*(a1*a3 - b1*b3))
    ai = 2*(a0*b0 + q*(a2*b2 - a1*b3 - b1*a3))
    br = 2*(a0*a2 - b0*b2) - a1*a1 + b1*b1 - q*(a3*a3 - b3*b3)
    bi = 2*(a0*b2 + b0*a2 - a1*b1 - q*a3*b3)
    # n = a^2 - q b^2
    nr = ar*ar - ai*ai - q*(br*br - bi*bi)
    ni = 2*(ar*ai - q*br*bi)
    if not (nr or ni):
        raise ArithmeticError(
            "zero norm of a nonzero element: t^4 - q not irreducible over Q(i)")
    # the coordinates of (A - tB)(a - b s): c0 a - q c2 b, q c3 b - c1 a,
    # c2 a - c0 b and c1 b - c3 a
    parts = (
        a0*ar - b0*ai - q*(a2*br - b2*bi), a0*ai + b0*ar - q*(a2*bi + b2*br),
        q*(a3*br - b3*bi) - a1*ar + b1*ai, q*(a3*bi + b3*br) - a1*ai - b1*ar,
        a2*ar - b2*ai - a0*br + b0*bi, a2*ai + b2*ar - a0*bi - b0*br,
        a1*br - b1*bi - a3*ar + b3*ai, a1*bi + b1*br - a3*ai - b3*ar,
    )
    # times den conj(n) = sr - i si
    sr, si = den * nr, den * ni
    out = []
    for pr, pi in zip(parts[::2], parts[1::2]):
        out += (pr*sr + pi*si, pi*sr - pr*si)
    return _make(tuple(out), nr*nr + ni*ni, q)


class KNum:
    """Element of Q(i)[t]/(t^4 - q); coords[j] is the Q(i) coefficient of t^j.

    `KNum(coords, q)` takes four (re, im) rational pairs; `num` and `den`
    are the canonical integer numerators (re, im of each coordinate in
    turn) and their common denominator.
    """

    __slots__ = ("_num", "_den", "_q")

    def __init__(self, coords, q: int):
        parts = [v if isinstance(v, (int, Fraction)) else Fraction(v)
                 for c in coords for v in c]
        # over the lcm of reduced denominators, the form is already canonical
        den = lcm(*[v.denominator for v in parts])
        self._num = tuple([v.numerator * (den // v.denominator) for v in parts])
        self._den = den
        self._q = q

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, x: Scalar, q: int) -> "KNum":
        return cls.gaussian(x, 0, q)

    @classmethod
    def gaussian(cls, re: Scalar, im: Scalar, q: int) -> "KNum":
        _require_modulus(q)
        return cls(((re, im), (0, 0), (0, 0), (0, 0)), q)

    @classmethod
    def zero(cls, q: int) -> "KNum":
        return cls.rational(0, q)

    @classmethod
    def one(cls, q: int) -> "KNum":
        return cls.rational(1, q)

    @classmethod
    def root4(cls, q: int, power: int = 1) -> "KNum":
        """t^power, i.e. q^(power/4), for any integer power."""
        _require_modulus(q)
        whole, frac = divmod(power, 4)
        coords = [(0, 0)] * 4
        coords[frac] = (Fraction(q) ** whole, 0)
        return cls(coords, q)

    @classmethod
    def sqrt_q(cls, q: int) -> "KNum":
        return cls.root4(q, 2)

    @classmethod
    def fourth_root_of_unity(cls, q: int, k: int) -> "KNum":
        """i^k as an element of K."""
        k %= 4
        re = [1, 0, -1, 0][k]
        im = [0, 1, 0, -1][k]
        return cls.gaussian(re, im, q)

    # -- ring operations ---------------------------------------------------

    def _sum(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        if isinstance(other, KNum):
            if other._q != self._q:
                raise ValueError("mixed K moduli")
            num, db = other._num, other._den
        elif isinstance(other, (int, Fraction)):
            num, db = (other.numerator, 0, 0, 0, 0, 0, 0, 0), other.denominator
        else:
            return NotImplemented
        da = self._den
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return _make(tuple([x * sa + y * sb for x, y in zip(self._num, num)]),
                     da * sa, self._q)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __neg__(self):
        # negation keeps the canonical form: no gcd to take
        x = object.__new__(KNum)
        x._num = tuple([-v for v in self._num])
        x._den = self._den
        x._q = self._q
        return x

    def __mul__(self, other):
        if isinstance(other, KNum):
            q = self._q
            if other._q != q:
                raise ValueError("mixed K moduli")
            a0, b0, a1, b1, a2, b2, a3, b3 = self._num
            c0, d0, c1, d1, c2, d2, c3, d3 = other._num
            # coefficient m of the product plus q times coefficient m + 4
            num = (
                a0*c0 - b0*d0 + q*(a1*c3 - b1*d3 + a2*c2 - b2*d2 + a3*c1 - b3*d1),
                a0*d0 + b0*c0 + q*(a1*d3 + b1*c3 + a2*d2 + b2*c2 + a3*d1 + b3*c1),
                a0*c1 - b0*d1 + a1*c0 - b1*d0 + q*(a2*c3 - b2*d3 + a3*c2 - b3*d2),
                a0*d1 + b0*c1 + a1*d0 + b1*c0 + q*(a2*d3 + b2*c3 + a3*d2 + b3*c2),
                a0*c2 - b0*d2 + a1*c1 - b1*d1 + a2*c0 - b2*d0 + q*(a3*c3 - b3*d3),
                a0*d2 + b0*c2 + a1*d1 + b1*c1 + a2*d0 + b2*c0 + q*(a3*d3 + b3*c3),
                a0*c3 - b0*d3 + a1*c2 - b1*d2 + a2*c1 - b2*d1 + a3*c0 - b3*d0,
                a0*d3 + b0*c3 + a1*d2 + b1*c2 + a2*d1 + b2*c1 + a3*d0 + b3*c0,
            )
            return _make(num, self._den * other._den, q)
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            n = other.numerator
            return _make(tuple(v * n for v in self._num),
                         self._den * other.denominator, self._q)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self) -> "KNum":
        return _inverse(self._num, self._den, self._q)

    def __truediv__(self, other):
        if isinstance(other, KNum):
            return self * other.inv()
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = self.inv()
            return inv if other == 1 else inv * other
        return NotImplemented

    def __pow__(self, n: int) -> "KNum":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return KNum.one(self._q)
        # square-and-multiply from the lowest bit, starting from the base and
        # squaring no further than the highest bit
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, KNum):
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and self._q == other._q)

    def __hash__(self) -> int:
        return hash((self._num, self._den, self._q))

    # -- queries -----------------------------------------------------------

    @property
    def q(self) -> int:
        return self._q

    @property
    def num(self) -> _Num:
        return self._num

    @property
    def den(self) -> int:
        return self._den

    @property
    def coords(self) -> tuple[tuple[Fraction, Fraction], ...]:
        n, d = self._num, self._den
        return tuple((Fraction(n[k], d), Fraction(n[k + 1], d))
                     for k in range(0, 8, 2))

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    def embed(self, root: int = 0) -> complex:
        """Numerical embedding t -> i^root * q^(1/4), i -> imaginary unit.

        The default is the principal embedding with t real positive.  Each
        part is the correctly rounded integer quotient num / den, the same
        float as that of the reduced Fraction.
        """
        t_val = (1j**root) * self._q**0.25
        n, d = self._num, self._den
        out = 0j
        power = 1 + 0j
        for k in range(0, 8, 2):
            out += (n[k] / d + 1j * (n[k + 1] / d)) * power
            power *= t_val
        return out

    def sqrt_pair(self) -> tuple[Fraction, Fraction]:
        """Decompose x = a + b*sqrt(q) for elements of the real quadratic subfield."""
        n = self._num
        if any(n[1:4]) or any(n[5:8]):
            raise ValueError("element is not in Q(sqrt q)")
        return Fraction(n[0], self._den), Fraction(n[4], self._den)

    def __repr__(self) -> str:
        names = ["", "*q^(1/4)", "*q^(1/2)", "*q^(3/4)"]
        parts = []
        for (re, im), nm in zip(self.coords, names):
            if re or im:
                if im == 0:
                    parts.append(f"{re}{nm}")
                elif re == 0:
                    parts.append(f"{im}i{nm}")
                else:
                    parts.append(f"({re}+{im}i){nm}")
        return f"KNum({' + '.join(parts) or '0'}; q={self._q})"


def zeta_at_half(q: int) -> "KNum":
    """1/(1 - sqrt(q)) as an exact element of K."""
    return (KNum.one(q) - KNum.sqrt_q(q)).inv()


def l_at_half_unit(q: int) -> "KNum":
    """1/(1 + sqrt(q)) as an exact element of K."""
    return (KNum.one(q) + KNum.sqrt_q(q)).inv()
