"""Exact arithmetic in K = Q(i)[t]/(t^4 - q).

Elements are stored as four Gaussian-rational coordinates on the basis
{1, t, t^2, t^3}, with t^4 reduced to q.  K holds every special value the
residue machinery evaluates at: q^(1/4) = t, sqrt(q) = t^2, their inverses,
the fourth roots of unity, and rationalized values like 1/(1 - sqrt(q)).

Inversion takes the norm down the tower K > Q(i)(sqrt q) > Q(i): x times
its conjugate under t -> -t lies in Q(i)(sqrt q), and that times its
conjugate under sqrt q -> -sqrt q is the norm n of x, an element of Q(i);
1/x is the product of the two conjugates divided by n.  The moduli q are
primes q = 1 mod 4 (checked at construction), for which t^4 - q is
irreducible over Q(i) (Eisenstein at a Gaussian prime factor of q).  So K
is a field, t -> -t and sqrt q -> -sqrt q are field automorphisms, and the
norm, a product of nonzero conjugates, vanishes only at x = 0; inversion
raises ArithmeticError should it ever vanish elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .ffpoly import _require_modulus

__all__ = ["KNum", "zeta_at_half", "l_at_half_unit"]

Frac = Fraction
_Gauss = tuple[Fraction, Fraction]  # re, im


def _gadd(a: _Gauss, b: _Gauss) -> _Gauss:
    return (a[0] + b[0], a[1] + b[1])


def _gsub(a: _Gauss, b: _Gauss) -> _Gauss:
    return (a[0] - b[0], a[1] - b[1])


def _gmul(a: _Gauss, b: _Gauss) -> _Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


_GZERO: _Gauss = (Frac(0), Frac(0))


def _isum(*terms: tuple[int, tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
    """Sum of k * x * y over (k, x, y), with x and y Gaussian integers (re, im)."""
    re = im = 0
    for k, x, y in terms:
        re += k * (x[0] * y[0] - x[1] * y[1])
        im += k * (x[0] * y[1] + x[1] * y[0])
    return re, im


def _kinv_coords(coords: tuple[_Gauss, ...], q: int) -> tuple[_Gauss, ...]:
    """Inverse of a nonzero element by its norm down K > Q(i)(s) > Q(i), s = t^2.

    With x = A + tB, A = c0 + c2 s and B = c1 + c3 s, x (A - tB) = a + b s and
    (a + b s)(a - b s) = n lies in Q(i), so 1/x = (A - tB)(a - b s) / n.  The
    coordinates are scaled by the lcm of their denominators first, so the
    norm is taken on Gaussian integers; Fractions are built for the result only.
    """
    if all(c == _GZERO for c in coords):
        raise ZeroDivisionError("inversion of zero in K")
    scale = lcm(*(v.denominator for c in coords for v in c))
    c0, c1, c2, c3 = [(re.numerator * (scale // re.denominator),
                       im.numerator * (scale // im.denominator))
                      for re, im in coords]
    a = _isum((1, c0, c0), (q, c2, c2), (-2 * q, c1, c3))
    b = _isum((2, c0, c2), (-1, c1, c1), (-q, c3, c3))
    n = _isum((1, a, a), (-q, b, b))
    if n == (0, 0):
        raise ArithmeticError(
            "zero norm of a nonzero element: t^4 - q not irreducible over Q(i)")
    den = n[0] * n[0] + n[1] * n[1]
    n_bar = (n[0], -n[1])
    out = []
    for num in (_isum((1, c0, a), (-q, c2, b)), _isum((q, c3, b), (-1, c1, a)),
                _isum((1, c2, a), (-1, c0, b)), _isum((1, c1, b), (-1, c3, a))):
        re, im = _isum((scale, num, n_bar))
        out.append((Frac(re, den), Frac(im, den)))
    return tuple(out)


Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class KNum:
    """Element of Q(i)[t]/(t^4 - q); coords[j] is the Q(i) coefficient of t^j."""

    coords: tuple[_Gauss, _Gauss, _Gauss, _Gauss]
    q: int

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, x: Scalar, q: int) -> "KNum":
        _require_modulus(q)
        return cls(((Frac(x), Frac(0)), _GZERO, _GZERO, _GZERO), q)

    @classmethod
    def gaussian(cls, re: Scalar, im: Scalar, q: int) -> "KNum":
        _require_modulus(q)
        return cls(((Frac(re), Frac(im)), _GZERO, _GZERO, _GZERO), q)

    @classmethod
    def zero(cls, q: int) -> "KNum":
        return cls.rational(0, q)

    @classmethod
    def one(cls, q: int) -> "KNum":
        return cls.rational(1, q)

    @classmethod
    def i_unit(cls, q: int) -> "KNum":
        return cls.gaussian(0, 1, q)

    @classmethod
    def root4(cls, q: int, power: int = 1) -> "KNum":
        """t^power, i.e. q^(power/4), for any integer power."""
        _require_modulus(q)
        whole, frac = divmod(power, 4)
        coeff: _Gauss = (Frac(q) ** whole, Frac(0))
        coords = [_GZERO] * 4
        coords[frac] = coeff
        return cls(tuple(coords), q)

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

    @classmethod
    def from_sqrt_pair(cls, a: Scalar, b: Scalar, q: int) -> "KNum":
        """a + b*sqrt(q)."""
        _require_modulus(q)
        return cls(((Frac(a), Frac(0)), _GZERO, (Frac(b), Frac(0)), _GZERO), q)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "KNum | None":
        if isinstance(other, KNum):
            if other.q != self.q:
                raise ValueError("mixed K moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return KNum.rational(other, self.q)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KNum(tuple(_gadd(a, b) for a, b in zip(self.coords, o.coords)), self.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KNum(tuple(_gsub(a, b) for a, b in zip(self.coords, o.coords)), self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return KNum(tuple((-a[0], -a[1]) for a in self.coords), self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coords, o.coords
        raw = [_GZERO] * 7
        for i in range(4):
            if a[i] == _GZERO:
                continue
            for j in range(4):
                if b[j] != _GZERO:
                    raw[i + j] = _gadd(raw[i + j], _gmul(a[i], b[j]))
        qf = (Frac(self.q), Frac(0))
        out = list(raw[:4])
        for k in range(4, 7):
            if raw[k] != _GZERO:
                out[k - 4] = _gadd(out[k - 4], _gmul(raw[k], qf))
        return KNum(tuple(out), self.q)

    __rmul__ = __mul__

    def inv(self) -> "KNum":
        return KNum(_kinv_coords(self.coords, self.q), self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int) -> "KNum":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = KNum.one(self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == _GZERO for c in self.coords)

    def conj_i(self) -> "KNum":
        """Galois conjugate i -> -i (t fixed)."""
        return KNum(tuple((c[0], -c[1]) for c in self.coords), self.q)

    def embed(self, root: int = 0) -> complex:
        """Numerical embedding t -> i^root * q^(1/4), i -> imaginary unit.

        The default is the principal embedding with t real positive.
        """
        t_val = (1j**root) * self.q**0.25
        out = 0j
        power = 1 + 0j
        for re, im in self.coords:
            out += (float(re) + 1j * float(im)) * power
            power *= t_val
        return out

    def sqrt_pair(self) -> tuple[Fraction, Fraction]:
        """Decompose x = a + b*sqrt(q) for elements of the real quadratic subfield."""
        c = self.coords
        if c[1] != _GZERO or c[3] != _GZERO or any(g[1] != 0 for g in c):
            raise ValueError("element is not in Q(sqrt q)")
        return c[0][0], c[2][0]

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
        return f"KNum({' + '.join(parts) or '0'}; q={self.q})"


def zeta_at_half(q: int) -> KNum:
    """1/(1 - sqrt(q)) as an exact element of K."""
    return (KNum.one(q) - KNum.sqrt_q(q)).inv()


def l_at_half_unit(q: int) -> KNum:
    """1/(1 + sqrt(q)) as an exact element of K."""
    return (KNum.one(q) + KNum.sqrt_q(q)).inv()
