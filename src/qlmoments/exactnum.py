"""Exact arithmetic in K = Q(i)[t]/(t^4 - q).

Elements are stored as four Gaussian-rational coordinates on the basis
{1, t, t^2, t^3}, with t^4 reduced to q.  K holds every special value the
residue machinery evaluates at: q^(1/4) = t, sqrt(q) = t^2, their inverses,
the fourth roots of unity, and rationalized values like 1/(1 - sqrt(q)).

t^4 - q is irreducible over Q(i) for any prime q (no Gaussian-rational
fourth root or square root of q exists), which is checked at construction;
inversion goes through the extended Euclidean algorithm in Q(i)[t] and
aborts if a nontrivial common factor with t^4 - q ever appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _gdiv(a: _Gauss, b: _Gauss) -> _Gauss:
    den = b[0] * b[0] + b[1] * b[1]
    if den == 0:
        raise ZeroDivisionError("division by zero in Q(i)")
    return ((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


_GZERO: _Gauss = (Frac(0), Frac(0))
_GONE: _Gauss = (Frac(1), Frac(0))


def _poly_trim(p: list) -> list:
    while p and p[-1] == _GZERO:
        p.pop()
    return p


def _poly_divmod(a: list, b: list):
    """Division in Q(i)[t]; b nonzero."""
    a = list(a)
    q_out = [_GZERO] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and a:
        c = _gdiv(a[-1], lead)
        shift = len(a) - len(b)
        q_out[shift] = c
        for j in range(len(b)):
            a[shift + j] = _gsub(a[shift + j], _gmul(c, b[j]))
        a = _poly_trim(a)
    return q_out, a


def _kinv_coords(coords: tuple[_Gauss, ...], q: int) -> tuple[_Gauss, ...]:
    """Inverse of a nonzero element via xgcd with the defining polynomial."""
    f = _poly_trim(list(coords))
    if not f:
        raise ZeroDivisionError("inversion of zero in K")
    m = [(Frac(-q), Frac(0)), _GZERO, _GZERO, _GZERO, _GONE]  # t^4 - q
    # extended Euclid: r0 = m, r1 = f, track coefficients of f only
    r0, r1 = m, f
    s0, s1 = [_GZERO], [_GONE]
    while r1:
        quo, rem = _poly_divmod(r0, r1)
        # s_next = s0 - quo*s1
        prod = [_GZERO] * (len(quo) + len(s1) - 1) if quo and s1 else []
        for i, qc in enumerate(quo):
            if qc != _GZERO:
                for j, sc in enumerate(s1):
                    prod[i + j] = _gadd(prod[i + j], _gmul(qc, sc))
        s_next = [_GZERO] * max(len(s0), len(prod))
        for i, v in enumerate(s0):
            s_next[i] = v
        for i, v in enumerate(prod):
            s_next[i] = _gsub(s_next[i], v)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_trim(s_next)
    if len(r0) != 1:
        raise ArithmeticError(
            "nontrivial gcd with t^4 - q: defining polynomial not irreducible"
        )
    g = r0[0]
    out = [_gdiv(c, g) for c in s0]
    out += [_GZERO] * (4 - len(out))
    return tuple(out[:4])


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
