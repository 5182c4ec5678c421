"""Arithmetic and enumeration for polynomials over a prime field F_q.

Polynomials are stored as little-endian coefficient tuples: (c0, c1, ..., cn)
means c0 + c1*x + ... + cn*x^n with 0 <= ci < q and cn != 0; the zero
polynomial is the empty tuple.  The modulus q must be an odd prime with
q == 1 (mod 4), which gives the clean reciprocity law
(d/m) = (m/d) for coprime monic non-constant d, m; the symbol routine
below is a GCD-style chain of such swaps.

Hot paths (the character-sum sieve, the moment oracle) work on raw tuples
and integer indices of monic polynomials; :class:`FqPoly` is a thin
immutable wrapper for the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "FqPoly",
    "FactorSieve",
    "BudgetExceededError",
    "quadratic_symbol",
    "moebius",
    "build_sieve",
    "enumerate_monic",
    "monic_from_index",
    "index_of_monic",
    "irreducible_count",
]

DEFAULT_CELL_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a requested table or scan exceeds the configured budget."""


_VALID_MODULI: set[int] = set()


def _require_modulus(q: int) -> None:
    """Raise ValueError unless q is a prime = 1 mod 4.

    Each valid q is tested once: exact arithmetic in K checks the modulus
    of every int operand it coerces.
    """
    if q in _VALID_MODULI:
        return
    if q < 5 or q % 4 != 1:
        raise ValueError(f"modulus must be an odd prime = 1 mod 4, got {q}")
    n = 3
    while n * n <= q:
        if q % n == 0:
            raise ValueError(f"modulus must be prime, got {q}")
        n += 2
    _VALID_MODULI.add(q)


_SQUARES: dict[int, frozenset[int]] = {}


def _squares(q: int) -> frozenset[int]:
    s = _SQUARES.get(q)
    if s is None:
        s = frozenset((a * a) % q for a in range(1, q))
        _SQUARES[q] = s
    return s


def unit_sign(b: int, q: int) -> int:
    """+1 if b is a nonzero square mod q, -1 if a non-square."""
    if b % q == 0:
        raise ValueError("unit_sign of zero")
    return 1 if b % q in _squares(q) else -1


def smallest_nonsquare(q: int) -> int:
    sq = _squares(q)
    for b in range(2, q):
        if b not in sq:
            return b
    raise AssertionError("no non-square found")


# ---------------------------------------------------------------------------
# raw tuple arithmetic


def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _add(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % q
    return _trim(out)


def _mul(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _trim(out)


def _mod(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    """a mod b for monic b."""
    lb = len(b)
    if lb == 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    if len(a) < lb:
        return a
    work = list(a)
    for i in range(len(a) - lb, -1, -1):
        c = work[i + lb - 1]
        if c:
            for j in range(lb - 1):
                if b[j]:
                    work[i + j] = (work[i + j] - c * b[j]) % q
            work[i + lb - 1] = 0
    return _trim(work)


def _divmod(a: tuple[int, ...], b: tuple[int, ...], q: int):
    lb = len(b)
    if lb == 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], q - 2, q)
    work = list(a)
    quo = [0] * max(0, len(a) - lb + 1)
    for i in range(len(a) - lb, -1, -1):
        c = (work[i + lb - 1] * inv_lead) % q
        if c:
            quo[i] = c
            for j in range(lb):
                if b[j]:
                    work[i + j] = (work[i + j] - c * b[j]) % q
    return _trim(quo), _trim(work)


def _monic(a: tuple[int, ...], q: int) -> tuple[int, ...]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], q - 2, q)
    return tuple((c * inv) % q for c in a)


def _gcd(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    while b:
        a, b = b, _mod(a, _monic(b, q), q)
    return _monic(a, q)


def _derivative(a: tuple[int, ...], q: int) -> tuple[int, ...]:
    return _trim([(i * c) % q for i, c in enumerate(a)][1:])


def _is_squarefree(a: tuple[int, ...], q: int) -> bool:
    if len(a) <= 1:
        return bool(a)
    d = _derivative(a, q)
    if not d:
        return False
    return len(_gcd(a, d, q)) == 1


def symbol_raw(d: tuple[int, ...], m: tuple[int, ...], q: int) -> int:
    """Quadratic symbol (d/m) on raw tuples; m must be monic."""
    nonsq_sign = _squares(q)
    s = 1
    while True:
        if len(m) == 1:
            return s
        d = _mod(d, m, q)
        if not d:
            return 0
        if len(d) == 1:
            if (len(m) - 1) % 2 and d[0] not in nonsq_sign:
                s = -s
            return s
        b = d[-1]
        if b != 1:
            if (len(m) - 1) % 2 and b not in nonsq_sign:
                s = -s
            inv = pow(b, q - 2, q)
            d = tuple((c * inv) % q for c in d)
        d, m = m, d


def symbol_euler(d: tuple[int, ...], p: tuple[int, ...], q: int) -> int:
    """(d/p) for irreducible monic p via d^((|p|-1)/2) mod p.

    Kept as an independent oracle for the reciprocity chain.
    """
    d = _mod(d, p, q)
    if not d:
        return 0
    e = (q ** (len(p) - 1) - 1) // 2
    acc: tuple[int, ...] = (1,)
    base = d
    while e:
        if e & 1:
            acc = _mod(_mul(acc, base, q), p, q)
        base = _mod(_mul(base, base, q), p, q)
        e >>= 1
    if acc == (1,):
        return 1
    if acc == ((q - 1),):
        return -1
    raise ArithmeticError("euler criterion did not yield +-1; p not irreducible?")


# ---------------------------------------------------------------------------
# monic indexing

def monic_from_index(q: int, deg: int, idx: int) -> tuple[int, ...]:
    """Monic polynomial of given degree from its index in [0, q^deg).

    The low-order coefficients are the base-q digits of idx; the index
    order is the enumeration order everywhere in this package.
    """
    coeffs = []
    for _ in range(deg):
        coeffs.append(idx % q)
        idx //= q
    coeffs.append(1)
    return tuple(coeffs)


def index_of_monic(c: tuple[int, ...], q: int) -> int:
    idx = 0
    for v in reversed(c[:-1]):
        idx = idx * q + v
    return idx


def irreducible_count(q: int, deg: int) -> int:
    """Number of monic irreducibles of the given degree (necklace formula)."""

    def mu(n: int) -> int:
        out, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                out = -out
            k += 1
        if n > 1:
            out = -out
        return out

    total = 0
    for e in range(1, deg + 1):
        if deg % e == 0:
            total += mu(deg // e) * q**e
    return total // deg


# ---------------------------------------------------------------------------
# public value type


@dataclass(frozen=True)
class FqPoly:
    """Immutable polynomial over F_q (little-endian coefficient tuple)."""

    coeffs: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        _require_modulus(self.q)
        c = self.coeffs
        if c and c[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if any(not 0 <= v < self.q for v in c):
            raise ValueError("coefficients out of range")

    @classmethod
    def make(cls, coeffs, q: int) -> "FqPoly":
        return cls(_trim([c % q for c in coeffs]), q)

    @classmethod
    def x(cls, q: int) -> "FqPoly":
        return cls((0, 1), q)

    @classmethod
    def constant(cls, c: int, q: int) -> "FqPoly":
        return cls.make([c], q)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def sign(self) -> int:
        """+1 if the leading coefficient is a square in F_q^x, else -1."""
        if self.is_zero:
            raise ValueError("sign of zero polynomial")
        return unit_sign(self.coeffs[-1], self.q)

    def is_squarefree(self) -> bool:
        return _is_squarefree(self.coeffs, self.q)

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        return FqPoly(_mul(self.coeffs, other.coeffs, self.q), self.q)

    def __add__(self, other: "FqPoly") -> "FqPoly":
        return FqPoly(_add(self.coeffs, other.coeffs, self.q), self.q)

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        quo, rem = _divmod(self.coeffs, other.coeffs, self.q)
        return FqPoly(rem, self.q)

    def __divmod__(self, other: "FqPoly"):
        quo, rem = _divmod(self.coeffs, other.coeffs, self.q)
        return FqPoly(quo, self.q), FqPoly(rem, self.q)

    def gcd(self, other: "FqPoly") -> "FqPoly":
        return FqPoly(_gcd(self.coeffs, other.coeffs, self.q), self.q)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"FqPoly(0; q={self.q})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append("x" if c == 1 else f"{c}*x")
                else:
                    terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return f"FqPoly({' + '.join(terms)}; q={self.q})"


def quadratic_symbol(d: FqPoly, m: FqPoly) -> int:
    """Jacobi-style quadratic symbol (d/m) in {-1, 0, +1}; m must be monic.

    (d/1) = 1; for constant units (b/m) = unit_sign(b)^deg(m); the result is
    0 exactly when gcd(d, m) is non-constant.
    """
    if d.q != m.q:
        raise ValueError("mixed moduli")
    if not m.is_monic:
        raise ValueError("m must be monic")
    return symbol_raw(d.coeffs, m.coeffs, d.q)


def moebius(h: FqPoly, sieve: Optional["FactorSieve"] = None) -> int:
    """(-1)^(number of distinct irreducible factors) if h squarefree, else 0."""
    if h.is_zero:
        raise ValueError("moebius of zero polynomial")
    if not h.is_monic:
        raise ValueError("h must be monic")
    q = h.q
    c = h.coeffs
    count = 0
    while len(c) > 1:
        p = None
        if sieve is not None and len(c) - 1 <= sieve.max_deg:
            p = sieve.smallest_factor_raw(c)
        else:
            p = _smallest_factor_trial(c, q)
        quo, rem = _divmod(c, p, q)
        assert not rem
        if _mod(quo, p, q) == ():
            return 0
        count += 1
        c = quo
    return -1 if count % 2 else 1


def _smallest_factor_trial(c: tuple[int, ...], q: int) -> tuple[int, ...]:
    deg = len(c) - 1
    for e in range(1, deg // 2 + 1):
        for idx in range(q**e):
            p = monic_from_index(q, e, idx)
            if not _mod(c, p, q):
                return p
    return c  # irreducible


class FactorSieve:
    """Smallest-irreducible-factor table for all monic polynomials of degree <= max_deg.

    Entries are (factor_deg, factor_idx, cofactor_deg, cofactor_idx) or None
    for irreducibles.  "Smallest" orders factors by (degree, index).
    """

    def __init__(self, q: int, max_deg: int, cell_budget: int = DEFAULT_CELL_BUDGET):
        _require_modulus(q)
        if max_deg < 1:
            raise ValueError("max_deg must be >= 1")
        cells = sum(q**n for n in range(1, max_deg + 1))
        if cells > cell_budget:
            raise BudgetExceededError(
                f"sieve would need {cells} cells, budget is {cell_budget}"
            )
        self.q = q
        self.max_deg = max_deg
        # table[n][idx]: factorization pointer for the monic poly (n, idx)
        self.table: list[Optional[list]] = [None, [None] * q]
        # all monic linears are irreducible
        self.irreducible: dict[int, list[int]] = {1: list(range(q))}
        self._irr_tuples: dict[int, list[tuple[int, ...]]] = {
            1: [monic_from_index(q, 1, i) for i in range(q)]
        }
        for n in range(2, max_deg + 1):
            arr: list = [None] * q**n
            for e in range(1, n):
                cof_deg = n - e
                irr_e = self._irr_tuples.get(e, [])
                for p_idx, p in enumerate(irr_e):
                    for k_idx in range(q**cof_deg):
                        k = monic_from_index(q, cof_deg, k_idx)
                        m_idx = index_of_monic(_mul(p, k, q), q)
                        if arr[m_idx] is None:
                            arr[m_idx] = (e, p_idx, cof_deg, k_idx)
            self.table.append(arr)
            irr_idx = [i for i, v in enumerate(arr) if v is None]
            self.irreducible[n] = irr_idx
            self._irr_tuples[n] = [monic_from_index(q, n, i) for i in irr_idx]

    def irreducibles(self, deg: int) -> list[tuple[int, ...]]:
        """Monic irreducibles of the given degree, in index order."""
        if deg > self.max_deg:
            raise ValueError("degree beyond sieve range")
        return list(self._irr_tuples[deg])

    def smallest_factor_raw(self, c: tuple[int, ...]) -> tuple[int, ...]:
        deg = len(c) - 1
        if deg < 1:
            raise ValueError("constant polynomial has no irreducible factor")
        if deg > self.max_deg:
            raise ValueError("degree beyond sieve range")
        ent = self.table[deg][index_of_monic(c, self.q)]
        if ent is None:
            return c
        e, p_idx, _, _ = ent
        return self._irr_tuples[e][p_idx]

    def smallest_factor(self, m: FqPoly) -> FqPoly:
        """Smallest monic irreducible factor; irreducibles map to themselves."""
        if not m.is_monic:
            raise ValueError("m must be monic")
        return FqPoly(self.smallest_factor_raw(m.coeffs), self.q)

    def factor_pointers(self, deg: int) -> list:
        """Raw pointer table for one degree (None marks an irreducible)."""
        return self.table[deg]


def build_sieve(q: int, max_deg: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> FactorSieve:
    return FactorSieve(q, max_deg, cell_budget)


def enumerate_monic(q: int, deg: int, kind: str = "all",
                    sieve: Optional[FactorSieve] = None) -> Iterator[FqPoly]:
    """Enumerate monic polynomials of exact degree in deterministic index order.

    kind is one of "all", "squarefree", "irreducible".
    """
    _require_modulus(q)
    if kind not in ("all", "squarefree", "irreducible"):
        raise ValueError(f"unknown enumeration kind {kind!r}")
    if kind == "irreducible" and deg >= 2:
        if sieve is None or sieve.max_deg < deg:
            sieve = FactorSieve(q, deg)
        for c in sieve.irreducibles(deg):
            yield FqPoly(c, q)
        return
    for idx in range(q**deg):
        c = monic_from_index(q, deg, idx)
        if kind == "squarefree" and not _is_squarefree(c, q):
            continue
        yield FqPoly(c, q)
