"""Arithmetic and enumeration for polynomials over a prime field F_q.

Polynomials are stored as little-endian coefficient tuples: (c0, c1, ..., cn)
means c0 + c1*x + ... + cn*x^n with 0 <= ci < q and cn != 0; the zero
polynomial is the empty tuple.  The modulus q must be an odd prime with
q == 1 (mod 4), which gives the clean reciprocity law
(d/m) = (m/d) for coprime monic non-constant d, m; the symbol routine
below is a GCD-style chain of such swaps.

The character-sum sieve and the per-d reference routes of the moment oracle
work on raw tuples and integer indices of monic polynomials (the oracle's
numpy table route does not); :class:`FqPoly` wraps them for the public API.
The module keeps what a moment computation runs: tuple multiplication and
reduction, the squarefree test, the symbol, monic indexing and the factor
sieve.

_require_modulus checks q on every call, with no cache, by Miller-Rabin
rounds: about 0.1 ms at q ~ 1e16 and under a microsecond at q = 5 or 13.
_require_request adds the rules every moment and prediction request shares
(r >= 1, a nonempty set of degrees D >= 1).  check_sieve_budget refuses a
FactorSieve above the fixed CELL_BUDGET before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

__all__ = [
    "FqPoly",
    "FactorSieve",
    "BudgetExceededError",
    "build_sieve",
    "check_sieve_budget",
    "monic_from_index",
    "index_of_monic",
    "irreducible_count",
]

#: Most cells a FactorSieve may hold (one per monic polynomial it covers).
CELL_BUDGET = 50_000_000


class BudgetExceededError(ValueError):
    """Raised when a requested table or scan exceeds the configured budget."""


def check_sieve_budget(q: int, max_deg: int) -> None:
    """Raise BudgetExceededError if a FactorSieve to max_deg passes CELL_BUDGET."""
    cells = sum(q**n for n in range(1, max_deg + 1))
    if cells > CELL_BUDGET:
        raise BudgetExceededError(
            f"sieve would need {cells} cells, budget is {CELL_BUDGET}")


#: Miller-Rabin rounds to these 13 bases decide primality below PSI_13, the
#: least strong pseudoprime to all of them (Sorenson and Webster, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _is_prime(q: int) -> bool:
    """Whether the odd q >= 5 is prime."""
    for a in MILLER_RABIN_BASES:
        if q % a == 0:
            return q == a
    if q >= PSI_13:
        return all(q % n for n in range(43, isqrt(q) + 1, 2))
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d 2^s with d odd
    d = (q - 1) >> s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, q)
        if x == 1:
            continue
        for _ in range(s):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


def _require_modulus(q: int) -> None:
    """Raise ValueError unless q is a prime = 1 mod 4."""
    if q < 5 or q % 4 != 1:
        raise ValueError(f"modulus must be an odd prime = 1 mod 4, got {q}")
    if not _is_prime(q):
        raise ValueError(f"modulus must be prime, got {q}")


def _require_request(q: int, r: int, degrees) -> list[int]:
    """The degrees of a moment or prediction request of order r at modulus
    q, distinct and in increasing order; raise ValueError unless q is a
    prime = 1 mod 4, r >= 1 and the degrees are a nonempty set of D >= 1."""
    _require_modulus(q)
    if r < 1:
        raise ValueError("need r >= 1")
    out = sorted(set(degrees))
    if not out:
        raise ValueError("need at least one degree")
    if out[0] < 1:
        raise ValueError("need every degree D >= 1")
    return out


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


# ---------------------------------------------------------------------------
# raw tuple arithmetic


def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


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


class FactorSieve:
    """Smallest-irreducible-factor table for all monic polynomials of degree <= max_deg.

    Entries are (factor_deg, factor_idx, cofactor_deg, cofactor_idx) or None
    for irreducibles.  "Smallest" orders factors by (degree, index).
    """

    def __init__(self, q: int, max_deg: int):
        _require_modulus(q)
        if max_deg < 1:
            raise ValueError("max_deg must be >= 1")
        check_sieve_budget(q, max_deg)
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

    def factor_pointers(self, deg: int) -> list:
        """Raw pointer table for one degree (None marks an irreducible)."""
        return self.table[deg]


def build_sieve(q: int, max_deg: int) -> FactorSieve:
    return FactorSieve(q, max_deg)
