"""L-functions of quadratic characters chi_d over F_q[x].

For monic squarefree non-constant d the L-function is a polynomial of
degree deg(d) - 1 in u = q^(-s); its integer coefficients are the
character sums a_n = sum over monic m of degree n of (d/m).  They are
computed by seeding the symbol at irreducibles and extending
multiplicatively through a factor sieve, one degree at a time.

The moment oracle computes only the low half of the coefficients, for all
d of a degree at once, and recovers the rest exactly from the functional
equation (_reflect_coefficients); every division it performs must be
exact in the integers, which is asserted.  The straight sieve route here
is the per-d reference and the two are cross-checked in the test suite.
The central value enters the moments only as the integer pair
_central_pair; this module needs nothing beyond ffpoly.
"""

from __future__ import annotations

from . import ffpoly
from .ffpoly import FactorSieve, FqPoly

__all__ = ["character_row_sums", "l_coefficients"]


def _check_d(d: FqPoly) -> None:
    if not d.is_monic:
        raise ValueError("d must be monic")
    if not d.is_squarefree():
        raise ValueError("d must be squarefree")


def character_row_sums(d: FqPoly, n_max: int, sieve: FactorSieve | None = None
                       ) -> list[int]:
    """[a_0, ..., a_{n_max}] with a_n the symbol sum over monic m of degree n."""
    q = d.q
    if sieve is None or sieve.max_deg < n_max:
        sieve = ffpoly.build_sieve(q, max(1, n_max))
    dc = d.coeffs
    sums = [1]
    rows: list[list[int]] = [[1]]
    for n in range(1, n_max + 1):
        pointers = sieve.factor_pointers(n)
        irr = sieve._irr_tuples[n]
        row = [0] * len(pointers)
        pos = 0
        for idx, ent in enumerate(pointers):
            if ent is None:
                row[idx] = ffpoly.symbol_raw(dc, irr[pos], q)
                pos += 1
            else:
                e, p_idx_deg, f, k_idx = ent
                pe = sieve.irreducible[e][p_idx_deg]
                row[idx] = rows[e][pe] * rows[f][k_idx]
        rows.append(row)
        sums.append(sum(row))
    return sums


def _half_degree(D: int) -> int:
    """h such that a_0 .. a_h of a degree-D d determine the rest (the low half)."""
    return (D - 1) // 2 if D % 2 == 1 else max(D // 2 - 1, 0)


def _reflect_coefficients(low: list[int], deg_d: int, q: int) -> list[int]:
    """Complete a coefficient list from its low half via the functional equation.

    For monic squarefree d this uses a_{D-1-n} = q^((D-1)/2 - n) a_n for odd
    degree D, and the reflection of b_n = a_n - q a_{n-1} for even D; all
    divisions are exact and asserted.
    """
    big = deg_d
    h = _half_degree(big)
    assert len(low) >= h + 1
    if big % 2 == 1:
        out = list(low[: h + 1])
        for n in range(h - 1, -1, -1):
            out.append(q ** (h - n) * low[n])
        return out
    a = list(low[: h + 1]) + [None] * (big - h - 1)
    b_high = {}
    for n in range(0, h + 1):
        b_n = low[n] - (q * low[n - 1] if n >= 1 else 0)
        b_high[big - n] = q ** (big // 2 - n) * b_n
    # unwind a_{D-1} .. a_{D/2} from the top using a_D = 0
    prev = 0  # a_m for m = big
    for m in range(big, big // 2, -1):
        num = prev - b_high[m]
        assert num % q == 0, "functional-equation reflection division not exact"
        prev = num // q
        a[m - 1] = prev
    assert all(v is not None for v in a)
    return a


def l_coefficients(d: FqPoly, sieve: FactorSieve | None = None) -> list[int]:
    """Integer coefficient list of L(s, chi_d), length deg(d), summing
    characters at every degree up to deg(d) - 1."""
    _check_d(d)
    if d.degree == 0:
        raise ValueError("d must be non-constant here")
    return character_row_sums(d, d.degree - 1, sieve)


def _central_pair(coeffs: list[int], q: int) -> tuple[int, int]:
    """(u, v) with q^m L(1/2) = u + v sqrt(q), m = len(coeffs) // 2.

    L(1/2) = sum_n a_n q^(-n/2): even n land in u, odd n in v.
    """
    m = len(coeffs) // 2
    u = v = 0
    for n, c in enumerate(coeffs):
        if n % 2 == 0:
            u += c * q ** (m - n // 2)
        else:
            v += c * q ** (m - (n + 1) // 2)
    return u, v
