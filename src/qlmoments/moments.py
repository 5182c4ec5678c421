"""Exact moments of L(1/2, chi_d) over monic squarefree d.

Each L(u, chi_d) is a polynomial fixed by d, so every route builds the
same histogram {L-coefficient tuple: number of d} (l_histogram) and the
moment of order r at degree D is one power sum over it, accumulated as an
exact pair of integers (U, V) with sum_d L(1/2, chi_d)^r = (U + V sqrt(q))
/ q^(r*m), m = ceil((D-1)/2); floats only appear at report time.

The production route ("reflect") handles every d of a degree at once, in
numpy blocks of at most BLOCK indices: a boolean mask marks the
squarefree indices (every multiple P^2 k of an irreducible square is
cleared); for each monic irreducible P up to half the degree, d mod P is
an affine map on the coefficient digits and a table of the squares mod P
gives (d/P).  By the explicit formula (Rosen, GTM 210) these prime
characters give the power sums s_n = sum_{e | n} e sum_{deg P = e}
(d/P)^(n/e), and Newton's identities n a_n = sum_{k <= n} s_k a_(n-k) the
low half (a_0, ..., a_h), which the functional equation completes.

Two per-d reference routes cross-check it, each one serial loop over the
d of the degree: "sieve" (full-degree character sums per d) and "naive"
(per-(d, m) symbol calls).  All three routes return equal histograms and
the test suite enforces it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from . import ffpoly, lfunc
from .ffpoly import BudgetExceededError, FqPoly
from .lfunc import _half_degree

__all__ = [
    "MomentResult",
    "check_budget",
    "check_request",
    "moment",
    "l_histogram",
    "low_half_histogram",
    "residual_table",
    "squarefree_count",
]

#: Most symbol evaluations one degree may cost (see _estimated_ops).
OP_BUDGET = 2 * 10**11

METHODS = ("reflect", "sieve", "naive")

#: Most indices of d handled per step of the table route.  A step takes the
#: q^k <= BLOCK indices that share their digits above x^k, so its working
#: memory is a few arrays of at most BLOCK rows, whatever the degree.
BLOCK = 4096


@dataclass(frozen=True)
class MomentResult:
    q: int
    r: int
    D: int
    a: Fraction  # moment = a + b*sqrt(q)
    b: Fraction
    count: int  # number of squarefree d summed
    seconds: float

    @property
    def value(self) -> float:
        return float(self.a) + float(self.b) * self.q**0.5

    def csv_row(self, with_timing: bool = False) -> str:
        secs = f"{self.seconds:.3f}" if with_timing else "0.000"
        return (f"{self.q},{self.r},{self.D},{self.a},{self.b},"
                f"{self.value!r},{self.count},{secs}")


def squarefree_count(q: int, D: int) -> int:
    if D == 0:
        return 1
    if D == 1:
        return q
    return q**D - q ** (D - 1)


def _estimated_ops(q: int, D: int, method: str) -> int:
    """Symbol evaluations: one per (d, m) pair the route touches.

    The table route reads one character per d and monic irreducible m of
    degree <= h (half degree); the reference routes sum over all m below D.
    """
    if method == "reflect":
        return q**D * sum(ffpoly.irreducible_count(q, n)
                          for n in range(1, _half_degree(D) + 1))
    return q ** (2 * D - 1)


def _sieve_degree(D: int, method: str) -> int | None:
    """The degree of the factor sieve a route builds at D (naive: None)."""
    if method == "naive":
        return None
    return max(1, D // 2 if method == "reflect" else D - 1)


def check_budget(q: int, D: int, method: str = "reflect") -> None:
    """Raise BudgetExceededError if degree D would exceed OP_BUDGET or its
    factor sieve ffpoly.CELL_BUDGET."""
    if (ops := _estimated_ops(q, D, method)) > OP_BUDGET:
        raise BudgetExceededError(
            f"D = {D}: estimated {ops} ops exceeds budget {OP_BUDGET}")
    if (max_deg := _sieve_degree(D, method)) is not None:
        ffpoly.check_sieve_budget(q, max_deg)


def check_request(q: int, r: int, degrees, method: str) -> list[int]:
    """The distinct degrees of a moment request in increasing order, checked
    before any is computed: the rules every request shares (modulus, r >= 1,
    degrees; ffpoly._require_request), the method and both budgets."""
    degrees = ffpoly._require_request(q, r, degrees)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    for D in degrees:
        check_budget(q, D, method)
    return degrees


def _scaled_power(coeffs: tuple[int, ...], q: int, r: int) -> tuple[int, int]:
    """(u + v sqrt q)^r for q^m L(1/2) = u + v sqrt q, m = len(coeffs) // 2."""
    u, v = lfunc._central_pair(coeffs, q)
    pu, pv = 1, 0
    for _ in range(r):
        pu, pv = pu * u + q * pv * v, pu * v + pv * u
    return pu, pv


# ---------------------------------------------------------------------------
# the table route


def _digits(idx: np.ndarray, q: int, n: int) -> np.ndarray:
    """Base-q digits, low first: the coefficients below the leading 1."""
    return idx[:, None] // q ** np.arange(n, dtype=np.int64) % q


def _squarefree_mask(q: int, D: int, sieve: ffpoly.FactorSieve) -> np.ndarray:
    """mask[idx] is True iff the monic d of degree D with index idx is squarefree."""
    mask = np.ones(q**D, dtype=bool)
    place = q ** np.arange(D, dtype=np.int64)
    for e in range(1, D // 2 + 1):
        k_deg = D - 2 * e
        cofactors = np.hstack([_digits(np.arange(q**k_deg), q, k_deg),
                               np.ones((q**k_deg, 1), dtype=np.int64)])
        for p in sieve.irreducibles(e):
            # coefficients of P^2 k below x^D, linear in the digits of k
            conv = np.zeros((k_deg + 1, D + 1), dtype=np.int64)
            for j in range(k_deg + 1):
                conv[j, j:j + 2 * e + 1] = ffpoly._mul(p, p, q)
            mask[cofactors @ conv[:, :D] % q @ place] = False
    return mask


class _DegreePlan:
    """The characters (d/P_j) at the monic irreducibles P_j of degree n.

    d mod P_j is affine in the digits of d, through ``powers[i, j] = x^i mod
    P_j``.  Each block of d shares its digits above x^k, so
    ``low_residue[lo, j]`` is the index of (d below x^k) mod P_j, and the
    rest of d shifts the lookup table once per block.  ``table[j, t]`` is 0
    at residue t = 0, +1 on a nonzero square of F_q[x]/P_j and -1 otherwise:
    every residue is squared at once and reduced (degree 2n - 2 < D)
    through the same rows.
    """

    def __init__(self, q: int, D: int, n: int, k: int,
                 primes: list[tuple[int, ...]]):
        self.q = q
        self.place = q ** np.arange(n, dtype=np.int64)
        self.residues = _digits(np.arange(q**n), q, n)  # by residue index
        powers = np.zeros((D + 1, len(primes), n), dtype=np.int64)  # x^i mod P_j
        for j, p in enumerate(primes):
            for i in range(D + 1):
                rem = ffpoly._mod((0,) * i + (1,), p, q)
                powers[i, j, :len(rem)] = rem
        squares = np.zeros((q**n, 2 * n - 1), dtype=np.int64)
        for i in range(n):
            squares[:, i:i + n] += self.residues[:, i:i + 1] * self.residues
        self.table = np.full((len(primes), q**n), -1, dtype=np.int8)
        for j in range(len(primes)):
            self.table[j, squares @ powers[:2 * n - 1, j] % q @ self.place] = 1
        self.table[:, 0] = 0
        self.prime_idx = np.arange(len(primes))
        self.low_residue = np.tensordot(_digits(np.arange(q**k), q, k),
                                        powers[:k], axes=1) % q @ self.place
        self.high = powers[k:D]
        self.offset = powers[D]

    def characters(self, lo: np.ndarray, high_digits: np.ndarray) -> np.ndarray:
        """(d/P_j), one row per d of the block and one column per P_j; lo
        holds the block's index offsets, high_digits its digits from x^k up."""
        shift = np.tensordot(high_digits, self.high, axes=1) + self.offset
        shifted = (self.residues + shift[:, None, :]) % self.q @ self.place
        table = self.table[self.prime_idx[:, None], shifted]
        return table[self.prime_idx, self.low_residue[lo]]


def low_half_histogram(q: int, D: int) -> dict[tuple[int, ...], int]:
    """{(a_0, ..., a_h): number of monic squarefree d of degree D with that low half}.

    h = _half_degree(D); the functional equation (lfunc._reflect_coefficients)
    completes each key to the full L-polynomial coefficient list.
    """
    check_request(q, 1, [D], "reflect")
    h = _half_degree(D)
    k = 0  # digits below x^k vary inside a block of q^k <= BLOCK indices
    while k < D and q ** (k + 1) <= BLOCK:
        k += 1
    sieve = ffpoly.build_sieve(q, _sieve_degree(D, "reflect"))
    mask = _squarefree_mask(q, D, sieve)
    assert int(mask.sum()) == squarefree_count(q, D)
    plans = [_DegreePlan(q, D, n, k, sieve.irreducibles(n))
             for n in range(1, h + 1)]
    # |a_n| <= q^n, so halves @ weights is injective (a mixed-radix code
    # with digits a_n + q^n in [0, 2 q^n]); equal codes are counted at once
    radix = [2 * q**n + 1 for n in range(h + 1)]
    assert prod(radix) < 2**63
    weights = np.array([prod(radix[:n]) for n in range(h + 1)], dtype=np.int64)
    hist: dict[tuple[int, ...], int] = {}
    for hi, high_digits in enumerate(_digits(np.arange(q ** (D - k)), q, D - k)):
        lo = np.flatnonzero(mask[hi * q**k:(hi + 1) * q**k])
        chars = [plan.characters(lo, high_digits) for plan in plans]
        # the sum of (d/P)^j over deg P = e is odd[e] at odd j and even[e],
        # the number of P not dividing d, at even j (so only for 2e <= h)
        odd = [None] + [c.sum(axis=1, dtype=np.int64) for c in chars]
        even = [None] + [np.count_nonzero(c, axis=1) for c in chars[:h // 2]]
        halves = np.ones((len(lo), h + 1), dtype=np.int64)
        s = [None]  # s[n] = sum_{e | n} e sum_{deg P = e} (d/P)^(n/e)
        for n in range(1, h + 1):
            s.append(sum(e * (odd if n // e % 2 else even)[e]
                         for e in range(1, n + 1) if n % e == 0))
            total = sum(s[j] * halves[:, n - j] for j in range(1, n + 1))
            assert not (total % n).any(), "Newton's identity division not exact"
            halves[:, n] = total // n
        _, first, counts = np.unique(halves @ weights, return_index=True,
                                     return_counts=True)
        for key, c in zip(halves[first].tolist(), counts.tolist()):
            key = tuple(key)
            hist[key] = hist.get(key, 0) + c
    return hist


def l_histogram(q: int, D: int, method: str = "reflect"
                ) -> dict[tuple[int, ...], int]:
    """{(a_0, ..., a_(D-1)): number of monic squarefree d of degree D whose
    L(u, chi_d) has those coefficients}.

    "reflect" completes each low_half_histogram key by the functional
    equation; "sieve" and "naive" compute the coefficients of every d, in
    one serial pass.
    """
    check_request(q, 1, [D], method)
    if method == "reflect":
        return {tuple(lfunc._reflect_coefficients(list(low), D, q)): mult
                for low, mult in low_half_histogram(q, D).items()}
    sieve = (ffpoly.build_sieve(q, _sieve_degree(D, method))
             if method == "sieve" else None)
    hist: dict[tuple[int, ...], int] = {}
    for idx in range(q**D):
        coeffs = ffpoly.monic_from_index(q, D, idx)
        if not ffpoly._is_squarefree(coeffs, q):
            continue
        if method == "naive":
            key = (1, *(
                sum(ffpoly.symbol_raw(coeffs, ffpoly.monic_from_index(q, n, i), q)
                    for i in range(q**n))
                for n in range(1, D)))
        else:
            key = tuple(lfunc.l_coefficients(FqPoly(coeffs, q), sieve))
        hist[key] = hist.get(key, 0) + 1
    return hist


def moment(q: int, r: int, D: int, method: str = "reflect") -> MomentResult:
    """Exact moment of order r over monic squarefree d of degree D.

    The r-th power sum of L(1/2) over l_histogram(q, D, method), each
    distinct L-polynomial powered once and weighted by its number of d.
    """
    check_request(q, r, [D], method)
    start = time.perf_counter()
    su = sv = count = 0
    for coeffs, mult in l_histogram(q, D, method).items():
        pu, pv = _scaled_power(coeffs, q, r)
        su += mult * pu
        sv += mult * pv
        count += mult
    assert count == squarefree_count(q, D)
    den = q ** (r * (D // 2))
    return MomentResult(
        q=q, r=r, D=D,
        a=Fraction(su, den), b=Fraction(sv, den),
        count=count, seconds=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class ResidualRow:
    D: int
    moment_a: Fraction
    moment_b: Fraction
    moment_value: float
    prediction: float
    residual: float
    normalized: float


def residual_table(q: int, r: int, degrees: list[int],
                   predictions: dict[int, float] | None,
                   theta: float) -> list[ResidualRow]:
    """Moments minus predicted terms, normalized by q^(D (1 + theta) / 2).

    With no predictions the residual column is the raw moment.
    """
    rows = []
    for D in degrees:
        res = moment(q, r, D)
        pred = 0.0 if predictions is None else predictions.get(D, 0.0)
        residual = res.value - pred
        norm = residual / q ** (D * (1 + theta) / 2)
        rows.append(ResidualRow(D, res.a, res.b, res.value, pred, residual, norm))
    return rows
