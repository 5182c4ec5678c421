"""Exact moments of L(1/2, chi_d) over monic squarefree d.

The moment of order r at degree D is accumulated as an exact pair of
integers (U, V) with sum_d L(1/2, chi_d)^r = (U + V sqrt(q)) / q^(r*m),
m = ceil((D-1)/2); floats only appear at report time.

The production route ("reflect") handles every d of a degree at once, in
numpy blocks of at most BLOCK indices: a boolean mask marks the
squarefree indices (every multiple P^2 k of an irreducible square is
cleared); for each monic irreducible P up to half the degree, d mod P is
an affine map on the coefficient digits and a lookup table gives (d/P);
composite m are filled from the factor sieve, and a_n is a row sum.
Exact big-integer powers are then taken only once per distinct low half
(a_0, ..., a_h), completed by the functional equation and weighted by its
multiplicity.

Two per-d reference routes cross-check it: "sieve" (full-degree
character sums per d) and "naive" (per-(d, m) symbol calls).  They are
partitioned over the coefficient of x^(D-1) into q deterministic slabs,
merged in slab order, so their result is bit-identical for any worker
count.  All three routes agree exactly and the test suite enforces it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from . import ffpoly, lfunc
from .exactnum import zeta_at_half
from .ffpoly import BudgetExceededError, FqPoly
from .lfunc import _half_degree

__all__ = [
    "MomentResult",
    "moment",
    "generating_series",
    "low_half_histogram",
    "residual_table",
    "squarefree_count",
    "zeroth_moment_pair",
]

DEFAULT_OP_BUDGET = 2 * 10**11

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
    method: str

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

    The table route fills one character entry per d and monic m of degree
    <= h (half degree); the reference routes sum over all m below D.
    """
    if method == "reflect":
        return q**D * sum(q**n for n in range(_half_degree(D) + 1))
    return q ** (2 * D - 1)


def _scaled_power(a_list: list[int], q: int, r: int) -> tuple[int, int]:
    """(u + v sqrt q)^r for q^m L(1/2) = u + v sqrt q, m = len(a_list) // 2."""
    u, v = lfunc._central_pair(a_list, q)
    pu, pv = 1, 0
    for _ in range(r):
        pu, pv = pu * u + q * pv * v, pu * v + pv * u
    return pu, pv


def _moment_slab(q: int, r: int, D: int, top: int,
                 method: str) -> tuple[int, int, int]:
    """Exact partial sums (U, V, count) over d with x^(D-1) coefficient = top."""
    sieve = ffpoly.build_sieve(q, max(1, D - 1)) if method == "sieve" else None
    su = sv = count = 0
    span = q ** (D - 1)
    for low in range(span):
        idx = low + top * span
        coeffs = ffpoly.monic_from_index(q, D, idx)
        if not ffpoly._is_squarefree(coeffs, q):
            continue
        count += 1
        if method == "naive":
            a_list = [1] + [
                sum(ffpoly.symbol_raw(coeffs, ffpoly.monic_from_index(q, n, i), q)
                    for i in range(q**n))
                for n in range(1, D)
            ]
        else:
            a_list = lfunc.l_coefficients(FqPoly(coeffs, q), sieve)
        pu, pv = _scaled_power(a_list, q, r)
        su += pu
        sv += pv
    return su, sv, count


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
    """Character data for every monic m of one degree n, shared by all d.

    d mod P is affine in the digits of d.  Each block of d shares its
    digits above x^k, so for every monic irreducible P_j of degree n,
    ``low_residue[lo, j]`` is the index of (d below x^k) mod P_j, and the
    rest of d shifts the lookup table ``table[j, index of d mod P_j] =
    (d/P_j)`` once per block.  Composite m are grouped by the degree e of their
    smallest factor P: ``(e, m columns, P columns at degree e, cofactor
    columns at n - e)``.
    """

    def __init__(self, q: int, D: int, n: int, k: int,
                 sieve: ffpoly.FactorSieve):
        primes = sieve.irreducibles(n)
        self.q = q
        self.n = n
        self.width = q**n
        self.place = q ** np.arange(n, dtype=np.int64)
        self.residues = _digits(np.arange(q**n), q, n)  # by residue index
        powers = np.zeros((D + 1, len(primes), n), dtype=np.int64)  # x^i mod P_j
        self.table = np.empty((len(primes), q**n), dtype=np.int8)
        for j, p in enumerate(primes):
            for i in range(D + 1):
                rem = ffpoly._mod((0,) * i + (1,), p, q)
                powers[i, j, :len(rem)] = rem
            for t in range(q**n):
                res = ffpoly._trim(self.residues[t].tolist())
                self.table[j, t] = ffpoly.symbol_raw(res, p, q)
        self.prime_idx = np.arange(len(primes))
        self.low_residue = np.tensordot(_digits(np.arange(q**k), q, k),
                                        powers[:k], axes=1) % q @ self.place
        self.high = powers[k:D]
        self.offset = powers[D]
        pointers = sieve.factor_pointers(n)
        self.irr_cols = np.array([i for i, ent in enumerate(pointers)
                                  if ent is None], dtype=np.int64)
        groups: dict[int, tuple[list, list, list]] = {}
        for i, ent in enumerate(pointers):
            if ent is not None:
                e, p_idx, _f, k_idx = ent
                cols, p_cols, k_cols = groups.setdefault(e, ([], [], []))
                cols.append(i)
                p_cols.append(sieve.irreducible[e][p_idx])
                k_cols.append(k_idx)
        self.composites = [(e, *(np.array(c, dtype=np.int64) for c in g))
                           for e, g in sorted(groups.items())]

    def row(self, lo: np.ndarray, high_digits: np.ndarray,
            lower: list[np.ndarray]) -> np.ndarray:
        """(d/m) with one row per d of the block and one column per monic m.

        lo holds the block's index offsets, high_digits its digits from x^k
        up, and lower[e] the rows already built for degree e < n.
        """
        shift = np.tensordot(high_digits, self.high, axes=1) + self.offset
        shifted = (self.residues + shift[:, None, :]) % self.q @ self.place
        table = self.table[self.prime_idx[:, None], shifted]
        out = np.empty((len(lo), self.width), dtype=np.int8)
        out[:, self.irr_cols] = table[self.prime_idx, self.low_residue[lo]]
        for e, cols, p_cols, k_cols in self.composites:
            out[:, cols] = lower[e][:, p_cols] * lower[self.n - e][:, k_cols]
        return out


def low_half_histogram(q: int, D: int) -> dict[tuple[int, ...], int]:
    """{(a_0, ..., a_h): number of monic squarefree d of degree D with that low half}.

    h = _half_degree(D); the functional equation (lfunc._reflect_coefficients)
    completes each key to the full L-polynomial coefficient list.
    """
    ffpoly._require_modulus(q)
    if D < 1:
        raise ValueError("need D >= 1")
    h = _half_degree(D)
    k = 0  # digits below x^k vary inside a block of q^k <= BLOCK indices
    while k < D and q ** (k + 1) <= BLOCK:
        k += 1
    sieve = ffpoly.build_sieve(q, max(1, D // 2))
    mask = _squarefree_mask(q, D, sieve)
    assert int(mask.sum()) == squarefree_count(q, D)
    plans = [_DegreePlan(q, D, n, k, sieve) for n in range(1, h + 1)]
    # |a_n| <= q^n, so halves @ weights is injective (a mixed-radix code
    # with digits a_n + q^n in [0, 2 q^n]); equal codes are counted at once
    radix = [2 * q**n + 1 for n in range(h + 1)]
    assert prod(radix) < 2**63
    weights = np.array([prod(radix[:n]) for n in range(h + 1)], dtype=np.int64)
    hist: dict[tuple[int, ...], int] = {}
    for hi, high_digits in enumerate(_digits(np.arange(q ** (D - k)), q, D - k)):
        lo = np.flatnonzero(mask[hi * q**k:(hi + 1) * q**k])
        rows = [np.ones((len(lo), 1), dtype=np.int8)]
        halves = np.ones((len(lo), h + 1), dtype=np.int64)
        for plan in plans:
            rows.append(plan.row(lo, high_digits, rows))
            halves[:, plan.n] = rows[-1].sum(axis=1, dtype=np.int64)
        _, first, counts = np.unique(halves @ weights, return_index=True,
                                     return_counts=True)
        for key, c in zip(halves[first].tolist(), counts.tolist()):
            key = tuple(key)
            hist[key] = hist.get(key, 0) + c
    return hist


def _table_moment(q: int, r: int, D: int) -> tuple[int, int, int]:
    su = sv = count = 0
    for low, mult in low_half_histogram(q, D).items():
        pu, pv = _scaled_power(lfunc._reflect_coefficients(list(low), D, q),
                               q, r)
        su += mult * pu
        sv += mult * pv
        count += mult
    return su, sv, count


def moment(q: int, r: int, D: int, workers: int = 1, method: str = "reflect",
           op_budget: int = DEFAULT_OP_BUDGET) -> MomentResult:
    """Exact moment of order r over monic squarefree d of degree D.

    ``workers`` parallelises the per-d reference routes only; the table
    route runs in this process.
    """
    ffpoly._require_modulus(q)
    if D < 1 or r < 1:
        raise ValueError("need D >= 1 and r >= 1")
    if method not in ("reflect", "sieve", "naive"):
        raise ValueError(f"unknown method {method!r}")
    if _estimated_ops(q, D, method) > op_budget:
        raise BudgetExceededError(
            f"estimated {_estimated_ops(q, D, method)} ops exceeds budget {op_budget}"
        )
    start = time.perf_counter()
    if method == "reflect":
        su, sv, count = _table_moment(q, r, D)
    else:
        tops = list(range(q))
        if workers <= 1 or D == 1:
            parts = [_moment_slab(q, r, D, t, method) for t in tops]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_moment_slab, q, r, D, t, method)
                           for t in tops]
                parts = [f.result() for f in futures]
        su = sum(p[0] for p in parts)
        sv = sum(p[1] for p in parts)
        count = sum(p[2] for p in parts)
    assert count == squarefree_count(q, D)
    den = q ** (r * (D // 2))
    return MomentResult(
        q=q, r=r, D=D,
        a=Fraction(su, den), b=Fraction(sv, den),
        count=count, seconds=time.perf_counter() - start, method=method,
    )


def zeroth_moment_pair(q: int, r: int) -> tuple[Fraction, Fraction]:
    """Exact (1 - sqrt q)^(-r) = a + b sqrt(q): the degree-zero term d = 1."""
    return (zeta_at_half(q) ** r).sqrt_pair()


def generating_series(q: int, r: int, d_max: int, xi: complex,
                      include_zero: bool = True) -> complex:
    """Partial sum over degrees of the moment generating function at xi."""
    out = 0j
    if include_zero:
        a0, b0 = zeroth_moment_pair(q, r)
        out += complex(float(a0) + float(b0) * q**0.5)
    for D in range(1, d_max + 1):
        out += moment(q, r, D).value * xi**D
    return out


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


def default_workers() -> int:
    return min(8, os.cpu_count() or 1)
