"""Process-pool worker for the exhaustive functional-equation sweep."""

from __future__ import annotations

import random

from qlmoments import ffpoly, lfunc
from qlmoments.ffpoly import FqPoly, monic_from_index

import oracles

_SIEVES: dict[int, ffpoly.FactorSieve] = {}


def fe_chunk_worst(q: int, deg: int, start: int, stop: int,
                   samples: int, seed: int) -> float:
    """Worst scaled residual over squarefree monic d with index in [start, stop)."""
    sieve = _SIEVES.get(q)
    if sieve is None or sieve.max_deg < max(1, deg - 1):
        sieve = ffpoly.build_sieve(q, max(1, deg - 1))
        _SIEVES[q] = sieve
    rng = random.Random(seed)
    worst = 0.0
    for idx in range(start, stop):
        coeffs = monic_from_index(q, deg, idx)
        if not ffpoly._is_squarefree(coeffs, q):
            continue
        d = FqPoly(coeffs, q)
        cl = lfunc.l_coefficients(d, sieve)
        for _ in range(samples):
            s = complex(rng.uniform(-1, 2), rng.uniform(-3, 3))
            resid = oracles.functional_equation_residual(d, s, coeffs=cl)
            scale = 1 + abs(oracles.l_eval(d, s, coeffs=cl))
            worst = max(worst, abs(resid) / scale)
    return worst
