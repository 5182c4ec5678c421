"""Predicted secondary-term coefficients for the moment asymptotics.

Two pipelines are implemented on top of the cocycle module:

* the leading coefficient Q1(D, q), from the level-one residue sum turned
  into an r-fold contour integral over circles around 1, with the
  generating-variable coefficient extracted analytically inside the
  integrand (split by the parity of D);

* the first secondary coefficient Q2(D, q), from the level-two residue
  data: weights G1/G2, regularized local Euler factors and the mixed
  Vandermonde kernel in one r-fold contour pass for all four fourth roots
  of unity zeta (each fixes its sign sgn(a) = zeta^2, see ZETA_FOURTH).

Euler products are truncated at a degree cutoff pmax and also return their
running value at pmax // 2.  One log-sum, _euler_products, serves both
levels (see EulerSpec), and every log is _clog1p of the factor minus 1,
built from real ufuncs with no branch.  The level-two product is kept per
sign sgn(a) = zeta^2, which each root reads through ZETA_FOURTH.
The Q1 integrand is symmetric in all r variables and exactly 0 where two
nodes coincide, so Q1 sums it once per strictly increasing tuple of node
indices, C(n, r) of the n^r grid points, in blocks of one largest index;
that r! cancels the 1 / r! of the residue.  The level-two product is
symmetric only in (z_1, z_2, z_3), so Q2 walks the whole grid.
All contour quadrature is the trapezoid rule on circles (spectrally
accurate for these analytic integrands).  Q2 is summed by one accumulator,
_grid_sums, over the grid generator _torus.  The rule on n // 2 nodes per
circle reads the even-index nodes of the n-node grid, so one pass yields
both cutoffs and both grids, for Q1 as for Q2.  The nodes come in exact
conjugate pairs and the walk takes each leading node right before its
conjugate, so Q2, whose integrand has real coefficients, computes only the
slices of leads 0..n / 2 and reads each other slice off its partner,
conjugated with its indices negated.
Both coefficients are reported as a Coefficient record: the value, its
relative imaginary residue (for Q2 only the summation's rounding, since
the mirrored slices make its grid sum real up to the order of the sums;
see README "Numerical notes"), and its relative change from cutoff pmax to
pmax // 2 (the truncation tail) and from the grid to its even-index half
(the refinement delta).  One assembly of Q2, _q2_entries, serves
q2_coefficient and moment_prediction.  Exact q^(1/4)-polynomial
ingredients are computed in K and only embedded to floats at the
quadrature boundary.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, log, prod

import numpy as np

from .cocycle import (de_diagonals, gamma_table_entry, mbar_closed,
                      square_class_sign)
from .exactnum import l_at_half_unit, zeta_at_half
from .ffpoly import _require_modulus, _require_request, irreducible_count

__all__ = [
    "EulerSpec",
    "QuadSpec",
    "euler_product_level_one",
    "euler_product_regularized",
    "regularized_tail_estimate",
    "secondary_weight_functions",
    "q1_coefficient",
    "q1_profile",
    "Coefficient",
    "q2_coefficient",
    "q2_term_profile",
    "moment_prediction",
    "q2_leading_coefficient",
    "regularized_factor_value",
]

#: The fourth roots of unity zeta = i^k, k = 0, 2, 1, 3, each mapped to its
#: sign sgn(a) = zeta^2 (cocycle.square_class_sign).
ZETA_FOURTH = {1j**k: square_class_sign(k) for k in (0, 2, 1, 3)}


def _q2_rank_note(r: int) -> str:
    """'' at the ranks whose prediction has the term Q2, else why not; r = 3
    (the x^(3/4) term of Diaconu and Whitehead) is not admitted yet."""
    return "" if r >= 4 else "outside the r >= 4 range of the moment prediction"


@dataclass(frozen=True)
class EulerSpec:
    """Truncation of products over monic irreducibles at degree pmax.

    Factors are evaluated once per degree, and one log-sum adds count *
    log(factor) over the degrees, with the count of irreducibles of that
    degree, so a generous cutoff costs almost nothing; one exp per product
    and cutoff ends the sum.  The running sum at degree pmax // 2 (0 at
    pmax = 1) is kept on the way; a value's relative change between the two
    is its truncation tail.  A level-two factor is evaluated once per
    (degree, sgn(a)^e), 18 of 4 * 12 at pmax = 12, on top of a
    zeta-independent half evaluated once per degree.  At modulus q the
    cutoff must also keep q^pmax a finite float (check_range), a bound on
    every q^e and irreducible count it uses: pmax <= 441 at q = 5.
    """

    pmax: int = 12

    def __post_init__(self) -> None:
        if self.pmax < 1:
            raise ValueError("pmax must be >= 1")

    def check_range(self, q: int) -> None:
        """Raise ValueError if q^pmax overflows a float."""
        try:
            float(q) ** self.pmax
        except OverflowError:
            top = int(log(sys.float_info.max, q))
            raise ValueError(f"pmax must be <= {top} at q = {q}") from None


@dataclass(frozen=True)
class QuadSpec:
    """Trapezoid rule on circles |z_i - 1| = rho with n_points nodes each."""

    rho: float = 0.1
    n_points: int = 64

    def __post_init__(self) -> None:
        if not 0 < self.rho < 0.5:
            raise ValueError("rho must lie in (0, 0.5)")
        n = self.n_points
        if n < 4 or n & (n - 1):
            raise ValueError("n_points must be a power of two")


#: Fewest nodes per circle of the half grid behind a refinement delta (the
#: even-index nodes of the same pass); below it (n_points < 16) the delta is
#: reported as None.
MIN_REFINE_POINTS = 8


def _relative_change(val: complex, other: complex) -> float:
    """|val - other| / |val|: how far val moves when its grid or its Euler
    cutoff is halved."""
    return abs(val - other) / max(abs(val), 1e-300)


#: The truncation tails of Q1 and Q2: the relative change from the value at
#: Euler cutoff pmax to the one at pmax // 2, both from one grid pass.
level_one_tail_estimate = regularized_tail_estimate = _relative_change


@dataclass(frozen=True)
class Coefficient:
    """A predicted coefficient Q1(D, q) or Q2(D, q) with its error diagnostics.

    note flags a Q1 rank outside the prediction's range; the per-root pieces
    of Q2 are in q2_term_profile.
    """

    q: int
    r: int
    D: int
    value: float
    imag_rel: float
    tail_estimate: float
    refine_delta: float | None
    note: str = ""

    @classmethod
    def of(cls, q: int, r: int, D: int, values, quad: QuadSpec, refine: bool,
           tail_estimate, **extra) -> "Coefficient":
        """The record of a profile entry (lower, val, half); the refinement
        delta is None when refine is off or the half grid has fewer than
        MIN_REFINE_POINTS nodes per circle."""
        lower, val, half = values
        delta = None
        if refine and quad.n_points // 2 >= MIN_REFINE_POINTS:
            delta = _relative_change(val, half)
        return cls(q=q, r=r, D=D, value=val.real,
                   imag_rel=abs(val.imag) / max(abs(val), 1e-300),
                   tail_estimate=tail_estimate(val, lower),
                   refine_delta=delta, **extra)


# ---------------------------------------------------------------------------
# contour helpers


def _circle(n: int, rho: float, center: complex = 1.0):
    """The n trapezoid nodes center + rho e^(2 pi i k / n) and their weights.

    The phases come in exact conjugate pairs: phase n - k is the conjugate
    of phase k, phase 0 is 1 and phase n / 2 is -1.  So on a real center
    node n - k is the conjugate of node k bit for bit, and so is its weight.
    Phase 2k on n nodes is phase k on n // 2 nodes, bit for bit.
    """
    phase = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    phase[n // 2] = -1
    phase = np.concatenate([phase, phase[n // 2 - 1:0:-1].conj()])
    return center + rho * phase, rho * phase / n


def _mirror_order(n: int) -> list[int]:
    """0, 1, n - 1, 2, n - 2, ..., n / 2: every node index once, each k
    outside {0, n / 2} followed by its conjugate partner n - k.  Its even
    entries, halved, are _mirror_order(n // 2)."""
    return [0] + [i for k in range(1, n // 2) for i in (k, n - k)] + [n // 2]


def _torus(r: int, n: int, rho: float, center: complex = 1.0):
    """Walk the r-fold trapezoid grid one slice at a time.

    Yields (w_i, zs, w_rest, half, lead): the last max(r - 1, 1) variables
    of zs are broadcast views of all n nodes and w_rest is the product of
    their weights; the leading variable, if any is left, is node lead with
    weight w_i.  For r = 1 the one slice is (1.0, [nodes], w, half, None).

    The leading index goes in _mirror_order, so on a real center the slice
    of lead n - k comes right after that of lead k, its conjugate: a real-
    coefficient integrand there is conj(f[(-i) % n]) on every broadcast axis
    (q2_term_profile reads it so).

    The n // 2-node rule has the even-index nodes and exactly twice the
    weights, so the walk also covers its half grid: half indexes the
    even-index sub-lattice of the broadcast axes on a slice whose leading
    index is even (every r = 1 slice), and is None otherwise.  The even
    leads come in the order of the n // 2-node walk, so the sum of
    w_i * (f(zs) * w_rest)[half] over those slices, times 2^r, is the
    half-grid integral of f bit for bit where the values agree, since the
    scale is a power of two.
    """
    nodes, w = _circle(n, rho, center)
    k = max(r - 1, 1)
    shapes = [[n if b == a else 1 for b in range(k)] for a in range(k)]
    views = [nodes.reshape(shape) for shape in shapes]
    w_rest = prod([w.reshape(shape) for shape in shapes])
    sub = (slice(None, None, 2),) * k
    if r == 1:
        yield 1.0, views, w_rest, sub, None
        return
    for lead in _mirror_order(n):
        yield (w[lead], [nodes[lead]] + views, w_rest,
               None if lead % 2 else sub, lead)


#: Most grid points n_points^r that one contour sum may walk, and most
#: points n_points^max(r - 1, 1) in one slice of it.  Time grows with the
#: points and memory with the slice (463 MB for Q2 at r = 6 on 16 nodes,
#: 2^20 points per slice; 1.77 GB at r = 12 on 4 nodes, 2^22).  Q1 holds
#: one block of C(n_points - 1, r - 1) <= n_points^(r - 1) points at a time,
#: and its r x C(n_points, r) index tuples.
GRID_BUDGET = 2**24
SLICE_BUDGET = 2**20


def _check_budget(r: int, n: int) -> None:
    if n**r > GRID_BUDGET:
        raise ValueError(f"{n}^{r} grid points exceed the budget of "
                         f"{GRID_BUDGET}")
    k = max(r - 1, 1)
    if n**k > SLICE_BUDGET:
        raise ValueError(f"{n}^{k} points per grid slice exceed the budget "
                         f"of {SLICE_BUDGET}")


def _grid_sums(r: int, quad: QuadSpec, slice_pieces) -> dict:
    """The trapezoid sums of every integrand piece over the r-fold grid.

    slice_pieces(zs, w_rest, lead) gives the pieces of one slice of _torus as
    (key, damp, cores), one core per Euler cutoff (pmax // 2, then pmax);
    cores carry the slice weight w_rest.  Returns {key: (sum at pmax // 2,
    sum at pmax, sum at pmax on the half grid)}, each the sum over slices of
    w_i * (core * damp).sum(), the last over the even-index nodes and scaled
    by 2^r (see _torus).  The walk stops at the first slice that leaves a
    sum non-finite, which no later slice can make finite again.
    """
    n = quad.n_points
    _check_budget(r, n)
    acc = {}
    for w_i, zs, w_rest, half, lead in _torus(r, n, quad.rho):
        for key, damp, cores in slice_pieces(zs, w_rest, lead):
            sums = acc.setdefault(key, [0j, 0j, 0j])
            for k, core in enumerate(cores):
                sums[k] += w_i * (core * damp).sum()
            if half is not None:  # core is the pmax one
                sums[2] += w_i * (core[half] * damp[half]).sum()
        if not np.isfinite(list(acc.values())).all():
            break
    return {key: (lower, val, 2**r * half)
            for key, (lower, val, half) in acc.items()}


def _sign(r: int) -> int:
    """The orientation sign (-1)^(r(r+1)/2) of the r-fold residue integrals."""
    return (-1) ** (r * (r + 1) // 2)


# ---------------------------------------------------------------------------
# level-one Euler data


def _clog1p(z):
    """log(1 + z) for complex z, from real ufuncs and with no branch.

    log|1 + z| is half the log1p of |1 + z|^2 - 1 = re (2 + re) + im^2 and
    the argument is arctan2(im, 1 + re), so a small z keeps its relative
    accuracy (numpy's log1p has no complex loop) and no complex
    transcendental runs.  Near z = -1 the real part has an absolute error
    of ~eps / |1 + z|^2.
    """
    re, im = np.real(z), np.imag(z)
    return 0.5 * np.log1p(re * (2 + re) + im * im) + 1j * np.arctan2(im, 1 + re)


def _grown(u, v):
    """(1 + u)(1 + v) - 1, which stays as accurate as u and v are when both
    are small."""
    return u + v + u * v


def _level_one_log_factor(zs, q, e: int):
    """log A_e, with A_e - 1 grown from small terms only, so the count of
    degree-e irreducibles does not amplify a cancellation.

    With x_i = z_i^e / q^(e/2) and t = q^(-e), A_e is prod_(i<=j) (1 - x_i
    x_j) times (t + C E) / (1 + t): by 1 / (1 - x) = (1 + x) / (1 - x^2),
    the even part of prod 1 / (1 - x_i) is C E, with C = 1 / prod (1 - x_i^2)
    and E = e_0 + e_2 + ... the even elementary symmetric sums.  The
    diagonal pairs cancel C, so A_e = prod_(i<j) (1 - x_i x_j) (1 + ((E - 1)
    + t (1 / C - 1)) / (1 + t)): no division and no branch.
    """
    t = float(q) ** (-e)
    scale = float(q) ** (-0.5 * e)
    x = [scale * z**e for z in zs]
    pairs = diag = 0  # prod_(i<j) (1 - x_i x_j) - 1 and 1 / C - 1
    elem = [1]  # e_0 .. e_k of the variables so far
    for i, xi in enumerate(x):
        for xj in x[:i]:
            pairs = _grown(pairs, -xi * xj)
        diag = _grown(diag, -xi * xi)
        elem = [1] + [elem[k] + xi * elem[k - 1] for k in range(1, len(elem))] \
            + [xi * elem[-1]]
    even = sum(elem[2::2])
    return _clog1p(_grown(pairs, (even + t * diag) / (1 + t)))


def _euler_products(q, pmax: int, n_factors: int, degree_logs):
    """The lists of n_factors products over the monic irreducibles of degree
    <= pmax // 2 and <= pmax, from degree_logs(e), the logs of the degree-e
    factors.  Each factor keeps its own log-sum array: stacking them would
    copy a slice every degree."""
    sums = [0] * n_factors
    lower = sums
    for e in range(1, pmax + 1):
        count = irreducible_count(q, e)
        sums = [s + count * log for s, log in zip(sums, degree_logs(e))]
        if e == pmax // 2:
            lower = sums
    return [np.exp(s) for s in lower], [np.exp(s) for s in sums]


def euler_product_level_one(zs, q, pmax: int):
    """The truncated level-one products (to degree pmax // 2, to degree pmax)."""
    (lower,), (total,) = _euler_products(
        q, pmax, 1, lambda e: [_level_one_log_factor(zs, q, e)])
    return lower, total


# ---------------------------------------------------------------------------
# level-two Euler data


def _shared_factor(xis, q, e: int):
    """The zeta-independent half of the degree-e regularized factor:
    (x, q^e, q^(e/4), pm, pp, corr) with x = [xi^e], pm and pp the products
    of 1 -+ x_i^2 / q^(e/2), and corr the r >= 4 cross factor."""
    r = len(xis)
    x = [v**e for v in xis]
    qe = float(q) ** e
    sq = float(q) ** (0.5 * e)
    pm = prod(1 - v * v / sq for v in x)
    pp = prod(1 + v * v / sq for v in x)
    corr = 1
    for i in range(3):
        for j in range(3, r):
            corr = corr * (1 - x[i] ** 2 * x[j] ** 2 / qe)
            corr = corr * (1 - x[j] ** 2 / (x[i] ** 2 * qe))
    for k in range(3, r):
        for l in range(k, r):
            corr = corr * (1 - x[k] ** 2 * x[l] ** 2 / qe)
    return x, qe, float(q) ** (0.25 * e), pm, pp, corr


def _root_factor(shared, ze, se: int):
    """The degree-e factor from its shared half and ze = zeta^e, se = sgn(a)^e."""
    x, qe, q4, pm, pp, corr = shared
    d1, d2, d3, e1, e2, e3 = de_diagonals(x[0], x[1], x[2], ze, q4)
    t_plus = d1 + d3 + 2 * se * d2
    t_minus = d1 + d3 - 2 * se * d2
    l_one = (e1 * t_plus - e3 * t_minus) / 4
    l_sum = (e1 * t_plus + e3 * t_minus) / 8 + e2 * (d1 - d3) / 4
    l_dif = (e1 * t_plus + e3 * t_minus) / 8 - e2 * (d1 - d3) / 4
    p123 = x[0] * x[1] * x[2]
    last = 1 / (q4**3 * ze * p123)
    raw = (1 - 1 / qe) * (l_one * last + l_sum / pm + l_dif / pp)
    # clear the rank-three residue poles
    a1 = ze * x[1] * x[2] / (q4 * x[0])
    a2 = ze * x[0] * x[2] / (q4 * x[1])
    a3 = ze * x[0] * x[1] / (q4 * x[2])
    avec = (a1, a2, a3)
    r3_inv = 1 - qe * (a1 * a2 * a3) ** 2
    for i in range(3):
        for j in range(i, 3):
            r3_inv = r3_inv * (1 - avec[i] * avec[j])
    return raw * r3_inv * corr


def euler_product_regularized(xis, q, pmax: int) -> tuple[dict, dict]:
    """{sgn(a): truncated regularized product} for the two signs +1, -1:
    to degree pmax // 2, then to degree pmax.  Root zeta reads the product
    of its sign ZETA_FOURTH[zeta].

    A degree-e factor is even in zeta^e: zeta -> -zeta swaps d1 with d3 and
    e1 with e3 and negates d2, e2, last and every a_i, which leaves each term
    unchanged, in floats bit for bit.  So the factor depends on zeta only
    through sgn(a)^e = zeta^(2e): it is evaluated once per sign at odd e and
    once at even e, from a zeta-independent half evaluated once per degree.
    """
    def degree_logs(e):
        shared = _shared_factor(xis, q, e)
        plus = _clog1p(_root_factor(shared, 1 + 0j, 1) - 1)
        return plus, (plus if e % 2 == 0 else
                      _clog1p(_root_factor(shared, 1j**e, -1) - 1))

    lower, total = _euler_products(q, pmax, 2, degree_logs)
    return dict(zip((1, -1), lower)), dict(zip((1, -1), total))


def secondary_weight_functions(zs, zeta, q):
    """The two archimedean weights of the level-two residue (any scalar type)."""
    a_sign = ZETA_FOURTH[zeta]
    sq = float(q) ** 0.5
    q34 = float(q) ** 0.75
    z1, z2, z3 = zs[0], zs[1], zs[2]
    p3 = z1 * z2 * z3
    m = mbar_closed(z1 * z1 / sq, z2 * z2 / sq, z3 * z3 / sq,
                    1 / (q34 * zeta * p3), q, sq)
    s1 = m[0][0] + a_sign * m[0][1] + m[0][2]
    s2 = m[1][0] + a_sign * m[1][1] + m[1][2]
    den = 1 - a_sign * sq * p3 * p3
    trio = (z1, z2, z3)
    for i in range(3):
        for j in range(i, 3):
            den = den * (1 - a_sign * sq * p3 * p3 / (trio[i] ** 2 * trio[j] ** 2))
    return (prod(1 - sq * z * z for z in zs) * s1 / den,
            prod(zs) * s2 / den)


# ---------------------------------------------------------------------------
# Q1


def _q1_kernel(zs):
    """The Q1 kernel: pair Vandermonde factors over order-2r poles at z_i = 1.
    Fresh factors multiply from the left, so numpy's temporary elision on
    large arrays cannot swap a complex multiply's operands (and bits)."""
    r = len(zs)
    out = 1
    for i in range(r):
        for j in range(i + 1, r):
            out = (zs[j] - zs[i]) ** 2 * (1 - zs[i] * zs[j]) * out
    for z in zs:
        out = (1 - z) ** (-2 * r) * z ** (-r) * out
    return out


def _combinations(n: int, r: int):
    """The strictly increasing r-tuples of node indices range(n), as the
    columns of an (r, C(n, r)) array in colex order.

    The r-tuples with largest entry t extend the (r - 1)-tuples within
    range(t), which are the first C(t, r - 1) of their order: columns
    C(t, r) .. C(t + 1, r).  Past r = n there are none.
    """
    dtype = np.min_scalar_type(n - 1)
    sets = np.zeros((0, 1), dtype)  # the one empty tuple
    for k in range(1, r + 1):
        blocks = []
        for t in range(n):
            head = sets[:, :comb(t, k - 1)]
            blocks.append(np.vstack([head, np.full((1, head.shape[1]), t, dtype)]))
        sets = np.concatenate(blocks, axis=1)
    return sets


def _q1_cores(zs, w_rest, q: int, products) -> list:
    """The Q1 integrand at the points zs with weights w_rest, from the
    level-one products A at Euler cutoffs pmax // 2 and pmax: one (base,
    extra) core per cutoff.

    base is A times the kernel times w_rest; extra is base times
    prod (1 - sqrt(q) z), the core of the even degrees.
    """
    sq = q**0.5
    kern = _q1_kernel(zs) * w_rest
    bases = [euler_product * kern for euler_product in products]
    return [(base, prod((1 - sq * z for z in zs), start=base)) for base in bases]


def q1_profile(q: int, r: int, degrees, euler: EulerSpec = EulerSpec(),
               quad: QuadSpec = QuadSpec()
               ) -> dict[int, tuple[complex, complex, complex]]:
    """{D: (Q1 at Euler cutoff pmax // 2, Q1 at pmax, Q1 at pmax on the
    half grid)} for every degree in the list, from one pass.

    The integrand is symmetric in the z_i and exactly 0 where two nodes
    coincide, so the n^r-point trapezoid sum is r! times the sum over the
    strictly increasing node-index tuples (_combinations), and that r!
    cancels the residue's 1 / r!.  Each block of one largest index t (at
    r = 1 all n nodes) forms A, the weights and each damping once.  The
    half grid is 2^r times the sum over the tuples of even indices: those
    of block 2s, halved, are block s of the n // 2-node pass, in order.
    """
    degrees = _require_request(q, r, degrees)
    euler.check_range(q)
    n = quad.n_points
    _check_budget(r, n)
    nodes, w = _circle(n, quad.rho)
    tuples = _combinations(n, r)
    edges = [comb(t, r) for t in range(r - 1, n + 1)] if r > 1 else [0, n]
    sums = {d: [0j, 0j, 0j] for d in degrees}
    for lo, hi in zip(edges, edges[1:]):
        block = tuples[:, lo:hi]
        zs = [nodes[a] for a in block]
        cores = _q1_cores(zs, prod(w[a] for a in block), q,
                          euler_product_level_one(zs, q, euler.pmax))
        even = ~(block % 2).any(axis=0)
        prodz = prod(zs)
        for d in degrees:
            damp = prodz ** (-(d // 2))
            lower, core = [extra if d % 2 == 0 else base for base, extra in cores]
            sums[d][0] += (lower * damp).sum()
            sums[d][1] += (core * damp).sum()
            sums[d][2] += (core[even] * damp[even]).sum()
    pref_even = (1 - 1 / q) * (1 - q**0.5) ** (-r) * _sign(r)
    pref_odd = (1 - 1 / q) * _sign(r)
    return {d: tuple(complex((pref_even if d % 2 == 0 else pref_odd) * v)
                     for v in (lower, val, 2**r * half))
            for d, (lower, val, half) in sums.items()}


def q1_coefficient(q: int, r: int, D: int, euler: EulerSpec = EulerSpec(),
                   quad: QuadSpec = QuadSpec(), refine: bool = True) -> Coefficient:
    """Q1(D, q): the coefficient of q^D in the moment prediction.  refine=False
    (perfbench/make_refs.py passes it) only blanks the refinement delta."""
    return Coefficient.of(q, r, D, q1_profile(q, r, [D], euler, quad)[D], quad,
                          refine, level_one_tail_estimate, note=_q2_rank_note(r))


# ---------------------------------------------------------------------------
# Q2


def _q2_kernel(zs, m):
    """The mixed Vandermonde kernel with the variables split after the m-th.

    Pairs across the split enter to the first power, pairs inside either
    block squared; Q2 splits at m = 3.
    """
    r = len(zs)
    num = 1
    for i in range(r):
        for j in range(i + 1, r):
            e_ij = 1 if (i < m <= j) else 2
            num = num * (zs[i] - zs[j]) ** e_ij * (1 - zs[i] * zs[j])
    for k in range(m):
        for l in range(k, m):
            num = num * (1 - zs[k] * zs[l])
    den = 1
    for z in zs:
        den = den * (1 - z) ** (2 * r) * z**r
    for k in range(m):
        for l in range(m, r):
            den = den * (1 + zs[k] * zs[l])
            den = den * (1 / zs[k] + zs[l] / zs[k] ** 2)
    for k in range(m, r):
        for l in range(k, r):
            den = den * (1 + zs[k] * zs[l])
    return num / den


#: Default contour for the level-two integrals.  The regularized local
#: product converges like (q^(-1/2) (1+rho)^6)^e per degree on the contour
#: torus, so the level-one default rho = 0.1 would need dozens of degrees
#: at q = 5; radius 0.05 keeps the cutoff practical.
Q2_QUAD = QuadSpec(rho=0.05, n_points=64)


def q2_term_profile(q: int, r: int, degrees, euler: EulerSpec = EulerSpec(),
                    quad: QuadSpec = Q2_QUAD) -> dict:
    """{D: {zeta: (piece at Euler cutoff pmax // 2, piece at pmax, piece at
    pmax on the half grid)}} with Q2(D, q) = sum over zeta of zeta^D * piece.

    A piece is norm * ((1 - sqrt q)^(-r) * first + second) from the two
    D-indexed contour integrals of the level-two machinery.  One grid pass
    serves all roots, in ZETA_FOURTH order, degrees, both cutoffs and both
    grids.  Each slice forms the root-independent kernel once and each
    damping power once per degree, shared by the four roots.

    The integrand has real coefficients and its float evaluation commutes
    with conjugation bit for bit, so the cores (the weights times the kernel,
    w_rest and the level-two product) are computed only on the slices of
    leads 0..n / 2.  A slice of lead k is kept for one step, and the slice of
    its partner n - k (next in _torus) reads the core of root zeta as
    conj(core[(-i) % n, ...]) of root conj(zeta), one piece at a time.
    """
    degrees = _require_request(q, r, degrees)
    euler.check_range(q)
    if note := _q2_rank_note(r):
        raise ValueError(f"the level-two coefficient is {note}")
    n = quad.n_points
    axes = tuple(range(r - 1))  # the broadcast axes of a slice
    kept = {}  # lead k: its cores, until the slice of lead n - k

    def mirrored(cores):
        for zeta, j in cores:
            per_cutoff = []
            for core in cores[zeta.conjugate(), j]:
                # index (-i) % n on every axis: reversed, then shifted by one
                image = np.roll(np.flip(core), 1, axis=axes)
                per_cutoff.append(np.conjugate(image, out=image))
            yield (zeta, j), per_cutoff

    def computed(zs, w_rest):
        cutoffs = euler_product_regularized(zs, q, euler.pmax)
        kern = _q2_kernel(zs, 3) * w_rest
        cores = {}
        for zeta, a_sign in ZETA_FOURTH.items():
            g1, g2 = secondary_weight_functions(zs, zeta, q)
            root_kerns = [kern * sregs[a_sign] for sregs in cutoffs]
            cores[zeta, 0] = [g1 * rk for rk in root_kerns]  # first
            cores[zeta, 1] = [g2 * rk for rk in root_kerns]  # second
        return cores

    def pieces(zs, w_rest, lead):
        if lead > n // 2:
            items = mirrored(kept.pop(n - lead))
        else:
            cores = computed(zs, w_rest)
            if 0 < lead < n // 2:
                kept[lead] = cores
            items = cores.items()
        tailprod = prod(zs[3:])
        damps = [tailprod ** (-d) for d in degrees]
        for (zeta, j), per_cutoff in items:
            for d, damp in zip(degrees, damps):
                yield (d, zeta, j), damp, per_cutoff

    sums = _grid_sums(r, quad, pieces)
    sign = _sign(r)
    norm = 1 / (2**5 * 6 * factorial(r - 3))
    return {d: {zeta: tuple(norm * ((1 - q**0.5) ** (-r) * complex(sign * first)
                                    + complex(sign * second))
                            for first, second in zip(sums[d, zeta, 0],
                                                     sums[d, zeta, 1]))
                for zeta in ZETA_FOURTH}
            for d in degrees}


def _q2_entries(by_zeta: dict, D: int) -> list[complex]:
    """Q2 at degree D from one degree of q2_term_profile: the sum over zeta
    of zeta^D * piece, for each of the piece's three entries."""
    return [sum(zeta**D * pieces[k] for zeta, pieces in by_zeta.items())
            for k in range(3)]


def q2_coefficient(q: int, r: int, D: int, euler: EulerSpec = EulerSpec(),
                   quad: QuadSpec = Q2_QUAD, refine: bool = True) -> Coefficient:
    """Q2(D, q): the coefficient of q^(3D/4) in the moment prediction."""
    entries = _q2_entries(q2_term_profile(q, r, [D], euler, quad)[D], D)
    return Coefficient.of(q, r, D, entries, quad, refine,
                          regularized_tail_estimate)


def moment_prediction(q: int, r: int, degrees, n_terms: int = 1,
                      euler: EulerSpec = EulerSpec(),
                      quad: QuadSpec = QuadSpec()) -> dict[int, float]:
    """{D: Q1 q^D}, plus Q2 q^(3D/4) when n_terms = 2: the predicted moment.

    Q1 and Q2 are the values q1_coefficient and q2_coefficient report, from
    the same profile entries; Q2 runs on the level-two radius Q2_QUAD.rho
    with quad's node count.
    """
    if n_terms not in (1, 2):
        raise ValueError("the prediction has N = 1 or N = 2 terms")
    degrees = _require_request(q, r, degrees)
    if n_terms == 2 and (note := _q2_rank_note(r)):  # before the Q1 grid pass
        raise ValueError(f"the second term (N = 2) is {note}")
    q1 = q1_profile(q, r, degrees, euler, quad)
    preds = {D: q1[D][1].real * q**D for D in degrees}
    if n_terms == 2:
        quad2 = QuadSpec(rho=Q2_QUAD.rho, n_points=quad.n_points)
        for D, by_zeta in q2_term_profile(q, r, degrees, euler, quad2).items():
            preds[D] += _q2_entries(by_zeta, D)[1].real * q ** (0.75 * D)
    return preds


def _factorial_ratio(r: int) -> Fraction:
    return Fraction(prod(factorial(k) for k in range(r - 3)),
                    prod(factorial(2 * j - 1) for j in range(4, r + 1)))


def q2_leading_coefficient(q: int, r: int, euler: EulerSpec = EulerSpec()
                           ) -> dict[str, complex]:
    """Leading D-coefficient data of Q2(D, q), from the closed formula.

    Returns the per-root-of-unity pieces keyed "zeta^k" plus the two
    parity-class combinations of the real pair (keys "even" and "odd");
    the full periodic leading term at degree D is
    sum_k (i^k)^D * piece[k].
    """
    _require_modulus(q)
    euler.check_range(q)
    if note := _q2_rank_note(r):
        raise ValueError(f"the closed-form Q2 is {note}")
    front = float(Fraction(2) ** (19 - 7 * r) * _factorial_ratio(r))
    zeta_half_7 = zeta_at_half(q) ** 7
    l_half_7 = l_at_half_unit(q) ** 7
    eul = {}
    for sgn in (1, -1):  # the central product depends on zeta only through sgn(a)
        eul[sgn] = 1.0
        for e in range(1, euler.pmax + 1):
            eul[sgn] *= regularized_factor_value(
                r, (sgn**e) * float(q) ** (-0.5 * e)) ** irreducible_count(q, e)
    out: dict[str, complex] = {}
    for k in range(4):
        sgn = square_class_sign(k)
        arch = (zeta_half_7 if sgn == 1 else l_half_7).embed()
        out[f"zeta^{k}"] = front * gamma_table_entry(k, q).embed() * arch * eul[sgn]
    out["even"] = out["zeta^0"] + out["zeta^2"]
    out["odd"] = out["zeta^0"] - out["zeta^2"]
    return out


# ---------------------------------------------------------------------------
# closed-form constants


def regularized_factor_value(r: int, t):
    """The central regularized local polynomial at t, for |t| < 1.

    Only ring operations, integer powers and Fraction(1, 2) act on t, so it
    evaluates on floats and on ring types alike, such as the tests' power
    series in t.
    """
    bracket = (t + t**2) * (t + 6 * t**2 + t**3) \
        + Fraction(1, 2) * (1 + t) ** (4 - r) \
        + Fraction(1, 2) * (1 - t) ** (-r) * (1 + 10 * t + 20 * t**2 + 10 * t**3 + t**4)
    return (1 - t) ** ((r * r + 7 * r - 14) // 2) \
        * (1 + t) ** ((r * r + 7 * r - 28) // 2) * bracket
