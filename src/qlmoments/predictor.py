"""Predicted secondary-term coefficients for the moment asymptotics.

Two pipelines are implemented on top of the cocycle module:

* the leading coefficient Q1(D, q), from the level-one residue sum turned
  into an r-fold contour integral over circles around 1, with the
  generating-variable coefficient extracted analytically inside the
  integrand (split by the parity of D);

* the first secondary coefficient Q2(D, q), from the level-two residue
  data: the closed-form weight functions G1/G2, the regularized local
  Euler factors, and the r-fold contour integral with the mixed
  Vandermonde kernel.

Euler products are truncated at a degree cutoff; each truncation carries a
reported tail estimate.  All contour quadrature is the trapezoid rule on
circles (spectrally accurate for these analytic integrands); every
reported integral can be re-run at half resolution to get a refinement
delta.  Exact q^(1/4)-polynomial ingredients are computed in K and only
embedded to floats at the quadrature boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .cocycle import de_diagonals, gamma_table_entry, mbar_closed
from .exactnum import l_at_half_unit, zeta_at_half
from .ffpoly import _require_modulus, irreducible_count

__all__ = [
    "EulerSpec",
    "QuadSpec",
    "level_one_local_factor",
    "euler_product_level_one",
    "big_g",
    "local_moment_factor",
    "r_p_3",
    "regularized_local_factor",
    "euler_product_regularized",
    "regularized_tail_estimate",
    "secondary_weight_functions",
    "q1_coefficient",
    "q1_profile",
    "Q1Result",
    "q2_coefficient",
    "q2_profile",
    "q2_term_profile",
    "moment_prediction",
    "q2_leading_coefficient",
    "Q2Result",
    "regularized_factor_value",
    "regularized_factor_series",
    "rank3_local_poly",
    "rank3_local_poly_x1_coeffs",
    "binomial_determinant",
    "vandermonde_core_integral",
    "symmetric_pair_sum",
    "symmetric_pair_integral",
    "permuted_kernel_sum",
    "permuted_kernel_integral",
]

ZETA_FOURTH = (1 + 0j, -1 + 0j, 1j, -1j)


@dataclass(frozen=True)
class EulerSpec:
    """Truncation of products over monic irreducibles at degree pmax.

    Factors are evaluated once per degree and raised to the count of
    irreducibles of that degree, so a generous cutoff costs almost nothing.
    """

    pmax: int = 12

    def __post_init__(self) -> None:
        if self.pmax < 1:
            raise ValueError("pmax must be >= 1")


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


#: Fewest nodes per circle of the half grid behind a refinement delta; below
#: it (n_points < 16) the delta is reported as None.
MIN_REFINE_POINTS = 8


# ---------------------------------------------------------------------------
# contour helpers


def _circle(n: int, rho: float, center: complex = 1.0):
    phase = np.exp(2j * np.pi * np.arange(n) / n)
    return center + rho * phase, rho * phase / n


def _rest_views(nodes: np.ndarray, r: int) -> list[np.ndarray]:
    views = []
    for a in range(r - 1):
        shape = [1] * (r - 1)
        shape[a] = nodes.size
        views.append(nodes.reshape(shape))
    return views


def _rest_weight(w: np.ndarray, r: int) -> np.ndarray:
    out = np.ones((1,) * max(r - 1, 1), dtype=complex)
    for a in range(r - 1):
        shape = [1] * (r - 1)
        shape[a] = w.size
        out = out * w.reshape(shape)
    return out


def contour_integral(fn, r: int, rho: float, n: int, center: complex = 1.0) -> complex:
    """(1/(2 pi i))^r times the iterated contour integral of fn over r circles."""
    nodes, w = _circle(n, rho, center)
    if r == 1:
        return complex((fn([nodes]) * w).sum())
    rest = _rest_views(nodes, r)
    w_rest = _rest_weight(w, r)
    total = 0j
    for i in range(n):
        vals = fn([nodes[i]] + rest)
        total += w[i] * (vals * w_rest).sum()
    return complex(total)


# ---------------------------------------------------------------------------
# level-one Euler data


def level_one_local_factor(zs, q, e: int):
    """Local correction factor at an irreducible of degree e (any scalar type)."""
    r = len(zs)
    qe = float(q) ** e
    xe = [z**e for z in zs]
    pairs = 1
    for i in range(r):
        for j in range(i, r):
            pairs = pairs * (1 - xe[i] * xe[j] / qe)
    scale = float(q) ** (-0.5 * e)
    pm = 1
    pp = 1
    for x in xe:
        pm = pm * (1 - scale * x)
        pp = pp * (1 + scale * x)
    bump = 1 + (-2 + 1 / pm + 1 / pp) / (2 * (1 + 1 / qe))
    return pairs * bump


def _clog1p(z):
    """log(1 + z) accurate for small complex z (numpy log1p lacks complex)."""
    za = np.asarray(z)
    small = np.abs(za) < 1e-3
    zz = za * za
    series = za - zz / 2 + zz * za / 3 - zz * zz / 4
    direct = np.log(np.where(small, 1.0, 1.0 + za))
    return np.where(small, series, direct)


def _level_one_log_factor(zs, q, e: int):
    """log A_e without forming A_e - 1, so the e-th factor can be raised to
    the huge count of degree-e irreducibles without amplifying roundoff."""
    r = len(zs)
    qe_inv = float(q) ** (-e)
    scale = float(q) ** (-0.5 * e)
    x = [scale * z**e for z in zs]
    log_pairs = 0
    xmax = 0.0
    for i in range(r):
        for j in range(i, r):
            log_pairs = log_pairs + _clog1p(-x[i] * x[j])
        xmax = max(xmax, float(np.max(np.abs(np.asarray(x[i])))))
    if xmax > 0.01:
        # the -2 cancellation costs ~2e-16 absolute, harmless while the
        # degree count stays below ~1e7; the series below takes over before
        # count * roundoff can matter and is cheap there (few terms)
        pm = 1
        pp = 1
        for v in x:
            pm = pm * (1 - v)
            pp = pp * (1 + v)
        bump = (-2 + 1 / pm + 1 / pp) / (2 * (1 + qe_inv))
    else:
        # even complete homogeneous sums via Newton's identities
        terms = 2
        while xmax > 0 and xmax**terms * (terms + 1) ** (r - 1) > 1e-20:
            terms += 2
            if terms > 40:
                break
        powers = []
        running = list(x)
        for _ in range(terms):
            powers.append(sum(running))
            running = [v * w for v, w in zip(running, x)]
        h = [1]
        for m in range(1, terms + 1):
            acc = 0
            for j in range(1, m + 1):
                acc = acc + powers[j - 1] * h[m - j]
            h.append(acc / m)
        bump = sum(h[m] for m in range(2, terms + 1, 2)) / (1 + qe_inv)
    return log_pairs + _clog1p(bump)


def euler_product_level_one(zs, q, pmax: int):
    log_total = 0
    for e in range(1, pmax + 1):
        log_total = log_total + irreducible_count(q, e) * _level_one_log_factor(zs, q, e)
    return np.exp(log_total)


def _tail_sum(factor_minus_one, q: int, pmax: int, probes: int = 24,
              floor: float = 1e-13) -> float:
    """Sum counts(e) * |factor(e) - 1| past the cutoff, with a geometric top-up.

    Stops once the per-degree deviation reaches the evaluation's noise
    floor (beyond which the huge irreducible counts would only amplify
    noise) and extrapolates the remaining tail from the last ratio.
    """
    tail = 0.0
    prev = None
    for e in range(pmax + 1, pmax + probes + 1):
        dev = abs(factor_minus_one(e))
        if dev < floor:
            break
        term = irreducible_count(q, e) * dev
        tail += term
        if prev is not None and term < prev:
            ratio = term / prev
            if e == pmax + probes or dev < 3 * floor:
                tail += term * ratio / (1 - ratio)
                break
        prev = term
    return float(tail)


def level_one_tail_estimate(q: int, r: int, pmax: int,
                            radius: float = 1.1) -> float:
    """Truncation tail of the level-one product, probed at |xi_k| = radius."""
    probe = [radius] * r
    return _tail_sum(
        lambda e: _level_one_log_factor(probe, q, e), q, pmax, floor=1e-19)


def big_g(xis, q, pmax: int):
    """The corrected pair-pole product times the convergent local product."""
    r = len(xis)
    head = 1
    for i in range(r):
        for j in range(i, r):
            head = head / (1 - xis[i] * xis[j])
    return head * euler_product_level_one(xis, q, pmax)


def local_moment_factor(xis, q, e: int):
    """The raw local factor whose product over irreducibles big_g regularizes."""
    qe = float(q) ** e
    scale = float(q) ** (-0.5 * e)
    pm = 1
    pp = 1
    for x in xis:
        pm = pm * (1 - scale * x**e)
        pp = pp * (1 + scale * x**e)
    return (1 - 1 / qe) * (1 / qe + (1 / pm + 1 / pp) / 2)


# ---------------------------------------------------------------------------
# level-two Euler data


def r_p_3(z1, z2, z3, q):
    """Local factor of the modified level-one residue in three variables."""
    out = 1 / (1 - q * (z1 * z2 * z3) ** 2)
    zs = (z1, z2, z3)
    for i in range(3):
        for j in range(i, 3):
            out = out / (1 - zs[i] * zs[j])
    return out


def regularized_local_factor(xis, zeta, a_sign: int, q, e: int):
    """S_p^reg at an irreducible of degree e; equals 1 + O(|p|^(-3/2)).

    The substitution for general p raises every variable (including zeta)
    to the e-th power and replaces q by q^e.
    """
    r = len(xis)
    x = [v**e for v in xis]
    ze = zeta**e
    se = a_sign**e
    qe = float(q) ** e
    q4 = float(q) ** (0.25 * e)
    sq = float(q) ** (0.5 * e)
    d1, d2, d3, e1, e2, e3 = de_diagonals(x[0], x[1], x[2], ze, q4)
    t_plus = d1 + d3 + 2 * se * d2
    t_minus = d1 + d3 - 2 * se * d2
    l_one = (e1 * t_plus - e3 * t_minus) / 4
    l_sum = (e1 * t_plus + e3 * t_minus) / 8 + e2 * (d1 - d3) / 4
    l_dif = (e1 * t_plus + e3 * t_minus) / 8 - e2 * (d1 - d3) / 4
    p123 = x[0] * x[1] * x[2]
    last = 1 / (q4**3 * ze * p123)
    pm = 1
    pp = 1
    for v in x:
        pm = pm * (1 - v * v / sq)
        pp = pp * (1 + v * v / sq)
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
    corr = 1
    for i in range(3):
        for j in range(3, r):
            corr = corr * (1 - x[i] ** 2 * x[j] ** 2 / qe)
            corr = corr * (1 - x[j] ** 2 / (x[i] ** 2 * qe))
    for k in range(3, r):
        for l in range(k, r):
            corr = corr * (1 - x[k] ** 2 * x[l] ** 2 / qe)
    return raw * r3_inv * corr


def euler_product_regularized(xis, zeta, a_sign: int, q, pmax: int):
    out = 1
    for e in range(1, pmax + 1):
        out = out * regularized_local_factor(
            xis, zeta, a_sign, q, e) ** irreducible_count(q, e)
    return out


def regularized_tail_estimate(q: int, r: int, a_sign: int, pmax: int,
                              radius: float = 1.1) -> float:
    """Truncation tail of the regularized product, probed at |xi_k| = radius."""
    probe = [radius] * r

    def dev(e: int):
        return regularized_local_factor(probe, 1 + 0j, a_sign, q, e) - 1

    return _tail_sum(dev, q, pmax)


def secondary_weight_functions(zs, zeta, a_sign: int, q):
    """The two archimedean weights of the level-two residue (any scalar type)."""
    r = len(zs)
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
    num1 = 1
    prod_all = 1
    for z in zs:
        num1 = num1 * (1 - sq * z * z)
        prod_all = prod_all * z
    return num1 * s1 / den, prod_all * s2 / den


# ---------------------------------------------------------------------------
# Q1


@dataclass(frozen=True)
class Q1Result:
    q: int
    r: int
    D: int
    value: float
    imag_rel: float
    tail_estimate: float
    refine_delta: float | None
    note: str = ""


def _q1_kernel(zs, q, r):
    out = 1
    for i in range(r):
        for j in range(i + 1, r):
            out = out * (zs[j] - zs[i]) ** 2 * (1 - zs[i] * zs[j])
    for z in zs:
        out = out * (1 - z) ** (-2 * r) * z ** (-r)
    return out


def q1_profile(q: int, r: int, degrees, euler: EulerSpec = EulerSpec(),
               quad: QuadSpec = QuadSpec()) -> dict[int, complex]:
    """Q1(D, q) for every degree in the list, sharing one grid pass."""
    _require_modulus(q)
    if r < 1:
        raise ValueError("need r >= 1")
    degrees = sorted(set(degrees))
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be >= 1")
    n, rho = quad.n_points, quad.rho
    nodes, w = _circle(n, rho)
    sq = q**0.5
    sign = (-1) ** (r * (r + 1) // 2)
    acc = {d: 0j for d in degrees}
    if r == 1:
        zlist = [nodes]
        kern = _q1_kernel(zlist, q, r)
        a_val = euler_product_level_one(zlist, q, euler.pmax)
        extra = 1 - sq * nodes
        prodz = nodes
        for d in degrees:
            if d % 2 == 0:
                acc[d] = ((extra * a_val * kern) * prodz ** (-(d // 2)) * w).sum()
            else:
                acc[d] = ((a_val * kern) * prodz ** (-((d - 1) // 2)) * w).sum()
    else:
        rest = _rest_views(nodes, r)
        w_rest = _rest_weight(w, r)
        for i in range(n):
            zlist = [nodes[i]] + rest
            kern = _q1_kernel(zlist, q, r) * w_rest
            a_val = euler_product_level_one(zlist, q, euler.pmax)
            base = a_val * kern
            extra = base
            for z in zlist:
                extra = extra * (1 - sq * z)
            prodz = zlist[0]
            for z in zlist[1:]:
                prodz = prodz * z
            for d in degrees:
                if d % 2 == 0:
                    acc[d] += w[i] * (extra * prodz ** (-(d // 2))).sum()
                else:
                    acc[d] += w[i] * (base * prodz ** (-((d - 1) // 2))).sum()
    pref_even = (1 - 1 / q) * (1 - sq) ** (-r) * sign / factorial(r)
    pref_odd = (1 - 1 / q) * sign / factorial(r)
    return {
        d: complex((pref_even if d % 2 == 0 else pref_odd) * acc[d])
        for d in degrees
    }


def q1_coefficient(q: int, r: int, D: int, euler: EulerSpec = EulerSpec(),
                   quad: QuadSpec = QuadSpec(), refine: bool = True) -> Q1Result:
    val = q1_profile(q, r, [D], euler, quad)[D]
    delta = None
    if refine and quad.n_points // 2 >= MIN_REFINE_POINTS:
        half_quad = QuadSpec(rho=quad.rho, n_points=quad.n_points // 2)
        coarse = q1_profile(q, r, [D], euler, half_quad)[D]
        delta = abs(val - coarse) / max(abs(val), 1e-300)
    note = "" if r >= 4 else "outside the r >= 4 range of the moment prediction"
    return Q1Result(
        q=q, r=r, D=D, value=val.real,
        imag_rel=abs(val.imag) / max(abs(val), 1e-300),
        tail_estimate=level_one_tail_estimate(q, r, euler.pmax),
        refine_delta=delta, note=note,
    )


def q1_coefficient_circle(q: int, r: int, D: int,
                          euler: EulerSpec = EulerSpec(),
                          quad: QuadSpec = QuadSpec(),
                          n_xi: int = 32) -> complex:
    """Q1 via a numeric circle in the generating variable (cross-check route).

    Integrates the level-one principal part over |xi| = q^(-2) instead of
    extracting the coefficient analytically; much slower, used in tests.
    """
    n, rho = quad.n_points, quad.rho
    nodes, w = _circle(n, rho)
    rest = _rest_views(nodes, r)
    w_rest = _rest_weight(w, r)
    sq = q**0.5
    sign = (-1) ** (r * (r + 1) // 2)
    xi_nodes, xi_w = _circle(n_xi, q ** (-2.0), center=0.0)
    out = 0j
    for i in range(n):
        zlist = [nodes[i]] + rest
        kern = _q1_kernel(zlist, q, r) * w_rest
        a_val = euler_product_level_one(zlist, q, euler.pmax)
        prodz = zlist[0]
        for z in zlist[1:]:
            prodz = prodz * z
        extra = a_val * kern
        for z in zlist:
            extra = extra * (1 - sq * z)
        base = a_val * kern
        for xi, wx in zip(xi_nodes, xi_w):
            pole = 1 / (1 - q**2 * xi**2 / prodz)
            piece = ((1 - sq) ** (-r)) * extra * pole + q * xi * base * pole
            out += wx * xi ** (-D - 1) * w[i] * piece.sum()
    return (1 - 1 / q) * sign / factorial(r) * out * q ** (-D)


# ---------------------------------------------------------------------------
# Q2


@dataclass(frozen=True)
class Q2Result:
    q: int
    r: int
    D: int
    value: float
    imag_rel: float
    tail_estimate: float
    refine_delta: float | None
    by_zeta: dict = field(default_factory=dict)


def _q2_kernel(zs, r):
    num = 1
    for i in range(r):
        for j in range(i + 1, r):
            e_ij = 1 if (i < 3 <= j) else 2
            num = num * (zs[i] - zs[j]) ** e_ij * (1 - zs[i] * zs[j])
    for k in range(3):
        for l in range(k, 3):
            num = num * (1 - zs[k] * zs[l])
    den = 1
    for z in zs:
        den = den * (1 - z) ** (2 * r) * z**r
    for k in range(3):
        for l in range(3, r):
            den = den * (1 + zs[k] * zs[l])
            den = den * (1 / zs[k] + zs[l] / zs[k] ** 2)
    for k in range(3, r):
        for l in range(k, r):
            den = den * (1 + zs[k] * zs[l])
    return num / den


#: Default contour for the level-two integrals.  The regularized local
#: product converges like (q^(-1/2) (1+rho)^6)^e per degree on the contour
#: torus, so the level-one default rho = 0.1 would need dozens of degrees
#: at q = 5; radius 0.05 keeps the cutoff practical.
Q2_QUAD = QuadSpec(rho=0.05, n_points=64)


def q2_term_profile(q: int, r: int, degrees, zeta: complex,
                    euler: EulerSpec = EulerSpec(),
                    quad: QuadSpec = Q2_QUAD) -> dict[int, tuple[complex, complex]]:
    """The two D-indexed contour integrals of the level-two machinery.

    Returns {D: (first, second)} for one fourth root of unity zeta; the
    grid pass is shared across all degrees.
    """
    _require_modulus(q)
    if r < 4:
        raise ValueError("the level-two coefficient needs r >= 4")
    degrees = sorted(set(degrees))
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be >= 1")
    a_sign = 1 if (zeta**2).real > 0 else -1
    n, rho = quad.n_points, quad.rho
    nodes, w = _circle(n, rho)
    rest = _rest_views(nodes, r)
    w_rest = _rest_weight(w, r)
    sign = (-1) ** (r * (r + 1) // 2)
    acc = {d: [0j, 0j] for d in degrees}
    for i in range(n):
        zlist = [nodes[i]] + rest
        g1, g2 = secondary_weight_functions(zlist, zeta, a_sign, q)
        sreg = euler_product_regularized(zlist, zeta, a_sign, q, euler.pmax)
        kern = _q2_kernel(zlist, r) * w_rest * sreg
        core1 = g1 * kern
        core2 = g2 * kern
        tailprod = zlist[3]
        for z in zlist[4:]:
            tailprod = tailprod * z
        for d in degrees:
            damp = tailprod ** (-d)
            acc[d][0] += w[i] * (core1 * damp).sum()
            acc[d][1] += w[i] * (core2 * damp).sum()
    return {d: (complex(sign * acc[d][0]), complex(sign * acc[d][1]))
            for d in degrees}


def q2_profile(q: int, r: int, degrees, euler: EulerSpec = EulerSpec(),
               quad: QuadSpec = Q2_QUAD) -> dict[int, dict[complex, complex]]:
    """{D: {zeta: piece}} with Q2(D, q) = sum over zeta of zeta^D * piece.

    One q2_term_profile grid pass per fourth root of unity zeta, shared
    across all degrees; the pieces come in ZETA_FOURTH order.
    """
    profiles = {zeta: q2_term_profile(q, r, degrees, zeta, euler, quad)
                for zeta in ZETA_FOURTH}
    norm = 1 / (2**5 * 6 * factorial(r - 3))
    return {
        D: {zeta: norm * ((1 - q**0.5) ** (-r) * prof[D][0] + prof[D][1])
            for zeta, prof in profiles.items()}
        for D in sorted(set(degrees))
    }


def q2_coefficient(q: int, r: int, D: int, euler: EulerSpec = EulerSpec(),
                   quad: QuadSpec = Q2_QUAD, refine: bool = True) -> Q2Result:
    """Q2(D, q): the coefficient of q^(3D/4) in the moment prediction."""

    def assemble(spec: QuadSpec) -> tuple[complex, dict]:
        by_zeta = q2_profile(q, r, [D], euler, spec)[D]
        return sum(zeta**D * piece for zeta, piece in by_zeta.items()), by_zeta

    val, by_zeta = assemble(quad)
    delta = None
    if refine and quad.n_points // 2 >= MIN_REFINE_POINTS:
        coarse, _ = assemble(QuadSpec(rho=quad.rho, n_points=quad.n_points // 2))
        delta = abs(val - coarse) / max(abs(val), 1e-300)
    tail = max(regularized_tail_estimate(q, r, s, euler.pmax) for s in (1, -1))
    return Q2Result(
        q=q, r=r, D=D, value=val.real,
        imag_rel=abs(val.imag) / max(abs(val), 1e-300),
        tail_estimate=tail, refine_delta=delta, by_zeta=by_zeta,
    )


def moment_prediction(q: int, r: int, degrees, n_terms: int = 1,
                      euler: EulerSpec = EulerSpec(),
                      quad: QuadSpec = QuadSpec()) -> dict[int, float]:
    """{D: Q1 q^D}, plus Q2 q^(3D/4) when n_terms = 2: the predicted moment.

    Q2 runs on the level-two radius Q2_QUAD.rho with quad's node count, and
    the real part of each zeta piece is added in ZETA_FOURTH order.
    """
    if n_terms not in (1, 2):
        raise ValueError("the prediction has N = 1 or N = 2 terms")
    if n_terms == 2 and r < 4:  # fail before the Q1 grid pass, not after
        raise ValueError("the second term (N = 2) needs r >= 4")
    q1 = q1_profile(q, r, degrees, euler, quad)
    preds = {D: q1[D].real * q**D for D in degrees}
    if n_terms == 2:
        quad2 = QuadSpec(rho=Q2_QUAD.rho, n_points=quad.n_points)
        for D, pieces in q2_profile(q, r, degrees, euler, quad2).items():
            for zeta, piece in pieces.items():
                preds[D] += (zeta**D * piece).real * q ** (0.75 * D)
    return preds


def _factorial_ratio(r: int) -> Fraction:
    num = 1
    for k in range(0, r - 3):
        num *= factorial(k)
    den = 1
    for j in range(4, r + 1):
        den *= factorial(2 * j - 1)
    return Fraction(num, den)


def q2_leading_coefficient(q: int, r: int, euler: EulerSpec = EulerSpec()
                           ) -> dict[str, complex]:
    """Leading D-coefficient data of Q2(D, q), from the closed formula.

    Returns the per-root-of-unity pieces keyed "zeta^k" plus the two
    parity-class combinations of the real pair (keys "even" and "odd");
    the full periodic leading term at degree D is
    sum_k (i^k)^D * piece[k].
    """
    _require_modulus(q)
    if r < 4:
        raise ValueError("needs r >= 4")
    front = float(Fraction(2) ** (19 - 7 * r) * _factorial_ratio(r))
    zeta_half_7 = zeta_at_half(q) ** 7
    l_half_7 = l_at_half_unit(q) ** 7
    out: dict[str, complex] = {}
    pieces = []
    for k in range(4):
        table = gamma_table_entry(k, q).embed()
        sgn = 1 if k % 2 == 0 else -1
        arch = (zeta_half_7 if sgn == 1 else l_half_7).embed()
        eul = 1.0
        for e in range(1, euler.pmax + 1):
            eul *= regularized_factor_value(
                r, (sgn**e) * float(q) ** (-0.5 * e)) ** irreducible_count(q, e)
        piece = front * table * arch * eul
        pieces.append(piece)
        out[f"zeta^{k}"] = piece
    out["even"] = pieces[0] + pieces[2]
    out["odd"] = pieces[0] - pieces[2]
    return out


# ---------------------------------------------------------------------------
# closed-form series and constants


class _Series:
    """Truncated power series with Fraction coefficients."""

    __slots__ = ("c", "n")

    def __init__(self, coeffs, n: int):
        c = [Fraction(v) for v in coeffs[:n]]
        c += [Fraction(0)] * (n - len(c))
        self.c = c
        self.n = n

    @classmethod
    def var(cls, n: int) -> "_Series":
        return cls([0, 1], n)

    def __add__(self, other):
        o = other if isinstance(other, _Series) else _Series([other], self.n)
        return _Series([a + b for a, b in zip(self.c, o.c)], self.n)

    __radd__ = __add__

    def __neg__(self):
        return _Series([-a for a in self.c], self.n)

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Series) else _Series([-Fraction(other)], self.n))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, _Series):
            return _Series([a * Fraction(other) for a in self.c], self.n)
        out = [Fraction(0)] * self.n
        for i, a in enumerate(self.c):
            if a:
                for j in range(self.n - i):
                    b = other.c[j]
                    if b:
                        out[i + j] += a * b
        return _Series(out, self.n)

    __rmul__ = __mul__

    def inverse(self) -> "_Series":
        if self.c[0] == 0:
            raise ZeroDivisionError("series has no inverse")
        inv0 = 1 / self.c[0]
        out = [inv0] + [Fraction(0)] * (self.n - 1)
        for k in range(1, self.n):
            s = Fraction(0)
            for j in range(1, k + 1):
                s += self.c[j] * out[k - j]
            out[k] = -inv0 * s
        return _Series(out, self.n)

    def __pow__(self, m: int) -> "_Series":
        if m < 0:
            return self.inverse() ** (-m)
        out = _Series([1], self.n)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out


def regularized_factor_series(r: int, n_terms: int = 8) -> list[Fraction]:
    """Exact expansion of the central regularized local polynomial in t."""
    if r < 3:
        raise ValueError("needs r >= 3")
    t = _Series.var(n_terms)
    bracket = (t + t**2) * (t + 6 * t**2 + t**3) \
        + Fraction(1, 2) * (1 + t) ** (4 - r) \
        + Fraction(1, 2) * (1 - t) ** (-r) * (1 + 10 * t + 20 * t**2 + 10 * t**3 + t**4)
    full = (1 - t) ** ((r * r + 7 * r - 14) // 2) \
        * (1 + t) ** ((r * r + 7 * r - 28) // 2) * bracket
    return full.c


def regularized_factor_value(r: int, t: float) -> float:
    """Numeric evaluation of the same closed product, for |t| < 1."""
    bracket = (t + t**2) * (t + 6 * t**2 + t**3) \
        + 0.5 * (1 + t) ** (4 - r) \
        + 0.5 * (1 - t) ** (-r) * (1 + 10 * t + 20 * t**2 + 10 * t**3 + t**4)
    return (1 - t) ** ((r * r + 7 * r - 14) // 2) \
        * (1 + t) ** ((r * r + 7 * r - 28) // 2) * bracket


def rank3_local_poly(x, y):
    """The two-variable local polynomial of the rank-three specialization.

    y may be a scalar or a truncated series; x must be an invertible scalar.
    """
    xi = x**-1
    s = x + xi
    bracket = (
        1 + s * y + s**2 * y**2 - 4 * s * y**3 - 5 * s**2 * y**4
        + (s * (3 * x + xi) * (x + 3 * xi)) * y**5
        - (s * (7 + 3 * x**2 + 3 * xi**2)) * y**7
        + (8 + 5 * x**2 + 5 * xi**2) * y**8
        - s * y**9 - y**10
    )
    return (1 - y**2) * (1 - x * y) * (1 - xi * y) * bracket


def rank3_local_poly_x1_coeffs(n_terms: int = 14) -> list[Fraction]:
    y = _Series.var(n_terms)
    return rank3_local_poly(Fraction(1), y).c


def binomial_determinant(r: int) -> int:
    """det of the binomial matrix [C(2r+1-2j, i-1)], size (r-3); equals (-2)^((r-3)(r-4)/2)."""
    if r < 4:
        raise ValueError("needs r >= 4")
    n = r - 3
    mat = [[Fraction(comb(2 * r + 1 - 2 * (j + 1), i)) for j in range(n)]
           for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if mat[row][col]:
                pivot = row
                break
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for row in range(col + 1, n):
            f = mat[row][col] * inv
            if f:
                for j in range(col, n):
                    mat[row][j] -= f * mat[col][j]
    assert det.denominator == 1
    return int(det)


def vandermonde_core_integral(n: int = 64, rho: float = 0.1) -> complex:
    """The constant triple contour integral in the leading-term computation."""

    def fn(xs):
        x1, x2, x3 = xs
        out = (x1 + 2) * (x2 + 2) * (x3 + 2)
        pairs = ((x1, x2), (x1, x3), (x2, x3))
        for a, b in pairs:
            out = out * (a - b) ** 2 * (a * b + a + b) ** 2
        return out / (x1**5 * x2**5 * x3**5)

    return contour_integral(fn, 3, rho, n, center=0.0)


# ---------------------------------------------------------------------------
# residue-sum vs contour-integral identities (test oracles)


def symmetric_pair_sum(h, a: list[complex]) -> complex:
    """Sum over sign flips of h(a^delta) against the pair-pole kernel."""
    r = len(a)
    total = 0
    for delta in itertools.product((1, -1), repeat=r):
        vals = [av**dv for av, dv in zip(a, delta)]
        den = 1
        for i in range(r):
            for j in range(i, r):
                den *= 1 - vals[i] * vals[j]
        total += h(vals) / den
    return total


def symmetric_pair_integral(h, a: list[complex], rho: float, n: int) -> complex:
    r = len(a)
    sign = (-1) ** (r * (r + 1) // 2)

    def fn(zs):
        out = h(zs)
        for i in range(r):
            for j in range(i + 1, r):
                out = out * (zs[j] - zs[i]) ** 2 * (1 - zs[i] * zs[j])
        for z in zs:
            prod = z ** (-r)
            for av in a:
                prod = prod / ((1 - z * av) * (1 - z / av))
            out = out * prod
        return out

    return sign / factorial(r) * contour_integral(fn, r, rho, n)


def permuted_kernel_sum(h, a: list[complex], m: int) -> complex:
    """Sum over permutations and sign flips of the split-kernel summand."""
    r = len(a)

    def k_m(vals):
        den = 1
        for k in range(m):
            for l in range(m, r):
                den *= (1 - vals[k] ** 2 * vals[l] ** 2)
                den *= (1 - vals[l] ** 2 / vals[k] ** 2)
        for k in range(m, r):
            for l in range(k, r):
                den *= 1 - vals[k] ** 2 * vals[l] ** 2
        return h(vals) / den

    total = 0
    for sigma in itertools.permutations(range(r)):
        for delta in itertools.product((1, -1), repeat=r):
            vals = [a[sigma[i]] ** delta[sigma[i]] for i in range(r)]
            total += k_m(vals)
    return total


def permuted_kernel_integral(h, a: list[complex], m: int, rho: float,
                             n: int) -> complex:
    r = len(a)
    sign = (-1) ** (r * (r + 1) // 2)

    def fn(zs):
        num = h(zs)
        for i in range(r):
            for j in range(i + 1, r):
                e_ij = 1 if (i < m <= j) else 2
                num = num * (zs[i] - zs[j]) ** e_ij * (1 - zs[i] * zs[j])
        for k in range(m):
            for l in range(k, m):
                num = num * (1 - zs[k] * zs[l])
        den = 1
        for i in range(r):
            prod = zs[i] ** r
            for av in a:
                prod = prod * (1 - zs[i] * av) * (1 - zs[i] / av)
            den = den * prod
        for k in range(m):
            for l in range(m, r):
                den = den * (1 + zs[k] * zs[l])
                den = den * (1 / zs[k] + zs[l] / zs[k] ** 2)
        for k in range(m, r):
            for l in range(k, r):
                den = den * (1 + zs[k] * zs[l])
        return num / den

    return sign * contour_integral(fn, r, rho, n)
