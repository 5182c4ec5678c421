"""Independent reference routes that the tests compare qlmoments against.

Nothing in qlmoments imports this module.  The residue-lemma sums are
computed exactly; their contour sides integrate the production kernels
predictor._q1_kernel and predictor._q2_kernel, so the lemma tests check
the integrands the predictions use.  The central values L(1/2, chi_d) are
summed in K term by term, apart from the integer pair the moment oracle
powers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Iterator

from qlmoments import lfunc
from qlmoments import predictor as pr
from qlmoments.exactnum import KNum, l_at_half_unit, zeta_at_half
from qlmoments.ffpoly import (FactorSieve, FqPoly, _is_squarefree, _mod, _mul,
                              _require_modulus, irreducible_count,
                              monic_from_index, symbol_raw)

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


def big_g(xis, q, pmax: int):
    """The corrected pair-pole product times the convergent local product."""
    r = len(xis)
    head = 1
    for i in range(r):
        for j in range(i, r):
            head = head / (1 - xis[i] * xis[j])
    return head * pr.euler_product_level_one(xis, q, pmax)[1]


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


def euler_product_regularized_per_root(xis, q, pmax: int) -> dict:
    """{zeta: truncated regularized product}, root by root: every degree-e
    factor is evaluated and raised to its count once per root, 4 * pmax
    powers where predictor.euler_product_regularized shares one per sign.

    The in-place product fixes the operand order (running product first) at
    every grid size; an `out = out * f ** count` would let numpy reuse the
    temporary power above its 256 KiB elision threshold, and with it swap
    the operands of a complex multiply that is not bitwise commutative.
    """
    out = {}
    for zeta, a_sign in pr.ZETA_FOURTH.items():
        prod = 1
        for e in range(1, pmax + 1):
            prod *= pr.regularized_local_factor(
                xis, zeta, a_sign, q, e) ** irreducible_count(q, e)
        out[zeta] = prod
    return out


def q2_term_profile_per_root(q: int, r: int, degrees, euler: pr.EulerSpec,
                             quad: pr.QuadSpec) -> dict:
    """predictor.q2_term_profile with every slice factor formed per root: the
    kernel _q2_kernel(zs, 3) * w_rest once per root and each damping power
    tailprod^(-D) once per (root, cutoff, D), where the production loop forms
    the kernel once per slice and each power once per (slice, D).  The
    half-grid entry comes from a walk of its own on n_points // 2 nodes,
    where the production loop reads the even-index nodes of its one walk."""
    degrees = sorted(set(degrees))
    cutoffs = _q2_per_root_walk(q, r, degrees, euler, quad)
    halved = _q2_per_root_walk(q, r, degrees, euler,
                               pr.QuadSpec(quad.rho, quad.n_points // 2))
    sign = pr._sign(r)
    return {d: {zeta: tuple((complex(sign * first), complex(sign * second))
                            for first, second in (*per_cutoff, halved[d][zeta][1]))
                for zeta, per_cutoff in pieces.items()}
            for d, pieces in cutoffs.items()}


def _q2_per_root_walk(q, r, degrees, euler, quad) -> dict:
    """{D: {zeta: [[first, second] at pmax // 2, [first, second] at pmax]}},
    unsigned, from one walk of the grid quad, every slice factor per root."""
    acc = {d: {zeta: [[0j, 0j], [0j, 0j]] for zeta in pr.ZETA_FOURTH}
           for d in degrees}
    for w_i, zs, w_rest, _ in pr._torus(r, quad.n_points, quad.rho):
        tailprod = pr._product(zs[3:])
        cutoffs = pr.euler_product_regularized(zs, q, euler.pmax)
        for zeta in pr.ZETA_FOURTH:
            g1, g2 = pr.secondary_weight_functions(zs, zeta, q)
            for k, sregs in enumerate(cutoffs):
                kern = pr._q2_kernel(zs, 3) * w_rest * sregs[zeta]
                core1 = g1 * kern
                core2 = g2 * kern
                for d in degrees:
                    damp = tailprod ** (-d)
                    acc[d][zeta][k][0] += w_i * (core1 * damp).sum()
                    acc[d][zeta][k][1] += w_i * (core2 * damp).sum()
    return acc


def r_p_3(z1, z2, z3, q):
    """Local factor of the modified level-one residue in three variables."""
    out = 1 / (1 - q * (z1 * z2 * z3) ** 2)
    zs = (z1, z2, z3)
    for i in range(3):
        for j in range(i, 3):
            out = out / (1 - zs[i] * zs[j])
    return out


# ---------------------------------------------------------------------------
# Q1


def q1_coefficient_circle(q: int, r: int, D: int,
                          euler: pr.EulerSpec = pr.EulerSpec(),
                          quad: pr.QuadSpec = pr.QuadSpec(),
                          n_xi: int = 32) -> complex:
    """Q1 via a numeric circle in the generating variable (cross-check route).

    Integrates the level-one principal part over |xi| = q^(-2) instead of
    extracting the coefficient analytically; much slower.
    """
    sq = q**0.5
    xi_nodes, xi_w = pr._circle(n_xi, q ** (-2.0), center=0.0)
    out = 0j
    for w_i, cores, prodz, _ in pr._q1_slices(q, r, euler, quad):
        base, extra = cores[1]
        for xi, wx in zip(xi_nodes, xi_w):
            pole = 1 / (1 - q**2 * xi**2 / prodz)
            piece = ((1 - sq) ** (-r)) * extra * pole + q * xi * base * pole
            out += wx * xi ** (-D - 1) * w_i * piece.sum()
    return (1 - 1 / q) * pr._sign(r) / factorial(r) * out * q ** (-D)


# ---------------------------------------------------------------------------
# closed-form series


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
    return pr.regularized_factor_value(r, _Series.var(n_terms)).c


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


# ---------------------------------------------------------------------------
# residue-sum vs contour-integral identities


def _moved_poles(zs, a: list[complex]):
    """P_a = prod_i (1 - z_i)^(2r) / prod_(i, a) (1 - z_i a)(1 - z_i / a).

    Multiplying a production kernel by P_a moves its order-2r poles at
    z_i = 1 to the points a and 1/a of a residue sum.
    """
    r = len(zs)
    out = 1
    for z in zs:
        prod = (1 - z) ** (2 * r)
        for av in a:
            prod = prod / ((1 - z * av) * (1 - z / av))
        out = out * prod
    return out


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
    """The contour side of symmetric_pair_sum, on the Q1 kernel."""
    r = len(a)

    def fn(zs):
        return h(zs) * pr._q1_kernel(zs) * _moved_poles(zs, a)

    return pr._sign(r) / factorial(r) * pr.contour_integral(fn, r, rho, n)


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
    """The contour side of permuted_kernel_sum, on the Q2 kernel split at m."""
    r = len(a)

    def fn(zs):
        return h(zs) * pr._q2_kernel(zs, m) * _moved_poles(zs, a)

    return pr._sign(r) * pr.contour_integral(fn, r, rho, n)


# ---------------------------------------------------------------------------
# quadratic symbol and monic enumeration


def symbol_euler(d: tuple[int, ...], p: tuple[int, ...], q: int) -> int:
    """(d/p) for irreducible monic p via d^((|p|-1)/2) mod p."""
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


def enumerate_monic(q: int, deg: int, kind: str = "all") -> Iterator[FqPoly]:
    """Enumerate monic polynomials of exact degree in deterministic index order.

    kind is one of "all", "squarefree", "irreducible".
    """
    _require_modulus(q)
    if kind not in ("all", "squarefree", "irreducible"):
        raise ValueError(f"unknown enumeration kind {kind!r}")
    if kind == "irreducible" and deg >= 2:
        for c in FactorSieve(q, deg).irreducibles(deg):
            yield FqPoly(c, q)
        return
    for idx in range(q**deg):
        c = monic_from_index(q, deg, idx)
        if kind == "squarefree" and not _is_squarefree(c, q):
            continue
        yield FqPoly(c, q)


# ---------------------------------------------------------------------------
# central values and the functional equation


def l_at_half(d: FqPoly, sieve: FactorSieve | None = None) -> KNum:
    """Exact L(1/2, chi_d) in K, as sum_n a_n t^(-2n) with t = q^(1/4).

    Each q^(-n/2) is the monomial KNum.root4(q, -2n) and the sum is taken
    in K, so no step is shared with the moment oracle's lfunc._central_pair.
    """
    q = d.q
    if d.degree == 0:
        # 1/(1 -+ sqrt(q))
        return zeta_at_half(q) if d.sign() == 1 else l_at_half_unit(q)
    return sum((a * KNum.root4(q, -2 * n)
                for n, a in enumerate(lfunc.l_coefficients(d, sieve))),
               KNum.zero(q))


def l_at_half_pair(d: FqPoly, sieve: FactorSieve | None = None
                   ) -> tuple[Fraction, Fraction]:
    """L(1/2, chi_d) = a + b*sqrt(q) with exact rational a, b."""
    return l_at_half(d, sieve).sqrt_pair()


def l_eval(d: FqPoly, s: complex, sieve: FactorSieve | None = None,
           coeffs: list[int] | None = None) -> complex:
    """L(s, chi_d) for complex s (closed forms for constant d)."""
    q = d.q
    if d.degree == 0:
        sgn = d.sign()
        return 1 / (1 - sgn * q ** (1 - s))
    if coeffs is None:
        coeffs = lfunc.l_coefficients(d, sieve)
    u = q ** (-s)
    out = 0j
    for c in reversed(coeffs):
        out = out * u + c
    return out


def gamma_q(q: int, s: complex, d: FqPoly) -> complex:
    """The epsilon-factor of the functional equation at s for the character of d."""
    parity = (-1) ** d.degree
    sgn = d.sign()
    out = q ** (0.5 * (3 + parity) * (s - 0.5))
    if parity == 1:  # even degree
        out *= (1 - sgn * q ** (-s)) / (1 - sgn * q ** (s - 1))
    return out


def functional_equation_residual(d: FqPoly, s: complex,
                                 sieve: FactorSieve | None = None,
                                 coeffs: list[int] | None = None) -> complex:
    """L(s) - gamma_q(s, d) |d|^(1/2 - s) L(1-s); vanishes for valid inputs."""
    lfunc._check_d(d)
    if d.degree == 0:
        raise ValueError("d must be non-constant")
    q = d.q
    if coeffs is None:
        coeffs = lfunc.l_coefficients(d, sieve)
    left = l_eval(d, s, coeffs=coeffs)
    right = gamma_q(q, s, d) * q ** (d.degree * (0.5 - s)) * l_eval(
        d, 1 - s, coeffs=coeffs)
    return left - right
