"""Independent reference routes that the tests compare qlmoments against.

Nothing in qlmoments imports this module.  The residue-lemma sums are
computed exactly; their contour sides integrate the production kernels
predictor._q1_kernel and predictor._q2_kernel, so the lemma tests check
the integrands the predictions use.  The central values L(1/2, chi_d) are
summed in K term by term, apart from the integer pair the moment oracle
powers.

It also keeps what only the tests use: the Cartan matrix and the w* sign
report, the constant contour integrals and exact determinants, the word
action on coordinates, the constant matrices U, B and B^(-1), the factor
sieve's smallest factor and the per-degree regularized local factor.

Two references check the residue machinery's arithmetic: the cocycle
recursion that forms each letter's base matrix and takes a full matrix
product per letter, and the inverse in K by Gaussian-integer sums down its
tower of norms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Iterator

import numpy as np

from qlmoments import lfunc
from qlmoments import predictor as pr
from qlmoments.cocycle import (SingularPointError, _diag_entries, act_one,
                               identity3, mat_mul)
from qlmoments.exactnum import KNum, l_at_half_unit, zeta_at_half
from qlmoments.ffpoly import (FactorSieve, FqPoly, _is_squarefree, _mod, _mul,
                              _require_modulus, index_of_monic,
                              irreducible_count, monic_from_index, symbol_raw)
from qlmoments.kacmoody import Root, positive_real_roots_up_to_height, reflect

# ---------------------------------------------------------------------------
# level-one Euler data


def level_one_local_factor(zs, q, e: int):
    """Local correction factor at an irreducible of degree e (any scalar type,
    q too: an mpmath q evaluates it at that precision)."""
    r = len(zs)
    qe = q**e
    xe = [z**e for z in zs]
    pairs = 1
    for i in range(r):
        for j in range(i, r):
            pairs = pairs * (1 - xe[i] * xe[j] / qe)
    scale = q ** (-e / 2)
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


def regularized_local_factor(xis, zeta, a_sign: int, q, e: int):
    """S_p^reg at an irreducible of degree e; equals 1 + O(|p|^(-3/2)).

    The substitution for general p raises every variable (including zeta)
    to the e-th power and replaces q by q^e.
    """
    return pr._root_factor(pr._shared_factor(xis, q, e), zeta**e, a_sign**e)


def euler_product_regularized_per_root(xis, q, pmax: int) -> dict:
    """{zeta: truncated regularized product}, root by root: every degree-e
    factor f is evaluated once per root, 4 * pmax factors where
    predictor.euler_product_regularized shares one per sign, and each root
    accumulates count * log f in degree order before its one exp, as the
    production product does per sign."""
    out = {}
    for zeta, a_sign in pr.ZETA_FOURTH.items():
        log = 0
        for e in range(1, pmax + 1):
            log = log + irreducible_count(q, e) * pr._clog1p(
                regularized_local_factor(xis, zeta, a_sign, q, e) - 1)
        out[zeta] = np.exp(log)
    return out


def euler_product_regularized_powered(xis, q, pmax: int) -> dict:
    """{zeta: truncated regularized product}, each degree-e factor raised to
    its count with the complex power and multiplied in: no logarithm."""
    out = {}
    for zeta, a_sign in pr.ZETA_FOURTH.items():
        out[zeta] = 1
        for e in range(1, pmax + 1):
            out[zeta] = out[zeta] * regularized_local_factor(
                xis, zeta, a_sign, q, e) ** irreducible_count(q, e)
    return out


def q2_term_profile_per_root(q: int, r: int, degrees, euler: pr.EulerSpec,
                             quad: pr.QuadSpec) -> dict:
    """predictor.q2_term_profile with every slice factor formed per root: the
    kernel _q2_kernel(zs, 3) * w_rest once per root and each damping power
    tailprod^(-D) once per (root, cutoff, D), where the production loop forms
    the kernel once per slice and each power once per (slice, D).  The
    half-grid entry comes from a walk of its own on n_points // 2 nodes,
    where the production loop reads the even-index nodes of its one walk.
    Each piece is norm * ((1 - sqrt q)^(-r) * first + second)."""
    degrees = sorted(set(degrees))
    cutoffs = _q2_per_root_walk(q, r, degrees, euler, quad)
    halved = _q2_per_root_walk(q, r, degrees, euler,
                               pr.QuadSpec(quad.rho, quad.n_points // 2))
    sign = pr._sign(r)
    norm = 1 / (2**5 * 6 * factorial(r - 3))
    return {d: {zeta: tuple(norm * ((1 - q**0.5) ** (-r) * complex(sign * first)
                                    + complex(sign * second))
                            for first, second in (*per_cutoff, halved[d][zeta][1]))
                for zeta, per_cutoff in pieces.items()}
            for d, pieces in cutoffs.items()}


def _q2_per_root_walk(q, r, degrees, euler, quad) -> dict:
    """{D: {zeta: [[first, second] at pmax // 2, [first, second] at pmax]}},
    unsigned, from one walk of the grid quad, every slice factor per root."""
    acc = {d: {zeta: [[0j, 0j], [0j, 0j]] for zeta in pr.ZETA_FOURTH}
           for d in degrees}
    for w_i, zs, w_rest, *_ in pr._torus(r, quad.n_points, quad.rho):
        tailprod = prod(zs[3:])
        cutoffs = pr.euler_product_regularized(zs, q, euler.pmax)
        for zeta, a_sign in pr.ZETA_FOURTH.items():
            g1, g2 = pr.secondary_weight_functions(zs, zeta, q)
            for k, sregs in enumerate(cutoffs):
                kern = pr._q2_kernel(zs, 3) * w_rest * sregs[a_sign]
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


def q1_profile_per_point(q: int, r: int, degrees, euler: pr.EulerSpec,
                         quad: pr.QuadSpec) -> dict:
    """predictor.q1_profile as the full trapezoid sum: the integrand,
    level-one product A included, on every slice of the torus walk, at all
    n^r grid points, over r!.  The production profile sums the C(n, r)
    strictly increasing node-index tuples once each, since the integrand is
    symmetric and vanishes where two nodes coincide."""
    degrees = sorted(set(degrees))

    def pieces(zs, w_rest, _):
        products = pr.euler_product_level_one(zs, q, euler.pmax)
        cores = pr._q1_cores(zs, w_rest, q, products)
        prodz = prod(zs)
        for d in degrees:
            yield d, prodz ** (-(d // 2)), [extra if d % 2 == 0 else base
                                            for base, extra in cores]

    sums = pr._grid_sums(r, quad, pieces)
    pref_even = (1 - 1 / q) * (1 - q**0.5) ** (-r) * pr._sign(r) / factorial(r)
    pref_odd = (1 - 1 / q) * pr._sign(r) / factorial(r)
    return {d: tuple(complex((pref_even if d % 2 == 0 else pref_odd) * v)
                     for v in sums[d])
            for d in degrees}


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
    for w_i, zs, w_rest, *_ in pr._torus(r, quad.n_points, quad.rho):
        products = pr.euler_product_level_one(zs, q, euler.pmax)
        base, extra = pr._q1_cores(zs, w_rest, q, products)[1]
        prodz = prod(zs)
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
# contour integrals and exact determinants


def contour_integral(fn, r: int, rho: float, n: int, center: complex = 1.0) -> complex:
    """(1/(2 pi i))^r times the iterated contour integral of fn over r circles."""
    total = 0j
    for w_i, zs, w_rest, *_ in pr._torus(r, n, rho, center):
        total += w_i * (fn(zs) * w_rest).sum()
    return complex(total)


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


def exact_det(mat) -> int:
    """Determinant of a square integer matrix by Fraction elimination."""
    mat = [[Fraction(v) for v in row] for row in mat]
    n = len(mat)
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


def binomial_determinant(r: int) -> int:
    """det of the binomial matrix [C(2r+1-2j, i-1)], size (r-3); equals (-2)^((r-3)(r-4)/2)."""
    if r < 4:
        raise ValueError("needs r >= 4")
    n = r - 3
    return exact_det([[comb(2 * r + 1 - 2 * (j + 1), i) for j in range(n)]
                      for i in range(n)])


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

    return pr._sign(r) / factorial(r) * contour_integral(fn, r, rho, n)


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

    return pr._sign(r) * contour_integral(fn, r, rho, n)


# ---------------------------------------------------------------------------
# root combinatorics and the word action


def cartan_matrix(r: int) -> list[list[int]]:
    """The star-shaped generalized Cartan matrix of size (r+1) x (r+1)."""
    if r < 1:
        raise ValueError("rank parameter must be >= 1")
    n = r + 1
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i in range(r):
        a[i][n - 1] = -1
        a[n - 1][i] = -1
    return a


def apply_word(word: tuple[int, ...], alpha: Root) -> Root:
    """Apply a word as a group element: rightmost letter acts first."""
    for i in reversed(word):
        alpha = reflect(i, alpha)
    return alpha


def wstar_word(r: int) -> tuple[int, ...]:
    """The composite element w_12 w_13 w_23 with w_ij = w_i w_j w_{r+1} w_i w_j."""
    if r < 4:
        raise ValueError("needs rank parameter >= 4")

    def pair(i: int, j: int) -> tuple[int, ...]:
        return (i, j, r + 1, i, j)

    return pair(1, 2) + pair(1, 3) + pair(2, 3)


@dataclass
class WstarReport:
    r: int
    height_bound: int
    checked: int = 0
    negative_class: list[Root] = field(default_factory=list)
    violations: list[Root] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _expected_negative_class(r: int) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for i in range(3):
        k = [0] * (r + 1)
        k[i] = 1
        out.add(tuple(k))
    for mask in range(1, 8):
        k = [0] * (r + 1)
        for i in range(3):
            if mask >> i & 1:
                k[i] = 1
        k[r] = 1
        out.add(tuple(k))
    k = [0] * (r + 1)
    k[0] = k[1] = k[2] = 1
    k[r] = 2
    out.add(tuple(k))
    return out


def wstar_report(r: int, height_bound: int) -> WstarReport:
    """Classify positive real roots by the sign of their w*-image.

    Roots sent negative must form the explicit eleven-element family
    supported on nodes {1, 2, 3, r+1}; roots kept positive must satisfy
    k_1 + k_2 + k_3 <= 6 * (k_4 + ... + k_r).
    """
    word = wstar_word(r)
    expected_neg = _expected_negative_class(r)
    rep = WstarReport(r=r, height_bound=height_bound)
    for alpha in positive_real_roots_up_to_height(r, height_bound):
        rep.checked += 1
        image = apply_word(word, alpha)
        if any(image.k) and all(v <= 0 for v in image.k):
            rep.negative_class.append(alpha)
            if alpha.k not in expected_neg:
                rep.violations.append(alpha)
        elif image.is_positive:
            head = sum(alpha.k[:3])
            tail = sum(alpha.k[3:r])
            if head > 6 * tail:
                rep.violations.append(alpha)
        else:
            rep.violations.append(alpha)  # mixed signs: not a real root image
    return rep


def act_on_z(word: tuple[int, ...], z: tuple, q, sqrt_q) -> tuple:
    """Apply a word as a group element (rightmost letter first)."""
    for i in reversed(word):
        z = act_one(i, z, q, sqrt_q)
    return z


def u_matrix(half):
    one = half + half
    zero = half - half
    return ((half, one, half), (half, zero, -half), (half, -one, half))


def base_matrix(i: int, z: tuple, q, sqrt_q, half):
    """M_{w_i} evaluated at z: diagonal for i <= r, U-conjugated for i = r+1."""
    r = len(z) - 1
    zero = half - half
    if i <= r:
        m1, m2, m3 = _diag_entries(z[i - 1], q, sqrt_q)
        return ((m1, zero, zero), (zero, m2, zero), (zero, zero, m3))
    m1, m2, m3 = _diag_entries(z[r], q, sqrt_q)
    u = u_matrix(half)
    diag = ((m1, zero, zero), (zero, m2, zero), (zero, zero, m3))
    return mat_mul(mat_mul(u, diag), u)


def cocycle_matrix_reference(word: tuple[int, ...], z: tuple, q, sqrt_q, half):
    """M_w(z; q) by the cocycle recursion with a full product by each
    letter's base matrix; singular points raise as cocycle_matrix does."""
    acc = identity3(half + half, half - half)
    zc = z
    for pos, letter in enumerate(reversed(word)):
        try:
            acc = mat_mul(acc, base_matrix(letter, zc, q, sqrt_q, half))
            zc = act_one(letter, zc, q, sqrt_q)
        except ZeroDivisionError as exc:
            raise SingularPointError(letter, len(word) - 1 - pos) from exc
    return acc


def b_matrix(half):
    one = half + half
    zero = half - half
    return ((half, half, zero), (half, -half, zero), (-half, half, one))


def b_inverse_matrix(one):
    zero = one - one
    return ((one, one, zero), (one, -one, zero), (zero, one, one))


# ---------------------------------------------------------------------------
# exact arithmetic in K


def _isum(*terms):
    """Sum of k * x * y over (k, x, y), with x and y Gaussian integers (re, im)."""
    re = im = 0
    for k, x, y in terms:
        re += k * (x[0] * y[0] - x[1] * y[1])
        im += k * (x[0] * y[1] + x[1] * y[0])
    return re, im


def k_inverse_tower(coords, q):
    """Inverse in K = Q(i)[t]/(t^4 - q) by the norm down K > Q(i)(s) > Q(i),
    s = t^2, as sums of Gaussian-integer products on the lcm-scaled coords:
    four (re, im) Fraction pairs, the coefficients of 1, t, t^2, t^3."""
    if not any(v for c in coords for v in c):
        raise ZeroDivisionError("inversion of zero in K")
    scale = lcm(*(v.denominator for c in coords for v in c))
    c0, c1, c2, c3 = [(re.numerator * (scale // re.denominator),
                       im.numerator * (scale // im.denominator))
                      for re, im in coords]
    a = _isum((1, c0, c0), (q, c2, c2), (-2 * q, c1, c3))
    b = _isum((2, c0, c2), (-1, c1, c1), (-q, c3, c3))
    n = _isum((1, a, a), (-q, b, b))
    if n == (0, 0):
        raise ArithmeticError(
            "zero norm of a nonzero element: t^4 - q not irreducible over Q(i)")
    den = n[0] * n[0] + n[1] * n[1]
    n_bar = (n[0], -n[1])
    out = []
    for num in (_isum((1, c0, a), (-q, c2, b)), _isum((q, c3, b), (-1, c1, a)),
                _isum((1, c2, a), (-1, c0, b)), _isum((1, c1, b), (-1, c3, a))):
        re, im = _isum((scale, num, n_bar))
        out.append((Fraction(re, den), Fraction(im, den)))
    return tuple(out)


# ---------------------------------------------------------------------------
# factor sieve, quadratic symbol and monic enumeration


def smallest_factor(sieve: FactorSieve, c: tuple[int, ...]) -> tuple[int, ...]:
    """The smallest monic irreducible factor of c, from the sieve's tables."""
    deg = len(c) - 1
    if deg < 1:
        raise ValueError("constant polynomial has no irreducible factor")
    if deg > sieve.max_deg:
        raise ValueError("degree beyond sieve range")
    ent = sieve.factor_pointers(deg)[index_of_monic(c, sieve.q)]
    if ent is None:
        return c
    e, p_idx, _, _ = ent
    return sieve.irreducibles(e)[p_idx]


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
