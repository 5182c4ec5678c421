"""The 3x3 matrix cocycle on the Weyl group and its residue data.

Words are tuples of generator indices 1..r+1 read left-to-right as a
product; a word acts on a coordinate vector z (length r+1) by applying its
rightmost letter first.  The cocycle satisfies

    M_{w w'}(z) = M_{w'}(z) * M_w(w'z)

with the diagonal base matrix M(u, q) on letters 1..r and its U-conjugate
U M U on letter r+1.  No base matrix is formed: a letter i <= r scales the
columns of the running product by the three diagonal entries, and letter
r+1 forms U diag(m1, m2, m3) U from five half-scalings, in the order of
terms of the full product, before one matrix product.  Until the first
letter r+1 the running product is diagonal and kept as its three entries,
starting from the first letter's; that letter r+1 scales the rows of its
U-conjugate by them in place of the matrix product, so no product by a
structural zero or by the identity's ones is formed.  Everything here is
generic over the scalar type: complex numbers, numpy arrays, and exact K
elements all work, since only ring operators are used.  Callers pass q and
sqrt(q) as scalars of the chosen type (the recursion never takes square
roots itself), plus `half` = 1/2 in that type.

Singular evaluation points (a vanishing base-matrix denominator along the
chain) raise SingularPointError naming the offending letter; limits are
never taken here - callers perturb their points instead.

The residue at a root is read off the cocycle at one point, residue_point:
the local factors at it, the exact archimedean factor (gamma_factor_exact)
through mbar_matrix at q times it.  The root of unity zeta = i^k fixing its
branch fixes the sign sgn(a) = zeta^2 (square_class_sign).
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import KNum
from .kacmoody import Root

__all__ = [
    "SingularPointError",
    "act_one",
    "cocycle_matrix",
    "mat_mul",
    "mat_inv3",
    "identity3",
    "mbar_matrix",
    "gamma_factor_exact",
    "gamma_table_entry",
    "gamma_table_polynomial",
    "local_coefficient_row",
    "local_residue_factor",
    "residue_point",
    "square_class_sign",
    "de_diagonals",
    "phi_weight",
    "psi_weight",
    "mbar_closed",
]

Matrix = tuple[tuple, tuple, tuple]


class SingularPointError(ArithmeticError):
    def __init__(self, letter: int, position: int):
        super().__init__(
            f"cocycle base matrix singular at letter {letter} (position {position})"
        )
        self.letter = letter
        self.position = position


# ---------------------------------------------------------------------------
# group action on coordinates


def act_one(i: int, z: tuple, q, sqrt_q) -> tuple:
    """Action of a single generator on z; all coordinates must be nonzero."""
    r = len(z) - 1
    if not 1 <= i <= r + 1:
        raise ValueError(f"letter {i} out of range 1..{r + 1}")
    out = list(z)
    if i <= r:
        zi = z[i - 1]
        out[i - 1] = 1 / (q * zi)
        out[r] = sqrt_q * zi * z[r]
    else:
        zr = z[r]
        out[r] = 1 / (q * zr)
        for j in range(r):
            out[j] = sqrt_q * zr * z[j]
    return tuple(out)


# ---------------------------------------------------------------------------
# matrices


def identity3(one, zero) -> Matrix:
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
              for j in range(3))
        for i in range(3)
    )


def mat_inv3(a: Matrix) -> Matrix:
    """Adjugate inverse; raises ZeroDivisionError on singular input.

    The determinant is inverted once (in K an inversion costs several
    products) and the cofactors are scaled by that inverse.
    """
    c00 = a[1][1] * a[2][2] - a[1][2] * a[2][1]
    c01 = a[1][2] * a[2][0] - a[1][0] * a[2][2]
    c02 = a[1][0] * a[2][1] - a[1][1] * a[2][0]
    det = a[0][0] * c00 + a[0][1] * c01 + a[0][2] * c02
    c10 = a[0][2] * a[2][1] - a[0][1] * a[2][2]
    c11 = a[0][0] * a[2][2] - a[0][2] * a[2][0]
    c12 = a[0][1] * a[2][0] - a[0][0] * a[2][1]
    c20 = a[0][1] * a[1][2] - a[0][2] * a[1][1]
    c21 = a[0][2] * a[1][0] - a[0][0] * a[1][2]
    c22 = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    inv_det = 1 / det
    return (
        (c00 * inv_det, c10 * inv_det, c20 * inv_det),
        (c01 * inv_det, c11 * inv_det, c21 * inv_det),
        (c02 * inv_det, c12 * inv_det, c22 * inv_det),
    )


def _diag_entries(u, q, sqrt_q):
    qu = q * u
    return (
        -(1 - qu) / (qu * (1 - u)),
        1 / (sqrt_q * u),
        (1 + qu) / (qu * (1 + u)),
    )


def _u_conjugate(m1, m2, m3, half) -> Matrix:
    """U diag(m1, m2, m3) U for U = ((h, 1, h), (h, 0, -h), (h, -1, h)), h = half.

    Each entry is the sum mat_mul(mat_mul(U, diag), U) forms, with its terms
    in the same order and the products by 0 and +-1 left out.
    """
    a = half * m1
    b = half * m2
    c = half * m3
    aa = half * a
    cc = half * c
    plus = aa + b + cc
    minus = aa - b + cc
    diff = a - c
    mid = aa - cc
    return ((plus, diff, minus), (mid, a + c, mid), (minus, diff, plus))


def cocycle_matrix(word: tuple[int, ...], z: tuple, q, sqrt_q, half) -> Matrix:
    """M_w(z; q) for the word, via the cocycle recursion.

    Up to the first letter r+1 the product is diagonal: it is kept as three
    entries, started from the first letter's entries rather than the
    identity, and the first letter r+1 scales the rows of its U-conjugate by
    them.  Independent of the choice of word for a fixed group element.
    """
    r = len(z) - 1
    diag = None  # the product while it is diagonal, None while empty
    acc = None  # the full product from the first letter r+1 on
    zc = z
    for pos, letter in enumerate(reversed(word)):
        try:
            if letter <= r:
                m = _diag_entries(zc[letter - 1], q, sqrt_q)
                if acc is not None:
                    acc = tuple((row[0] * m[0], row[1] * m[1], row[2] * m[2])
                                for row in acc)
                elif diag is None:
                    diag = m
                else:
                    diag = (diag[0] * m[0], diag[1] * m[1], diag[2] * m[2])
            else:
                u = _u_conjugate(*_diag_entries(zc[r], q, sqrt_q), half)
                if acc is not None:
                    acc = mat_mul(acc, u)
                elif diag is None:
                    acc = u
                else:
                    acc = tuple(tuple(d * v for v in row) for d, row in zip(diag, u))
            zc = act_one(letter, zc, q, sqrt_q)
        except ZeroDivisionError as exc:
            raise SingularPointError(letter, len(word) - 1 - pos) from exc
    if acc is not None:
        return acc
    one = half + half
    zero = half - half
    if diag is None:
        return identity3(one, zero)
    return ((diag[0], zero, zero), (zero, diag[1], zero), (zero, zero, diag[2]))


def mbar_matrix(word: tuple[int, ...], z: tuple, q, sqrt_q, half) -> Matrix:
    """The rescaled cocycle: M_w at the point q*z with parameter 1/q."""
    qz = tuple(q * v for v in z)
    return cocycle_matrix(word, qz, 1 / q, 1 / sqrt_q, half)


# ---------------------------------------------------------------------------
# the residue point and the scalar residue factor on the archimedean side


def residue_point(alpha: Root, xi: tuple | None, zeta, q, sqrt_q,
                  quarter_q) -> tuple:
    """Coordinates (z_1..z_r, z_{r+1}) of the residue evaluation point.

    z_k = q^(-1/2) xi_k^n and the last coordinate solves the root
    constraint with the explicit branch fixed by zeta:
    z_{r+1} = zeta^(-1) q^(-(n+1)/(2n)) prod xi_i^(-k_i), n = level(alpha).
    xi = None is the unit point xi = (1, ..., 1), where no power is formed.
    """
    n = alpha.level
    if n not in (1, 2):
        raise ValueError("supported levels are 1 and 2")
    r = alpha.rank
    inv_sqrt_q = 1 / sqrt_q
    den = zeta * (q if n == 1 else quarter_q**3)
    if xi is None:  # the unit point: every power of xi_k is one
        return (inv_sqrt_q,) * r + (1 / den,)
    z = [xi[i] ** n * inv_sqrt_q for i in range(r)]
    # invert the product once, not each factor: in K an inversion costs
    # several products
    for x, k in zip(xi, alpha.k[:r]):
        if k:
            den = den * x**k
    z.append(1 / den)
    return tuple(z)


def gamma_factor_exact(word: tuple[int, ...], alpha: Root, a2_sign: int,
                       a_sign: int, zeta: KNum, q: int,
                       xi: tuple[KNum, ...] | None = None) -> KNum:
    """Exact residue factor at the residue point in K.

    The word must send alpha to the last simple root.  The factor is
    2^len(word) times the sandwich
    row (1, sgn(a2), 0) . Mbar_w(z) . column (1/2, sgn(a)/2, 1/2)
    at z = residue_point(alpha, xi, zeta), xi defaulting to all ones.
    """
    half = KNum.rational(Fraction(1, 2), q)
    sq = KNum.sqrt_q(q)
    qk = KNum.rational(q, q)
    z = residue_point(alpha, xi, zeta, qk, sq, KNum.root4(q, 1))
    matrix = mbar_matrix(word, z, qk, sq, half)
    col = (half, a_sign * half, half)
    zero = KNum.zero(q)
    # the third row of Mbar_w . col is never read
    row0, row1 = (_dot(m, col, zero) for m in matrix[:2])
    total = row0 if row1.is_zero else row0 + a2_sign * row1
    return total if total.is_zero else (2 ** len(word)) * total


def _dot(row, col, zero):
    """row . col in K, with no product by a zero entry of row (a diagonal
    Mbar's structural zeros)."""
    terms = [a * b for a, b in zip(row, col) if not a.is_zero]
    return sum(terms[1:], terms[0]) if terms else zero


def square_class_sign(zeta_power: int) -> int:
    """sgn(a) = zeta^2 = (-1)^k for zeta = i^k: the square class of the
    leading coefficient a that the fourth root of unity zeta belongs to."""
    return -1 if zeta_power % 2 else 1


def gamma_table_entry(zeta_power: int, q: int) -> KNum:
    """Exact value of (1,1,0) . Mbar_{w}(q^(-1/2),...,q^(-3/4) zeta^(-1); q) . (1,sgn,1)^t.

    Here w = w_1 w_2 w_3 w_{r+1} (evaluated at rank 3, where the value is
    rank-independent), zeta = i^zeta_power, and sgn = square_class_sign.
    The four cases zeta in {1, -1, i, -i} are the degree-two residue table.
    This is the level-two residue factor of alpha = (1, 1, 1, 2) at xi = 1,
    divided by 8 = 2^len(w) * 2 (the word's power of two and the halves of
    the sandwich column).
    """
    zeta = KNum.fourth_root_of_unity(q, zeta_power)
    return gamma_factor_exact((1, 2, 3, 4), Root((1, 1, 1, 2)), 1,
                              square_class_sign(zeta_power), zeta, q) / 8


def gamma_table_polynomial(zeta_power: int, q: int) -> KNum:
    """Expected closed form of the table entry as a polynomial in q^(1/4)."""
    if square_class_sign(zeta_power) == 1:
        sign = 1 if zeta_power % 4 == 0 else -1  # zeta itself
        coeff = [1, sign * 1, 10, sign * 7, 20, sign * 7, 10, sign * 1, 1]
        out = KNum.zero(q)
        for k, c in enumerate(coeff):
            out = out + KNum.rational(c, q) * KNum.root4(q, k)
        return out
    # sgn(a) = -1 cases: coefficients pick up the fourth root of unity
    s = 1 if zeta_power % 4 == 3 else -1  # sign of the imaginary entries
    terms = [
        (1, 0, 0), (0, s, 1), (-4, 0, 2), (0, -7 * s, 3), (6, 0, 4),
        (0, 7 * s, 5), (-4, 0, 6), (0, -s, 7), (1, 0, 8),
    ]
    out = KNum.zero(q)
    for re, im, k in terms:
        out = out + KNum.gaussian(re, im, q) * KNum.root4(q, k)
    return out


# ---------------------------------------------------------------------------
# local (per-irreducible) residue data


def local_coefficient_row(word: tuple[int, ...], z: tuple, q, sqrt_q,
                          chi_p: int, half):
    """The triple (L1, L2, L3) of local residue coefficients.

    Extracted as (1/2, chi_a(p), 1/2) . M_w(z)^(-1) . C with
    C = [[0,1,1],[1,0,0],[0,-1,1]]; the identity word gives (chi, 0, 1).
    """
    m = cocycle_matrix(word, z, q, sqrt_q, half)
    minv = mat_inv3(m)
    row = tuple(
        half * minv[0][j] + chi_p * minv[1][j] + half * minv[2][j] for j in range(3)
    )
    return (row[1], row[0] - row[2], row[0] + row[2])


def local_residue_factor(word: tuple[int, ...], alpha: Root, xi: tuple,
                         zeta, a_sign: int, q, sqrt_q, quarter_q,
                         p_degree: int, half):
    """Local factor S_p^w of the residue at the pole indexed by alpha.

    For an irreducible of degree e the evaluation substitutes x -> x^e in
    every coordinate, q -> q^e, and sgn(a) -> sgn(a)^e.
    """
    e = p_degree
    z = residue_point(alpha, xi, zeta, q, sqrt_q, quarter_q)
    ze = tuple(v**e for v in z)
    qe = q**e
    l1, l2, l3 = local_coefficient_row(word, ze, qe, sqrt_q**e, a_sign**e, half)
    r = len(z) - 1
    prod_minus = 1
    prod_plus = 1
    for k in range(r):
        prod_minus = prod_minus * (1 - ze[k])
        prod_plus = prod_plus * (1 + ze[k])
    return (1 - 1 / qe) * (
        l1 * ze[r]
        + (l2 + l3) / (2 * prod_minus)
        + (l3 - l2) / (2 * prod_plus)
    )


# ---------------------------------------------------------------------------
# closed forms for the level-two machinery


def de_diagonals(x1, x2, x3, zeta, quarter_q):
    """Diagonal entries (d1, d2, d3, e1, e2, e3) of the split cocycle inverse.

    Valid at the level-two residue point parametrized by (x1, x2, x3) with
    z_k = q^(-1/2) x_k^2; generic in the scalar type.
    """
    q34 = quarter_q**3
    p = x1 * x2 * x3
    num_m = 1
    num_p = 1
    den_m = 1
    den_p = 1
    for x in (x1, x2, x3):
        a = x * x / (zeta * q34 * p)
        b = zeta * p / (quarter_q * x * x)
        num_m = num_m * (1 - a)
        num_p = num_p * (1 + a)
        den_m = den_m * (1 - b)
        den_p = den_p * (1 + b)
    d1 = num_m / den_m
    d3 = num_p / den_p
    d2 = zeta / (q34 * p)
    inv_big = 1 / (zeta * q34 * p)
    small = zeta * p / quarter_q
    e1 = (1 - inv_big) / (1 - small)
    e3 = (1 + inv_big) / (1 + small)
    e2 = 1 / (zeta * quarter_q * p)
    return d1, d2, d3, e1, e2, e3


def phi_weight(z1, z2, z3, z4, q, sqrt_q):
    q32 = q * sqrt_q
    num = (1 - sqrt_q * z1 * z4) * (1 - sqrt_q * z2 * z4) \
        * (1 - sqrt_q * z3 * z4) * (1 - q * z4 * z4)
    den = (1 - q32 * z1 * z4) * (1 - q32 * z2 * z4) \
        * (1 - q32 * z3 * z4) * (1 - q * q * z4 * z4)
    return num / den


def psi_weight(z1, z2, z3, z4, q, sqrt_q):
    q32 = q * sqrt_q
    return -(1 - q32 * z4) * phi_weight(z1, z2, z3, z4, q, sqrt_q) / (sqrt_q - q * z4)


def mbar_closed(z1, z2, z3, z4, q, sqrt_q) -> Matrix:
    """Closed form of Mbar_{w_1 w_2 w_3 w_{r+1}}(z; q); only four coordinates enter."""
    q32 = q * sqrt_q
    pref = 1 / (2 * q32 * z1 * z2 * z3 * z4**4)
    mid_even = -(2 / q32) * (1 - q * z4 * z4) / (1 - q * q * z4 * z4)
    mid_odd = -(2 * z4 / q32) * (q - 1) / (1 - q * q * z4 * z4)
    m11 = psi_weight(z1, z2, z3, z4, q, sqrt_q)
    m13 = psi_weight(z1, z2, z3, -z4, q, sqrt_q)
    m21 = phi_weight(z1, z2, z3, z4, q, sqrt_q)
    m23 = -phi_weight(-z1, -z2, -z3, z4, q, sqrt_q)
    m31 = -psi_weight(-z1, -z2, -z3, -z4, q, sqrt_q)
    m33 = -psi_weight(-z1, -z2, -z3, z4, q, sqrt_q)
    return (
        (pref * m11, pref * mid_even, pref * m13),
        (pref * m21, pref * mid_odd, pref * m23),
        (pref * m31, pref * mid_even, pref * m33),
    )
