"""Explicit rank-2 symplectic embeddings and their Lie-algebra maps.

Implements the irreducible four-dimensional representation of the
2x2 special linear group in both the symmetric-power basis (``rho1``,
form ``J0``) and the ``J13`` basis (``rho13``), the product and diagonal
embeddings (``rho_p``, ``rho_delta``), the fully diagonalized embedding
``phi`` obtained by conjugating through ``HT = HTILDE * T4``, and the
exact differentials ``rho13_star`` / ``phi_star`` -- no numerical limits
anywhere.

``rho1``, ``rho13`` and ``phi`` are one representation, on binary
cubics, in three bases, so there is one grid of cubic entry polynomials
(rho1's) and one closed-form differential (rho1_star, the linear part of
that grid).  The other bases are monomial frames of it:

    rho13(A) = H_SYM3^-1 rho1(A) H_SYM3,

and, since HT factors through the Cayley matrix T2 = [[1, i], [1, -i]] as

    HT H_SYM3^-1 = sqrt6 (1 + i) F rho1(T2 / (1 - i)),

with F the rational monomial matrix F[0][0] = 1, F[1][3] = 1/2,
F[2][2] = 1/6, F[3][1] = 1,

    phi(A) = F rho1(T2 A T2^-1) F^-1,
    phi_star(x) = F rho1_star(T2 x T2^-1) F^-1.

Conjugating by H_SYM3^-1 or F reweights and permutes entries (one pass
over the ints, ``matalg._monomial_conjugate``), and T2 A T2^-1 takes
only sums and multiples of i, so no 4x4 product is made.  The grid
itself runs on the int numerators of its input in the smallest ring that
holds them (``matalg._ring``: plain ints for a rational matrix, the
3-int ``numfield._QuadElem`` for one in a quadratic subfield such as
the Q(i) of T2 A T2^-1 for a rational A, the 8-int ``numfield._IntElem``
otherwise) and ends in one gcd; rho1_star, linear, is written straight
into the numerators.  The verification suite checks the factorization,
and checks rho13 and its differential against generic products with
H_SYM3.

Conventions are frozen once: the complexified symplectic algebra is
the algebra of the form ``J13`` in every frame along the conjugation
chain, which is legitimate because ``T4`` and ``HTILDE`` both preserve
``J13`` up to a nonzero scalar (-2i and -1 respectively; ``verify``'s
``t4-conformal`` and ``htilde-conformal`` checks), and the test suite
proves that ``rho13_star`` and ``phi_star`` land in sp(4, C) for it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg

from ._record import Record
from .numfield import FieldElem, I_UNIT, ONE, ZERO, _common, fe
from .matalg import (
    H_SYM3_INV, HTILDE, I2, J0, T2, T4, SqMatrix, _cayley_conjugate,
    _from_ring, _monomial_conjugate, _monomial_frame, _reduced, _ring,
    _unipotent_conjugate, is_symplectic, kron,
)

__all__ = [
    "SingularNormalization",
    "NormalizerReport",
    "sl2",
    "rho1",
    "rho13",
    "rho_p",
    "rho_delta",
    "phi",
    "gl1_torus",
    "rho13_star",
    "phi_star",
    "m_field_matrix",
    "s_matrix",
    "s_conjugate",
    "normalizer_witness_check",
    "HT", "HT_INV", "T2_DET1", "SWAP",
    "GOLDEN_E_MINUS_F", "GOLDEN_E_PLUS_F", "GOLDEN_H0",
]


class SingularNormalization(ValueError):
    """The normalizing conjugation needs a nonzero lower coefficient."""


HT = HTILDE * T4
HT_INV = HT.inv()

# The Cayley frame of HT (module docstring): T2 scaled to determinant 1,
# and the monomial F.  rho13 is rho1 in the frame of H_SYM3^-1, phi in
# that of F.
T2_DET1 = T2.scale((ONE - I_UNIT).inv())
_F_FRAME = _monomial_frame(SqMatrix([
    [1, 0, 0, 0],
    [0, 0, 0, Fraction(1, 2)],
    [0, 0, Fraction(1, 6), 0],
    [0, 1, 0, 0]]))
_J13_FRAME = _monomial_frame(H_SYM3_INV)

SWAP = SqMatrix([[0, 1], [1, 0]])  # determinant -1


def sl2(a, b, c, d) -> SqMatrix:
    """Build a 2x2 matrix and check determinant 1 exactly."""
    m = SqMatrix([[a, b], [c, d]])
    _check_det(m, allow_minus=False)
    return m


def _check_dim(x: SqMatrix, n: int):
    if x.dim != n:
        raise ValueError("expected a %dx%d matrix" % (n, n))


def _check_det(a: SqMatrix, allow_minus: bool):
    _check_dim(a, 2)
    d = a.det()
    if d == ONE:
        return
    if allow_minus and d == -ONE:
        return
    raise ValueError("determinant is %r" % (d,))


def _check_traceless(x: SqMatrix):
    _check_dim(x, 2)
    if not x.trace().is_zero:
        raise ValueError("input must be traceless")


def _rho1_grid(a, b, c, d, two, three):
    # Matrix of P(x, y) -> P(ax + cy, bx + dy) on cubics in the basis
    # {x^3, 3x^2y, y^3, 3xy^2}; entries are polynomials in a, b, c, d,
    # so the grid evaluates over any commutative ring element type.  The
    # quadratic monomials are formed once and shared by the cubic entries.
    aa, bb, cc, dd, ab, cd = a * a, b * b, c * c, d * d, a * b, c * d
    return (
        (a * aa, three * (aa * b), b * bb, three * (ab * b)),
        (aa * c, aa * d + two * (ab * c), bb * d, bb * c + two * (ab * d)),
        (c * cc, three * (cc * d), d * dd, three * (c * dd)),
        (a * cc, b * cc + two * (a * cd), b * dd, a * dd + two * (b * cd)),
    )


def _rho1_raw(a: SqMatrix) -> SqMatrix:
    # The rho1 grid at a, with no determinant check, evaluated on the
    # numerators of a in the smallest ring that holds them: every entry
    # is a cubic, so the grid is over a._d ** 3.
    grid = _rho1_grid(*_ring(a._n), 2, 3)
    return _from_ring([e for row in grid for e in row], a._d ** 3)


# The differential of rho1 at I, the coefficient of t in the grid at
# I + t x for a traceless x = [[p, q], [r, -p]], as (entry of x,
# multiplier) for each entry, row by row: p, q, r are entries 0, 1, 2.
_RHO1_STAR = ((0, 3), (1, 3), (0, 0), (0, 0),
              (2, 1), (0, 1), (0, 0), (1, 2),
              (0, 0), (0, 0), (0, -3), (2, 3),
              (0, 0), (2, 2), (1, 1), (0, -1))


def _rho1_star(x: SqMatrix) -> SqMatrix:
    n = x._n
    return _reduced([c * y for k, c in _RHO1_STAR for y in n[8 * k:8 * k + 8]], x._d)


def rho1(a: SqMatrix) -> SqMatrix:
    """Irreducible embedding in the symmetric-power basis (form J0).

    Defined for determinant +-1; for determinant 1 the image satisfies
    g^t J0 g = J0.
    """
    _check_det(a, allow_minus=True)
    return _rho1_raw(a)


def rho13(a: SqMatrix) -> SqMatrix:
    """Irreducible embedding in the J13 basis: H_SYM3^-1 rho1(A) H_SYM3,
    the rho1 grid in the monomial frame of H_SYM3^-1; lands in the J13
    symplectic group."""
    _check_det(a, allow_minus=False)
    return _monomial_conjugate(_rho1_raw(a), _J13_FRAME)


def rho_p(a: SqMatrix, b: SqMatrix) -> SqMatrix:
    """Product embedding (A, B) -> blockdiag(A, B), symplectic for J12."""
    _check_det(a, allow_minus=False)
    _check_det(b, allow_minus=False)
    zero2 = SqMatrix.zeros(2)
    return _from_blocks(a, zero2, zero2, b)


def _from_blocks(b00, b01, b10, b11) -> SqMatrix:
    return SqMatrix([b00[r] + b01[r] for r in range(2)]
                    + [b10[r] + b11[r] for r in range(2)])


def rho_delta(a: SqMatrix) -> SqMatrix:
    """Diagonal embedding A -> A (x) I, symplectic for J13.

    Equals H_PERM * (I (x) A) * H_PERM, the J12-side diagonal picture.
    """
    _check_det(a, allow_minus=False)
    return kron(a, I2)


def phi(a: SqMatrix) -> SqMatrix:
    """The fully diagonalized irreducible embedding.

    phi(A) = HT rho13(A) HT^-1 with HT = HTILDE T4, computed in the
    Cayley frame as F rho1(T2 A T2^-1) F^-1 (module docstring).  On the
    torus of gl1_torus elements it is exactly diag(l^3, l^-1, l^-3, l).
    """
    _check_det(a, allow_minus=False)
    return _monomial_conjugate(_rho1_raw(_cayley_conjugate(a)), _F_FRAME)


def gl1_torus(lam) -> SqMatrix:
    """The rank-1 torus element with parameter ``lam`` inside SL2.

    This is the conjugate T2^-1 diag(lam, lam^-1) T2 of the diagonal
    torus by T2 = [[1, i], [1, -i]]: the "rotation form" matrix
    [[a, -c], [c, a]] with a + ic = lam.  phi maps it to the diagonal
    matrix with entries (lam^3, lam^-1, lam^-3, lam).
    """
    lam = fe(lam)
    if lam.is_zero:
        raise ValueError("torus parameter must be nonzero")
    lam_inv = lam.inv()
    half = Fraction(1, 2)
    a = (lam + lam_inv) * half
    c = -I_UNIT * (lam - lam_inv) * half
    return SqMatrix([[a, -c], [c, a]])


# -- exact differentials ------------------------------------------------------


def rho13_star(x: SqMatrix) -> SqMatrix:
    """Exact differential of rho13 at the identity, on a traceless input.

    Every entry of rho13 is a cubic polynomial in the four matrix
    coordinates, so its derivative at I in the direction
    x = [[p, q], [r, -p]] is the coefficient of t in the grid at I + t x:

        [[3p,       0,        0,        sqrt3 q],
         [0,        -p,       sqrt3 q,  2r     ],
         [0,        sqrt3 r,  -3p,      0      ],
         [sqrt3 r,  2q,       0,        p      ]],

    computed as H_SYM3^-1 rho1_star(x) H_SYM3.  The verification suite
    checks it against an exact central difference of the grid.
    """
    _check_traceless(x)
    return _monomial_conjugate(_rho1_star(x), _J13_FRAME)


def phi_star(x: SqMatrix) -> SqMatrix:
    """Differential of phi: phi_star(x) = HT rho13_star(x) HT^-1.

    Computed in the Cayley frame as F rho1_star(T2 x T2^-1) F^-1, where
    rho1_star, the differential of rho1, is

        rho1_star([[p, q], [r, -p]]) = [[3p, 3q, 0,   0 ],
                                        [r,  p,  0,   2q],
                                        [0,  0,  -3p, 3r],
                                        [0,  2r, q,   -p]].
    """
    _check_traceless(x)
    return _monomial_conjugate(_rho1_star(_cayley_conjugate(x)), _F_FRAME)


# Frozen outputs of phi_star on the standard traceless generators
# e - f, e + f and h0; reproduced from scratch by the differential
# machinery in the verification suite.
GOLDEN_E_MINUS_F = SqMatrix.diag(-3 * I_UNIT, I_UNIT, 3 * I_UNIT, -I_UNIT)
GOLDEN_E_PLUS_F = SqMatrix([
    [ZERO, ZERO, ZERO, 3 * I_UNIT],
    [ZERO, ZERO, 3 * I_UNIT, -I_UNIT],
    [ZERO, -I_UNIT, ZERO, ZERO],
    [-I_UNIT, 4 * I_UNIT, ZERO, ZERO]])
GOLDEN_H0 = SqMatrix([
    [0, 0, 0, 3],
    [0, 0, 3, 1],
    [0, 1, 0, 0],
    [1, 4, 0, 0]])


def m_field_matrix(beta, gamma) -> SqMatrix:
    """The phi_star image of [[x, y], [y, -x]] written in terms of
    beta = x + iy and gamma = x - iy."""
    ints, d = _common([fe(beta), fe(gamma)])
    b, g = ints[:8], ints[8:]
    b3, b4, z = [3 * x for x in b], [4 * x for x in b], [0] * 8
    return _reduced([*z, *z, *z, *b3,
                     *z, *z, *b3, *g,
                     *z, *g, *z, *z,
                     *g, *b4, *z, *z], d)


def s_matrix(beta, gamma) -> SqMatrix:
    """Unipotent normalizer built from the ratio beta/gamma."""
    beta, gamma = fe(beta), fe(gamma)
    if gamma.is_zero:
        raise SingularNormalization("gamma must be nonzero")
    q = beta * gamma.inv()  # r = 2 q
    r = [2 * x for x in q._n]
    one, z = [q._d] + [0] * 7, [0] * 8
    return _reduced([*one, *r, *z, *z,
                     *z, *one, *z, *z,
                     *z, *z, *one, *z,
                     *z, *z, *map(neg, r), *one], q._d)


def s_conjugate(beta, gamma) -> SqMatrix:
    """Conjugate the m-part matrix by S; the result is exactly

        gamma * [[0, 0, 16 (b/g)^2, 5 (b/g)],
                 [0, 0,  5 (b/g),   1      ],
                 [0, 1,  0,         0      ],
                 [1, 0,  0,         0      ]].
    """
    # S = I + N with N^2 = 0, so S^-1 = I - N: row and column operations
    return _unipotent_conjugate(m_field_matrix(beta, gamma), s_matrix(beta, gamma))


# -- normalizer facts ---------------------------------------------------------


class NormalizerReport(Record):
    det_value: FieldElem
    det_ok: bool
    normalizes_ok: bool
    symplectic_for_j0: bool
    passed: bool


def normalizer_witness_check() -> NormalizerReport:
    """Check the three facts about rho1 of the swap matrix: determinant 1,
    normalizing rho1 on sampled elements, and failure of the J0
    symplectic condition."""
    w = rho1(SWAP)
    det_value = w.det()
    det_ok = det_value == ONE

    samples = [
        sl2(1, 1, 0, 1),
        sl2(1, 0, 1, 1),
        sl2(2, 0, 0, Fraction(1, 2)),
        sl2(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5)),
        sl2(2, 3, 1, 2),
    ]
    w_inv = w.inv()
    normalizes_ok = all(
        w * rho1(a) * w_inv == rho1(SWAP * a * SWAP)
        for a in samples)

    symplectic_for_j0 = is_symplectic(w, J0)
    passed = det_ok and normalizes_ok and not symplectic_for_j0
    return NormalizerReport(
        det_value=det_value,
        det_ok=det_ok,
        normalizes_ok=normalizes_ok,
        symplectic_for_j0=symplectic_for_j0,
        passed=passed)
