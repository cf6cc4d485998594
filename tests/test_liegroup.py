"""The explicit embeddings, their differentials and the frames between them."""

import random
from fractions import Fraction

import pytest

from sp4higgs.liegroup import (
    _F_FRAME, _J13_FRAME, _rho1_grid, _rho1_raw, _rho1_star,
    GOLDEN_E_MINUS_F, GOLDEN_E_PLUS_F, GOLDEN_H0, HT, HT_INV, SWAP,
    SingularNormalization, gl1_torus, m_field_matrix,
    normalizer_witness_check, phi, phi_star, rho1, rho13, rho13_star,
    rho_delta, rho_p, s_conjugate, s_matrix, sl2, T2_DET1,
)
from sp4higgs.matalg import (
    H_PERM, H_SYM3, H_SYM3_INV, I2, I4, J0, J12, J13, T2,
    SqMatrix, _monomial_conjugate, _ring, is_symplectic, kron,
)
from sp4higgs.numfield import FieldElem, I_UNIT, ONE, SQRT3, SQRT6, ZERO, fe

from builders import dense_elem
from test_matalg import RING_SUPPORTS, ring_class, support_elem

E = SqMatrix([[0, 1], [0, 0]])
F = SqMatrix([[0, 0], [1, 0]])
H0 = SqMatrix([[1, 0], [0, -1]])


def rand_sl2(rng, bound=9):
    while True:
        a = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if a:
            break
    b = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    c = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return sl2(a, b, c, (1 + b * c) / a)


# -- rho1 ------------------------------------------------------------------


def test_rho1_identity():
    assert rho1(I2) == I4


def test_rho1_swap_is_the_permutation():
    w = rho1(SWAP)
    assert w == SqMatrix([[0, 0, 1, 0], [0, 0, 0, 1],
                          [1, 0, 0, 0], [0, 1, 0, 0]])
    assert w.det() == ONE


def test_rho1_diagonal():
    m = rho1(sl2(2, 0, 0, Fraction(1, 2)))
    assert m == SqMatrix.diag(8, 2, Fraction(1, 8), Fraction(1, 2))
    assert is_symplectic(m, J0)


def test_rho1_symplectic_for_j0():
    rng = random.Random(1)
    for _ in range(20):
        assert is_symplectic(rho1(rand_sl2(rng)), J0)


# -- rho13 -----------------------------------------------------------------


def test_rho13_identity():
    assert rho13(I2) == I4


def test_rho13_is_conjugate_of_rho1():
    rng = random.Random(2)
    for _ in range(20):
        a = rand_sl2(rng)
        assert rho13(a) == H_SYM3_INV * rho1(a) * H_SYM3


def test_rho13_symplectic_many_samples():
    rng = random.Random(3)
    for _ in range(50):
        assert is_symplectic(rho13(rand_sl2(rng)), J13)


def test_rho13_homomorphism():
    rng = random.Random(4)
    for _ in range(25):
        a, b = rand_sl2(rng), rand_sl2(rng)
        assert rho13(a * b) == rho13(a) * rho13(b)


def test_rho13_rotation_lands_in_compact_block_form():
    # image of a rotation has the [[A, B], [-B, A]] unitary block shape
    r = rho13(sl2(Fraction(3, 5), Fraction(-4, 5),
                  Fraction(4, 5), Fraction(3, 5)))
    a, b, c, d = (SqMatrix([r[i][j:j + 2], r[i + 1][j:j + 2]])
                  for i in (0, 2) for j in (0, 2))
    assert d == a and c == -b
    assert a.T * a + b.T * b == I2
    assert a.T * b - b.T * a == SqMatrix.zeros(2)


# -- product and diagonal embeddings ---------------------------------------


def test_rho_p_identity_and_symplectic():
    assert rho_p(I2, I2) == I4
    rng = random.Random(5)
    for _ in range(20):
        a, b = rand_sl2(rng), rand_sl2(rng)
        assert is_symplectic(rho_p(a, b), J12)


def test_rho_delta_matches_perm_conjugation():
    rng = random.Random(6)
    for _ in range(20):
        a = rand_sl2(rng)
        assert rho_delta(a) == H_PERM * kron(I2, a) * H_PERM
        assert is_symplectic(rho_delta(a), J13)


# -- phi ---------------------------------------------------------------------


def test_phi_identity():
    assert phi(I2) == I4


def test_phi_rotation_is_diagonal():
    lam = fe(Fraction(3, 5)) + I_UNIT * Fraction(4, 5)
    got = phi(sl2(Fraction(3, 5), Fraction(-4, 5),
                  Fraction(4, 5), Fraction(3, 5)))
    assert got == SqMatrix.diag(lam ** 3, lam.inv(), lam ** -3, lam)


def test_phi_rational_torus():
    got = phi(gl1_torus(2))
    assert got == SqMatrix.diag(8, Fraction(1, 2), Fraction(1, 8), 2)


def test_phi_torus_exponents():
    rng = random.Random(7)
    for _ in range(10):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        lf = fe(lam)
        assert phi(gl1_torus(lam)) == SqMatrix.diag(
            lf ** 3, lf ** -1, lf ** -3, lf)


def test_phi_homomorphism_and_torus_multiplicativity():
    assert gl1_torus(2).det() == ONE
    assert phi(gl1_torus(2) * gl1_torus(3)) == phi(gl1_torus(6))


def test_phi_is_symplectic():
    # the conjugating frames rescale J13, so the rescalings cancel and
    # the image stays exactly J13-symplectic
    rng = random.Random(17)
    for _ in range(15):
        assert is_symplectic(phi(rand_sl2(rng)), J13)


# the definitions phi and phi_star are checked against, written out as
# the HT conjugations of rho13 and rho13_star


def _phi_ref(a):
    return HT * rho13(a) * HT_INV


def _phi_star_ref(x):
    return HT * rho13_star(x) * HT_INV


def _sparse_sl2(rng):
    # rational det-1 matrices with one of b, c often zero
    a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * rng.randint(0, 1)
            for _ in range(2))
    return sl2(a, b, c, (1 + b * c) / a)


def _dense_sl2(rng):
    a, b, c = dense_elem(rng), dense_elem(rng), dense_elem(rng)
    return sl2(a, b, c, (1 + b * c) / a)


def test_phi_matches_ht_conjugation_sparse():
    rng = random.Random(20261101)
    for _ in range(30):
        a = _sparse_sl2(rng)
        assert phi(a) == _phi_ref(a)


def test_phi_matches_ht_conjugation_dense():
    rng = random.Random(20261102)
    for _ in range(30):
        a = _dense_sl2(rng)
        assert phi(a) == _phi_ref(a)


def test_phi_matches_ht_conjugation_dense_torus():
    rng = random.Random(20261103)
    for _ in range(30):
        a = gl1_torus(dense_elem(rng))
        assert phi(a) == _phi_ref(a)


def test_phi_star_matches_ht_conjugation_dense():
    rng = random.Random(20261104)
    for _ in range(30):
        p, q, r = dense_elem(rng), dense_elem(rng), dense_elem(rng)
        x = SqMatrix([[p, q], [r, -p]])
        assert phi_star(x) == _phi_star_ref(x)


def _error_clause(f, m):
    with pytest.raises(ValueError) as info:
        f(m)
    return str(info.value)


def test_phi_error_clauses():
    assert _error_clause(phi, SqMatrix.diag(2, 1)) == "determinant is FieldElem(2)"
    assert _error_clause(phi, SWAP) == "determinant is FieldElem(-1)"
    assert _error_clause(phi, I4) == "expected a 2x2 matrix"


def test_phi_star_error_clauses():
    assert _error_clause(phi_star, I2) == "input must be traceless"
    assert _error_clause(phi_star, I4) == "expected a 2x2 matrix"


# (call, exact ValueError message) of the argument guards outside phi
GUARDS = {
    "sl2-det-2": (lambda: sl2(2, 0, 0, 1), "determinant is FieldElem(2)"),
    "sl2-det-minus-1": (lambda: sl2(0, 1, 1, 0), "determinant is FieldElem(-1)"),
    "gl1-torus-zero": (lambda: gl1_torus(0), "torus parameter must be nonzero"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_messages(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# -- differentials ------------------------------------------------------------


def test_golden_matrices_reproduced():
    assert phi_star(E - F) == GOLDEN_E_MINUS_F
    assert phi_star(E + F) == GOLDEN_E_PLUS_F
    assert phi_star(H0) == GOLDEN_H0


def test_phi_star_on_symmetric_traceless():
    rng = random.Random(8)
    for _ in range(10):
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        y = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        m = SqMatrix([[x, y], [y, -x]])
        beta = fe(x) + I_UNIT * y
        gamma = fe(x) - I_UNIT * y
        assert phi_star(m) == m_field_matrix(beta, gamma)


def test_rho13_star_linearity():
    rng = random.Random(9)
    for _ in range(10):
        x1 = SqMatrix([[1, rng.randint(-3, 3)], [rng.randint(-3, 3), -1]])
        x2 = SqMatrix([[0, rng.randint(-3, 3)], [rng.randint(-3, 3), 0]])
        assert rho13_star(x1 + x2) == rho13_star(x1) + rho13_star(x2)


def test_rho13_star_rejects_non_traceless():
    with pytest.raises(ValueError):
        rho13_star(I2)


def _rho13_raw(m):
    # evaluate the rho13 entry polynomials without the determinant check
    (a, b), (c, d) = m.rows
    return SqMatrix(_rho13_grid_ref(a, b, c, d, fe(2), fe(3), SQRT3))


def test_differential_matches_exact_finite_difference():
    # Every entry of rho13 is a cubic polynomial in the matrix
    # coordinates, so the cubic-exact stencil
    # (8(p(1) - p(-1)) - (p(2) - p(-2))) / 12 recovers the derivative at
    # 0 with no truncation error: an oracle independent of the
    # dual-number implementation.
    for x in (E, F, H0, E + F, E - F, SqMatrix([[2, 3], [5, -2]])):
        vals = {t: _rho13_raw(I2 + x.scale(t)) for t in (1, -1, 2, -2)}
        stencil = ((vals[1] - vals[-1]).scale(8)
                   - (vals[2] - vals[-2])).scale(Fraction(1, 12))
        assert rho13_star(x) == stencil


# -- references for the grids and the differential ------------------------------


def _rho1_grid_ref(a, b, c, d, two, three):
    # the entry polynomials written out monomial by monomial
    return (
        (a * a * a, three * a * a * b, b * b * b, three * a * b * b),
        (a * a * c, a * a * d + two * a * b * c, b * b * d, b * b * c + two * a * b * d),
        (c * c * c, three * c * c * d, d * d * d, three * c * d * d),
        (a * c * c, b * c * c + two * a * c * d, b * d * d, a * d * d + two * b * c * d),
    )


def _rho13_grid_ref(a, b, c, d, two, three, s3):
    return (
        (a * a * a, s3 * a * b * b, b * b * b, s3 * a * a * b),
        (s3 * a * c * c, a * d * d + two * b * c * d, s3 * b * d * d, b * c * c + two * a * c * d),
        (c * c * c, s3 * c * d * d, d * d * d, s3 * c * c * d),
        (s3 * a * a * c, b * b * c + two * a * b * d, s3 * b * b * d, a * a * d + two * a * b * c),
    )


class _Dual:
    """a + b*eps with eps^2 = 0; exact first-order arithmetic."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)


def _rho13_star_dual(x):
    # the eps coefficient of the grid at I + eps*x is the derivative at I
    (p, q), (r, s) = x.rows
    grid = _rho13_grid_ref(_Dual(ONE, p), _Dual(ZERO, q), _Dual(ZERO, r),
                           _Dual(ONE, s), _Dual(fe(2), ZERO),
                           _Dual(fe(3), ZERO), _Dual(SQRT3, ZERO))
    return SqMatrix(tuple(tuple(entry.b for entry in row) for row in grid))


def _dense_quads(rng):
    quads = [tuple(dense_elem(rng) for _ in range(4)) for _ in range(29)]
    a, c = dense_elem(rng), dense_elem(rng)
    quads.append((a, -c, c, a))  # gl1_torus-shaped
    return quads


def test_shared_monomial_grids_match_reference():
    rng = random.Random(20261025)
    two, three = fe(2), fe(3)
    for a, b, c, d in _dense_quads(rng):
        assert _rho1_grid(a, b, c, d, two, three) == _rho1_grid_ref(
            a, b, c, d, two, three)
        assert _monomial_conjugate(
            SqMatrix(_rho1_grid(a, b, c, d, two, three)), _J13_FRAME
        ) == SqMatrix(_rho13_grid_ref(a, b, c, d, two, three, SQRT3))


def _sparse_quads(rng):
    # k nonzero coordinates per entry, k = 1 (rational when at index 0)
    # to 8; integer and non-unit denominators
    quads = []
    for k in range(9):
        for den in (1, 9):
            quad = []
            for _ in range(4):
                x = [0] * 8
                for pos in rng.sample(range(8), k):
                    x[pos] = Fraction(rng.randint(-30, 30), rng.randint(1, den))
                quad.append(FieldElem(x))
            quads.append(tuple(quad))
    for den in (1, 7):
        quads.append(tuple(fe(Fraction(rng.randint(-30, 30), rng.randint(1, den)))
                           for _ in range(4)))
    return quads


def test_rho1_raw_matches_reference_grid():
    # _rho1_raw runs the grid on ints (plain ints for a rational matrix,
    # _IntElem otherwise) over the cube of the denominator
    rng = random.Random(20261032)
    two, three = fe(2), fe(3)
    quads = _sparse_quads(rng) + _dense_quads(rng)
    quads += [tuple(x * Fraction(1, 6) for x in q) for q in _dense_quads(rng)[:5]]
    for a, b, c, d in quads:
        assert _rho1_raw(SqMatrix([[a, b], [c, d]])) == SqMatrix(
            _rho1_grid_ref(a, b, c, d, two, three))


@pytest.mark.parametrize("support", RING_SUPPORTS, ids=str)
def test_rho1_raw_in_every_ring(support):
    # rational, one-subfield and general quads, each in the ring _ring
    # picks for it, against the FieldElem reference grid
    rng = random.Random(20261041 + len(support) + 3 * support[-1])
    two, three = fe(2), fe(3)
    for bound, den in ((9, 1), (9, 9), (10 ** 6, 7)):
        for _ in range(3):
            a, b, c, d = (support_elem(rng, support, bound, den) for _ in range(4))
            m = SqMatrix([[a, b], [c, d]])
            assert {type(e) for e in _ring(m._n)} == {ring_class(support)}
            assert _rho1_raw(m) == SqMatrix(_rho1_grid_ref(a, b, c, d, two, three))


def _rho1_star_ref(x):
    # rho1_star built from FieldElem arithmetic, entry by entry
    (p, q), (r, _) = x.rows
    z = ZERO
    return SqMatrix((
        (3 * p, 3 * q, z, z),
        (r, p, z, 2 * q),
        (z, z, -3 * p, 3 * r),
        (z, 2 * r, q, -p)))


def test_differentials_match_the_field_built_rho1_star():
    rng = random.Random(20261042)
    f, f_inv = _F_FRAME.matrix, _F_FRAME.matrix.inv()
    for _ in range(20):
        p, q, r = dense_elem(rng), dense_elem(rng), dense_elem(rng)
        for x in (SqMatrix([[p, q], [r, -p]]), SqMatrix([[p, 0], [0, -p]]),
                  SqMatrix([[Fraction(3, 7), -2], [5, Fraction(-3, 7)]])):
            ref = _rho1_star_ref(x)
            assert _rho1_star(x) == ref
            assert rho13_star(x) == H_SYM3_INV * ref * H_SYM3
            assert phi_star(x) == f * _rho1_star_ref(T2 * x * T2.inv()) * f_inv


def _m_field_matrix_ref(beta, gamma):
    z = ZERO
    return SqMatrix([
        [z, z, z, 3 * beta],
        [z, z, 3 * beta, gamma],
        [z, gamma, z, z],
        [gamma, 4 * beta, z, z]])


def test_s_conjugate_matches_the_generic_product():
    # S M S^-1 as two 4x4 products and a generic inverse, not the
    # closed form of the docstring
    rng = random.Random(20261043)
    for k in range(30):
        beta, gamma = dense_elem(rng), dense_elem(rng)
        if k % 3 == 2:
            beta, gamma = beta * 10 ** 9, gamma * Fraction(1, 10 ** 7)
        s, m = s_matrix(beta, gamma), m_field_matrix(beta, gamma)
        r = 2 * beta / gamma
        assert s == SqMatrix([[1, r, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, -r, 1]])
        assert m == _m_field_matrix_ref(beta, gamma)
        assert s_conjugate(beta, gamma) == s * m * s.inv()
    for beta, gamma in ((0, 1), (1, 1), (SQRT3, I_UNIT), (Fraction(2, 3), -5)):
        s, m = s_matrix(beta, gamma), m_field_matrix(beta, gamma)
        assert s_conjugate(beta, gamma) == s * m * s.inv()


def test_rho13_star_matches_dual_number_evaluation():
    rng = random.Random(20261026)
    for _ in range(30):
        p, q, r = dense_elem(rng), dense_elem(rng), dense_elem(rng)
        x = SqMatrix([[p, q], [r, -p]])
        assert rho13_star(x) == _rho13_star_dual(x)


# -- S-conjugation -------------------------------------------------------------


def test_s_conjugate_beta_zero():
    got = s_conjugate(0, 1)
    assert got == SqMatrix([[0, 0, 0, 0], [0, 0, 0, 1],
                            [0, 1, 0, 0], [1, 0, 0, 0]])


def test_s_conjugate_unit_values():
    got = s_conjugate(1, 1)
    assert got == SqMatrix([[0, 0, 16, 5], [0, 0, 5, 1],
                            [0, 1, 0, 0], [1, 0, 0, 0]])


def test_s_conjugate_gamma_scaling():
    got = s_conjugate(1, 2)
    r = Fraction(1, 2)
    want = SqMatrix([[0, 0, 16 * r * r, 5 * r], [0, 0, 5 * r, 1],
                     [0, 1, 0, 0], [1, 0, 0, 0]]).scale(2)
    assert got == want
    assert got[0][2] == fe(8) and got[0][3] == fe(5)


def test_s_conjugate_gamma_zero_raises():
    with pytest.raises(SingularNormalization):
        s_conjugate(1, 0)


def test_s_matrix_inverse_is_negated_ratio():
    # S = I + N with N^2 = 0: r -> -r inverts it, and so does
    # 2I - S = I - N, which s_conjugate relies on
    rng = random.Random(20261018)
    for _ in range(10):
        beta, gamma = dense_elem(rng), dense_elem(rng)
        s = s_matrix(beta, gamma)
        assert s * s_matrix(-beta, gamma) == I4
        assert s_matrix(-beta, gamma) == s.inv() == 2 * I4 - s


# -- normalizer --------------------------------------------------------------------


def test_normalizer_witness():
    rep = normalizer_witness_check()
    assert rep.det_ok and rep.det_value == ONE
    assert rep.normalizes_ok
    assert not rep.symplectic_for_j0
    assert rep.passed


# -- frame bookkeeping ---------------------------------------------------------------


def test_ht_inverse_is_exact():
    assert HT * HT_INV == I4


def test_ht_factors_through_the_cayley_frame():
    frame = SqMatrix([[1, 0, 0, 0], [0, 0, 0, Fraction(1, 2)],
                      [0, 0, Fraction(1, 6), 0], [0, 1, 0, 0]])
    assert T2_DET1.det() == ONE
    assert HT * H_SYM3_INV == (frame * rho1(T2_DET1)).scale(
        SQRT6 * (ONE + I_UNIT))


def test_conjugation_chain_stays_in_algebra():
    # rho13_star and phi_star are linear, so their images of the basis
    # e, f, h0 of sl(2) in sp(4, C) for the frozen form J13 prove it
    # for every traceless input
    for x in (E, F, H0):
        for y in (rho13_star(x), phi_star(x)):
            assert (y.T * J13 + J13 * y).is_zero
