"""Matrix algebra: kron, symplectic checks, fixed constants."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sp4higgs.matalg import (
    H_PERM, H_SYM3, H_SYM3_INV, HTILDE, I2, I4, J0, J12, J13, J2, T2, T4,
    SingularMatrix, SqMatrix, _cayley_conjugate, _flat, _monomial_conjugate,
    _monomial_frame, _ring,
    conjugate, exp_nilpotent, is_symplectic, kron, kron_exp_identity_check,
    kron_identities_check, preserves_symplectic_up_to_scalar,
)
from sp4higgs.liegroup import HT, HT_INV, phi, phi_star, s_conjugate, sl2
from sp4higgs.numfield import (
    FieldElem, I_UNIT, ONE, SQRT2, SQRT3, ZERO, _IntElem, _QuadElem, fe,
)

from builders import dense_elem
from test_numfield import ref_mul as ref_field_mul


def rand2(rng, bound=9):
    return SqMatrix([[Fraction(rng.randint(-bound, bound),
                               rng.randint(1, bound))
                      for _ in range(2)] for _ in range(2)])


def rand_sl2(rng, bound=9):
    while True:
        a = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if a:
            break
    b = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    c = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return SqMatrix([[a, b], [c, (1 + b * c) / a]])


def test_kron_gives_both_forms():
    assert kron(J2, I2) == J13
    assert kron(I2, J2) == J12
    assert kron(I2, I2) == I4


def test_is_symplectic_examples():
    assert is_symplectic(I4, J13)
    assert is_symplectic(SqMatrix.diag(2, 1, Fraction(1, 2), 1), J13)
    with pytest.raises(ValueError, match="^form must be antisymmetric$"):
        is_symplectic(I4, I4)  # not antisymmetric


def test_symplectic_group_closure():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_sl2(rng), rand_sl2(rng)
        g = kron(a, I2)       # symplectic for J13
        gp = kron(b, I2)
        assert is_symplectic(g, J13) and is_symplectic(gp, J13)
        assert is_symplectic(g * gp, J13)


def test_preserves_up_to_scalar():
    c = preserves_symplectic_up_to_scalar(T4, J13)
    assert c == -2 * I_UNIT
    c = preserves_symplectic_up_to_scalar(HTILDE, J13)
    assert c == -ONE
    rng = random.Random(4)
    generic = SqMatrix([[fe(rng.randint(1, 9)) for _ in range(4)]
                        for _ in range(4)])
    assert preserves_symplectic_up_to_scalar(generic, J13) is None


def test_conjugate_swaps_kron_factors():
    rng = random.Random(5)
    for _ in range(10):
        a, b = rand2(rng), rand2(rng)
        assert conjugate(kron(b, a), H_PERM) == kron(a, b)
    m = rand2(rng)
    assert conjugate(m, I2) == m


def test_h_perm_intertwines_the_forms():
    assert H_PERM * J12 == J13 * H_PERM
    assert H_PERM == H_PERM.T
    assert H_PERM * H_PERM == I4


def test_conjugate_by_singular_raises():
    with pytest.raises(SingularMatrix):
        conjugate(I4, SqMatrix.zeros(4))


def test_kron_identities():
    rng = random.Random(6)
    for _ in range(20):
        assert kron_identities_check(*(rand2(rng) for _ in range(4)))
    assert kron_identities_check(I2, rand2(rng), I2, rand2(rng))


# a shear: invertible, and P^t P = [[1, 1], [1, 2]] (x) I is not I
_SHEAR = SqMatrix([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])

# kron replacements that kron_identities_check must reject: one breaks
# the mixed product, the other keeps it (a conjugate of the true kron
# is still multiplicative) but breaks the transpose identity
BAD_KRONS = {
    "doubled": lambda a, b: kron(a, b).scale(2),
    "shear-conjugated": lambda a, b: conjugate(kron(a, b), _SHEAR),
}


@pytest.mark.parametrize("name", list(BAD_KRONS))
def test_kron_identities_negative_control(monkeypatch, name):
    import sp4higgs.matalg
    rng = random.Random(6)
    a, b, c, d = (rand2(rng) for _ in range(4))
    bad = BAD_KRONS[name]
    keeps_mixed_product = bad(a, b) * bad(c, d) == bad(a * c, b * d)
    assert keeps_mixed_product == (name == "shear-conjugated")
    monkeypatch.setattr(sp4higgs.matalg, "kron", bad)
    assert kron_identities_check(a, b, c, d) is False


def test_kron_exp_identity_negative_control(monkeypatch):
    import sp4higgs.matalg
    assert kron_exp_identity_check() is True
    monkeypatch.setattr(sp4higgs.matalg, "kron", BAD_KRONS["doubled"])
    assert kron_exp_identity_check() is False


def test_exp_nilpotent_two_term_series():
    up = SqMatrix([[0, 1], [0, 0]])
    low = SqMatrix([[0, 0], [1, 0]])
    lhs = exp_nilpotent(kron(up, I2) + kron(I2, low))
    assert lhs == kron(exp_nilpotent(up), exp_nilpotent(low))
    with pytest.raises(ValueError):
        exp_nilpotent(I2)


def test_det_of_kron():
    rng = random.Random(7)
    for _ in range(15):
        a, b = rand2(rng), rand2(rng)
        assert kron(a, b).det() == a.det() ** 2 * b.det() ** 2


def test_inverse_and_det():
    rng = random.Random(8)
    for _ in range(10):
        m = rand_sl2(rng)
        assert m * m.inv() == I2
        assert m.det() == ONE
    big = kron(rand_sl2(rng), rand_sl2(rng))
    assert big * big.inv() == I4


def test_h_sym3_relates_the_forms():
    assert H_SYM3.T * J0 * H_SYM3 == J13
    assert H_SYM3 * H_SYM3_INV == I4
    assert H_SYM3 == H_SYM3.T


def test_repr_lists_the_rows():
    assert repr(SqMatrix([[0, 2], [3, 0]])) == (
        "SqMatrix(\n"
        "  [FieldElem(0), FieldElem(2)],\n"
        "  [FieldElem(3), FieldElem(0)])")


# -- against a per-entry FieldElem reference -----------------------------------

# The reference works entry by entry on grids of FieldElems (``m.rows``)
# with field arithmetic only, which test_numfield.py checks against its
# own Fraction reference: a product entry is a dot product, the
# determinant a cofactor expansion, the inverse the adjugate over the
# determinant.  Nothing in it sums over a common matrix denominator.

def ref_dot(row, col):
    acc = ZERO
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


def ref_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = ZERO
    for j, a in enumerate(rows[0]):
        minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
        term = a * ref_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def ref_inv(rows):
    d = ref_det(rows)
    if d.is_zero:
        raise SingularMatrix("matrix is singular")
    dinv, n = d.inv(), len(rows)
    return tuple(tuple(
        (-1) ** (i + j) * dinv * ref_det(tuple(
            rows[r][:i] + rows[r][i + 1:] for r in range(n) if r != j))
        for j in range(n)) for i in range(n))


def ref_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(ref_dot(row, col) for col in cols) for row in a)


def ref_entrywise(f, *grids):
    return tuple(tuple(f(*xs) for xs in zip(*rows)) for rows in zip(*grids))


def dense_matrix(rng, n):
    return SqMatrix([[dense_elem(rng) for _ in range(n)] for _ in range(n)])


def singular_matrix(rng, n):
    """Dense rows whose last row is a combination of the others."""
    rows = [[dense_elem(rng) for _ in range(n)] for _ in range(n - 1)]
    coeffs = [dense_elem(rng) for _ in rows]
    rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), ZERO)
                 for j in range(n)])
    return SqMatrix(rows)


def assert_canonical(m):
    n, d = m._n, m._d
    assert len(n) == 8 * m.dim ** 2 and all(type(x) is int for x in n)
    assert type(d) is int and d > 0
    assert math.gcd(*n, d) == 1
    if not any(n):
        assert d == 1


@pytest.mark.parametrize("n", [2, 4])
def test_operations_match_reference(n):
    rng = random.Random(20261018 + n)
    for _ in range(25):
        a, b = dense_matrix(rng, n), dense_matrix(rng, n)
        c = dense_elem(rng)
        ra, rb = a.rows, b.rows
        assert (a * b).rows == ref_mul(ra, rb)
        assert (a + b).rows == ref_entrywise(lambda x, y: x + y, ra, rb)
        assert (a - b).rows == ref_entrywise(lambda x, y: x - y, ra, rb)
        assert (-a).rows == ref_entrywise(lambda x: -x, ra)
        assert a.scale(c).rows == (a * c).rows == ref_entrywise(lambda x: c * x, ra)
        assert (3 * a).rows == ref_entrywise(lambda x: 3 * x, ra)
        assert a.T.rows == tuple(zip(*ra))
        assert a.trace() == sum((ra[i][i] for i in range(n)), ZERO)
        assert a.det() == ref_det(ra)
        assert a.inv().rows == ref_inv(ra)
        for m in (a, b, a * b, a + b, a - b, -a, a.scale(c), a.T, a.inv(),
                  a - a, a.scale(0)):
            assert_canonical(m)


# numfield._mul_into multiplies through the tower when its right factor
# has more than 2 nonzero coordinates and through the structure-constant
# table otherwise; these draw every pair of nonzero counts (k, l) across
# that boundary, in small and in large ints.

def sparse_elem(rng, k, bound):
    """k nonzero coordinates at random positions, with random signs;
    numerators up to ``bound``, denominators up to 9 (so that a 4x4
    matrix keeps a small common denominator)."""
    x = [Fraction(0)] * 8
    for pos in rng.sample(range(8), k):
        x[pos] = Fraction(rng.choice((-1, 1)) * rng.randint(1, bound),
                          rng.randint(1, 9))
    return FieldElem(x)


def sparse_matrix(rng, n, k, bound):
    return SqMatrix([[sparse_elem(rng, k, bound) for _ in range(n)]
                     for _ in range(n)])


def assert_inverse_matches_reference(m):
    if ref_det(m.rows).is_zero:
        with pytest.raises(SingularMatrix):
            m.inv()
    else:
        assert m.inv().rows == ref_inv(m.rows)


@pytest.mark.parametrize("bound", [9, 10 ** 12])
def test_products_across_the_dispatch_boundary(bound):
    rng = random.Random(20261031 + len(str(bound)))
    for k in range(9):
        for l in range(9):
            x, y = sparse_elem(rng, k, bound), sparse_elem(rng, l, bound)
            assert (x * y).coeffs == ref_field_mul(x.coeffs, y.coeffs)
            a, b = sparse_matrix(rng, 2, k, bound), sparse_matrix(rng, 2, l, bound)
            ra, rb = a.rows, b.rows
            assert (a * b).rows == ref_mul(ra, rb)
            assert a.scale(y).rows == ref_entrywise(lambda e: e * y, ra)
            assert kron(a, b).rows == tuple(
                tuple(ra[i][j] * rb[r][c] for j in range(2) for c in range(2))
                for i in range(2) for r in range(2))
            assert a.det() == ref_det(ra)
            assert_inverse_matches_reference(a)
            a4, b4 = sparse_matrix(rng, 4, k, bound), sparse_matrix(rng, 4, l, bound)
            assert (a4 * b4).rows == ref_mul(a4.rows, b4.rows)
            assert a4.scale(y).rows == ref_entrywise(lambda e: e * y, a4.rows)
            assert a4.det() == ref_det(a4.rows)
            assert_inverse_matches_reference(a4)
            # entries of every count in one matrix
            mixed = SqMatrix([[sparse_elem(rng, rng.randint(0, 8), bound)
                               for _ in range(4)] for _ in range(4)])
            assert (mixed * a4).rows == ref_mul(mixed.rows, a4.rows)
            assert_inverse_matches_reference(mixed)


# matalg._ring runs det, inv (and liegroup's rho1 grid) in the smallest
# ring that holds a matrix's entries: plain ints for rational entries, a
# _QuadElem each for entries in one quadratic subfield Q(b_k), an
# _IntElem each otherwise.  Random positions almost never keep a matrix
# inside one subfield, so these draw every coordinate support a ring
# choice reads: {0}, {0, k} and {k} for k = 1..7, and all 8.

RING_SUPPORTS = ([(0,)] + [(0, k) for k in range(1, 8)]
                 + [(k,) for k in range(1, 8)] + [tuple(range(8))])


def ring_class(support):
    """The element type _ring picks for entries on ``support``."""
    nonrational = [k for k in support if k]
    if not nonrational:
        return int
    return _QuadElem if len(nonrational) == 1 else _IntElem


def support_elem(rng, support, bound=9, den=9):
    """Nonzero random coordinates on ``support``, zero elsewhere."""
    x = [0] * 8
    for k in support:
        x[k] = Fraction(rng.choice((-1, 1)) * rng.randint(1, bound),
                        rng.randint(1, den))
    return FieldElem(x)


def support_matrix(rng, n, support, bound=9):
    return SqMatrix([[support_elem(rng, support, bound) for _ in range(n)]
                     for _ in range(n)])


def singular_support_matrix(rng, n, support):
    """Rows on ``support`` whose last row is a rational combination of
    the others, so the matrix stays on ``support``."""
    rows = [[support_elem(rng, support) for _ in range(n)] for _ in range(n - 1)]
    coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
    rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), ZERO)
                 for j in range(n)])
    return SqMatrix(rows)


@pytest.mark.parametrize("support", RING_SUPPORTS, ids=str)
@pytest.mark.parametrize("n", [2, 4])
def test_every_ring_matches_reference(n, support):
    rng = random.Random(20261040 + 10 * n + len(support) + 3 * support[-1])
    for bound in (9, 9, 10 ** 12):
        m = support_matrix(rng, n, support, bound)
        elems = _ring(m._n)
        assert {type(e) for e in elems} == {ring_class(support)}
        assert _flat(elems) == list(m._n)
        assert m.det() == ref_det(m.rows)
        assert m.inv().rows == ref_inv(m.rows)
        # a subfield is a field: the inverse stays on its coordinates
        inv = m.inv()._n
        assert {k for k in range(8) if any(inv[k::8])} <= {0, *support}
        assert_canonical(m.inv())
        s = singular_support_matrix(rng, n, support)
        assert {type(e) for e in _ring(s._n)} == {ring_class(support)}
        assert s.det().is_zero and ref_det(s.rows).is_zero
        with pytest.raises(SingularMatrix):
            s.inv()


def test_t4_is_t2_kron_identity():
    assert kron(T2, I2) == T4
    assert T2.det() == -2 * I_UNIT


def test_cayley_conjugate_matches_products():
    rng = random.Random(20261105)
    t2_inv = T2.inv()
    for a in [I2, J2, SqMatrix.zeros(2)] + [dense_matrix(rng, 2) for _ in range(25)]:
        got = _cayley_conjugate(a)
        assert got == T2 * a * t2_inv
        assert_canonical(got)


def test_monomial_conjugate_matches_products():
    # weights are rational multiples of basis elements (sqrt3, i, i*sqrt6,
    # ...), whose ratios are again such multiples
    rng = random.Random(20261106)
    basis = [FieldElem([int(k == j) for k in range(8)]) for j in range(8)]
    for n in (2, 4) * 15:
        perm = rng.sample(range(n), n)
        weights = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                            rng.randint(1, 12)) * rng.choice(basis)
                   for _ in range(n)]
        f = SqMatrix([[weights[i] if j == perm[i] else 0 for j in range(n)]
                      for i in range(n)])
        m = dense_matrix(rng, n)
        got = _monomial_conjugate(m, _monomial_frame(f))
        assert got == f * m * f.inv()
        assert_canonical(got)
    for f in (H_SYM3_INV, SqMatrix.diag(SQRT3, I_UNIT, 1, -I_UNIT * SQRT3)):
        frame = _monomial_frame(f)
        m = dense_matrix(rng, 4)
        assert _monomial_conjugate(m, frame) == f * m * f.inv()
        assert _monomial_conjugate(I4, frame) == I4
        assert_canonical(_monomial_conjugate(SqMatrix.zeros(4), frame))


@pytest.mark.parametrize("g", [
    I4 + SqMatrix([[0, 1, 0, 0]] + [[0] * 4] * 3),  # two nonzeros in row 0
    SqMatrix([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    SqMatrix.diag(1, 1, 1, 0),  # a zero row
    SqMatrix.zeros(2),
])
def test_monomial_frame_rejects_non_monomial(g):
    with pytest.raises(ValueError, match="one nonzero entry in each row and column"):
        _monomial_frame(g)


@pytest.mark.parametrize("g", [
    SqMatrix.diag(1 + SQRT2, 1, 1, 1),
    SqMatrix([[0, SQRT3 + I_UNIT], [1, 0]]),
])
def test_monomial_frame_rejects_ratios_off_the_basis(g):
    with pytest.raises(ValueError, match="rational multiples of one basis element"):
        _monomial_frame(g)


@pytest.mark.parametrize("n", [2, 4])
def test_singular_matrices_match_reference(n):
    rng = random.Random(20261020 + n)
    for _ in range(5):
        m = singular_matrix(rng, n)
        assert m.det().is_zero and ref_det(m.rows).is_zero
        with pytest.raises(SingularMatrix):
            m.inv()
        with pytest.raises(SingularMatrix):
            ref_inv(m.rows)


@pytest.mark.parametrize("n", [2, 4])
def test_equal_matrices_hash_alike(n):
    rng = random.Random(20261022 + n)
    for _ in range(10):
        a, b = dense_matrix(rng, n), dense_matrix(rng, n)
        c = dense_elem(rng)
        same = (a.scale(c).scale(c.inv()), (a + a).scale(Fraction(1, 2)),
                a - b + b, SqMatrix(a.rows), (a * b) * b.inv())
        for m in same:
            assert m == a and hash(m) == hash(a)
        assert (a == b) == (a.rows == b.rows)
        assert a != a.scale(2) and a != a.T
    assert SqMatrix.identity(n).scale(Fraction(1, 3)).scale(3) == SqMatrix.identity(n)


def test_adding_a_non_matrix_is_a_type_error():
    m = SqMatrix([[1, 2], [3, 4]])
    for other in (1, Fraction(1, 2), ONE):
        with pytest.raises(TypeError):
            m + other
        with pytest.raises(TypeError):
            m - other
        with pytest.raises(TypeError):
            other + m


def test_field_element_times_matrix_scales():
    # FieldElem.__mul__ defers to SqMatrix.__rmul__
    assert SQRT3 * SqMatrix([[1, 2], [3, 4]]) == SqMatrix(
        [[SQRT3, 2 * SQRT3], [3 * SQRT3, 4 * SQRT3]])
    rng = random.Random(20261024)
    for n in (2, 4):
        m, c = dense_matrix(rng, n), dense_elem(rng)
        assert c * m == m * c == m.scale(c)


# -- frozen JSON of the embedding matrices -------------------------------------

GOLDEN_PATH = Path(__file__).with_name("matalg_golden.json")


def matrix_json(m: SqMatrix) -> dict:
    """The {dim, entries} object of ``m``, entries by FieldElem.to_json."""
    return {"dim": m.dim, "entries": [[a.to_json() for a in row] for row in m.rows]}


def golden_outputs() -> dict:
    """The JSON of HT, HT_INV and of phi, phi^-1, phi_star and s_conjugate
    on five fixed dense inputs."""
    rng = random.Random("matalg-golden")
    samples = []
    for _ in range(5):
        a, b, c = (dense_elem(rng, 3) for _ in range(3))
        p, q, r = (dense_elem(rng, 3) for _ in range(3))
        beta, gamma = dense_elem(rng, 3), dense_elem(rng, 3)
        g = phi(sl2(a, b, c, (1 + b * c) / a))
        samples.append({
            "phi": matrix_json(g),
            "phi_inv": matrix_json(g.inv()),
            "phi_star": matrix_json(phi_star(SqMatrix([[p, q], [r, -p]]))),
            "s_conjugate": matrix_json(s_conjugate(beta, gamma)),
        })
    return {"HT": matrix_json(HT), "HT_INV": matrix_json(HT_INV), "samples": samples}


def test_matrix_json_is_frozen():
    want = GOLDEN_PATH.read_text(encoding="utf-8")
    assert json.dumps(golden_outputs(), sort_keys=True) + "\n" == want


# (call, exception, exact message) of each shape and argument guard
GUARDS = {
    "non-square": (lambda: SqMatrix([[1, 2], [3]]), ValueError,
                   "SqMatrix must be square of dimension 2 or 4"),
    "3x3": (lambda: SqMatrix.identity(3), ValueError,
            "SqMatrix must be square of dimension 2 or 4"),
    "dimension-mismatch": (lambda: I2 + I4, ValueError, "dimension mismatch: 2 vs 4"),
    "kron-4x4": (lambda: kron(I4, I2), ValueError,
                 "kron is defined here for 2x2 factors only"),
    "zero-form": (lambda: preserves_symplectic_up_to_scalar(I4, SqMatrix.zeros(4)),
                  ValueError, "form is zero"),
    "immutable": (lambda: setattr(I2, "_d", 2), AttributeError, "SqMatrix is immutable"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_messages(name):
    call, exc, message = GUARDS[name]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_comparing_with_a_non_matrix_is_not_implemented():
    assert I2.__eq__("I2") is NotImplemented
    assert I2 != "I2" and not I2 == "I2"
