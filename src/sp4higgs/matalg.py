"""Dense 2x2 / 4x4 matrix algebra over Q(i, sqrt2, sqrt3).

A matrix is stored as the 8 integer numerators of each entry (in the
basis order of ``numfield``) over one positive common denominator, in
canonical form: the gcd of all the ints and the denominator is 1.  The
arithmetic runs on the ints and reduces each result by one gcd, so no
partial sum is normalized; entries are built as FieldElems only when
read.

Everything is exact: determinants and inverses by adjugate (dimensions
are fixed and tiny, so no pivoting is needed), and matrix exponentials
only for nilpotent arguments, via the finite series.  The adjugate runs
on the numerators in the smallest ring that holds them (``_ring``):
plain ints when every entry is rational, ``numfield._QuadElem`` (3 ints)
when all entries lie in one quadratic subfield Q(b_k), such as the Q(i)
of the Cayley frame, and ``numfield._IntElem`` (8 ints) otherwise; a
4x4 one goes through the twelve 2x2 minors of row pairs (0, 1) and
(2, 3), and an inverse makes one field inverse, of the determinant.

Also defines the fixed symplectic forms and change-of-basis matrices
used throughout the symplectic rank-2 analysis:

* ``J13`` = J (x) I and ``J12`` = I (x) J, the two block conventions;
* ``J0``, the form induced on the third symmetric power basis;
* ``H_PERM``, the self-inverse permutation with A (x) B = h (B (x) A) h;
* ``H_SYM3``, the symmetrizer with 1/sqrt3 entries relating J0 to J13
  (a different matrix from H_PERM, despite both being called "h" in
  informal usage -- they are kept under distinct names on purpose);
* ``T2``, the Cayley matrix [[1, i], [1, -i]], and ``T4`` = T2 (x) I,
  the complex change of frame to coordinates where the maximal compact
  acts block-diagonally;
* ``HTILDE``, the radical-entry matrix that diagonalizes the compact
  torus of the irreducible embedding.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub
from typing import NamedTuple, Optional

from ._record import Immutable
from .numfield import (
    FieldElem, I_UNIT, ONE, SQRT3, ZERO, _MUL, _IntElem, _QuadElem, _canonical,
    _combined, _common, _factor, _lowest, _mul_into, _nonzero, embed_u_v, fe,
)

__all__ = [
    "SingularMatrix",
    "SqMatrix",
    "kron",
    "conjugate",
    "is_symplectic",
    "preserves_symplectic_up_to_scalar",
    "exp_nilpotent",
    "kron_identities_check",
    "kron_exp_identity_check",
    "J2", "I2", "I4", "J13", "J12", "J0",
    "H_PERM", "H_SYM3", "H_SYM3_INV", "T2", "T4", "HTILDE",
]


class SingularMatrix(ValueError):
    """Raised when inverting a matrix with determinant zero."""


class SqMatrix(Immutable):
    """Immutable square matrix (dimension 2 or 4) over FieldElem.

    ``_n`` holds the 8 integer numerators of every entry, row by row, in
    one flat tuple, and ``_d`` their common positive denominator; the
    number of ints fixes the dimension.  The gcd of all the ints and
    ``_d`` is 1, so equal matrices have equal ``(_n, _d)``.  ``rows`` and
    ``m[i][j]`` build FieldElem views on demand.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, rows):
        rows = [[fe(x) for x in row] for row in rows]
        n = len(rows)
        if n not in (2, 4) or any(len(row) != n for row in rows):
            raise ValueError("SqMatrix must be square of dimension 2 or 4")
        ints, d = _common([a for row in rows for a in row])
        _set_n(self, tuple(ints))
        _set_d(self, d)

    def __reduce__(self):
        # copy and pickle rebuild through _new, not setattr
        return _new, (self._n, self._d)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "SqMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                         for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "SqMatrix":
        return cls(tuple(tuple(ZERO for _ in range(n)) for _ in range(n)))

    @classmethod
    def diag(cls, *entries) -> "SqMatrix":
        n = len(entries)
        return cls(tuple(tuple(fe(entries[i]) if i == j else ZERO
                               for j in range(n)) for i in range(n)))

    # -- accessors ------------------------------------------------------

    @property
    def dim(self) -> int:
        return _DIM[len(self._n)]

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of rows of FieldElems."""
        return tuple(self[i] for i in range(self.dim))

    def __getitem__(self, i: int) -> tuple:
        """Row i as a tuple of FieldElems."""
        n = self.dim
        o = 8 * n * range(n)[i]
        d, ints = self._d, self._n
        return tuple(_canonical(ints[k:k + 8], d)
                     for k in range(o, o + 8 * n, 8))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        return self._add_or_sub(other, add)

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        return self._add_or_sub(other, sub)

    def _add_or_sub(self, other, op):
        if not isinstance(other, SqMatrix):
            return NotImplemented
        self._samedim(other)
        return _reduced(*_combined(self, other, op))

    def __neg__(self) -> "SqMatrix":
        return _new(tuple(map(neg, self._n)), self._d)

    def __mul__(self, other):
        if not isinstance(other, SqMatrix):
            return self.scale(other)
        self._samedim(other)
        n = self.dim
        xs = _entries(self._n)
        ys = [_factor(y) for y in _entries(other._n)]
        out = [0] * (8 * n * n)
        for i in range(n):
            for k in range(n):
                x = xs[n * i + k]
                if not any(x):
                    continue
                for j in range(n):
                    y = ys[n * k + j]
                    if y:
                        _mul_into(out, 8 * (n * i + j), x, y)
        return _reduced(out, self._d * other._d)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "SqMatrix":
        c = fe(c)
        y = _factor(c._n)
        out = [0] * len(self._n)
        for o, x in enumerate(_entries(self._n)):
            if any(x):
                _mul_into(out, 8 * o, x, y)
        return _reduced(out, self._d * c._d)

    @property
    def T(self) -> "SqMatrix":
        n, ints = self.dim, self._n
        out = []
        for j in range(n):
            for i in range(n):
                o = 8 * (n * i + j)
                out.extend(ints[o:o + 8])
        return _new(tuple(out), self._d)

    def trace(self) -> FieldElem:
        n, ints = self.dim, self._n
        step = 8 * (n + 1)
        return _canonical([sum(ints[k::step]) for k in range(8)], self._d)

    def det(self) -> FieldElem:
        n = self.dim
        xs = _ring(self._n)
        det = _row0_expansion(xs, _cofactors(xs), n)
        return _canonical(_flat([det]), self._d ** n)

    def inv(self) -> "SqMatrix":
        """For self = N / d: d * adj(N) / det(N), from the cofactors of
        the numerators in the ring of ``_ring`` and one field inverse of
        their determinant."""
        n = self.dim
        xs = _ring(self._n)
        cofs = _cofactors(xs)
        det = _row0_expansion(xs, cofs, n)
        if not det:
            raise SingularMatrix("matrix is singular")
        if det.__class__ is int:
            r, u = (1, det) if det > 0 else (-1, -det)
        else:
            r, u = det.reciprocal()
        # entry (i, j) of the inverse is (-1)^(i+j) d cofs[n j + i] / det
        y, y_neg = r * self._d, r * -self._d
        return _reduced(_flat([cofs[k] * (y_neg if odd else y)
                               for k, odd in _ADJUGATE[n]]), u)

    @property
    def is_zero(self) -> bool:
        return not any(self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SqMatrix):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self) -> str:
        body = ",\n  ".join("[%s]" % ", ".join(repr(a) for a in row)
                            for row in self.rows)
        return "SqMatrix(\n  %s)" % body

    def _samedim(self, other: "SqMatrix"):
        if len(self._n) != len(other._n):
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))


# the dimension of a matrix from the number of its ints
_DIM = {32: 2, 128: 4}

_new_matrix = object.__new__
_set_n = SqMatrix._n.__set__
_set_d = SqMatrix._d.__set__


def _new(ints: tuple, d: int) -> SqMatrix:
    """The matrix ints / d, with (ints, d) already canonical."""
    m = _new_matrix(SqMatrix)
    _set_n(m, ints)
    _set_d(m, d)
    return m


def _reduced(ints, d: int) -> SqMatrix:
    """The matrix ints / d, for 32 or 128 ints and a positive int d."""
    return _new(*_lowest(ints, d))


def _entries(ints: tuple) -> list:
    """The flat numerators split into one 8-tuple per entry."""
    return [ints[o:o + 8] for o in range(0, len(ints), 8)]


# the index k of the basis element b_k of numfield with b_k^2 = s, for
# each square s
_QUAD_INDEX = {_MUL[9 * k][1]: k for k in range(1, 8)}


def _ring(ints) -> list:
    """The entries of the flat numerators ``ints`` (8 per entry) as
    elements of the smallest ring that holds them all, read off the
    coordinates they use: plain ints when every entry is rational, a
    ``_QuadElem`` each when all lie in one quadratic subfield Q(b_k),
    an ``_IntElem`` each otherwise.  ``_flat`` is the inverse."""
    support = [k for k in range(1, 8) if any(ints[k::8])]
    if not support:
        return list(ints[::8])
    if len(support) == 1:
        k = support[0]
        s = _MUL[9 * k][1]
        return [_QuadElem((a, b, s)) for a, b in zip(ints[::8], ints[k::8])]
    return [_IntElem(ints[o:o + 8]) for o in range(0, len(ints), 8)]


def _flat(elems) -> list:
    """The 8 numerators of each of the ring elements ``elems``, all of
    one ring of ``_ring``, in one flat list."""
    e = elems[0]
    if e.__class__ is _IntElem:
        return [x for e in elems for x in e]
    out = [0] * (8 * len(elems))
    if e.__class__ is int:
        out[::8] = elems
    else:
        out[::8] = [x[0] for x in elems]
        out[_QUAD_INDEX[e[2]]::8] = [x[1] for x in elems]
    return out


# The twelve 2x2 minors of a 4x4 grid xs: minor m is
# xs[a] xs[b] - xs[c] xs[d] for (a, b, c, d) = _MINORS[m], on rows
# (2, 3) for m < 6 and (0, 1) for m >= 6, over column pair m % 6 of
# _PAIRS.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MINORS = tuple((4 * r + c, 4 * t + e, 4 * r + e, 4 * t + c)
                for r, t in ((2, 3), (0, 1)) for c, e in _PAIRS)


def _cofactor_table() -> tuple:
    # cofactor (i, j) of a 4x4 grid, the determinant of the grid without
    # row i and column j, expanded along row 1 - i (for i < 2) or
    # 5 - i (for i >= 2), its other two rows being a pair of _MINORS:
    # with c0 < c1 < c2 the columns other than j, it is
    # x[c0] m(c1, c2) - x[c1] m(c0, c2) + x[c2] m(c0, c1) on that row.
    table = []
    for i in range(4):
        r, base = (1 - i, 0) if i < 2 else (5 - i, 6)
        for j in range(4):
            c0, c1, c2 = (c for c in range(4) if c != j)
            table.append((4 * r + c0, base + _PAIRS.index((c1, c2)),
                          4 * r + c1, base + _PAIRS.index((c0, c2)),
                          4 * r + c2, base + _PAIRS.index((c0, c1))))
    return tuple(table)


_COFACTORS = _cofactor_table()

# for each entry of an n x n inverse, row by row: the index n j + i of
# the cofactor it transposes, and whether its sign (-1)^(i+j) is -1
_ADJUGATE = {n: tuple((n * j + i, (i + j) & 1) for i in range(n)
                      for j in range(n))
             for n in (2, 4)}


def _cofactors(xs: list) -> list:
    """The cofactors (i, j), row by row, of the square grid ``xs`` of ring
    elements (row by row): cofactor (i, j) is the determinant of the grid
    without row i and column j, unsigned; no gcd.  The 4x4 ones go
    through the twelve 2x2 minors of row pairs (0, 1) and (2, 3)."""
    if len(xs) == 4:
        return xs[::-1]
    ms = [xs[a] * xs[b] - xs[c] * xs[d] for a, b, c, d in _MINORS]
    return [xs[a] * ms[p] - xs[b] * ms[q] + xs[c] * ms[t]
            for a, p, b, q, c, t in _COFACTORS]


def _row0_expansion(xs: list, cofs: list, n: int):
    """The determinant of the n x n grid ``xs`` from its row-0 cofactors:
    the sum of (-1)^j xs[j] cofs[j]."""
    t = [xs[j] * cofs[j] for j in range(n)]
    if n == 2:
        return t[0] - t[1]
    return (t[0] + t[2]) - (t[1] + t[3])


def _cayley_conjugate(m: SqMatrix) -> SqMatrix:
    """T2 m T2^-1 for a 2x2 m = [[a, b], [c, d]]: with s = a + d,
    t = a - d, u = c - b and v = b + c it is

        [[s + iu, t + iv], [t - iv, s - iu]] / 2,

    so only sums and multiples of i of the ints, and one gcd."""
    n = m._n
    a, b, c, d = n[:8], n[8:16], n[16:24], n[24:]
    s, t = list(map(add, a, d)), list(map(sub, a, d))
    u, v = list(map(sub, c, b)), list(map(add, b, c))
    # i times the 8 coordinates (re, im) is (-im, re)
    iu = [-x for x in u[4:]] + u[:4]
    iv = [-x for x in v[4:]] + v[:4]
    return _reduced([*map(add, s, iu), *map(add, t, iv),
                     *map(sub, t, iv), *map(sub, s, iu)], 2 * m._d)


class _MonomialFrame(NamedTuple):
    """Conjugation by a monomial ``matrix`` g, read once by
    ``_monomial_frame``: integer k of the result's numerators is
    m._n[table[k][0]] * table[k][1], over m._d * d."""

    matrix: SqMatrix
    table: tuple
    d: int


def _monomial_frame(g: SqMatrix) -> _MonomialFrame:
    """The frame of a monomial g, with g[i][s(i)] = w_i its one nonzero
    entry in row i and in column s(i).  Entry (i, j) of g m g^-1 is
    (w_i / w_j) m[s(i)][s(j)]; each ratio must be q b_k, a rational q
    times one basis element b_k of numfield, so that coordinate u of the
    entry is c q times coordinate t = u xor k of m[s(i)][s(j)], where
    b_t b_k = c b_u.  Raises ValueError for any other g."""
    n, rows = g.dim, g.rows
    cols = [[j for j, x in enumerate(row) if not x.is_zero] for row in rows]
    if sorted(cols) != [[j] for j in range(n)]:
        raise ValueError("frame must have one nonzero entry in each row and column")
    s = [c[0] for c in cols]
    w = [row[c] for row, c in zip(rows, s)]
    w_inv = [x.inv() for x in w]
    ratios = [w[i] * w_inv[j] for i in range(n) for j in range(n)]
    if any(len(_nonzero(r._n)) != 1 for r in ratios):
        raise ValueError("frame ratios must be rational multiples of one basis element")
    ints, d = _common(ratios)
    table = []
    for o in range(n * n):
        (k, q), = _nonzero(ints[8 * o:8 * o + 8])
        src = 8 * (n * s[o // n] + s[o % n])
        table += [(src + (u ^ k), _MUL[8 * (u ^ k) + k][1] * q) for u in range(8)]
    return _MonomialFrame(g, tuple(table), d)


def _monomial_conjugate(m: SqMatrix, frame: _MonomialFrame) -> SqMatrix:
    """g m g^-1 for the monomial g of ``frame``: one pass over the ints
    of m and one gcd."""
    ints = m._n
    return _reduced([ints[k] * c for k, c in frame.table], m._d * frame.d)


def _unipotent_conjugate(m: SqMatrix, s: SqMatrix) -> SqMatrix:
    """s m s^-1 for a unipotent s = I + N with N^2 = 0 (its diagonal
    entries 1), so s^-1 = I - N.  Over the denominator e of s,
    N = N' / e, and

        s m s^-1 = (e I + N') m (e I - N') / e^2:

    each nonzero N'[i][k] adds N'[i][k] times row k of m to row i of
    e m, then takes column i of that times N'[i][k] from column k of
    its e-multiple; no matrix product, one gcd."""
    n, e, sn = m.dim, s._d, s._n
    ops = []
    for i in range(n):
        for k in range(n):
            y = sn[8 * (n * i + k):8 * (n * i + k) + 8]
            if i != k and any(y):
                ops.append((i, k, _factor(y), _factor(tuple(map(neg, y)))))
    xs = m._n
    rows = [e * x for x in xs]
    for i, k, y, _ in ops:
        for j in range(n):
            x = xs[8 * (n * k + j):8 * (n * k + j) + 8]
            if any(x):
                _mul_into(rows, 8 * (n * i + j), x, y)
    out = [e * x for x in rows]
    for i, k, _, y_neg in ops:
        for r in range(n):
            x = rows[8 * (n * r + i):8 * (n * r + i) + 8]
            if any(x):
                _mul_into(out, 8 * (n * r + k), x, y_neg)
    return _reduced(out, e * e * m._d)


def kron(a: SqMatrix, b: SqMatrix) -> SqMatrix:
    """Kronecker product of two 2x2 matrices: block entries a[i][j] * b."""
    if a.dim != 2 or b.dim != 2:
        raise ValueError("kron is defined here for 2x2 factors only")
    xs = _entries(a._n)
    ys = [_factor(y) for y in _entries(b._n)]
    out = [0] * 128
    for i in range(2):
        for j in range(2):
            x = xs[2 * i + j]
            if not any(x):
                continue
            for r in range(2):
                for c in range(2):
                    _mul_into(out, 8 * (8 * i + 4 * r + 2 * j + c), x,
                              ys[2 * r + c])
    return _reduced(out, a._d * b._d)


def conjugate(m: SqMatrix, p: SqMatrix) -> SqMatrix:
    """p * m * p^-1; raises SingularMatrix if p is not invertible."""
    return p * m * p.inv()


def is_symplectic(g: SqMatrix, j: SqMatrix) -> bool:
    """Exact test of g^t j g == j for an invertible antisymmetric form j."""
    if not (j + j.T).is_zero:
        raise ValueError("form must be antisymmetric")
    return g.T * j * g == j


def preserves_symplectic_up_to_scalar(m: SqMatrix, j: SqMatrix) -> Optional[FieldElem]:
    """The scalar c with m^t j m = c*j, or None if no such scalar exists."""
    p = m.T * j * m
    c = next((x / y for p_row, j_row in zip(p.rows, j.rows)
              for x, y in zip(p_row, j_row) if not y.is_zero), None)
    if c is None:
        raise ValueError("form is zero")
    return c if p == j.scale(c) else None


def exp_nilpotent(m: SqMatrix) -> SqMatrix:
    """exp of a nilpotent matrix via the terminating series."""
    acc = SqMatrix.identity(m.dim)
    term = SqMatrix.identity(m.dim)
    for k in range(1, m.dim + 1):
        term = term * m.scale(Fraction(1, k))
        if term.is_zero:
            return acc
        acc = acc + term
    raise ValueError("matrix is not nilpotent")


def kron_identities_check(a: SqMatrix, b: SqMatrix, c: SqMatrix, d: SqMatrix) -> bool:
    """Mixed-product and transpose identities for kron, on the four given
    2x2 matrices."""
    return (kron(a, b) * kron(c, d) == kron(a * c, b * d)
            and kron(a, b).T == kron(a.T, b.T))


def kron_exp_identity_check() -> bool:
    """The nilpotent-exp identity for kron, exp(A (x) I + I (x) B) =
    exp(A) (x) exp(B), on the canonical nilpotent pair, where the series
    terminates and stays exact; it takes no matrices, so a suite checks
    it once."""
    up = SqMatrix([[0, 1], [0, 0]])
    low = SqMatrix([[0, 0], [1, 0]])
    lhs = exp_nilpotent(kron(up, I2) + kron(I2, low))
    return lhs == kron(exp_nilpotent(up), exp_nilpotent(low))


# -- fixed matrices ---------------------------------------------------------

J2 = SqMatrix([[0, 1], [-1, 0]])
I2 = SqMatrix.identity(2)
I4 = SqMatrix.identity(4)

J13 = kron(J2, I2)  # [[0, I], [-I, 0]]
J12 = kron(I2, J2)  # [[J, 0], [0, J]]

# Symplectic form on the third symmetric power in the basis
# {x^3, 3x^2y, y^3, 3xy^2}.
J0 = SqMatrix([
    [0, 0, 1, 0],
    [0, 0, 0, -3],
    [-1, 0, 0, 0],
    [0, 3, 0, 0]])

# Self-inverse permutation swapping the middle coordinates; realizes
# A (x) B = h (B (x) A) h and h J12 = J13 h.
H_PERM = SqMatrix([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1]])

_ONE_OVER_SQRT3 = SQRT3 * Fraction(1, 3)

# Symmetric matrix with h^t J0 h = J13; note h^2 = diag(1, 1/3, 1, 1/3).
H_SYM3 = SqMatrix([
    [ONE, ZERO, ZERO, ZERO],
    [ZERO, ZERO, ZERO, _ONE_OVER_SQRT3],
    [ZERO, ZERO, ONE, ZERO],
    [ZERO, _ONE_OVER_SQRT3, ZERO, ZERO]])

H_SYM3_INV = SqMatrix([
    [ONE, ZERO, ZERO, ZERO],
    [ZERO, ZERO, ZERO, SQRT3],
    [ZERO, ZERO, ONE, ZERO],
    [ZERO, SQRT3, ZERO, ZERO]])

# The Cayley matrix [[1, i], [1, -i]], determinant -2i.
T2 = SqMatrix([[ONE, I_UNIT], [ONE, -I_UNIT]])

# Complex change of frame [[I, iI], [I, -iI]] = T2 (x) I.
T4 = SqMatrix([
    [ONE, ZERO, I_UNIT, ZERO],
    [ZERO, ONE, ZERO, I_UNIT],
    [ONE, ZERO, -I_UNIT, ZERO],
    [ZERO, ONE, ZERO, -I_UNIT]])


def _build_htilde() -> SqMatrix:
    u, v = embed_u_v()
    s3 = SQRT3
    eighth = Fraction(1, 8)
    uinv, vinv = u.inv(), v.inv()
    return SqMatrix([
        [ZERO, ZERO, (s3 - ONE) * eighth * u, (s3 - 3) * eighth * u],
        [ZERO, ZERO, -(s3 + 3) * eighth * v, -(s3 + ONE) * eighth * v],
        [(s3 + ONE) * uinv, -(s3 + 3) * uinv, ZERO, ZERO],
        [(s3 - 3) * vinv, -(s3 - ONE) * vinv, ZERO, ZERO]])


# Exact radical-entry matrix built from the denested u and v; conjugation
# by it (after T4) diagonalizes the compact torus of the irreducible
# embedding.  Satisfies HTILDE^t J13 HTILDE = -J13.
HTILDE = _build_htilde()
