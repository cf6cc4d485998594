"""Named identity suites behind the ``verify`` CLI command.

Each check is a (id, ref, predicate) triple; ``ref`` is a stable clause
identifier naming the identity being checked, so reports are diffable.
Each suite draws all its samples from one ``random.Random`` with a fixed
seed, so reports are byte-stable across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import liegroup, matalg
from ._record import Record
from .matalg import SqMatrix, kron, is_symplectic
from .numfield import I_UNIT, ONE, SQRT6, fe

__all__ = ["Check", "Report", "run_suite", "SUITES"]

LIE_SEED = 20240801
MATALG_SEED = 20240802


class Check(Record):
    id: str
    ref: str
    passed: bool
    detail: str = ""


class Report(Record):
    suite: str
    checks: Tuple[Check, ...]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _fraction(rng: random.Random, bound: int, nonzero: bool = False) -> Fraction:
    """num/den with |num| <= bound and 0 < den <= bound, drawn again
    while it is zero if ``nonzero``."""
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if x or not nonzero:
            return x


def _rho13_derivative(x: SqMatrix) -> SqMatrix:
    # rho13's entries are cubic in t along t -> I + t x, so this central
    # difference of the entry polynomials is their exact derivative at 0;
    # the J13 frame is taken by generic products, not by liegroup's kernel
    def p(t):
        grid = liegroup._rho1_raw(matalg.I2 + x.scale(t))
        return matalg.H_SYM3_INV * grid * matalg.H_SYM3

    return ((p(1) - p(-1)).scale(8) - (p(2) - p(-2))).scale(Fraction(1, 12))


def _s_closed_form(beta: Fraction, gamma: Fraction) -> SqMatrix:
    r = fe(beta) / fe(gamma)
    return SqMatrix([
        [0, 0, 16 * r * r, 5 * r],
        [0, 0, 5 * r, ONE],
        [0, ONE, 0, 0],
        [ONE, 0, 0, 0]]).scale(fe(gamma))


def _lie_checks() -> List[Check]:
    rng = random.Random(LIE_SEED)
    samples = []
    for _ in range(25):
        a = _fraction(rng, 20, nonzero=True)
        b, c = _fraction(rng, 20), _fraction(rng, 20)
        samples.append(SqMatrix([[a, b], [c, (1 + b * c) / a]]))  # det 1
    traceless = []
    for _ in range(4):
        p, q, r = (_fraction(rng, 9) for _ in range(3))
        traceless.append(SqMatrix([[p, q], [r, -p]]))
    lams = [_fraction(rng, 9, nonzero=True) for _ in range(10)]
    pairs = [(_fraction(rng, 9), _fraction(rng, 9, nonzero=True))
             for _ in range(10)]
    e = SqMatrix([[0, 1], [0, 0]])
    f = SqMatrix([[0, 0], [1, 0]])
    h0 = SqMatrix([[1, 0], [0, -1]])
    nrep = liegroup.normalizer_witness_check()
    frame = liegroup._F_FRAME.matrix
    return [
        Check("rho13-symplectic", "rho13(A)^t J13 rho13(A) = J13",
              all(is_symplectic(liegroup.rho13(a), matalg.J13) for a in samples),
              "%d random determinant-1 samples" % len(samples)),
        Check("rho13-via-h", "rho13(A) = H_SYM3^-1 rho1(A) H_SYM3",
              all(liegroup.rho13(a) ==
                  matalg.H_SYM3_INV * liegroup.rho1(a) * matalg.H_SYM3
                  for a in samples)),
        Check("rho13-homomorphism", "rho13(AB) = rho13(A) rho13(B)",
              all(liegroup.rho13(a * b) == liegroup.rho13(a) * liegroup.rho13(b)
                  for a, b in zip(samples[::2], samples[1::2]))),
        Check("ht-frame",
              "HT H_SYM3^-1 = sqrt6 (1 + i) F rho1(T2 / (1 - i)) "
              "and HT HT^-1 = I",
              liegroup.HT * matalg.H_SYM3_INV
              == (frame * liegroup.rho1(liegroup.T2_DET1)).scale(
                  SQRT6 * (1 + I_UNIT))
              and liegroup.HT * liegroup.HT_INV == matalg.I4,
              ", ".join("F[%d][%d] = %s" % (i, j, x.coeffs[0])
                        for i, row in enumerate(frame.rows)
                        for j, x in enumerate(row) if not x.is_zero)),
        Check("golden-e-minus-f", "phi_star(e-f) = i diag(-3, 1, 3, -1)",
              liegroup.phi_star(e - f) == liegroup.GOLDEN_E_MINUS_F),
        Check("golden-e-plus-f", "phi_star(e+f) matches the frozen matrix",
              liegroup.phi_star(e + f) == liegroup.GOLDEN_E_PLUS_F),
        Check("golden-h0", "phi_star(h0) matches the frozen matrix",
              liegroup.phi_star(h0) == liegroup.GOLDEN_H0),
        Check("rho13-star-derivative",
              "rho13_star(x) = (8(p(1) - p(-1)) - (p(2) - p(-2))) / 12, "
              "p(t) = rho13 grid at I + t x",
              all(liegroup.rho13_star(x) == _rho13_derivative(x)
                  for x in [e, f, h0, *traceless]),
              "e, f, h0 and %d seeded traceless directions" % len(traceless)),
        Check("phi-torus-diagonal",
              "phi(torus(l)) = diag(l^3, l^-1, l^-3, l)",
              all(liegroup.phi(liegroup.gl1_torus(lam)) ==
                  SqMatrix.diag(*(fe(lam) ** k for k in (3, -1, -3, 1)))
                  for lam in lams)),
        Check("s-conjugation",
              "S m(b, g) S^-1 = g [[0,0,16r^2,5r],[0,0,5r,1],...]",
              all(liegroup.s_conjugate(beta, gamma) == _s_closed_form(beta, gamma)
                  for beta, gamma in pairs)),
        Check("normalizer-det", "det rho1(swap) = 1", nrep.det_ok),
        Check("normalizer-conjugation",
              "rho1(swap) rho1(A) rho1(swap)^-1 = rho1(swap A swap)",
              nrep.normalizes_ok),
        Check("normalizer-not-symplectic",
              "rho1(swap) fails the J0 symplectic condition",
              not nrep.symplectic_for_j0),
        Check("rho-delta-via-perm", "rho_delta(A) = H_PERM (I kron A) H_PERM",
              all(liegroup.rho_delta(a) ==
                  matalg.H_PERM * kron(matalg.I2, a) * matalg.H_PERM
                  for a in samples[:10])),
        Check("rho-p-symplectic-J12", "rho_p(A, B) preserves J12",
              all(is_symplectic(liegroup.rho_p(a, b), matalg.J12)
                  for a, b in zip(samples[:10], samples[10:20]))),
    ]


def _matalg_checks() -> List[Check]:
    rng = random.Random(MATALG_SEED)
    quads = [[SqMatrix([[_fraction(rng, 9) for _ in range(2)] for _ in range(2)])
              for _ in range(4)] for _ in range(25)]
    t_scalar = matalg.preserves_symplectic_up_to_scalar(matalg.T4, matalg.J13)
    h_scalar = matalg.preserves_symplectic_up_to_scalar(matalg.HTILDE, matalg.J13)
    return [
        Check("kron-identities",
              "mixed product, transpose and nilpotent exp for kron",
              all(matalg.kron_identities_check(*q) for q in quads)
              and matalg.kron_exp_identity_check()),
        Check("kron-swap-conjugation", "A kron B = H_PERM (B kron A) H_PERM",
              all(kron(a, b) == matalg.H_PERM * kron(b, a) * matalg.H_PERM
                  for a, b, _, _ in quads)),
        Check("h-intertwines-forms", "H_PERM J12 = J13 H_PERM",
              matalg.H_PERM * matalg.J12 == matalg.J13 * matalg.H_PERM),
        Check("j13-as-kron", "J13 = J kron I and J12 = I kron J",
              matalg.J13 == kron(matalg.J2, matalg.I2)
              and matalg.J12 == kron(matalg.I2, matalg.J2)),
        Check("h-perm-involution", "H_PERM is symmetric and self-inverse",
              matalg.H_PERM == matalg.H_PERM.T
              and matalg.H_PERM * matalg.H_PERM == matalg.I4),
        Check("h-sym3-relates-forms", "H_SYM3^t J0 H_SYM3 = J13",
              matalg.H_SYM3.T * matalg.J0 * matalg.H_SYM3 == matalg.J13),
        Check("det-kron", "det(A kron B) = det(A)^2 det(B)^2",
              all(kron(a, b).det() == (a.det() ** 2) * (b.det() ** 2)
                  for a, b, _, _ in quads)),
        Check("t4-conformal", "T4^t J13 T4 is a nonzero multiple of J13",
              t_scalar is not None and not t_scalar.is_zero, repr(t_scalar)),
        Check("htilde-conformal",
              "HTILDE^t J13 HTILDE is a nonzero multiple of J13",
              h_scalar is not None and not h_scalar.is_zero, repr(h_scalar)),
    ]


# the suites in the order "all" runs them; cli._SCOPES names them again,
# for the --scope choices, and a tier-1 test pins the two together
SUITES: Dict[str, Callable[[], List[Check]]] = {
    "lie": _lie_checks,
    "matalg": _matalg_checks,
}


def run_suite(scope: str) -> List[Report]:
    """The report of the named suite, or of every suite for ``"all"``;
    raises KeyError for any other scope."""
    names = list(SUITES) if scope == "all" else [scope]
    return [Report(name, tuple(SUITES[name]())) for name in names]
