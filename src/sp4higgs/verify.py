"""Named identity suites behind the ``verify`` CLI command.

Each check is a (id, ref, predicate) triple; ``ref`` is a stable clause
identifier naming the identity being checked, so reports are diffable.
All randomness is seeded, so reports are byte-stable across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from . import liegroup, matalg
from .matalg import SqMatrix, kron, is_symplectic
from .numfield import ONE, SQRT3, fe

__all__ = ["Check", "Report", "run_suite", "SUITES"]


@dataclass(frozen=True)
class Check:
    id: str
    ref: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    suite: str
    checks: List[Check]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [{"id": c.id, "ref": c.ref, "pass": c.passed,
                        "detail": c.detail} for c in self.checks],
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
        }


def _rand_fraction(rng: random.Random, bound: int = 20) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def _rand_sl2(rng: random.Random, bound: int = 20) -> SqMatrix:
    # a, b, c free with a != 0; d chosen to force determinant 1
    while True:
        a = _rand_fraction(rng, bound)
        if a != 0:
            break
    b = _rand_fraction(rng, bound)
    c = _rand_fraction(rng, bound)
    d = (1 + b * c) / a
    return SqMatrix([[a, b], [c, d]])


def _rand_matrix2(rng: random.Random, bound: int = 9) -> SqMatrix:
    return SqMatrix([[_rand_fraction(rng, bound) for _ in range(2)]
                     for _ in range(2)])


def _rho13_derivative(x: SqMatrix) -> SqMatrix:
    # rho13's entries are cubic in t along t -> I + t x, so this central
    # difference of the entry polynomials is their exact derivative at 0
    def p(t):
        (a, b), (c, d) = (matalg.I2 + x.scale(t)).rows
        return SqMatrix(liegroup._rho13_grid(a, b, c, d, fe(2), fe(3), SQRT3))

    return ((p(1) - p(-1)).scale(8) - (p(2) - p(-2))).scale(Fraction(1, 12))


def run_lie_suite(n_samples: int = 25, seed: int = 20240801) -> Report:
    rng = random.Random(seed)
    checks: List[Check] = []

    samples = [_rand_sl2(rng) for _ in range(n_samples)]
    checks.append(Check(
        "rho13-symplectic", "rho13(A)^t J13 rho13(A) = J13",
        all(is_symplectic(liegroup.rho13(a), matalg.J13) for a in samples),
        "%d random determinant-1 samples" % n_samples))

    checks.append(Check(
        "rho13-via-h", "rho13(A) = H_SYM3^-1 rho1(A) H_SYM3",
        all(liegroup.rho13(a) ==
            matalg.H_SYM3_INV * liegroup.rho1(a) * matalg.H_SYM3
            for a in samples)))

    checks.append(Check(
        "rho13-homomorphism", "rho13(AB) = rho13(A) rho13(B)",
        all(liegroup.rho13(a * b) == liegroup.rho13(a) * liegroup.rho13(b)
            for a, b in zip(samples[::2], samples[1::2]))))

    e = SqMatrix([[0, 1], [0, 0]])
    f = SqMatrix([[0, 0], [1, 0]])
    h0 = SqMatrix([[1, 0], [0, -1]])
    checks.append(Check(
        "golden-e-minus-f", "phi_star(e-f) = i diag(-3, 1, 3, -1)",
        liegroup.phi_star(e - f) == liegroup.GOLDEN_E_MINUS_F))
    checks.append(Check(
        "golden-e-plus-f", "phi_star(e+f) matches the frozen matrix",
        liegroup.phi_star(e + f) == liegroup.GOLDEN_E_PLUS_F))
    checks.append(Check(
        "golden-h0", "phi_star(h0) matches the frozen matrix",
        liegroup.phi_star(h0) == liegroup.GOLDEN_H0))

    # a stream of its own, so the later checks see the same samples
    x_rng = random.Random("%d-rho13-star" % seed)
    directions = [e, f, h0]
    for _ in range(4):
        p = _rand_fraction(x_rng, 9)
        directions.append(SqMatrix([[p, _rand_fraction(x_rng, 9)],
                                    [_rand_fraction(x_rng, 9), -p]]))
    checks.append(Check(
        "rho13-star-derivative",
        "rho13_star(x) = (8(p(1) - p(-1)) - (p(2) - p(-2))) / 12, "
        "p(t) = rho13 grid at I + t x",
        all(liegroup.rho13_star(x) == _rho13_derivative(x) for x in directions),
        "e, f, h0 and %d seeded traceless directions" % (len(directions) - 3)))

    torus_ok = True
    for _ in range(10):
        lam = _rand_fraction(rng, 9)
        if lam == 0:
            lam = Fraction(2)
        lam_f = fe(lam)
        got = liegroup.phi(liegroup.gl1_torus(lam))
        want = SqMatrix.diag(lam_f ** 3, lam_f ** -1, lam_f ** -3, lam_f)
        torus_ok = torus_ok and got == want
    checks.append(Check(
        "phi-torus-diagonal",
        "phi(torus(l)) = diag(l^3, l^-1, l^-3, l)", torus_ok))

    s_ok = True
    for _ in range(10):
        beta = _rand_fraction(rng, 9)
        gamma = _rand_fraction(rng, 9)
        if gamma == 0:
            gamma = Fraction(1)
        got = liegroup.s_conjugate(beta, gamma)
        r = fe(beta) / fe(gamma)
        want = SqMatrix([
            [0, 0, 16 * r * r, 5 * r],
            [0, 0, 5 * r, ONE],
            [0, ONE, 0, 0],
            [ONE, 0, 0, 0]]).scale(fe(gamma))
        s_ok = s_ok and got == want
    checks.append(Check(
        "s-conjugation", "S m(b, g) S^-1 = g [[0,0,16r^2,5r],[0,0,5r,1],...]",
        s_ok))

    nrep = liegroup.normalizer_witness_check()
    checks.append(Check(
        "normalizer-det", "det rho1(swap) = 1", nrep.det_ok))
    checks.append(Check(
        "normalizer-conjugation",
        "rho1(swap) rho1(A) rho1(swap)^-1 = rho1(swap A swap)",
        nrep.normalizes_ok))
    checks.append(Check(
        "normalizer-not-symplectic",
        "rho1(swap) fails the J0 symplectic condition",
        not nrep.symplectic_for_j0))

    checks.append(Check(
        "rho-delta-via-perm", "rho_delta(A) = H_PERM (I kron A) H_PERM",
        all(liegroup.rho_delta(a) ==
            matalg.H_PERM * kron(matalg.I2, a) * matalg.H_PERM
            for a in samples[:10])))

    checks.append(Check(
        "rho-p-symplectic-J12", "rho_p(A, B) preserves J12",
        all(is_symplectic(liegroup.rho_p(a, b), matalg.J12)
            for a, b in zip(samples[:10], samples[10:20]))))

    return Report("lie", checks)


def run_matalg_suite(n_samples: int = 25, seed: int = 20240802) -> Report:
    rng = random.Random(seed)
    checks: List[Check] = []

    quads = [tuple(_rand_matrix2(rng) for _ in range(4))
             for _ in range(n_samples)]
    checks.append(Check(
        "kron-identities",
        "mixed product, transpose and nilpotent exp for kron",
        all(matalg.kron_identities_check(*q) for q in quads)))

    checks.append(Check(
        "kron-swap-conjugation", "A kron B = H_PERM (B kron A) H_PERM",
        all(kron(a, b) == matalg.H_PERM * kron(b, a) * matalg.H_PERM
            for a, b, _, _ in quads)))

    checks.append(Check(
        "h-intertwines-forms", "H_PERM J12 = J13 H_PERM",
        matalg.H_PERM * matalg.J12 == matalg.J13 * matalg.H_PERM))

    checks.append(Check(
        "j13-as-kron", "J13 = J kron I and J12 = I kron J",
        matalg.J13 == kron(matalg.J2, matalg.I2)
        and matalg.J12 == kron(matalg.I2, matalg.J2)))

    checks.append(Check(
        "h-perm-involution", "H_PERM is symmetric and self-inverse",
        matalg.H_PERM == matalg.H_PERM.T
        and matalg.H_PERM * matalg.H_PERM == matalg.I4))

    checks.append(Check(
        "h-sym3-relates-forms", "H_SYM3^t J0 H_SYM3 = J13",
        matalg.H_SYM3.T * matalg.J0 * matalg.H_SYM3 == matalg.J13))

    checks.append(Check(
        "det-kron", "det(A kron B) = det(A)^2 det(B)^2",
        all(kron(a, b).det() == (a.det() ** 2) * (b.det() ** 2)
            for a, b, _, _ in quads)))

    t_scalar = matalg.preserves_symplectic_up_to_scalar(matalg.T4, matalg.J13)
    h_scalar = matalg.preserves_symplectic_up_to_scalar(matalg.HTILDE, matalg.J13)
    checks.append(Check(
        "t4-conformal", "T4^t J13 T4 is a nonzero multiple of J13",
        t_scalar is not None and not t_scalar.is_zero,
        detail=repr(t_scalar)))
    checks.append(Check(
        "htilde-conformal", "HTILDE^t J13 HTILDE is a nonzero multiple of J13",
        h_scalar is not None and not h_scalar.is_zero,
        detail=repr(h_scalar)))

    return Report("matalg", checks)


SUITES: dict = {
    "lie": run_lie_suite,
    "matalg": run_matalg_suite,
}


def run_suite(scope: str) -> List[Report]:
    if scope == "all":
        return [run_lie_suite(), run_matalg_suite()]
    if scope in SUITES:
        return [SUITES[scope]()]
    raise KeyError(scope)
