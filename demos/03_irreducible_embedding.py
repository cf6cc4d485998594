"""The irreducible embedding of SL(2) and its exact diagonalization.

rho1 acts on cubic binary forms; rho13 is the same map moved to the
J13 frame; phi conjugates once more through HTILDE * T4, after which the
compact torus becomes literally diagonal with exponents (3, -1, -3, 1).
The differential of the chain is exact, read off in closed form from the
linear part of rho13's cubic entries, and reproduces three frozen
matrices entry for entry.
"""

from fractions import Fraction

from sp4higgs import J0, J13, SqMatrix, is_symplectic
from sp4higgs.liegroup import (
    GOLDEN_H0, SWAP, gl1_torus, normalizer_witness_check, phi, phi_star,
    rho1, rho13, s_conjugate, sl2,
)

print("== rho1 on a diagonal element ==")
print(rho1(sl2(2, 0, 0, Fraction(1, 2))))
print("symplectic for J0:",
      is_symplectic(rho1(sl2(2, 0, 0, Fraction(1, 2))), J0))

print()
print("== rho13 of a rotation sits in the unitary block form ==")
r = rho13(sl2(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5)))
print(r)
print("symplectic for J13:", is_symplectic(r, J13))

print()
print("== phi diagonalizes the torus ==")
print("phi(torus(2)) =", phi(gl1_torus(2)))
rot = sl2(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
print("phi(rotation 3/5, 4/5) =")
print(phi(rot))

print()
print("== the differential, computed from scratch ==")
h0 = SqMatrix([[1, 0], [0, -1]])
print("phi_star(h0) =")
print(phi_star(h0))
print("matches frozen constant:", phi_star(h0) == GOLDEN_H0)

print()
print("== the unipotent normalization of the field matrix ==")
print("s_conjugate(beta=1, gamma=2) =")
print(s_conjugate(1, 2))

print()
print("== the normalizer witness ==")
rep = normalizer_witness_check()
print("rho1(swap) =", rho1(SWAP))
print("det:", rep.det_value, " normalizes:", rep.normalizes_ok,
      " symplectic for J0:", rep.symplectic_for_j0)
print("conclusion: the outer element misses the symplectic group, so the")
print("normalizer of the irreducible copy of SL(2) is that copy itself.")
