"""High-precision numeric oracle for field elements (tests only).

Evaluates an exact element of Q(i, sqrt2, sqrt3) with mpmath, so tests
can cross-check exact results against an independent floating-point
computation.  The package itself never imports mpmath.
"""

import mpmath


def numeric(a, dps: int = 40):
    """High-precision numeric value of ``a`` (mpmath mpf, or mpc if complex).

    Accurate to well below 1e-12 for coordinate sizes up to 1e6 at the
    default precision.
    """
    with mpmath.workdps(dps):
        radicals = (mpmath.mpf(1), mpmath.sqrt(2), mpmath.sqrt(3), mpmath.sqrt(6))
        re = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * radicals[k]
            for k, c in enumerate(a.coeffs[:4]) if c)
        im = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * radicals[k]
            for k, c in enumerate(a.coeffs[4:]) if c)
        if im == 0:
            return re
        return mpmath.mpc(re, im)
