"""Fourier-coefficient layer of the weight-5/2 Eisenstein series.

C(gamma, m, 0) = -960 pi^{-2} |m|^{3/2} L(2, chi_{D0}) sigma_{gamma,m}(5/2)
is assembled in floats, with the v-dependent coefficient c0 = C e^{-a/2}
(a = 4 pi m v) and its s-derivative up to the externally supplied ratio
kappa = C'/C.  The ratio kappa is a caller input throughout: no formula
for it is available at this level.

For m > 0 the same C is exactly rational: 4m > 0 forces D0 > 0, where
L(2, chi) = -2 pi^2 D0^{-3/2} L(-1, chi) and |m|^{3/2} = D0^{3/2} f^3 / 8,
so C = 240 H(2, 4m) with the Cohen number H(2, 4m) = L(-1, chi_{D0})
xi(D0, f) (Cohen, Math. Ann. 217, 1975); 240 = 2/zeta(-3).  The float
route differs from 240 H(2, 4m) only by rounding: at most 3 ulp for C
(and 4 ulp for the degree built from it), measured over the 5,999 indices
with 4m < 12,000, both gammas.  Both read the one B_{2,chi}; the only
`verify` check of B_{2,chi} that does not is the trigamma oracle of the
cohen-dual-route criterion (`checks.cohen_dual`), and the tests add the
O(|D0|) character sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (CaseIndex, L_chi_2, bernoulli_L_minus1, sigma_gamma_m,
                    xi_twisted)
from .specfun import FOUR_PI, J_minus, J_plus

__all__ = [
    "cohen_H",
    "coefficient_C",
    "coefficient_c0",
    "coefficient_c0_prime",
]

# past |a| = 1416 the factor e^{-a/2} leaves the normal floats
_MAX_ABS_A = 1416.0


def cohen_H(c: CaseIndex) -> Fraction:
    """Cohen number H(2, 4m) = L(-1, chi_{D0}) xi(D0, f), exact; needs m > 0."""
    if c.m <= 0:
        raise ValueError("the class-number route requires m > 0")
    return bernoulli_L_minus1(c.D0) * xi_twisted(c.D0, c.f)


def coefficient_C(c: CaseIndex) -> float:
    """C(gamma, m, 0) = -960 pi^{-2} |m|^{3/2} L(2, chi_{D0}) sigma_{gamma,m}(5/2)."""
    L2 = L_chi_2(c.D0)
    return (float(-960 * sigma_gamma_m(c)) * abs(float(c.m)) ** 1.5
            * L2 / math.pi ** 2)


def _exp_neg_half(a: float) -> float:
    """e^{-a/2} at the signed a = 4 pi m v; ValueError past |a| = 1416, where
    it leaves the normal floats.  This guards the factor, not its products:
    c0' at m = -112, v = 1 is already subnormal, J_minus being small there."""
    if not abs(a) <= _MAX_ABS_A:
        raise ValueError(f"|a| = 4 pi |m| v must be at most {_MAX_ABS_A:g}")
    return math.exp(-0.5 * a)


def coefficient_c0(c: CaseIndex, v: float) -> float:
    """c0(gamma, m, 0, v) = C e^{-a/2} for m > 0 (a = 4 pi m v); 0 for m < 0."""
    if not (v > 0 and math.isfinite(v)):
        raise ValueError("v must be positive and finite")
    if c.m < 0:
        return 0.0
    a = FOUR_PI * float(c.m) * v
    return coefficient_C(c) * _exp_neg_half(a)


def coefficient_c0_prime(c: CaseIndex, v: float, kappa: float) -> float:
    """s-derivative coefficient c0'(gamma, m, 0, v).

    m > 0:  C e^{-a/2} (J_plus(a) + kappa)   with kappa = C'/C supplied;
    m < 0:  C e^{-|a|/2} J_minus(|a|)       (kappa plays no role).
    """
    if not (v > 0 and math.isfinite(v)):
        raise ValueError("v must be positive and finite")
    a = FOUR_PI * float(c.m) * v
    C = coefficient_C(c)
    if c.m > 0:
        return C * _exp_neg_half(a) * (J_plus(a).value + kappa)
    a = abs(a)
    return C * _exp_neg_half(a) * J_minus(a).value
