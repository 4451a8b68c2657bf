"""Closed-form covolumes of the stabilizer groups, in one normalization.

`vol_sie(c)` is the covolume the Green-function integrals read, in the
Siegel normalization: one quarter of the product of two half-planes,
dv = dx1 dy1 dx2 dy2/(y1 y2)^2, on the (2,2) domain (m > 0), and the
hyperbolic 3-space one, dv = dx dy dr / r^3, on the (3,1) domain (m < 0).
The classical covolumes are fixed multiples of it, which the three
`volume-spot-values` rows of `verify` check at literature values:

* m < 0, f = 1: vol_sie is Humbert's V_{1,3} = |dK|^{3/2} L(2, chi) / 24,
  G/3 at dK = -4 (G is Catalan's constant);
* m > 0: vol_sie / pi^2 is the exact Hilbert modular covolume
  2 f^3 prod_{p|f}(1 - chi(p)/p^2) zeta_K(-1) at level f, in the
  (2 pi y1 y2)^{-2} normalization of Hirzebruch-van der Geer: 1/15 for
  Q(sqrt 5) at f = 1;
* m > 0, f = 1: 4 vol_sie is V_{2,2} = |dK|^{3/2} L(2, chi) / 3.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import CaseIndex, L_chi_2, bernoulli_L_minus1, euler_factor

__all__ = ["B", "vol_sie"]

# |zeta(-1) zeta(-3)| = (1/12)(1/120).  The analytic product is negative; the
# degree and integral formulas consume this positive magnitude, with the sign
# audited separately wherever it matters.
B = Fraction(1, 1440)


def vol_sie(c: CaseIndex) -> float:
    """Stabilizer covolume in the Siegel normalization.

    The sign of m picks the domain:
    D22 (m > 0):  (1/12) |D0|^{3/2} L(2, chi_{D0}) f^3 prod_{p|f}(1 - chi(p)/p^2)
    D13 (m < 0):  (1/24) |D0|^{3/2} L(2, chi_{D0}) f^3 prod_{p|f}(...)

    For D0 > 0 the pi^2 of L(2, chi) factors out exactly: the value is
    float(pref * (-2) L(-1, chi) f^3 prod) * pi^2.
    """
    pref = Fraction(1, 12) if c.m > 0 else Fraction(1, 24)
    euler = euler_factor(c.D0, c.f)
    if c.D0 > 0:
        # |D0|^{3/2} L(2,chi) = -2 pi^2 L(-1,chi) exactly
        exact = pref * (-2) * bernoulli_L_minus1(c.D0) * c.f ** 3 * euler
        return float(exact) * math.pi ** 2
    L2 = L_chi_2(c.D0)
    return float(pref) * abs(c.D0) ** 1.5 * L2 * c.f ** 3 * float(euler)
