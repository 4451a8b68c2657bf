"""Closed-form covolumes of the stabilizer groups, as plain numbers.

Each function states its own normalization.  Three occur:

* hyperbolic 3-space with dv = dx dy dr / r^3 (`humbert_V13`);
* the product of two half-planes with dv = dx1 dy1 dx2 dy2/(y1 y2)^2
  (`V22`), or with the (2 pi y1 y2)^{-2} normalization of the
  Hirzebruch-van der Geer tables (`hirzebruch_vol`, exact); the two
  differ by the factor (2 pi)^2, asserted in the tests;
* the Siegel normalization entering the Green-function integrals
  (`vol_sie`): one quarter of the half-plane product on the (2,2) domain,
  equal to the hyperbolic 3-space one on the (3,1) domain.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (CaseIndex, L_chi_2, bernoulli_L_minus1, euler_factor,
                    is_fundamental_discriminant)

__all__ = [
    "ZETA_MINUS1",
    "B",
    "zeta_K_minus1",
    "humbert_V13",
    "hirzebruch_vol",
    "V22",
    "vol_sie",
]

ZETA_MINUS1 = Fraction(-1, 12)

# |zeta(-1) zeta(-3)| = (1/12)(1/120).  The analytic product is negative; the
# degree and integral formulas consume this positive magnitude, with the sign
# audited separately wherever it matters.
B = Fraction(1, 1440)


def zeta_K_minus1(dK: int) -> Fraction:
    """zeta_K(-1) = zeta(-1) L(-1, chi_{dK}) for the quadratic field of
    discriminant dK > 1 (exact)."""
    if dK <= 1 or not is_fundamental_discriminant(dK):
        raise ValueError(f"dK = {dK} is not a real quadratic field discriminant")
    return ZETA_MINUS1 * bernoulli_L_minus1(dK)


def humbert_V13(dK: int) -> float:
    """Covolume |dK|^{3/2} L(2, chi_{dK}) / 24 of the imaginary-quadratic
    modular group on hyperbolic 3-space, dv = dx dy dr / r^3 (dK < 0
    fundamental)."""
    if dK >= 0 or not is_fundamental_discriminant(dK):
        raise ValueError(f"dK = {dK} is not an imaginary quadratic discriminant")
    return abs(dK) ** 1.5 * L_chi_2(dK) / 24.0


def hirzebruch_vol(dK: int, f: int) -> Fraction:
    """Covolume of the level-f Hilbert modular group in the (2 pi y1 y2)^{-2}
    normalization: 2 f^3 prod_{p|f}(1 - chi(p)/p^2) zeta_K(-1), exact."""
    if f < 1:
        raise ValueError("f must be >= 1")
    return 2 * f ** 3 * euler_factor(dK, f) * zeta_K_minus1(dK)


def V22(dK: int) -> float:
    """Full-level Hilbert modular covolume |dK|^{3/2} L(2, chi)/3 with
    dv = dx1 dy1 dx2 dy2/(y1 y2)^2; computed as 8 pi^2 zeta_K(-1)."""
    return float(8 * zeta_K_minus1(dK)) * math.pi ** 2


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
