"""Closed-form covolumes of the stabilizer groups, in tagged conventions.

Three volume normalizations occur and are never silently mixed, so every
result carries a convention tag:

* H_PLUS  -- hyperbolic 3-space with dv = dx dy dr / r^3;
* H2_UNIT -- the product of two half-planes with dv = dx1 dy1 dx2 dy2/(y1 y2)^2;
* H2_HG   -- same space with the (2 pi y1 y2)^{-2} normalization
             (Hirzebruch-van der Geer volume tables);
* SIEGEL  -- the normalization entering the Green-function integrals:
             one quarter of H2_UNIT on the (2,2) domain, equal to H_PLUS
             on the (3,1) domain.

The conversion H2_UNIT = (2 pi)^2 * H2_HG is a fixed constant and is
asserted in the tests.  Where the zeta/L factors cancel against pi powers
the exact rational coefficient is returned alongside the float value:
value = exact_part * pi**pi_power whenever exact_part is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .arith import (CaseIndex, L_chi_2, bernoulli_L_minus1, euler_factor,
                    is_fundamental_discriminant)

__all__ = [
    "VolumeConvention",
    "VolumeValue",
    "VOL_SO2",
    "VOL_SO3",
    "VOL_SO3_MOD_SO2",
    "ZETA_MINUS1",
    "ZETA_MINUS3",
    "constant_B",
    "B_ANALYTIC_SIGN",
    "zeta_K_minus1",
    "humbert_V13",
    "hirzebruch_vol",
    "V22",
    "vol_sie",
]


class VolumeConvention(Enum):
    H_PLUS = "H_plus"
    H2_UNIT = "H2_unit"
    H2_HG = "H2_HG"
    SIEGEL = "Siegel"


@dataclass(frozen=True)
class VolumeValue:
    value: float
    exact_part: Fraction | None
    convention: VolumeConvention
    pi_power: int = 0


VOL_SO2 = 2.0 * math.pi
VOL_SO3 = 8.0 * math.pi ** 2
VOL_SO3_MOD_SO2 = 4.0 * math.pi

ZETA_MINUS1 = Fraction(-1, 12)
ZETA_MINUS3 = Fraction(1, 120)

# The analytic product zeta(-1) zeta(-3) is negative; the positive magnitude
# 1/1440 is what the degree and integral formulas consume, with the sign
# audited separately wherever it matters.
B_ANALYTIC_SIGN = -1


def constant_B() -> Fraction:
    """|zeta(-1) zeta(-3)| = (1/12)(1/120) = 1/1440 (positive convention)."""
    return Fraction(1, 1440)


def zeta_K_minus1(dK: int) -> Fraction:
    """zeta_K(-1) = zeta(-1) L(-1, chi_{dK}) for the quadratic field of
    discriminant dK > 1 (exact)."""
    if dK <= 1 or not is_fundamental_discriminant(dK):
        raise ValueError(f"dK = {dK} is not a real quadratic field discriminant")
    return ZETA_MINUS1 * bernoulli_L_minus1(dK)


def humbert_V13(dK: int) -> VolumeValue:
    """Covolume |dK|^{3/2} L(2, chi_{dK}) / 24 of the imaginary-quadratic
    modular group on hyperbolic 3-space (dK < 0 fundamental)."""
    if dK >= 0 or not is_fundamental_discriminant(dK):
        raise ValueError(f"dK = {dK} is not an imaginary quadratic discriminant")
    L2 = L_chi_2(dK)
    return VolumeValue(value=abs(dK) ** 1.5 * L2 / 24.0, exact_part=None,
                       convention=VolumeConvention.H_PLUS)


def hirzebruch_vol(dK: int, f: int) -> VolumeValue:
    """Covolume of the level-f Hilbert modular group in the (2 pi y1 y2)^{-2}
    normalization: 2 f^3 prod_{p|f}(1 - chi(p)/p^2) zeta_K(-1), exact."""
    if f < 1:
        raise ValueError("f must be >= 1")
    exact = 2 * f ** 3 * euler_factor(dK, f) * zeta_K_minus1(dK)
    return VolumeValue(value=float(exact), exact_part=exact,
                       convention=VolumeConvention.H2_HG)


def V22(dK: int) -> VolumeValue:
    """Full-level Hilbert modular covolume |dK|^{3/2} L(2, chi)/3 in H2_UNIT
    units; exactly 8 pi^2 zeta_K(-1)."""
    exact = 8 * zeta_K_minus1(dK)
    return VolumeValue(value=float(exact) * math.pi ** 2, exact_part=exact,
                       convention=VolumeConvention.H2_UNIT, pi_power=2)


def vol_sie(c: CaseIndex) -> VolumeValue:
    """Stabilizer covolume in the Siegel normalization.

    The sign of m picks the domain:
    D22 (m > 0):  (1/12) |D0|^{3/2} L(2, chi_{D0}) f^3 prod_{p|f}(1 - chi(p)/p^2)
    D13 (m < 0):  (1/24) |D0|^{3/2} L(2, chi_{D0}) f^3 prod_{p|f}(...)

    For D0 > 0 the pi^2 of L(2, chi) factors out exactly:
    value = exact_part * pi^2 with exact_part = (pref) * 2 |L(-1,chi)| f^3 prod.
    """
    pref = Fraction(1, 12) if c.m > 0 else Fraction(1, 24)
    euler = euler_factor(c.D0, c.f)
    if c.D0 > 0:
        # |D0|^{3/2} L(2,chi) = -2 pi^2 L(-1,chi) exactly
        exact = pref * (-2) * bernoulli_L_minus1(c.D0) * c.f ** 3 * euler
        return VolumeValue(value=float(exact) * math.pi ** 2, exact_part=exact,
                           convention=VolumeConvention.SIEGEL, pi_power=2)
    L2 = L_chi_2(c.D0)
    value = float(pref) * abs(c.D0) ** 1.5 * L2 * c.f ** 3 * float(euler)
    return VolumeValue(value=value, exact_part=None,
                       convention=VolumeConvention.SIEGEL)
