"""Fourier-coefficient layer of the weight-5/2 Eisenstein series.

Two independent routes to the same arithmetic are kept side by side:

* the L-function route: C(gamma, m, 0) = -960 pi^{-2} |m|^{3/2}
  L(2, chi_{D0}) sigma_{gamma,m}(5/2), with the v-dependent coefficient
  c0 = C e^{-a/2} (a = 4 pi m v) and its s-derivative up to the externally
  supplied ratio kappa = C'/C;

* the class-number route: the Cohen number H(2, 4m) =
  L(-1, chi_{D0}) xi(D0, f), exactly rational; the coefficient of the
  half-normalized series is A(m, v) = 120 H(2, 4m), with 120 = 1/zeta(-3).

The relation |C| = 2 |A| ties the routes together and is asserted in the
test suite, never assumed here.  The ratio kappa is a caller input
throughout: no formula for it is available at this level.
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
    "coefficient_C_prefactor",
    "coefficient_C_exact",
    "coefficient_c0",
    "coefficient_c0_prime",
]

_C_FRONT = -(2 ** 6) * 3 * 5  # -960


def cohen_H(c: CaseIndex) -> Fraction:
    """Cohen number H(2, 4m) = L(-1, chi_{D0}) xi(D0, f), exact; needs m > 0."""
    if c.m <= 0:
        raise ValueError("the class-number route requires m > 0")
    return bernoulli_L_minus1(c.D0) * xi_twisted(c.D0, c.f)


def coefficient_C_prefactor(c: CaseIndex) -> Fraction:
    """Exact rational -960 sigma_{gamma,m}(5/2): C with the |m|^{3/2} L(2,chi)
    pi^{-2} factors stripped."""
    return _C_FRONT * sigma_gamma_m(c)


def coefficient_C(c: CaseIndex) -> float:
    """C(gamma, m, 0) = -960 pi^{-2} |m|^{3/2} L(2, chi_{D0}) sigma_{gamma,m}(5/2)."""
    L2 = L_chi_2(c.D0)
    return (float(coefficient_C_prefactor(c)) * abs(float(c.m)) ** 1.5
            * L2 / math.pi ** 2)


def coefficient_C_exact(c: CaseIndex) -> Fraction | None:
    """Exact rational value of C when the pi^2 cancels (D0 = 1), else None.

    For D0 = 1: L(2, chi) = pi^2/6 and |m|^{3/2} = f^3/8, so
    C = -20 f^3 sigma = -20 xi(1, f).
    """
    if c.D0 != 1:
        return None
    return Fraction(-20) * xi_twisted(1, c.f)


def coefficient_c0(c: CaseIndex, v: float) -> float:
    """c0(gamma, m, 0, v) = C e^{-a/2} for m > 0 (a = 4 pi m v); 0 for m < 0."""
    if v <= 0:
        raise ValueError("v must be positive")
    if c.m < 0:
        return 0.0
    a = FOUR_PI * float(c.m) * v
    return coefficient_C(c) * math.exp(-0.5 * a)


def coefficient_c0_prime(c: CaseIndex, v: float, kappa: float) -> float:
    """s-derivative coefficient c0'(gamma, m, 0, v).

    m > 0:  C e^{-a/2} (J_plus(3/2, a) + kappa)   with kappa = C'/C supplied;
    m < 0:  C e^{-|a|/2} J_minus(3/2, |a|)        (kappa plays no role).
    """
    if v <= 0:
        raise ValueError("v must be positive")
    a = FOUR_PI * float(c.m) * v
    C = coefficient_C(c)
    if c.m > 0:
        return C * math.exp(-0.5 * a) * (J_plus(1.5, a).value + kappa)
    a = abs(a)
    return C * math.exp(-0.5 * a) * J_minus(1.5, a).value
