"""Assembly layer: Heegner degrees and the Green-function integral identities.

Degrees.  deg H(gamma, m) = -(B/2) C(gamma, m, 0) with the constant
B = volumes.B = 1/1440 (positive convention), positive for m > 0.  There
C = 240 H(2, 4m) exactly (see `eisenstein`), so the degree is the exact
-(1/12) H(2, 4m) of `heegner_degree_via_cohen`; `heegner_degree` assembles
the same value in floats and differs from it only by rounding (at most
4 ulp, measured over the 5,999 indices with 4m < 12,000, both gammas).
Both read the one B_{2,chi}; the only `verify` check of B_{2,chi} that
does not is the trigamma oracle of the cohen-dual-route criterion.

Green integrals.  The integral of the truncated Green function over the
quotient unfolds into a sum over the rescaled primitive layers of the index
set, one stabilizer covolume times one orbit integral each.  Because the
layer of content n carries R(n a, z) = n^2 R(a, z), every layer produces
the same orbit integral at a = 4 pi m v while the covolume, the plain
float `volumes.vol_sie`, varies with m/n^2:

    I(gamma, m, v) = pref * [sum_n vol_Sie(m / n^2)] * I3_pm(a),

with pref = 3/(4 pi^2) on the positive side ((2,2) stabilizer, compact
factor SO(2)) and pref = 3/(2 pi^2) on the negative side ((3,1) stabilizer,
compact factor SO(3)/SO(2)); both carry the same 1/2 from the +-u pairing.

The constant is exact: (4/|B|) pref sum_n vol_Sie(m/n^2) / 3 equals
|C(gamma, m, 0)| up to rounding (the tests check every index with
|4m| <= 1,200, both signs and both gammas), so the lhs and rhs are compared
directly and the residual of each identity is the quadrature gap of I3_pm
against J_pm/3.  Magnitudes are compared; the tests assert the signs (I > 0,
and C < 0 times a positive J), a chain that is coherent once B carries its
analytic (negative) sign.

The corollary compares c0' with e^{-a/2} (4/B)(-I - I_ibk) + * c0 at the
signed a = 4 pi m v and the fixed * = -(log 4 pi + gamma_E), which cancels
the kappa + log 4 pi + gamma_E of I_ibk against * c0: the rhs is Theorem 2
times e^{-a/2}, plus the kappa c0 that c0' carries too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import CaseIndex, split_discriminant
from .eisenstein import (_exp_neg_half, cohen_H, coefficient_C,
                         coefficient_c0, coefficient_c0_prime)
from .lattice import primitive_decomposition
from .specfun import EULER_GAMMA, FOUR_PI, I3_minus, I3_plus, J_minus, J_plus
from .volumes import B, vol_sie

__all__ = [
    "TheoremReport",
    "CASE_I_PREFACTOR",
    "CASE_II_PREFACTOR",
    "heegner_degree",
    "heegner_degree_via_cohen",
    "kudla_integral",
    "frozen_normalization",
    "theorem2_check",
    "ibk_integral",
    "corollary_check",
]

CASE_I_PREFACTOR = 3.0 / (4.0 * math.pi ** 2)
CASE_II_PREFACTOR = 3.0 / (2.0 * math.pi ** 2)

_STAR = -(math.log(4.0 * math.pi) + EULER_GAMMA)  # the corollary's *


@dataclass(frozen=True)
class TheoremReport:
    """One lhs/rhs comparison; rel_diff is NaN when both sides are 0."""

    lhs: float
    rhs: float

    @property
    def rel_diff(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        return abs(self.lhs - self.rhs) / scale if scale > 0 else math.nan


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------

def heegner_degree(c: CaseIndex) -> float:
    """deg H(gamma, m) = -(B/2) C(gamma, m, 0) with B = 1/1440; positive."""
    if c.m <= 0:
        raise ValueError("degrees are defined for m > 0")
    return -float(B) / 2.0 * coefficient_C(c)


def heegner_degree_via_cohen(c: CaseIndex) -> Fraction:
    """The exact degree -(1/12) H(2, 4m) = -(B/2) C, for every m > 0."""
    return -Fraction(1, 12) * cohen_H(c)


# ---------------------------------------------------------------------------
# Green-function integrals
# ---------------------------------------------------------------------------

def kudla_integral(c: CaseIndex, v: float) -> float:
    """Integral of the Green function over the quotient, by unfolding.

    pref * sum over the primitive layers of the Siegel covolume of the
    layer's stabilizer, times the common orbit integral I3_pm(a) at
    a = 4 pi |m| v.  Positive for every m != 0.
    """
    if not (v > 0 and math.isfinite(v)):
        raise ValueError("v must be positive and finite")
    layers = primitive_decomposition(c)
    a = FOUR_PI * (abs(float(c.m)) * v)
    if c.m > 0:
        pref = CASE_I_PREFACTOR
        orbit = I3_plus(a).value
    else:
        pref = CASE_II_PREFACTOR
        orbit = I3_minus(a).value
    vols = sum(vol_sie(cn) for _, cn in layers)
    return pref * vols * orbit


@lru_cache(maxsize=None)
def frozen_normalization() -> float:
    """The Theorem-2 rhs/lhs at (m, a) = (1, 1): 1 up to its quadrature gap.

    Nothing in the library applies it; only the benchmark's identity-grid
    prefill still calls it, and it leaves together with that prefill.
    """
    c1 = split_discriminant(0, 1)
    v1 = 1.0 / FOUR_PI  # a = 4 pi m v = 1
    lhs_raw = 4.0 / float(B) * kudla_integral(c1, v1)
    rhs = abs(coefficient_C(c1)) * J_plus(1.0).value
    return rhs / lhs_raw


def theorem2_check(c: CaseIndex, v: float) -> TheoremReport:
    """Compare (4/B) I(gamma, m, v) against the Eisenstein side.

    lhs: (4/|B|) kudla_integral (positive); rhs magnitude: |C| J_plus(a)
    for m > 0, |C| J_minus(|a|) e^{-|a|} for m < 0.  Both sides are
    reported as magnitudes (the Eisenstein side is C < 0 times a positive
    factor, consistent with the analytic sign of B).
    """
    lhs = 4.0 / float(B) * kudla_integral(c, v)
    a = FOUR_PI * abs(float(c.m)) * v
    C = coefficient_C(c)
    if c.m > 0:
        rhs = C * J_plus(a).value
    else:
        rhs = C * J_minus(a).value * math.exp(-a)
    return TheoremReport(lhs=abs(lhs), rhs=abs(rhs))


def ibk_integral(c: CaseIndex, kappa: float) -> float:
    """Integral of the counterpart Green function with built-in log term.

    (|B|/4) (-C) (kappa + log(4 pi) + gamma_E) for m > 0 (Gamma'(1) =
    -gamma_E), and 0 for m < 0.
    """
    if c.m < 0:
        return 0.0
    C = coefficient_C(c)
    return (float(B) / 4.0 * (-C)
            * (kappa + math.log(4.0 * math.pi) + EULER_GAMMA))


def corollary_check(c: CaseIndex, v: float, kappa: float) -> TheoremReport:
    """Compare c0' against e^{-a/2} (4/B)(I - I_counterpart) + * c0, with
    signed a, the analytic (negative) sign of B and the fixed *; kappa =
    C'/C as everywhere.  For m < 0, I_counterpart and c0 vanish."""
    a = FOUR_PI * float(c.m) * v
    four_over_B = 4.0 / float(B)
    val = (-four_over_B * kudla_integral(c, v)
           - four_over_B * ibk_integral(c, kappa))
    rhs = _exp_neg_half(a) * val + _STAR * coefficient_c0(c, v)
    return TheoremReport(lhs=coefficient_c0_prime(c, v, kappa), rhs=rhs)
