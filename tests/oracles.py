"""Independent routes that the tests check the library against.

The library, the CLI and the benchmark read none of these, so the package
does not export them.  Each keeps the body it had in the library, reading
the same private helpers, so a test that compares against one bit for bit
still does.

* `psi(z, x)`: the paper's psi(z, x), checked against the pairing with
  `embed_u(z)`.
* `majorant_R(z, x)`: R(x, z) at one vector, the filter of the box-scan
  oracle and of the acceptance majorant suite.
* `humbert_discriminant(x)`: 4 q(x) in exact Fractions, the oracle of the
  lattice's qhat.
* `orbit_representative(c)`: a primitive vector with qhat = 4m, the start
  of the log-singularity criterion.
* `beta_s(s, x)`: E1 = beta_1 by quadrature, the independent route of
  `exp_e1`; its closed forms at s = 0 and s = 1 test the quadrature driver.
* `e1_series_reference(x)`: the E1 power series, summed as first written
  with the abs/max stop test.  It is bit-identical to the library's
  `specfun._e1_power_series`, the branch of `exp_e1` below x = 1.5.
  Cancellation costs absolute accuracy as x grows: keep x below ~16, where
  the error is ~9e-12; the value turns negative by x = 25.
* `worst_diff(rows)`: the largest diff over the rows of one `checks`
  criterion, the number the acceptance battery judges.
* `ZETA_MINUS1`, `zeta_K_minus1`, `humbert_V13`, `hirzebruch_vol` and
  `V22`: the covolumes in their own normalizations (hyperbolic 3-space,
  the Hirzebruch-van der Geer tables and the product of two half-planes),
  which the tests convert into `vol_sie`'s Siegel normalization and B.
"""

import math
from fractions import Fraction

import numpy as np

from kudla_green.arith import (CaseIndex, L_chi_2, bernoulli_L_minus1,
                               euler_factor, is_fundamental_discriminant)
from kudla_green.checks import _worst
from kudla_green.geometry import (SiegelPoint, _majorant_R_at, _psi_coeffs,
                                  _psi_dot)
from kudla_green.lattice import _QHAT
from kudla_green.specfun import (_START_EFOLDS, EULER_GAMMA, QuadratureResult,
                                 _truncated)


def psi(z: SiegelPoint, x) -> complex:
    """psi(z, x) = sum c_i(z) x_i, linear in x; zero exactly on Z(x)."""
    return _psi_dot(_psi_coeffs(z), [float(t) for t in x])


def majorant_R(z: SiegelPoint, x) -> float:
    """R(x, z) = |psi(z, x)|^2 / (2 eta2) >= 0, zero exactly on Z(x)."""
    return _majorant_R_at(_psi_coeffs(z), 2.0 * z.eta2,
                          [float(t) for t in x])


def humbert_discriminant(x) -> Fraction:
    """Discriminant 4 q(x) = (2 x3)^2 - 4 x1 x5 - 4 x2 x4 of the surface Z(x),
    in exact Fractions: the one exact statement of q."""
    x1, x2, x3, x4, x5 = map(Fraction, x)
    return (2 * x3) ** 2 - 4 * x1 * x5 - 4 * x2 * x4


def orbit_representative(c: CaseIndex) -> tuple[int, ...]:
    """Standard representative of the primitive orbit for (gamma, m).

    gamma = 0:  (1, 0, 0, 0, -m);  gamma = 1 with m = M + 1/4:
    (0, 1, 1, -M, 0).  Both have qhat = 4m and are primitive.
    """
    if c.gamma == 0:
        rep = (1, 0, 0, 0, -int(c.m))
    else:
        M = int(c.m - Fraction(1, 4))
        rep = (0, 1, 1, -M, 0)
    u = np.array(rep, dtype=object)  # exact Python-int products
    assert u @ _QHAT.astype(object) @ u == 4 * c.m and math.gcd(*rep) == 1
    return rep


def beta_s(s: float, x: float) -> QuadratureResult:
    """beta_s(x) = int_1^oo e^{-x t} t^{-s} dt; beta_1 is the exponential integral E1.

    Tail: for T >= 1 and s >= 0, int_T^oo e^{-xt} t^{-s} dt <= e^{-xT}/x.
    """
    if not s >= 0:
        raise ValueError("s must be >= 0")
    if not 0 < x < math.inf:
        raise ValueError("x must be positive and finite")

    def integrand(t: float) -> float:
        return math.exp(-x * t) * t ** (-s)

    return _truncated(integrand, 1.0, 1.0 + _START_EFOLDS / x, 2.0,
                      lambda T: math.exp(-x * T) / x,
                      lambda T: min(1.0, 1.0 / x))


def e1_series_reference(x):
    total = 0.0
    term = 1.0
    for k in range(1, 121):
        term *= -x / k
        delta = -term / k
        total += delta
        if abs(delta) < 1e-18 * max(1.0, abs(total)):
            break
    return -EULER_GAMMA - math.log(x) + total


def worst_diff(rows: list[dict]) -> float:
    """The largest diff over rows, NaN if any row's diff is NaN."""
    return _worst((row["diff"], row["label"]) for row in rows)[0]


ZETA_MINUS1 = Fraction(-1, 12)


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
