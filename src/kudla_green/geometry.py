"""Geometric substrate: the genus-2 half-space and the majorant.

The ambient quadratic space is V = Q^5 with the signature (3,2) form

    q(x) = x3^2 - x1 x5 - x2 x4,        (x, x) = 2 q(x),

whose Gram matrix (of the bilinear form) is the constant `GRAM_Q`.  A
vector x in V is any sequence of five coordinates, read as floats.
Points z = (z1, z2, z3) of the genus-2 half-space (y1 > 0, y1 y3 - y2^2 > 0)
parametrize oriented negative 2-planes X_z = <Re u(z), Im u(z)> through the
isotropic embedding

    u(z) = (z2^2 - z1 z3, -z1, -z2, -z3, 1).

The linear form psi(z, x) = x1 - x2 z3 + 2 x3 z2 - x4 z1 + x5 (z2^2 - z1 z3)
cuts out the orthogonal-complement divisor Z(x) (a Humbert surface of
discriminant 4 q(x)), and

    R(x, z) = |psi(z, x)|^2 / (2 eta2),      eta2 = y1 y3 - y2^2,

is the positive correction that turns the indefinite form into the majorant
(x, x)_z = (x, x) + 2 R(x, z), whose Gram matrix P_z satisfies Siegel's
condition P_z Q^{-1} P_z = Q.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SiegelPoint",
    "GRAM_Q",
    "GRAM_Q_INV",
    "embed_u",
    "majorant_gram",
]

GRAM_Q = np.array([
    [0.0, 0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 2.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0, 0.0],
])

GRAM_Q_INV = np.linalg.inv(GRAM_Q)


@dataclass(frozen=True)
class SiegelPoint:
    """Point z = (z1, z2, z3) of the genus-2 half-space.

    Membership requires finite coordinates, y1 > 0 and eta2 = y1 y3 - y2^2
    > 0 (then y3 > 0 follows); violations raise ValueError.
    """

    z1: complex
    z2: complex
    z3: complex

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.z1, self.z2, self.z3))):
            raise ValueError(f"point has a non-finite coordinate: "
                             f"z=({self.z1}, {self.z2}, {self.z3})")
        if not (self.y1 > 0 and self.eta2 > 0):
            raise ValueError(
                f"point outside the half-space: y1={self.y1}, eta2={self.eta2}")

    @property
    def y1(self) -> float:
        return self.z1.imag

    @property
    def y2(self) -> float:
        return self.z2.imag

    @property
    def y3(self) -> float:
        return self.z3.imag

    @property
    def eta2(self) -> float:
        return self.y1 * self.y3 - self.y2 * self.y2


def embed_u(z: SiegelPoint) -> tuple[complex, complex, complex, complex, complex]:
    """The isotropic vector u(z) = (z2^2 - z1 z3, -z1, -z2, -z3, 1)."""
    return (z.z2 * z.z2 - z.z1 * z.z3, -z.z1, -z.z2, -z.z3, 1.0 + 0.0j)


def _psi_coeffs(z: SiegelPoint) -> tuple[complex, ...]:
    """c(z) = (u5, u4, -2 u3, u2, u1) with u = u(z), so psi(z, x) = sum c_i x_i
    = -(x, u(z)).

    The one statement of psi: R and the majorant Gram matrix both read it.
    """
    u1, u2, u3, u4, u5 = embed_u(z)
    return (u5, u4, 2.0 * -u3, u2, u1)  # -u3 = z2 exactly, signed zeros too


def _psi_dot(c: tuple[complex, ...], x) -> complex:
    """sum c_i x_i, added left to right, for float (or int) coordinates x."""
    return c[0] * x[0] + c[1] * x[1] + c[2] * x[2] + c[3] * x[3] + c[4] * x[4]


def _majorant_R_at(c: tuple[complex, ...], two_eta2: float, x) -> float:
    """|sum c_i x_i|^2 / (2 eta2), with c = c(z) and two_eta2 = 2 eta2(z).

    The one evaluation of R.  Callers that evaluate R at many x for one z
    (the Green function, once per lattice term) compute c and 2 eta2 once.
    Private, not in __all__: per-term code below the public API, which
    perfbench's spans (one per public call) would swamp.
    """
    p = _psi_dot(c, x)
    return (p.real * p.real + p.imag * p.imag) / two_eta2


def majorant_gram(z: SiegelPoint) -> np.ndarray:
    """Gram matrix P_z of the majorant x -> (x, x) + 2 R(x, z).

    Since 2 R(x, z) = |sum c_i x_i|^2 / eta2 with c = c(z) the psi
    coefficients, P_z = Q + Re(c cbar^T) / eta2.  Raises ValueError if the
    result is not finite or fails the positive-definiteness check, which
    rounding causes when z lies far out (e.g. Re z1 or Re z2 near 1e6).
    """
    c = np.array(_psi_coeffs(z))
    with np.errstate(over="ignore", invalid="ignore"):
        S = np.real(np.outer(c, np.conj(c)))
        P = GRAM_Q + S / z.eta2
        P = 0.5 * (P + P.T)
    if not np.isfinite(P).all() or np.min(np.linalg.eigvalsh(P)) <= 0:
        raise ValueError("majorant Gram matrix not positive definite")
    return P

