"""Lattice-side machinery: index sets, enumeration, and the Green function.

Normalization (the one place it is fixed).  Index sets are realized as

    L(gamma, m) = { u in Z^5 : qhat(u) = u3^2 - 4 u2 u4 - 4 u1 u5 = 4m },

with 4m in Z; qhat(u) = 0 or 1 mod 4 forces u3 even exactly when gamma = 0
and odd exactly when gamma = 1, so the coset component is determined by the
discriminant.  The geometric vector attached to u is

    x(u) = (u1, u2, u3/2, u4, u5),      q(x(u)) = qhat(u)/4 = m,

and all majorant values R are computed on x(u), from geometry's single psi:
R(x(u), z) = |sum c_i(z) x_i(u)|^2 / (2 eta2).  With this scaling the
stabilizer reduction gives R = 2m sinh^2 t on the positive-index orbit, the
per-orbit integrals collapse onto J_plus(3/2, a)/J_minus(3/2, |a|) with
a = 4 pi m v, and no factors of 2 float around: the Green function is

    Xi(gamma, m, v, z) = sum_{u in L(gamma, m)} beta_1(2 pi v R(x(u), z)).

Enumeration under a majorant bound runs LLL basis reduction followed by
Fincke-Pohst recursive coordinate bounding; the final accept/reject always
re-evaluates the canonical quadratic form `majorant_value`, so a brute-force
box scan using the same function reproduces the output multiset exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CaseIndex, divisors, split_discriminant
from .geometry import SiegelPoint, _majorant_R_at, _psi_coeffs, majorant_gram
from .specfun import Precision, exp_e1

__all__ = [
    "LatticeVector",
    "GreenEvaluation",
    "SingularPointError",
    "EnumerationCapError",
    "SINGULAR_R_THRESHOLD",
    "orbit_representative",
    "majorant_value",
    "enumerate_bounded",
    "green_function",
    "primitive_decomposition",
]

SINGULAR_R_THRESHOLD = 1e-14


def _x_of(u) -> tuple:
    """The geometric vector x(u) = (u1, u2, u3/2, u4, u5) behind u."""
    u1, u2, u3, u4, u5 = u
    return (u1, u2, 0.5 * u3, u4, u5)


# x(u) = D u with D = diag(x(1, 1, 1, 1, 1)), so the majorant of x(u) is
# (1/2) u^T (D P_z D) u
_HALF_U3 = np.diag(_x_of((1.0,) * 5))


class SingularPointError(ValueError):
    """The evaluation point lies on (or numerically on) a Heegner divisor."""


class EnumerationCapError(RuntimeError):
    """Enumeration aborted: point count exceeded the configured cap."""


@dataclass(frozen=True)
class LatticeVector:
    """Integer 5-vector u; qhat and primitivity are derived, never stored."""

    u1: int
    u2: int
    u3: int
    u4: int
    u5: int

    @property
    def coords(self) -> tuple[int, int, int, int, int]:
        return (self.u1, self.u2, self.u3, self.u4, self.u5)

    @property
    def qhat(self) -> int:
        return self.u3 * self.u3 - 4 * self.u2 * self.u4 - 4 * self.u1 * self.u5

    @property
    def primitive(self) -> bool:
        return math.gcd(*self.coords) == 1

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.u1, -self.u2, -self.u3, -self.u4, -self.u5)


@dataclass(frozen=True)
class GreenEvaluation:
    value: float
    terms_used: int
    tail_bound: float
    radius: float

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")


def orbit_representative(c: CaseIndex) -> LatticeVector:
    """Standard representative of the primitive orbit for (gamma, m).

    gamma = 0:  (1, 0, 0, 0, -m);  gamma = 1 with m = M + 1/4:
    (0, 1, 1, -M, 0).  Both have qhat = 4m and are primitive.
    """
    if c.gamma == 0:
        rep = LatticeVector(1, 0, 0, 0, -int(c.m))
    else:
        M = int(c.m - Fraction(1, 4))
        rep = LatticeVector(0, 1, 1, -M, 0)
    assert rep.qhat == 4 * c.m and rep.primitive
    return rep


# ---------------------------------------------------------------------------
# Enumeration: LLL reduction + Fincke-Pohst coordinate bounding
# ---------------------------------------------------------------------------

def majorant_value(P: np.ndarray, u) -> float:
    """Canonical evaluation of (1/2) u^T P u (the accept/reject arbiter)."""
    v = np.asarray(u, dtype=np.float64)
    return 0.5 * float(v @ P @ v)


def _lll_transform(P: np.ndarray, delta: float = 0.75) -> np.ndarray:
    """Unimodular T with T^T P T LLL-reduced (P symmetric positive definite)."""
    n = P.shape[0]
    B = np.linalg.cholesky(P).T  # columns B[:, i] span the lattice
    T = np.eye(n, dtype=np.int64)

    def gso(Bm):
        Bstar = np.zeros_like(Bm)
        mu = np.zeros((n, n))
        norms = np.zeros(n)
        for i in range(n):
            v = Bm[:, i].copy()
            for j in range(i):
                mu[i, j] = float(Bm[:, i] @ Bstar[:, j]) / norms[j]
                v -= mu[i, j] * Bstar[:, j]
            Bstar[:, i] = v
            norms[i] = float(v @ v)
        return mu, norms

    mu, norms = gso(B)
    k = 1
    for _ in range(2000):
        if k >= n:
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                B[:, k] -= q * B[:, j]
                T[:, k] -= q * T[:, j]
                mu, norms = gso(B)
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            T[:, [k - 1, k]] = T[:, [k, k - 1]]
            mu, norms = gso(B)
            k = max(k - 1, 1)
    return T


def _fincke_pohst(P: np.ndarray, limit: float, cap: int) -> list[tuple[int, ...]]:
    """All nonzero integer w with w^T P w <= limit (P positive definite).

    Recursive coordinate bounding on the Cholesky factor, with a small
    relative slack so boundary points are never pruned by roundoff;
    callers re-filter with the canonical form.
    """
    n = P.shape[0]
    R = np.linalg.cholesky(P).T
    slack = limit * 1e-9 + 1e-9
    budget = limit + slack
    out: list[tuple[int, ...]] = []
    w = [0] * n

    def descend(i: int, remaining: float) -> None:
        t = 0.0
        for j in range(i + 1, n):
            t += R[i, j] * w[j]
        rad = math.sqrt(max(remaining, 0.0))
        rii = R[i, i]
        lo = math.ceil((-rad - t) / rii - 1e-12)
        hi = math.floor((rad - t) / rii + 1e-12)
        for wi in range(lo, hi + 1):
            s = rii * wi + t
            rem = remaining - s * s
            if rem < -slack:
                continue
            w[i] = wi
            if i == 0:
                if any(w):
                    out.append(tuple(w))
                    if len(out) > cap:
                        raise EnumerationCapError(
                            f"more than {cap} lattice points below the bound")
            else:
                descend(i - 1, rem)
        w[i] = 0

    descend(n - 1, budget)
    return out


def _enumerate_core(P: np.ndarray, bound: float, slack: float,
                    cap: int) -> list[tuple[int, ...]]:
    """Nonzero u with majorant_value(P, u) <= bound, sorted lexicographically."""
    T = _lll_transform(P)
    P_red = T.T @ P @ T
    P_red = 0.5 * (P_red + P_red.T)
    found = []
    for wt in _fincke_pohst(P_red, 2.0 * bound, cap):
        u = T @ np.array(wt, dtype=np.int64)
        if majorant_value(P, u) <= bound + slack:
            found.append(tuple(int(x) for x in u))
    found.sort()
    return found


def enumerate_bounded(z: SiegelPoint, bound: float,
                      prec: Precision = Precision(),
                      cap: int = 2_000_000) -> list[LatticeVector]:
    """Nonzero integer vectors u with (1/2) u^T P_z u <= bound.

    P_z is the majorant Gram matrix at z, so the quantity bounded is
    q(u) + R(u, z).  Output is sorted lexicographically and deterministic;
    the boundary test is `majorant_value(P_z, u) <= bound` exactly as a
    brute-force scan would apply it.
    """
    if bound <= 0:
        return []
    P = majorant_gram(z)
    return [LatticeVector(*u) for u in _enumerate_core(P, bound, 0.0, cap)]


# ---------------------------------------------------------------------------
# The Green function
# ---------------------------------------------------------------------------

def green_function(c: CaseIndex, v: float, z: SiegelPoint, radius: float,
                   prec: Precision = Precision(),
                   cap: int = 2_000_000) -> GreenEvaluation:
    """Truncated Green function  sum_u beta_1(2 pi v R(x(u), z))  at z.

    The sum runs over u with qhat(u) = 4m and R(x(u), z) <= radius,
    enumerated through the majorant bound q(x(u)) + R = m + R <= m + radius.
    Terms are added in lexicographic order of u (deterministic).  A term
    with R below SINGULAR_R_THRESHOLD means z lies on the divisor Z(u):
    SingularPointError.  tail_bound reports the crude shell estimate
    c(z) * radius^{3/2} * e^{-t}/t at t = 2 pi v radius, with c(z)
    calibrated from the enumerated count; it is reported, never added.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if c.m == 0:
        raise ValueError("m must be nonzero")
    fourm = int(4 * c.m)
    P = majorant_gram(z)
    psi_c, two_eta2 = _psi_coeffs(z), 2.0 * z.eta2
    P_half = _HALF_U3 @ P @ _HALF_U3
    P_half = 0.5 * (P_half + P_half.T)
    bound = float(c.m) + radius
    t_cut = 2.0 * math.pi * v * radius
    beta1_cut = math.exp(-t_cut) / t_cut if t_cut < 700 else 0.0
    if bound <= 0:
        return GreenEvaluation(value=0.0, terms_used=0,
                               tail_bound=radius ** 1.5 * beta1_cut,
                               radius=radius)
    terms = []
    for coords in _enumerate_core(P_half, bound, prec.abs_tol, cap):
        u = LatticeVector(*coords)
        if u.qhat != fourm:
            continue
        assert u.u3 % 2 == c.gamma
        r_val = _majorant_R_at(psi_c, two_eta2, _x_of(coords))
        if r_val < SINGULAR_R_THRESHOLD:
            raise SingularPointError(
                f"z lies on the divisor of u = {u.coords} (R = {r_val:.3e})")
        if r_val <= radius:
            terms.append((coords, r_val))
    value = 0.0
    for _, r_val in terms:  # already sorted by u
        value += exp_e1(2.0 * math.pi * v * r_val)
    density = len(terms) / radius ** 1.5 if terms else 1.0
    tail_bound = density * radius ** 1.5 * beta1_cut
    return GreenEvaluation(value=value, terms_used=len(terms),
                           tail_bound=tail_bound, radius=radius)


def primitive_decomposition(c: CaseIndex) -> list[tuple[int, CaseIndex]]:
    """Split L(gamma, m) into rescaled primitive layers n * L*(m / n^2).

    A vector with content n exists exactly when n divides f (then
    4m / n^2 = D0 (f/n)^2 is again a discriminant); the coset component of
    the layer follows the parity of that discriminant, so even n flips a
    gamma = 0 index into the gamma = 1 class.  n = 1 is always present.
    """
    if c.m == 0:
        raise ValueError("m must be nonzero")
    out = []
    for n in divisors(c.f):
        disc = c.discriminant // (n * n)
        gamma_n = 0 if disc % 4 == 0 else 1
        out.append((n, split_discriminant(gamma_n, Fraction(disc, 4))))
    return out
