"""Exact number-theoretic primitives.

Real quadratic characters (Kronecker symbols), divisor sums, discriminant
splitting, generalized Bernoulli numbers, and the Dirichlet L-values that
drive everything else: L(-1, chi) exactly and L(2, chi) both through the
functional equation and through the direct series (kept as an independent
oracle).

Conventions
-----------
A case index carries the pair (gamma, m) with gamma in {0, 1} and
m an integer (gamma = 0) or an element of Z + 1/4 (gamma = 1).  In both
cases the integer N = 4m is a discriminant (N = 0 or 1 mod 4) and splits
uniquely as N = D0 * f**2 with D0 a fundamental discriminant and f >= 1.
N is the discriminant of the associated Humbert surface, so a single split
serves the Fourier coefficients, the class-number route and the volume
formulas alike.  All exact rationals are `fractions.Fraction` instances
(always in lowest terms with positive denominator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "CaseIndex",
    "kronecker_chi",
    "is_fundamental_discriminant",
    "split_discriminant",
    "sigma3",
    "moebius",
    "divisors",
    "factorize",
    "xi_twisted",
    "euler_factor",
    "sigma_gamma_m",
    "bernoulli_B2_chi",
    "bernoulli_L_minus1",
    "L_chi_2",
    "L_chi_2_series",
    "L_chi_2_functional",
]


# ---------------------------------------------------------------------------
# Case indices and discriminant splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseIndex:
    """Component/index data for one Fourier coefficient or Heegner divisor.

    gamma       -- coset component, 0 (m integral) or 1 (m in Z + 1/4)
    m           -- the index, a nonzero rational with 4m in Z
    delta_gamma -- 1 for gamma = 0, 4 for gamma = 1
    D0          -- fundamental discriminant with D0 * f**2 = 4m
    f           -- conductor-like part of the split, f >= 1
    """

    gamma: int
    m: Fraction
    delta_gamma: int
    D0: int
    f: int

    @property
    def discriminant(self) -> int:
        """The integer 4m, i.e. the Humbert discriminant of the index."""
        return self.D0 * self.f * self.f

    def __post_init__(self):
        if self.gamma not in (0, 1):
            raise ValueError(f"gamma must be 0 or 1, got {self.gamma}")
        if self.delta_gamma != (1 if self.gamma == 0 else 4):
            raise ValueError("delta_gamma inconsistent with gamma")
        if self.D0 * self.f * self.f != 4 * self.m:
            raise ValueError("split invariant D0*f^2 = 4m violated")


def kronecker_chi(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for a discriminant D and n >= 1.

    D must be 0 or 1 mod 4 (the discriminant classes on which the symbol
    is a real character of period |D|); n >= 1.  Completely multiplicative
    in n, and zero exactly when gcd(n, D) > 1.
    """
    if D % 4 not in (0, 1):
        raise ValueError(f"invalid discriminant class: {D} = 2,3 mod 4")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    a, b = D, n
    result = 1
    # factor out the even part of n; (D/2) = 0, +1, -1 per D mod 8
    while b % 2 == 0:
        b //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi-symbol loop on the odd part, via quadratic reciprocity
    a %= b
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def _squarefree_part(n: int) -> tuple[int, int]:
    """Return (s, t) with n = s * t**2 and s squarefree (sign kept on s)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    sign = 1 if n > 0 else -1
    n = abs(n)
    s, t = 1, 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            s *= p
        t *= p ** (e // 2)
    return sign * s, t


def is_fundamental_discriminant(D: int) -> bool:
    """True when D is a fundamental discriminant (D = 1 is allowed)."""
    if D == 0:
        return False
    s, t = _squarefree_part(D)
    if D % 4 == 1:
        return t == 1
    if D % 4 == 0:
        k = D // 4
        sk, tk = _squarefree_part(k)
        return tk == 1 and k % 4 in (2, 3)
    return False


def split_discriminant(gamma: int, m) -> CaseIndex:
    """Split the index m into its CaseIndex with 4m = D0 * f**2.

    gamma = 0 requires a nonzero integer m; gamma = 1 requires m in
    Z + 1/4.  Works for negative m (then D0 < 0).
    """
    m = Fraction(m)
    if m == 0:
        raise ValueError("m = 0 has no discriminant split")
    if gamma == 0:
        if m.denominator != 1:
            raise ValueError(f"gamma=0 requires integral m, got {m}")
    elif gamma == 1:
        if (m - Fraction(1, 4)).denominator != 1:
            raise ValueError(f"gamma=1 requires m in Z + 1/4, got {m}")
    else:
        raise ValueError(f"gamma must be 0 or 1, got {gamma}")
    N = 4 * m
    assert N.denominator == 1
    N = int(N)
    s, t = _squarefree_part(N)
    if s % 4 == 1:
        D0, f = s, t
    else:
        assert t % 2 == 0, "discriminant split failed; N not a discriminant"
        D0, f = 4 * s, t // 2
    assert is_fundamental_discriminant(D0)
    return CaseIndex(gamma=gamma, m=m, delta_gamma=1 if gamma == 0 else 4,
                     D0=D0, f=f)


# ---------------------------------------------------------------------------
# Divisor-sum machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as a dict {p: e} (trial division)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def moebius(n: int) -> int:
    """Moebius function mu(n)."""
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def sigma3(n: int) -> int:
    """Sum of the cubes of the divisors of n >= 1."""
    out = 1
    for p, e in factorize(n).items():
        out *= (p ** (3 * (e + 1)) - 1) // (p ** 3 - 1)
    return out


def xi_twisted(D0: int, f: int) -> int:
    """Twisted divisor sum  sum_{d|f} mu(d) chi_{D0}(d) d sigma3(f/d)."""
    if not is_fundamental_discriminant(D0):
        raise ValueError(f"D0 = {D0} is not fundamental")
    total = 0
    for d in divisors(f):
        mu = moebius(d)
        if mu == 0:
            continue
        total += mu * kronecker_chi(D0, d) * d * sigma3(f // d)
    return total


def euler_factor(D: int, f: int) -> Fraction:
    """prod_{p | f} (1 - chi_D(p) / p^2) for a discriminant D, exact."""
    out = Fraction(1)
    for p in factorize(f):
        out *= Fraction(p * p - kronecker_chi(D, p), p * p)
    return out


def sigma_gamma_m(c: CaseIndex) -> Fraction:
    """Generalized divisor sum at s = 5/2, as an exact rational.

    Defined as f^{-3} * sum_{q|f} q^3 * prod_{p|q} (1 - chi(p)/p^2);
    equals xi_twisted(D0, f) / f^3 (the two are cross-checked in tests).
    """
    total = sum(q ** 3 * euler_factor(c.D0, q) for q in divisors(c.f))
    return total / c.f ** 3


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and L-values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_B2_chi(D0: int) -> Fraction:
    """Generalized Bernoulli number B_{2,chi} for chi = chi_{D0}.

    Computed from the closed polynomial sum
        B_{2,chi} = (1/F) sum_{a=1}^{F} chi(a) (a^2 - F a + F^2/6),  F = |D0|,
    summed over the integers chi(a) (6 a^2 - 6 F a + F^2) and divided by 6F
    once.  Exact; vanishes for odd characters (D0 < 0).
    """
    if not is_fundamental_discriminant(D0):
        raise ValueError(f"D0 = {D0} is not fundamental")
    F = abs(D0)
    total = sum(kronecker_chi(D0, a) * (6 * a * a - 6 * F * a + F * F)
                for a in range(1, F + 1))
    return Fraction(total, 6 * F)


def bernoulli_L_minus1(D0: int) -> Fraction:
    """Exact L(-1, chi_{D0}) = -B_{2,chi}/2; equals -1/12 (zeta) at D0 = 1.

    Zero for D0 < 0 (odd character).
    """
    return -bernoulli_B2_chi(D0) / 2


def L_chi_2_series(D0: int, abs_tol: float = 1e-12) -> float:
    """L(2, chi_{D0}) by direct summation of sum chi(n)/n^2.

    Independent oracle route.  For D0 = 1 the tail 1/N - 1/(2N^2) + 1/(6N^3)
    is added (Euler-Maclaurin, error below 1/(30 N^5)).  For |D0| > 1 the
    prefix sums of chi are bounded, so partial summation bounds the tail by
    2*C/N^2 with C the max prefix sum over a period; N is chosen so the
    bound is below abs_tol (always at most the crude 1/N bound).
    """
    if not is_fundamental_discriminant(D0):
        raise ValueError(f"D0 = {D0} is not fundamental")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    if D0 == 1:
        N = 4000
        n = np.arange(1, N + 1, dtype=np.float64)
        head = float(np.sum(1.0 / (n * n)[::-1]))
        return head + 1.0 / N - 1.0 / (2.0 * N * N) + 1.0 / (6.0 * N ** 3)
    period = abs(D0)
    # table[r] = chi(r mod period); chi(period) = 0 for |D0| > 1
    table = np.array([0] + [kronecker_chi(D0, r) for r in range(1, period)],
                     dtype=np.float64)
    C = int(np.max(np.abs(np.cumsum(table))))  # max |prefix sum| of chi
    N = max(1000, math.isqrt(int(2 * max(C, 1) / abs_tol)) + 1)
    total = 0.0
    chunk = 1 << 20
    # summed in descending-n chunks so the smallest terms accumulate first
    hi = N
    while hi > 0:
        lo = max(0, hi - chunk)
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        chi = table[np.arange(lo + 1, hi + 1) % period]
        total += float(np.sum((chi / (n * n))[::-1]))
        hi = lo
    return total


def L_chi_2_functional(D0: int) -> float:
    """L(2, chi_{D0}) = -2 pi^2 D0^{-3/2} L(-1, chi_{D0}) for D0 >= 1."""
    if D0 < 1:
        raise ValueError("functional-equation route requires D0 >= 1")
    return -2.0 * math.pi ** 2 * float(bernoulli_L_minus1(D0)) / D0 ** 1.5


def L_chi_2(D0: int, abs_tol: float = 1e-12) -> float:
    """L(2, chi_{D0}): functional equation for D0 > 0, series for D0 < 0."""
    if D0 >= 1:
        return L_chi_2_functional(D0)
    return L_chi_2_series(D0, abs_tol)
