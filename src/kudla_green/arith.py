"""Exact number-theoretic primitives.

Real quadratic characters (Kronecker symbols), divisor sums, discriminant
splitting, generalized Bernoulli numbers, and the Dirichlet L-values that
drive everything else, each in about sqrt(|D0|) steps: B_{2,chi} and
L(-1, chi) exactly from sums of five squares, L(2, chi) for D0 > 0 through
the functional equation and for D0 < 0 through the theta functional
equation with a certified tail.  The O(|D0|) trigamma character sum
`L_chi_2_series` is the independent oracle; it calls neither fast route.

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
from itertools import chain

import numpy as np

from .specfun import ABS_TOL, ToleranceError, exp_e1

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
]

# largest |4m| `split_discriminant` accepts (one coeff row takes ~3 s there)
_MAX_ABS_4M = 10 ** 9


# ---------------------------------------------------------------------------
# Case indices and discriminant splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseIndex:
    """Component/index data for one Fourier coefficient or Heegner divisor.

    gamma -- coset component, 0 (m integral) or 1 (m in Z + 1/4)
    m     -- the index, a nonzero int or Fraction with 4m in Z
    D0    -- fundamental discriminant with D0 * f**2 = 4m
    f     -- conductor-like part of the split, f >= 1

    The constructor enforces these invariants (ValueError otherwise), so
    the (gamma, m) pair alone fixes D0 and f; `split_discriminant` finds
    them.
    """

    gamma: int
    m: Fraction
    D0: int
    f: int

    @property
    def discriminant(self) -> int:
        """The integer 4m, i.e. the Humbert discriminant of the index."""
        return self.D0 * self.f * self.f

    def __post_init__(self):
        _check_index(self.gamma, self.m)
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f}")
        if not is_fundamental_discriminant(self.D0):
            raise ValueError(f"D0 = {self.D0} is not fundamental")
        if self.D0 * self.f * self.f != 4 * self.m:
            raise ValueError("split invariant D0*f^2 = 4m violated")


def _check_index(gamma: int, m: Fraction) -> None:
    """ValueError unless m != 0 lies in the coset of gamma in (1/4)Z."""
    if not isinstance(m, (int, Fraction)):
        raise ValueError(f"m must be an int or a Fraction, got {m!r}")
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
    if D % 4 == 1:
        return _squarefree_part(D)[1] == 1
    if D % 4 == 0:
        k = D // 4
        return k % 4 in (2, 3) and _squarefree_part(k)[1] == 1
    return False


def split_discriminant(gamma: int, m) -> CaseIndex:
    """Split the index m into its CaseIndex with 4m = D0 * f**2.

    gamma = 0 requires a nonzero integer m; gamma = 1 requires m in
    Z + 1/4, and |4m| must be at most 10**9.  Works for negative m (then
    D0 < 0).
    """
    m = Fraction(m)
    _check_index(gamma, m)
    n4 = int(4 * m)
    if abs(n4) > _MAX_ABS_4M:
        raise ValueError(f"|4m| must be at most {_MAX_ABS_4M}")
    s, t = _squarefree_part(n4)
    if s % 4 == 1:
        D0, f = s, t
    else:
        D0, f = 4 * s, t // 2
    return CaseIndex(gamma=gamma, m=m, D0=D0, f=f)


# ---------------------------------------------------------------------------
# Divisor-sum machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as a dict {p: e} (trial division)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _trial_division(n)


def _trial_division(n: int) -> dict:
    """`factorize` without its memo."""
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

def _sigma1(n: int) -> int:
    """Sum of the divisors of n >= 1.

    Factors with `_trial_division`: the memo of `factorize` has no size
    limit, and B_{2,chi} would add ~2 sqrt(D0) entries to it per new D0.
    """
    out = 1
    for p, e in _trial_division(n).items():
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def _r4(n: int) -> int:
    """Number of representations of n >= 0 as a sum of four squares.

    Jacobi: r4(n) = 8 sigma1(n) - 32 sigma1(n/4), the second term only when
    4 | n, and r4(0) = 1.  That is 8 sigma1(n) for odd n and
    24 sigma1(n') for even n = 2^a n' with n' odd.
    """
    if n == 0:
        return 1
    if n % 2:
        return 8 * _sigma1(n)
    return 24 * _sigma1(n >> ((n & -n).bit_length() - 1))


def _cohen_H2_times_120(N: int) -> int:
    """120 H(2, N) = r5(N) - 20 s(N) for N >= 0; zero at N = 2, 3 mod 4.

    The generating series H_{5/2} = sum H(2, N) q^N lies in Kohnen's plus
    space inside M_{5/2}(Gamma0(4)), which has dimension 2 and the basis
    theta^5, theta F2 (F2 = sum_{n odd} sigma1(n) q^n); the coefficients of
    q^0 and q^1 fix H_{5/2} = (theta^5 - 20 theta F2) / 120.
    Coefficientwise, with n = N - k^2 over |k| <= isqrt N: r5(N) = sum r4(n)
    and s(N) = sum sigma1(n) over the odd n, where r4(n) = 8 sigma1(n); so
    an odd n adds r4(n) - 20 r4(n)/8 = -3 r4(n)/2.  (Cohen, Math. Ann. 217
    (1975); Kohnen, Math. Ann. 248 (1980).)
    """
    total = 0
    for k in range(math.isqrt(N) + 1):
        n = N - k * k
        r4 = _r4(n)
        term = -3 * r4 // 2 if n % 2 else r4
        total += 2 * term if k else term
    return total


@lru_cache(maxsize=None)
def bernoulli_B2_chi(D0: int) -> Fraction:
    """Generalized Bernoulli number B_{2,chi} for chi = chi_{D0}.

    Exact, and 0 for odd characters (D0 < 0).  For D0 > 0,
    B_{2,chi} = -2 L(-1, chi) = -2 H(2, D0) with H(2, D0) from sums of five
    squares (`_cohen_H2_times_120`): about sqrt(D0) divisor sums instead of
    the D0 Kronecker symbols of the character sum
    (1/F) sum_{a=1}^{F} chi(a) (a^2 - F a + F^2/6), which the tests keep as
    the oracle.
    """
    if not is_fundamental_discriminant(D0):
        raise ValueError(f"D0 = {D0} is not fundamental")
    if D0 < 0:
        return Fraction(0)
    return Fraction(-_cohen_H2_times_120(D0), 60)


def bernoulli_L_minus1(D0: int) -> Fraction:
    """Exact L(-1, chi_{D0}) = -B_{2,chi}/2; equals -1/12 (zeta) at D0 = 1.

    Zero for D0 < 0 (odd character).
    """
    return -bernoulli_B2_chi(D0) / 2


# psi'(y) ~ 1/y + 1/(2 y^2) + sum_{j<=5} B_{2j} y^{-2j-1}, term by term
_TRIGAMMA_COEF = np.array([1.0, 0.5, 1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66])
_TRIGAMMA_POW = np.array([1, 2, 3, 5, 7, 9, 11])
_L2_BLOCK = 4096  # residues per block of `L_chi_2_series`'s trigamma table


def _trigamma_terms(x: np.ndarray) -> np.ndarray:
    """Rows of terms summing to psi'(x), one per x > 0.

    psi'(x) = sum_{k<16} (x + k)^{-2} + psi'(y), y = x + 16; for real y > 0
    the asymptotic series of psi'(y) misses by at most its first omitted
    term |B_12| y^{-13}, below 6e-17 at y >= 16 (DLMF 5.15.8, 5.11(ii)).
    """
    x = np.asarray(x, dtype=np.float64)[:, None]
    inv = 1.0 / (x + 16.0)
    head = 1.0 / (x + np.arange(16)) ** 2
    tail = _TRIGAMMA_COEF * inv ** _TRIGAMMA_POW
    return np.hstack([head, tail])


def L_chi_2_series(D0: int, abs_tol: float = 1e-12) -> float:
    """L(2, chi_{D0}) = F^{-2} sum_{a=1}^{F} chi(a) psi'(a/F), F = |D0|.

    The independent oracle, as psi'(a/F) = F^2 sum_{n = a mod F} n^{-2}
    (Apostol, ch. 12): O(|D0|) steps calling only `kronecker_chi`.  Its
    truncation is certified (ToleranceError past abs_tol); its rounding,
    with the terms added by math.fsum, is not (a few ulp).
    """
    if not is_fundamental_discriminant(D0):
        raise ValueError(f"D0 = {D0} is not fundamental")
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    F = abs(D0)
    chi = np.array([kronecker_chi(D0, a) for a in range(1, F + 1)], float)
    x = np.arange(1, F + 1) / F
    bound = 691 / 2730 * (1.0 / (x + 16.0)) ** 13  # |B_12| (x + 16)^{-13}
    if math.fsum(np.abs(chi) * bound) / (F * F) > abs_tol:
        raise ToleranceError(f"L(2, chi_{D0}) cannot certify abs_tol={abs_tol}")
    rows = ((_trigamma_terms(x[i:i + _L2_BLOCK]) * chi[i:i + _L2_BLOCK, None])
            .ravel().tolist() for i in range(0, F, _L2_BLOCK))
    return math.fsum(chain.from_iterable(rows)) / (F * F)


def _theta_L2_term(n: int, F: int) -> float:
    """The n-th term of `_L_chi_2_theta`, chi(n) left out.

    Gamma(3/2, x) / Gamma(3/2) = erfc(sqrt x) + 2 sqrt(x / pi) e^{-x}, so the
    term is erfc(sqrt x) / n^2 + (2 / sqrt F) [e^{-x} / n + (pi n / F) E1(x)].
    """
    x = math.pi * n * n / F
    return (math.erfc(math.sqrt(x)) / (n * n)
            + 2.0 / math.sqrt(F) * (math.exp(-x) / n
                                    + math.pi * n / F * exp_e1(x)))


@lru_cache(maxsize=1024)  # coefficient_C and vol_sie ask for the same value
def _L_chi_2_theta(D0: int, abs_tol: float) -> float:
    """L(2, chi_{D0}) for D0 < 0 from the theta functional equation.

    The Mellin integral of theta_chi(t) = sum chi(n) n e^{-pi n^2 t / F},
    F = |D0|, split at t = 1 (theta_chi(1/t) = t^{3/2} theta_chi(t), as a
    real character has root number 1), gives
        L(2, chi) = Gamma(3/2)^{-1} sum_n chi(n) [n^{-2} Gamma(3/2, x_n)
                    + n (pi/F)^{3/2} E1(x_n)],  x_n = pi n^2 / F,
    with Gamma(3/2, x) = sqrt(x) e^{-x} + (sqrt(pi)/2) erfc(sqrt x).  For
    x > 1/2, Gamma(3/2, x) <= sqrt(x) e^{-x} / (1 - 1/(2x)) and
    E1(x) <= e^{-x} / x, so term n is at most
    (2 / sqrt F) n^{-1} e^{-x_n} [1/(1 - 1/(2 x_n)) + 1], and past n = N
    each bound shrinks by at least e^{-2 pi (N+1) / F}.  The sum stops at
    the first N whose geometric tail bound is <= abs_tol / 2; it has about
    sqrt(F ln(1/abs_tol) / pi) terms.  (Davenport, Multiplicative Number
    Theory, ch. 9.)
    """
    F = -D0
    terms = []
    N = 0
    while True:
        N += 1
        chi = kronecker_chi(D0, N)
        if chi:
            terms.append(chi * _theta_L2_term(N, F))
        x = math.pi * (N + 1) ** 2 / F
        if x > 0.5:
            bound = (2.0 / math.sqrt(F) / (N + 1) * math.exp(-x)
                     * (1.0 / (1.0 - 0.5 / x) + 1.0))
            # 1 - e^{-2 pi (N+1) / F}: the geometric series' denominator
            gap = -math.expm1(-2.0 * math.pi * (N + 1) / F)
            if bound / gap <= abs_tol / 2:
                return math.fsum(terms)


def L_chi_2(D0: int) -> float:
    """L(2, chi_{D0}), D0 fundamental.

    D0 > 0: the functional equation L(2, chi) = -2 pi^2 D0^{-3/2} L(-1, chi),
    from the exact B_{2,chi}.  D0 < 0: the theta functional equation
    `_L_chi_2_theta`, whose truncation error is certified to be at most
    ABS_TOL / 2, with about sqrt(|D0|) terms (the oracle `L_chi_2_series`
    takes |D0|).
    """
    if D0 >= 1:
        return -2.0 * math.pi ** 2 * float(bernoulli_L_minus1(D0)) / D0 ** 1.5
    if not is_fundamental_discriminant(D0):
        raise ValueError(f"D0 = {D0} is not fundamental")
    return _L_chi_2_theta(D0, ABS_TOL)
