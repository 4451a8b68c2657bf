"""Exact arithmetic layer: characters, splits, divisor sums, L-values."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kudla_green import arith
from kudla_green.arith import (CaseIndex, L_chi_2, L_chi_2_functional,
                               L_chi_2_series, bernoulli_B2_chi,
                               bernoulli_L_minus1, divisors,
                               is_fundamental_discriminant, kronecker_chi,
                               moebius, sigma3, sigma_gamma_m,
                               split_discriminant, xi_twisted)
from kudla_green.specfun import ABS_TOL, ToleranceError

FUNDAMENTAL_SMALL = [1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33,
                     -3, -4, -7, -8, -11, -15, -19, -20, -23, -24]
NOT_FUNDAMENTAL = [0, 4, 9, 16, 20, 25, 32, 36, 45, -12, -16, -27, -36, -400]


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------

def test_kronecker_examples():
    assert kronecker_chi(1, 7) == 1
    assert kronecker_chi(-4, 3) == -1
    assert kronecker_chi(5, 5) == 0


def test_kronecker_rejects_bad_discriminant_class():
    for D in (2, 3, -1, -2, 6, 7):
        with pytest.raises(ValueError):
            kronecker_chi(D, 3)
    with pytest.raises(ValueError):
        kronecker_chi(5, 0)


def _legendre(a: int, p: int) -> int:
    """Euler-criterion oracle for odd primes p."""
    r = pow(a % p, (p - 1) // 2, p)
    return r if r <= 1 else -1


@pytest.mark.parametrize("D", FUNDAMENTAL_SMALL)
def test_kronecker_matches_euler_criterion_at_odd_primes(D):
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97):
        if D % p == 0:
            assert kronecker_chi(D, p) == 0
        else:
            assert kronecker_chi(D, p) == _legendre(D, p)


@pytest.mark.parametrize("D", FUNDAMENTAL_SMALL)
def test_kronecker_value_at_two(D):
    # (D/2) is 0 for even D, +1 for D = +-1 mod 8, -1 for D = +-3 mod 8
    want = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    assert kronecker_chi(D, 2) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUNDAMENTAL_SMALL),
       st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=1000))
def test_kronecker_completely_multiplicative(D, m, n):
    assert kronecker_chi(D, m * n) == kronecker_chi(D, m) * kronecker_chi(D, n)


@pytest.mark.parametrize("D", [5, 8, -4, -3, 12, -24])
def test_kronecker_period(D):
    for n in range(1, 3 * abs(D)):
        assert kronecker_chi(D, n) == kronecker_chi(D, n + abs(D))


# ---------------------------------------------------------------------------
# Fundamental discriminants and splitting
# ---------------------------------------------------------------------------

def test_fundamentality_predicate():
    for D in FUNDAMENTAL_SMALL:
        assert is_fundamental_discriminant(D), D
    for D in NOT_FUNDAMENTAL:
        assert not is_fundamental_discriminant(D), D


def test_split_examples():
    c = split_discriminant(0, 1)
    assert (c.D0, c.f) == (1, 2)
    c = split_discriminant(0, 5)
    assert (c.D0, c.f) == (5, 2)
    # gamma = 1 indices split the odd discriminant 4m itself
    c = split_discriminant(1, Fraction(1, 4))
    assert (c.D0, c.f) == (1, 1)
    c = split_discriminant(1, Fraction(5, 4))
    assert (c.D0, c.f) == (5, 1)
    c = split_discriminant(1, Fraction(45, 4))
    assert (c.D0, c.f) == (5, 3)
    c = split_discriminant(0, -1)
    assert (c.D0, c.f) == (-4, 1)
    c = split_discriminant(0, -2)
    assert (c.D0, c.f) == (-8, 1)


def test_split_rejects_bad_input():
    with pytest.raises(ValueError):
        split_discriminant(0, 0)
    with pytest.raises(ValueError):
        split_discriminant(0, Fraction(1, 4))
    with pytest.raises(ValueError):
        split_discriminant(1, 1)
    with pytest.raises(ValueError):
        split_discriminant(2, 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-400, max_value=400).filter(lambda m: m != 0))
def test_split_round_trip_gamma0(m):
    c = split_discriminant(0, m)
    assert c.D0 * c.f ** 2 == 4 * m
    assert is_fundamental_discriminant(c.D0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-100, max_value=100))
def test_split_round_trip_gamma1(M):
    m = Fraction(4 * M + 1, 4)
    c = split_discriminant(1, m)
    assert c.D0 * c.f ** 2 == 4 * m
    assert is_fundamental_discriminant(c.D0)


def test_case_index_validates():
    with pytest.raises(ValueError):
        CaseIndex(gamma=0, m=Fraction(1), D0=1, f=3)
    assert CaseIndex(gamma=1, m=Fraction(5, 4), D0=5, f=1).discriminant == 5


@pytest.mark.parametrize("gamma, m, D0, f, message", [
    (0, Fraction(0), 1, 0, "m = 0"),
    (2, Fraction(1), 1, 2, "gamma must be 0 or 1"),
    (1, Fraction(1), 1, 2, "gamma=1 requires"),
    (0, Fraction(1, 4), 1, 1, "gamma=0 requires"),
    (0, Fraction(1), 1, -2, "f must be >= 1"),
    (0, Fraction(1), 4, 1, "not fundamental"),
    (0, Fraction(-1), 1, 2, "split invariant"),
    (0, 1.0, 1, 2, "m must be an int or a Fraction"),
], ids=["m-zero", "gamma-2", "gamma1-integral-m", "gamma0-quarter-m",
        "f-negative", "D0-not-fundamental", "split-wrong-sign", "m-float"])
def test_case_index_rejects_broken_invariant(gamma, m, D0, f, message):
    with pytest.raises(ValueError, match=message):
        CaseIndex(gamma, m, D0, f)


# ---------------------------------------------------------------------------
# Divisor sums
# ---------------------------------------------------------------------------

def test_sigma3_examples():
    assert sigma3(1) == 1
    assert sigma3(2) == 9
    assert sigma3(6) == 252


@pytest.mark.parametrize("n", list(range(1, 200)))
def test_sigma3_against_enumeration(n):
    assert sigma3(n) == sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def test_divisors_and_moebius():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_xi_twisted_examples():
    assert xi_twisted(5, 1) == 1
    assert xi_twisted(1, 2) == 7
    assert xi_twisted(-4, 3) == 31


def test_sigma_gamma_m_examples():
    assert sigma_gamma_m(split_discriminant(0, 2)) == 1  # f = 1
    assert sigma_gamma_m(split_discriminant(0, 1)) == Fraction(7, 8)


@pytest.mark.parametrize("D0", [1, 5, 8, -4, -3, 12, -24, 13])
@pytest.mark.parametrize("f", [1, 2, 3, 4, 6, 8, 12, 30])
def test_sigma_cross_oracle_xi(D0, f):
    N = D0 * f * f
    c = split_discriminant(0 if N % 4 == 0 else 1, Fraction(N, 4))
    assert sigma_gamma_m(c) * f ** 3 == xi_twisted(D0, f)


# ---------------------------------------------------------------------------
# Bernoulli numbers and L-values
# ---------------------------------------------------------------------------

def test_L_minus1_examples():
    assert bernoulli_L_minus1(1) == Fraction(-1, 12)
    # independent oracle: zeta_{Q(sqrt 5)}(-1) = 1/30 = zeta(-1) L(-1, chi_5)
    assert bernoulli_L_minus1(5) == Fraction(1, 30) / Fraction(-1, 12)
    assert bernoulli_L_minus1(8) == -1


def test_L_minus1_vanishes_for_odd_characters():
    for D0 in (-3, -4, -7, -8, -20, -24):
        assert bernoulli_L_minus1(D0) == 0


def test_L_minus1_rejects_non_fundamental():
    with pytest.raises(ValueError):
        bernoulli_L_minus1(9)
    with pytest.raises(ValueError):
        bernoulli_B2_chi(20)


def test_L_minus1_denominators_divide_60():
    for D0 in range(1, 201):
        if is_fundamental_discriminant(D0):
            assert 60 % bernoulli_L_minus1(D0).denominator == 0, D0


def test_L2_functional_equals_series():
    for D0 in (1, 5, 8, 12, 13, 17, 21, 24):
        fe = L_chi_2_functional(D0)
        series = L_chi_2_series(D0, 1e-11)
        assert abs(fe - series) <= 1e-9, D0


def test_L2_spot_values():
    assert abs(L_chi_2(1) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(L_chi_2(-4) - CATALAN) < 1e-9
    assert abs(L_chi_2(5) - 4.0 * math.pi ** 2 * 5.0 ** -2.5) < 1e-12


@pytest.mark.parametrize("D0", [1, -4])
def test_L2_series_rejects_nan_tolerance(D0):
    with pytest.raises(ValueError, match="abs_tol must be positive"):
        L_chi_2_series(D0, math.nan)


def test_L2_series_rejects_bad_input():
    with pytest.raises(ValueError):
        L_chi_2_series(9)
    with pytest.raises(ValueError):
        L_chi_2_series(5, 0.0)


def _trigamma(x: float) -> float:
    terms, _ = arith._trigamma_terms(np.array([x]))
    return math.fsum(terms[0])


def test_trigamma_reflection_and_recurrence():
    # psi'(x) + psi'(1 - x) = pi^2 / sin^2(pi x), psi'(x) - psi'(x + 1) = x^-2
    # on a dyadic grid, so x, 1 - x and x + 1 are exact
    for k in range(1, 65):
        x = k / 64
        if k < 64:
            # sin(pi x) = sin(pi (1 - x)); the smaller argument keeps
            # the reference accurate near x = 1
            want = (math.pi / math.sin(math.pi * min(x, 1.0 - x))) ** 2
            got = _trigamma(x) + _trigamma(1.0 - x)
            assert abs(got - want) <= 8 * math.ulp(want), x
        got = _trigamma(x) - _trigamma(x + 1.0)
        assert abs(got - x ** -2) <= 8 * math.ulp(_trigamma(x)), x


def test_L2_series_refuses_an_uncertifiable_tolerance():
    with pytest.raises(ToleranceError):
        L_chi_2_series(-4, 1e-30)


# ---------------------------------------------------------------------------
# Sublinear routes against their O(|D0|) oracles
# ---------------------------------------------------------------------------

CATALAN = 0.915965594177219015054603514932384110774

# L(2, chi_{D0}) in closed form: zeta(2), Catalan's G, and the values at the
# real quadratic fields Q(sqrt 5), Q(sqrt 2), Q(sqrt 3)
L2_CLOSED_FORMS = {1: math.pi ** 2 / 6.0, -4: CATALAN,
                   5: 4.0 * math.pi ** 2 / (25.0 * math.sqrt(5.0)),
                   8: math.pi ** 2 / (8.0 * math.sqrt(2.0)),
                   12: math.pi ** 2 / (6.0 * math.sqrt(3.0))}


def _b2_chi_character_sum(D0: int) -> Fraction:
    """Oracle: B_{2,chi} = (1/F) sum_{a=1}^{F} chi(a) (a^2 - F a + F^2/6),
    F = |D0|, summed over the integers chi(a) (6 a^2 - 6 F a + F^2)."""
    F = abs(D0)
    total = sum(kronecker_chi(D0, a) * (6 * a * a - 6 * F * a + F * F)
                for a in range(1, F + 1))
    return Fraction(total, 6 * F)


def test_sigma1_against_enumeration():
    for n in range(1, 400):
        assert arith._sigma1(n) == sum(d for d in range(1, n + 1)
                                       if n % d == 0)


def test_r4_counts_sums_of_four_squares():
    counts = [0] * 61
    for a in range(-7, 8):
        for b in range(-7, 8):
            for c in range(-7, 8):
                for d in range(-7, 8):
                    n = a * a + b * b + c * c + d * d
                    if n <= 60:
                        counts[n] += 1
    assert [arith._r4(n) for n in range(61)] == counts


def test_B2_five_squares_equals_character_sum():
    for D0 in range(1, 3001):
        if is_fundamental_discriminant(D0):
            assert bernoulli_B2_chi(D0) == _b2_chi_character_sum(D0), D0
    assert bernoulli_B2_chi(400009) == _b2_chi_character_sum(400009)


def test_plus_space_coefficients_vanish_off_discriminants():
    for N in range(3001):
        if N % 4 in (2, 3):
            assert arith._cohen_H2_times_120(N) == 0, N


_THETA_SAMPLE = sorted(random.Random(8).sample(
    [D for D in range(-40003, -300) if is_fundamental_discriminant(D)], 20))


@pytest.mark.parametrize(
    "D0", [D for D in range(-300, -2) if is_fundamental_discriminant(D)]
    + _THETA_SAMPLE)
def test_L2_theta_within_tolerance_of_series(D0):
    series = L_chi_2_series(D0, 1e-13)
    for abs_tol in (1e-6, 1e-10, 1e-12, 1e-14):
        got = arith._L_chi_2_theta(D0, abs_tol)
        assert abs(got - series) <= abs_tol, abs_tol
    assert abs(L_chi_2(D0) - series) <= ABS_TOL


def test_L2_theta_catalan_to_two_ulp():
    got = arith._L_chi_2_theta(-4, 1e-15)
    assert abs(got - CATALAN) <= 2 * math.ulp(CATALAN)


def test_L2_theta_memo_is_bounded_and_exact():
    theta = arith._L_chi_2_theta
    assert theta.cache_info().maxsize is not None
    for D0, tol in ((-4, 1e-12), (-1003, 1e-10), (-40003, 1e-12)):
        first = theta(D0, tol)
        assert first == theta(D0, tol) == theta.__wrapped__(D0, tol)
    # L_chi_2 asks the kernel for the library's one tolerance
    for D0 in (-4, -1003, -40003):
        assert L_chi_2(D0) == theta.__wrapped__(D0, ABS_TOL)


def test_oracles_never_reach_the_sublinear_routes(monkeypatch):
    def refuse(*args):
        raise AssertionError("oracle reached a sublinear route")

    for name in ("_sigma1", "_r4", "_cohen_H2_times_120", "_theta_L2_term",
                 "_L_chi_2_theta", "bernoulli_B2_chi", "L_chi_2",
                 "L_chi_2_functional", "exp_e1"):
        monkeypatch.setattr(arith, name, refuse)
    assert _b2_chi_character_sum(5) == Fraction(4, 5)
    for D0, want in L2_CLOSED_FORMS.items():
        assert abs(L_chi_2_series(D0) - want) <= 8 * math.ulp(want), D0
