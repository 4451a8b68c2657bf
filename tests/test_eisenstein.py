"""Eisenstein coefficient layer: C, c0, c0', and C = 240 H(2, 4m) at m > 0."""

import math
import sys
from fractions import Fraction

import pytest

from kudla_green.arith import L_chi_2, split_discriminant, xi_twisted
from kudla_green.eisenstein import (coefficient_C, coefficient_c0,
                                    coefficient_c0_prime, cohen_H)
from kudla_green.specfun import FOUR_PI, J_minus, J_plus


def test_cohen_H_examples():
    assert cohen_H(split_discriminant(0, 1)) == Fraction(-7, 12)
    assert cohen_H(split_discriminant(0, 2)) == -1  # f = 1: just L(-1)
    # gamma = 1: the odd discriminant 4m = 5 has f = 1
    assert cohen_H(split_discriminant(1, Fraction(5, 4))) == Fraction(-2, 5)
    assert cohen_H(split_discriminant(1, Fraction(45, 4))) == \
        Fraction(-2, 5) * xi_twisted(5, 3)


def test_cohen_H_carries_its_index():
    # H(2, N) takes the CaseIndex whose discriminant is N = 4m
    assert split_discriminant(0, 3).discriminant == 12
    assert split_discriminant(1, Fraction(45, 4)).discriminant == 45


def test_cohen_H_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        cohen_H(split_discriminant(0, -1))


def _assert_C_is_240_H(c):
    # C = 240 H(2, 4m) exactly for m > 0; the float route rounds it
    exact = 240 * cohen_H(c)
    want = float(exact)
    assert abs(coefficient_C(c) - want) <= 4 * math.ulp(want), c
    if c.D0 == 1:  # 4m a square: L(2, chi) = pi^2/6, |m|^{3/2} = f^3/8
        assert exact == -20 * xi_twisted(1, c.f), c


def test_two_route_consistency_integral_indices():
    for m in range(1, 301):
        _assert_C_is_240_H(split_discriminant(0, m))


def test_two_route_consistency_quarter_indices():
    for n4 in range(1, 1200, 4):
        _assert_C_is_240_H(split_discriminant(1, Fraction(n4, 4)))


def test_cohen_H_functional_equation_expression():
    # H(2, 4m) = -(1/(2 pi^2)) L(2, chi) D0^{3/2} xi(D0, f)
    for m in (1, 2, 3, 5, 7, 12):
        c = split_discriminant(0, m)
        want = (-L_chi_2(c.D0) * c.D0 ** 1.5 * xi_twisted(c.D0, c.f)
                / (2.0 * math.pi ** 2))
        assert float(cohen_H(c)) == pytest.approx(want, rel=1e-9)


def test_c0_vanishes_for_negative_index():
    c = split_discriminant(0, -3)
    assert coefficient_c0(c, 0.7) == 0.0


def test_c0_value_and_decay():
    c = split_discriminant(0, 1)
    v = 1.0 / FOUR_PI  # a = 1
    assert coefficient_c0(c, v) == pytest.approx(-140.0 * math.exp(-0.5),
                                                       rel=1e-9)
    assert abs(coefficient_c0(c, 20.0)) < 1e-9


def test_c0_sign_pattern():
    for m in (1, 2, 5):
        c = split_discriminant(0, m)
        C = coefficient_C(c)
        for v in (0.05, 0.3, 1.0):
            assert math.copysign(1.0, coefficient_c0(c, v)) == \
                math.copysign(1.0, C)


def test_c0_prime_positive_branch():
    c = split_discriminant(0, 1)
    v = 1.0 / FOUR_PI
    want = -140.0 * math.exp(-0.5) * J_plus(1.0).value
    assert coefficient_c0_prime(c, v, 0.0) == pytest.approx(want, rel=1e-9)
    # kappa enters affinely
    base = coefficient_c0_prime(c, v, 0.0)
    shifted = coefficient_c0_prime(c, v, 0.25)
    assert shifted - base == pytest.approx(-140.0 * math.exp(-0.5) * 0.25, rel=1e-9)


def test_c0_prime_negative_branch_ignores_kappa():
    c = split_discriminant(0, -1)
    v = 1.0 / FOUR_PI
    a = coefficient_c0_prime(c, v, 0.0)
    b = coefficient_c0_prime(c, v, 123.0)
    assert a == b
    want = coefficient_C(c) * math.exp(-0.5) * J_minus(1.0).value
    assert a == pytest.approx(want, rel=1e-9)


def test_c0_refuses_a_past_the_limit():
    # |a| = 4 pi |m| v: 1495 at m = 119 and 1420 at m = -113, v = 1
    for m in (119, -113):
        with pytest.raises(ValueError, match="at most 1416"):
            coefficient_c0_prime(split_discriminant(0, m), 1.0, 0.0)
    with pytest.raises(ValueError, match="at most 1416"):
        coefficient_c0(split_discriminant(0, 119), 1.0)
    # c0 forms no factor at m < 0
    assert coefficient_c0(split_discriminant(0, -119), 1.0) == 0.0
    # |a| ~ 1407 still evaluates; the limit guards e^{-a/2}, not c0', which
    # is subnormal at m = -112 because J_minus is small there
    for m in (112, -112):
        c = split_discriminant(0, m)
        assert math.isfinite(coefficient_c0(c, 1.0))
        assert coefficient_c0_prime(c, 1.0, 0.0) < 0.0
    subnormal = -coefficient_c0_prime(split_discriminant(0, -112), 1.0, 0.0)
    assert 0.0 < subnormal < sys.float_info.min


def test_c0_prime_vanishes_for_large_a():
    c = split_discriminant(0, 1)
    assert abs(coefficient_c0_prime(c, 15.0, 0.0)) < 1e-9
