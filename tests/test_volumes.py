"""Covolume formulas, normalization conversions, and the constant B."""

import math
from fractions import Fraction

import pytest

from kudla_green.arith import L_chi_2_series, euler_factor, split_discriminant
from kudla_green.volumes import (B, V22, ZETA_MINUS1, hirzebruch_vol,
                                 humbert_V13, vol_sie, zeta_K_minus1)


def test_constant_B():
    zeta_minus3 = Fraction(1, 120)
    assert B == Fraction(1, 1440)
    assert Fraction(1, 2 ** 5 * 3 ** 2 * 5) == Fraction(1, 1440)
    assert abs(ZETA_MINUS1 * zeta_minus3) == B
    assert ZETA_MINUS1 * zeta_minus3 < 0  # the analytic sign of B


def test_zeta_K_minus1():
    assert zeta_K_minus1(5) == Fraction(1, 30)
    assert zeta_K_minus1(8) == Fraction(1, 12)
    with pytest.raises(ValueError):
        zeta_K_minus1(-4)
    with pytest.raises(ValueError):
        zeta_K_minus1(20)


def test_humbert_V13_catalan():
    v = humbert_V13(-4)
    assert v == pytest.approx(L_chi_2_series(-4) / 3.0, abs=1e-9)


def test_humbert_V13_two_displayed_forms():
    for dK in (-3, -4, -7, -8):
        L2 = L_chi_2_series(dK, 1e-11)
        via_L = abs(dK) ** 1.5 * L2 / 24.0
        via_zeta_K = abs(dK) ** 1.5 * (math.pi ** 2 / 6.0) * L2 / (4.0 * math.pi ** 2)
        assert humbert_V13(dK) == pytest.approx(via_L, rel=1e-10)
        assert via_L == pytest.approx(via_zeta_K, rel=1e-12)


def test_humbert_V13_rejects_bad_input():
    with pytest.raises(ValueError):
        humbert_V13(5)
    with pytest.raises(ValueError):
        humbert_V13(-12)  # -12 = 4 * (-3) is not fundamental


def test_hirzebruch_vol_exact_values():
    assert hirzebruch_vol(5, 1) == Fraction(1, 15)
    assert hirzebruch_vol(5, 2) == Fraction(2, 3)


def test_hirzebruch_vol_three_lines_consistent():
    for dK, f in ((5, 1), (5, 2), (8, 1), (13, 3)):
        hv = hirzebruch_vol(dK, f)
        L2 = L_chi_2_series(dK, 1e-11)
        euler = float(hv / (2 * f ** 3 * zeta_K_minus1(dK)))
        numeric = (f ** 3 * euler * dK ** 1.5 * L2 / (12.0 * math.pi ** 2))
        assert float(hv) == pytest.approx(numeric, rel=1e-9)


def test_V22_routes_and_value():
    v = V22(5)
    assert 8 * zeta_K_minus1(5) == Fraction(8, 30)
    assert v == pytest.approx(4.0 * math.pi ** 2 / 15.0, rel=1e-12)
    via_L = 5.0 ** 1.5 * L_chi_2_series(5, 1e-11) / 3.0
    assert v == pytest.approx(via_L, rel=1e-9)


def test_V22_to_hirzebruch_conversion_constant():
    for dK in (5, 13):
        ratio = V22(dK) / float(hirzebruch_vol(dK, 1))
        assert ratio == pytest.approx((2.0 * math.pi) ** 2, rel=1e-12)


def test_vol_sie_positive_side():
    c1 = split_discriminant(0, 1)
    v = vol_sie(c1)
    assert v == pytest.approx(math.pi ** 2 / 12.0, rel=1e-12)
    assert v == float(Fraction(1, 12)) * math.pi ** 2
    c5 = split_discriminant(0, 5)
    want = (5.0 ** 1.5 * L_chi_2_series(5, 1e-11) * 8.0 * 1.25) / 12.0
    assert vol_sie(c5) == pytest.approx(want, rel=1e-9)


def test_vol_sie_negative_side():
    cm = split_discriminant(0, -1)
    v = vol_sie(cm)
    # f = 1 negative side agrees with the hyperbolic-3-space covolume
    assert v == pytest.approx(humbert_V13(-4), rel=1e-12)


def test_vol_sie_space_sign_mismatch():
    # the sign of m picks the domain, so no call can name the wrong one:
    # 1/12 on D22 (m > 0), 1/24 on D13 (m < 0), against the series oracle
    for gamma, m, pref in ((0, 5, 12), (1, Fraction(5, 4), 12),
                           (0, -3, 24), (1, Fraction(-7, 4), 24)):
        c = split_discriminant(gamma, m)
        want = (abs(c.D0) ** 1.5 * L_chi_2_series(c.D0, 1e-11) * c.f ** 3
                * float(euler_factor(c.D0, c.f)) / pref)
        assert vol_sie(c) == pytest.approx(want, rel=1e-9), m


def test_zeta_functional_equation():
    # zeta_K(-1) = zeta_K(2) dK^{3/2} / (4 pi^4) with zeta_K(2) = zeta(2) L(2, chi)
    for dK in (5, 8, 12, 13):
        exact = float(zeta_K_minus1(dK))
        zk2 = (math.pi ** 2 / 6.0) * L_chi_2_series(dK, 1e-12)
        assert abs(exact - zk2 * dK ** 1.5 / (4.0 * math.pi ** 4)) <= 1e-9


def _positive_indices(n4_max):
    """Every m > 0 with 4m <= n4_max, both gammas."""
    for n4 in range(1, n4_max + 1):
        if n4 % 4 in (0, 1):
            yield split_discriminant(0 if n4 % 4 == 0 else 1, Fraction(n4, 4))


def test_vol_sie_is_hirzebruch_vol_times_pi_squared():
    # on D22 the Siegel covolume is the exact Hirzebruch volume times pi^2,
    # bit for bit (D0 = 1 has no quadratic field)
    checked = 0
    for c in _positive_indices(1600):
        if c.D0 > 1:
            exact = hirzebruch_vol(c.D0, c.f)
            assert vol_sie(c) == float(exact) * math.pi ** 2, c
            checked += 1
    assert checked > 700


def test_V22_is_four_vol_sie_at_full_level():
    for dK in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44):
        c = split_discriminant(0 if dK % 4 == 0 else 1, Fraction(dK, 4))
        assert c.f == 1
        assert V22(dK) == 4 * vol_sie(c), dK
