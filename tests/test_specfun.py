"""Quadrature engine and the special-function integrals."""

import math
import random
from decimal import Decimal, localcontext

import pytest

from kudla_green import specfun
from kudla_green.specfun import (ABS_TOL, EULER_GAMMA, FOUR_PI, I3_minus,
                                 I3_plus, J_minus, J_plus, QuadratureResult,
                                 ToleranceError, adaptive_quadrature, beta_s,
                                 e1_series, exp_e1)


E1_AT_1 = 0.21938393439552026  # frozen from the power series oracle


def test_engine_on_smooth_integrand():
    res = adaptive_quadrature(math.exp, 0.0, 1.0)
    assert abs(res.value - (math.e - 1.0)) <= res.err_estimate <= ABS_TOL
    res = adaptive_quadrature(lambda x: x ** 10, -1.0, 1.0)
    assert abs(res.value - 2.0 / 11.0) <= ABS_TOL


def test_engine_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(ToleranceError, match="after 3 subdivisions"):
        adaptive_quadrature(lambda x: math.exp(-x) / (1e-8 + x), 0.0, 10.0)


def test_engine_deterministic_bit_for_bit():
    f = lambda t: math.exp(-2.0 * t) / t
    r1 = adaptive_quadrature(f, 1.0, 25.0)
    r2 = adaptive_quadrature(f, 1.0, 25.0)
    assert r1.value == r2.value and r1.err_estimate == r2.err_estimate


# ---------------------------------------------------------------------------
# beta_s
# ---------------------------------------------------------------------------

def test_beta_s0_is_plain_exponential():
    res = beta_s(0.0, 1.0)
    assert abs(res.value - math.exp(-1.0)) <= 1e-12


def test_beta_1_is_E1():
    res = beta_s(1.0, 1.0)
    assert abs(res.value - E1_AT_1) <= 1e-11
    assert res.err_estimate <= ABS_TOL


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_beta_1_matches_series_oracle(x):
    assert abs(beta_s(1.0, x).value - e1_series(x)) <= 1e-10


def test_beta_1_log_singularity():
    x = 1e-8
    val = beta_s(1.0, x).value
    assert abs(val + math.log(x) + EULER_GAMMA) < 1e-7  # remainder is O(x)


def test_beta_monotone_in_x():
    vals = [beta_s(1.5, x).value for x in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beta_s(-1.0, 1.0)
    with pytest.raises(ValueError):
        beta_s(1.0, 0.0)


# ---------------------------------------------------------------------------
# fast E1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 1.4, 1.6, 2.0, 5.0, 10.0, 30.0])
def test_exp_e1_matches_quadrature(x):
    assert abs(exp_e1(x) - beta_s(1.0, x).value) <= 2e-11


@pytest.mark.parametrize("call, x", [(exp_e1, math.nan), (e1_series, math.nan),
                                     (e1_series, math.inf)],
                         ids=["exp_e1-nan", "e1_series-nan", "e1_series-inf"])
def test_e1_refuses_nan_and_e1_series_inf(call, x):
    with pytest.raises(ValueError):
        call(x)


def test_e1_series_refuses_x_past_its_domain():
    # at x = 16 the series still agrees with the continued fraction
    assert abs(e1_series(16.0) - exp_e1(16.0)) <= 1e-11
    for x in (math.nextafter(16.0, math.inf), 25.0, 60.0):
        with pytest.raises(ValueError, match="16"):
            e1_series(x)


def _e1_series_reference(x):
    """The power series loop as first written, with the abs/max stop test."""
    total = 0.0
    term = 1.0
    for k in range(1, 121):
        term *= -x / k
        delta = -term / k
        total += delta
        if abs(delta) < 1e-18 * max(1.0, abs(total)):
            break
    return -EULER_GAMMA - math.log(x) + total


def _e1_cf_reference(x):
    """The modified Lentz continued fraction as first written, guards kept."""
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, 300):
        an = -float(k) * float(k)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-x)
    raise ToleranceError(f"E1 continued fraction did not converge at x={x}")


def _exp_e1_reference(x):
    if x < 1.5:
        return _e1_series_reference(x)
    if x > 700.0:
        return 0.0
    return _e1_cf_reference(x)


def test_exp_e1_bit_identical_to_reference():
    rng = random.Random(20240)
    xs = [math.exp(rng.uniform(math.log(1e-8), math.log(700.0)))
          for _ in range(20_000)]
    xs += [1.5, math.nextafter(1.5, 0.0), math.nextafter(1.5, 2.0), 5e-324,
           700.0, math.nextafter(700.0, math.inf), 16.0]
    for x in xs:
        assert exp_e1(x).hex() == _exp_e1_reference(x).hex(), x
        if x <= 16.0:
            assert e1_series(x).hex() == _e1_series_reference(x).hex(), x


# Euler's constant to 101 digits (OEIS A001620)
_GAMMA_100 = Decimal("0.57721566490153286060651209008240243104215933593992"
                     "359880576723488486772677766467093694706329174674951")


def _e1_decimal(x):
    """E1(x) = -gamma - ln x + sum_k (-1)^{k+1} x^k / (k k!) at 100 digits;
    the series cancels ~2x / ln 10 digits, ~52 at x = 60."""
    with localcontext() as ctx:
        ctx.prec = 100
        X = Decimal(x)
        total, power, k = Decimal(0), Decimal(1), 0
        while True:
            k += 1
            power = power * X / k
            term = power / k
            total += term if k % 2 else -term
            if term < Decimal(10) ** -110:
                return -_GAMMA_100 - X.ln() + total


def test_exp_e1_within_stated_ulp_of_decimal_series():
    # the bounds of the exp_e1 docstring: 128 ulp below x = 4, 32 ulp on
    # [4, 16), 16 ulp on [16, 60]
    lo, hi = math.log(1e-6), math.log(60.0)
    for i in range(2001):
        x = math.exp(lo + (hi - lo) * i / 2000)
        ref = _e1_decimal(x)
        err = abs(Decimal(exp_e1(x)) - ref) / Decimal(math.ulp(float(ref)))
        assert err <= (128 if x < 4 else 32 if x < 16 else 16), x


def test_exp_e1_at_infinity_is_zero():
    assert exp_e1(math.inf) == 0.0


def test_exp_e1_series_crossover_is_smooth():
    assert abs(exp_e1(1.499999) - exp_e1(1.500001)) < 1e-6


# ---------------------------------------------------------------------------
# J_plus / J_minus
# ---------------------------------------------------------------------------

def test_J_plus_s1_collapses():
    # ((w+1) - 1)/w = 1, so the integral is exactly 1/a
    assert abs(J_plus(1.0, 1.0).value - 1.0) <= 1e-11
    assert abs(J_plus(1.0, 2.0).value - 0.5) <= 1e-11


def _J_plus_large_a_oracle(s: float, a: float, terms: int = 8):
    """Asymptotic series sum_k binom(s, k+1) k! / a^{k+1}; returns (value, bound)."""
    total = 0.0
    coeff = 1.0
    last = math.inf
    for k in range(terms):
        coeff = coeff * (s - k) / (k + 1)  # binom(s, k+1)
        term = coeff * math.factorial(k) / a ** (k + 1)
        if abs(term) > last:
            break
        total += term
        last = abs(term)
    return total, last


def test_J_plus_matches_large_a_series():
    for a in (10.0, 20.0, 40.0):
        oracle, bound = _J_plus_large_a_oracle(1.5, a)
        val = J_plus(1.5, a).value
        assert val > 0
        assert abs(val - oracle) <= 2.0 * bound + 1e-10


def test_J_plus_monotone_decreasing_in_a():
    vals = [J_plus(1.5, a).value for a in (0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_J_minus_identity_at_s1():
    # w/(w+1) = 1 - 1/(w+1) gives J_minus(1, 1) = 1 - e * E1(1)
    want = 1.0 - math.e * e1_series(1.0)
    assert abs(J_minus(1.0, 1.0).value - want) <= 1e-11


def test_J_minus_gamma_bound():
    g52 = math.gamma(2.5)
    for a in (0.5, 1.0, 2.0, 5.0):
        assert 0.0 < J_minus(1.5, a).value < g52 / a ** 2.5


def test_J_minus_watson_limit():
    # a^{5/2} J_minus(3/2, a) = Gamma(5/2)(1 - Gamma(7/2)/(Gamma(5/2) a) + ...)
    a = 1000.0
    lead = math.gamma(2.5) * (1.0 - math.gamma(3.5) / (math.gamma(2.5) * a)
                              + math.gamma(4.5) / (math.gamma(2.5) * a * a))
    val = a ** 2.5 * J_minus(1.5, a).value
    assert abs(val / lead - 1.0) < 1e-6


def test_J_monotone_in_second_argument_everywhere():
    for s in (1.0, 1.5):
        vp = [J_plus(s, a).value for a in (0.25, 0.7, 1.3, 3.0)]
        vm = [J_minus(s, a).value for a in (0.25, 0.7, 1.3, 3.0)]
        bs = [beta_s(s, a).value for a in (0.25, 0.7, 1.3, 3.0)]
        for seq in (vp, vm, bs):
            assert all(x > y for x, y in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# the orbit double integrals
# ---------------------------------------------------------------------------

def test_I3_plus_reduces_to_J_plus():
    # both sides carry err <= abs_tol, so the gap is below 2 abs_tol
    for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        got = I3_plus(a / FOUR_PI, 1.0)
        want = J_plus(1.5, a)
        assert got.err_estimate <= ABS_TOL
        assert want.err_estimate <= ABS_TOL
        assert abs(got.value - want.value / 3.0) <= 2.0 * ABS_TOL


def test_I3_plus_depends_only_on_product_mv():
    r1 = I3_plus(2.0, 0.5)
    r2 = I3_plus(1.0, 1.0)
    assert r1.value == r2.value  # identical a = 4 pi m v, bit for bit


def test_I3_plus_decays_like_s_over_3a():
    assert I3_plus(10.0 / FOUR_PI, 1.0).value < I3_plus(1.0 / FOUR_PI, 1.0).value
    # the w -> 0 mass makes the decay algebraic: I3_plus ~ (3/2)/(3a)
    val = I3_plus(60.0 / FOUR_PI, 1.0).value
    assert 0.0 < val < 0.01
    assert val == pytest.approx(1.5 / (3.0 * 60.0), rel=0.02)


def test_I3_minus_positive_and_decaying():
    small = I3_minus(5.0 / FOUR_PI, -1.0).value
    big = I3_minus(0.5 / FOUR_PI, -1.0).value
    assert 0.0 < small < big


def test_I3_minus_prefactor_resolution():
    # at a = 1 the quadrature picks e^{-|a|} over e^{+|a|}
    i3 = I3_minus(1.0 / FOUR_PI, -1.0).value
    jm = J_minus(1.5, 1.0).value / 3.0
    assert abs(i3 - jm * math.exp(-1.0)) < 1e-10
    assert abs(i3 - jm * math.exp(1.0)) > 1e-2


def test_I3_argument_validation():
    with pytest.raises(ValueError):
        I3_plus(1.0, -1.0)
    with pytest.raises(ValueError):
        I3_minus(1.0, 1.0)
    with pytest.raises(ValueError):
        I3_plus(0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda b: beta_s(1.0, b),
    lambda b: J_plus(1.5, b),
    lambda b: J_minus(1.5, b),
    lambda b: I3_plus(b, 1.0),
    lambda b: I3_plus(1.0, b),
    lambda b: I3_minus(b, -1.0),
    lambda b: I3_minus(1.0, -b),
], ids=["beta_s-x", "J_plus-a", "J_minus-a", "I3_plus-v", "I3_plus-m",
        "I3_minus-v", "I3_minus-m"])
def test_non_finite_argument_is_refused(call, bad):
    # refused by the argument check itself, not by a later guard
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def test_nan_order_and_nan_error_are_refused():
    for fn in (beta_s, J_plus, J_minus):
        with pytest.raises(ValueError):
            fn(math.nan, 1.0)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, err_estimate=math.nan, evaluations=15)
