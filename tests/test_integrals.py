"""Degrees, Green-integral assembly, and the difference identity."""

import math
from fractions import Fraction

import pytest

from kudla_green.arith import split_discriminant
from kudla_green.eisenstein import coefficient_C, coefficient_c0
from kudla_green.integrals import (CASE_I_PREFACTOR, CASE_II_PREFACTOR,
                                   TheoremReport, corollary_check,
                                   frozen_normalization, heegner_degree,
                                   heegner_degree_exact,
                                   heegner_degree_via_cohen, ibk_integral,
                                   kudla_integral, solve_star,
                                   theorem2_check)
from kudla_green.specfun import EULER_GAMMA, FOUR_PI, J_plus

C1 = split_discriminant(0, 1)


def test_prefactors():
    assert CASE_I_PREFACTOR == pytest.approx(3.0 / (4.0 * math.pi ** 2))
    assert CASE_II_PREFACTOR == pytest.approx(3.0 / (2.0 * math.pi ** 2))


def test_theorem_report_recomputes_diffs():
    rep = TheoremReport(lhs=2.0, rhs=1.0, route_labels=("a", "b"))
    assert rep.abs_diff == 1.0
    assert rep.rel_diff == 0.5


def test_heegner_degree_m1():
    assert heegner_degree_exact(C1) == Fraction(7, 144)
    assert heegner_degree(C1) == pytest.approx(7.0 / 144.0, rel=1e-12)
    assert heegner_degree_via_cohen(C1) == Fraction(7, 144)


def test_heegner_degree_dual_route_grid():
    cases = [split_discriminant(0, m) for m in range(1, 16)]
    cases += [split_discriminant(1, Fraction(n, 4)) for n in range(1, 30, 4)]
    for c in cases:
        lhs = heegner_degree(c)
        rhs = float(heegner_degree_via_cohen(c))
        assert lhs > 0
        assert lhs == pytest.approx(rhs, rel=1e-9), c


def test_heegner_degree_requires_positive_m():
    with pytest.raises(ValueError):
        heegner_degree(split_discriminant(0, -1))


def test_kudla_integral_m1_closed_form():
    # single layer would give J_plus/48; the content-2 layer lifts it to 7/288
    v = 1.0 / FOUR_PI
    want = 7.0 * J_plus(1.5, 1.0).value / 288.0
    assert kudla_integral(C1, v) == pytest.approx(want, rel=1e-9)


def test_kudla_integral_positive_and_decaying():
    for m in (1, 3, -1, -2):
        c = split_discriminant(0, m)
        lo = kudla_integral(c, 2.0 / (FOUR_PI * abs(m)))
        hi = kudla_integral(c, 0.5 / (FOUR_PI * abs(m)))
        assert 0.0 < lo < hi


def test_frozen_normalization_close_to_one():
    assert frozen_normalization() == pytest.approx(1.0, abs=1e-8)


def test_frozen_normalization_second_call_is_cache_hit():
    # the benchmark measures it once, outside its timed region, and relies
    # on every later call being a lookup
    first = frozen_normalization()
    before = frozen_normalization.cache_info()
    assert frozen_normalization() == first
    after = frozen_normalization.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_assembled_volume_sum_matches_divisor_sum():
    # sum over layers of the exact Siegel covolume equals
    # (1/6) |L(-1, chi)| f^3 sigma: the layer sum re-creates the divisor sum
    from kudla_green.arith import (bernoulli_L_minus1, euler_factor,
                                   sigma_gamma_m)
    from kudla_green.lattice import primitive_decomposition
    from kudla_green.volumes import vol_sie

    def exact_d22(cn):
        # vol_sie on D22 is this exact rational times pi^2
        return (Fraction(1, 12) * (-2) * bernoulli_L_minus1(cn.D0)
                * cn.f ** 3 * euler_factor(cn.D0, cn.f))

    for m in (1, 2, 4, 5, 9, 12):
        c = split_discriminant(0, m)
        layers = [cn for _, cn in primitive_decomposition(c)]
        for cn in layers:
            assert vol_sie(cn) == float(exact_d22(cn)) * math.pi ** 2, cn
        total = sum(exact_d22(cn) for cn in layers)
        want = Fraction(1, 6) * abs(bernoulli_L_minus1(c.D0)) \
            * c.f ** 3 * sigma_gamma_m(c)
        assert total == want, m


@pytest.mark.parametrize("m", [1, 2, 5, -1, -2])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
def test_theorem2_grid(m, a):
    c = split_discriminant(0, m)
    v = a / (FOUR_PI * abs(m))
    rep = theorem2_check(c, v)
    assert rep.rel_diff <= 1e-6
    assert rep.lhs > 0 and rep.rhs > 0
    assert "[sign +]" in rep.route_labels[0]
    assert "[sign -]" in rep.route_labels[1]  # Eisenstein side is negative


def test_theorem2_quarter_index():
    c = split_discriminant(1, Fraction(13, 4))
    v = 1.0 / (FOUR_PI * float(c.m))
    assert theorem2_check(c, v).rel_diff <= 1e-6


def test_theorem2_quarter_index_negative():
    for n4, a in ((-3, 1.0), (-15, 0.5)):
        c = split_discriminant(1, Fraction(n4, 4))
        v = a / (FOUR_PI * abs(float(c.m)))
        assert theorem2_check(c, v).rel_diff <= 1e-6


def test_solve_star_same_constant_on_both_components():
    s0 = solve_star(C1, 1.0 / FOUR_PI, 0.0)
    s1 = solve_star(split_discriminant(1, Fraction(5, 4)), 0.05, 0.3)
    assert abs(s0 - s1) <= 1e-8


def test_ibk_integral_branches():
    assert ibk_integral(split_discriminant(0, -2), 0.7) == 0.0
    # bracket vanishes for kappa = -log(4 pi) - gamma
    kappa0 = -math.log(4.0 * math.pi) - EULER_GAMMA
    assert ibk_integral(C1, kappa0) == pytest.approx(0.0, abs=1e-12)
    want = 140.0 * (math.log(4.0 * math.pi) + EULER_GAMMA) / 5760.0
    assert ibk_integral(C1, 0.0) == pytest.approx(want, rel=1e-9)


def test_corollary_negative_index_is_exact():
    c = split_discriminant(0, -1)
    for a in (0.5, 1.0, 3.0):
        v = a / FOUR_PI
        rep = corollary_check(c, v, kappa=0.4, star=123.0)
        assert rep.rel_diff <= 1e-8  # star and kappa are both dead here


def test_solve_star_v_independent():
    kappa = 0.2
    stars = [solve_star(C1, a / FOUR_PI, kappa) for a in (0.5, 1.0, 2.0, 4.0)]
    for s in stars[1:]:
        assert abs(s - stars[0]) <= 1e-6
    # and the solved value is the explicit constant -(log 4 pi + gamma)
    assert stars[0] == pytest.approx(-(math.log(4.0 * math.pi) + EULER_GAMMA),
                                     abs=1e-8)


def test_solve_star_kappa_shift_is_neutral():
    # kappa cancels between c0' and the counterpart integral, so the solved
    # star responds linearly with slope zero
    v = 1.0 / FOUR_PI
    s0 = solve_star(C1, v, 0.0)
    s1 = solve_star(C1, v, 0.5)
    s2 = solve_star(C1, v, 1.0)
    assert abs(s1 - s0) <= 1e-8 and abs(s2 - s1) <= 1e-8


def test_corollary_residual_affine_in_star():
    v = 0.7 / FOUR_PI
    kappa = 0.1
    r0 = corollary_check(C1, v, kappa, 0.0)
    r1 = corollary_check(C1, v, kappa, 1.0)
    r2 = corollary_check(C1, v, kappa, 2.0)
    slope1 = r1.rhs - r0.rhs
    slope2 = r2.rhs - r1.rhs
    assert slope1 == pytest.approx(slope2, rel=1e-10)
    assert slope1 == pytest.approx(coefficient_c0(C1, v), rel=1e-10)


def test_corollary_zero_residual_at_solved_star():
    v = 1.3 / FOUR_PI
    kappa = -0.3
    star = solve_star(C1, v, kappa)
    rep = corollary_check(C1, v, kappa, star)
    scale = abs(coefficient_C(C1))
    assert rep.abs_diff <= 1e-8 * scale


def test_solve_star_rejects_negative_m():
    with pytest.raises(ValueError):
        solve_star(split_discriminant(0, -1), 0.1, 0.0)
