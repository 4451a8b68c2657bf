"""Acceptance suite: the full identity battery at its stated tolerances.

Each test prints one line (run pytest -s to see them); the asserted
tolerances and time budgets are fixed here, not tuned at run time.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kudla_green.arith import (L_chi_2_series, is_fundamental_discriminant,
                               sigma_gamma_m, split_discriminant, xi_twisted)
from kudla_green.eisenstein import cohen_H
from kudla_green.geometry import (GRAM_Q, GRAM_Q_INV, AmbientVector,
                                  SiegelPoint, majorant_R, majorant_gram)
from kudla_green.integrals import (heegner_degree, heegner_degree_exact,
                                   heegner_degree_via_cohen,
                                   frozen_normalization, theorem2_check)
from kudla_green.lattice import (enumerate_bounded, majorant_value,
                                 orbit_representative)
from kudla_green.specfun import (FOUR_PI, I3_minus, I3_plus, J_minus, J_plus,
                                 Precision, exp_e1)

PREC = Precision()


def _report(num, label, elapsed, budget, passed=True):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {label} ... {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert passed, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_divisor_sum_identity():
    """Exact divisor-sum identity for all fundamental |D0| <= 200, f <= 50."""
    t0 = time.time()
    checked = 0
    for D0 in range(-200, 201):
        if D0 == 0 or not is_fundamental_discriminant(D0):
            continue
        for f in range(1, 51):
            N = D0 * f * f
            c = split_discriminant(0 if N % 4 == 0 else 1, Fraction(N, 4))
            lhs = sigma_gamma_m(c) * f ** 3
            # exact equality after clearing the common denominator
            assert lhs.denominator == 1
            assert lhs.numerator == xi_twisted(D0, f)
            checked += 1
    _report(1, f"divisor-sum identity exact on {checked} (D0, f) pairs",
            time.time() - t0, 1.0)


def test_criterion_2_dual_route_cohen_numbers():
    """Bernoulli route equals the L-series route to 1e-9 relative, 4m <= 400."""
    t0 = time.time()
    worst = 0.0
    n_checked = 0
    for N in range(1, 401):
        if N % 4 not in (0, 1):
            continue
        c = split_discriminant(0 if N % 4 == 0 else 1, Fraction(N, 4))
        exact = float(cohen_H(c).value)
        series = (-L_chi_2_series(c.D0, 1e-10) * c.D0 ** 1.5
                  * xi_twisted(c.D0, c.f) / (2.0 * math.pi ** 2))
        worst = max(worst, abs(exact - series) / abs(exact))
        n_checked += 1
    _report(2, f"dual-route Cohen numbers, {n_checked} indices, worst rel {worst:.1e}",
            time.time() - t0, 5.0, passed=worst <= 1e-9)


def test_criterion_3_degree_dual_route():
    """-(B/2) C = -(1/12) H(2,4m) in absolute value to 1e-9; m=1 exact 7/144."""
    t0 = time.time()
    assert heegner_degree_exact(split_discriminant(0, 1)) == Fraction(7, 144)
    worst = 0.0
    cases = [split_discriminant(0, m) for m in range(1, 31)]
    cases += [split_discriminant(1, Fraction(n, 4)) for n in range(1, 62, 4)]
    for c in cases:
        via_C = heegner_degree(c, PREC)
        via_H = abs(float(heegner_degree_via_cohen(c)))
        worst = max(worst, abs(abs(via_C) - via_H) / via_H)
    _report(3, f"degree dual route on {len(cases)} indices, worst rel {worst:.1e}",
            time.time() - t0, 5.0, passed=worst <= 1e-9)


def test_criterion_4_orbit_integral_reduction():
    """I3_plus = J_plus/3 to 1e-8 on the a-grid; I3_minus fixes e^{-|a|}."""
    t0 = time.time()
    grid = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst_plus = 0.0
    for a in grid:
        v = a / FOUR_PI
        diff = abs(I3_plus(v, 1.0, PREC).value - J_plus(1.5, a, PREC).value / 3.0)
        worst_plus = max(worst_plus, diff)
    # the quadrature picks the decaying prefactor ...
    a0 = 1.0
    i3 = I3_minus(a0 / FOUR_PI, -1.0, PREC).value
    jm = J_minus(1.5, a0, PREC).value
    assert abs(i3 - jm * math.exp(-a0) / 3.0) < abs(i3 - jm * math.exp(a0) / 3.0)
    # ... and that convention then holds on the whole grid
    worst_minus = 0.0
    for a in grid:
        v = a / FOUR_PI
        diff = abs(I3_minus(v, -1.0, PREC).value
                   - math.exp(-a) * J_minus(1.5, a, PREC).value / 3.0)
        worst_minus = max(worst_minus, diff)
    _report(4, f"orbit-integral reduction, worst |diff| +:{worst_plus:.1e} -:{worst_minus:.1e}",
            time.time() - t0, 30.0,
            passed=worst_plus <= 1e-8 and worst_minus <= 1e-8)


def test_criterion_5_green_integral_identity():
    """Frozen at (m, a) = (1, 1); every other grid point matches to 1e-6."""
    t0 = time.time()
    frozen = frozen_normalization(PREC)
    worst = 0.0
    for m in (1, 2, 5, -1, -2):
        c = split_discriminant(0, m)
        for a in (0.5, 1.0, 2.0, 5.0):
            v = a / (FOUR_PI * abs(m))
            rep = theorem2_check(c, v, PREC, frozen=frozen)
            worst = max(worst, rep.rel_diff)
    _report(5, f"Green-integral identity, frozen const {frozen:.12f}, worst rel {worst:.1e}",
            time.time() - t0, 60.0, passed=worst <= 1e-6)


def test_criterion_6_majorant_suite():
    """Siegel condition to 1e-10 and the majorant inequality, 100 samples."""
    t0 = time.time()
    rng = np.random.RandomState(2024)
    worst_siegel = 0.0
    majorant_ok = True
    for _ in range(100):
        y1, y3 = rng.uniform(0.3, 3.0, 2)
        y2 = rng.uniform(-0.95, 0.95) * math.sqrt(y1 * y3)
        z = SiegelPoint(complex(rng.uniform(-2, 2), y1),
                        complex(rng.uniform(-2, 2), y2),
                        complex(rng.uniform(-2, 2), y3))
        P = majorant_gram(z)
        worst_siegel = max(worst_siegel,
                           float(np.max(np.abs(P @ GRAM_Q_INV @ P - GRAM_Q))))
        xi = rng.randint(-6, 7, size=5)
        if xi.any():
            x = AmbientVector.of(*(int(t) for t in xi))
            xx = 2.0 * float(x.q_value())
            majorant_ok &= xx + 2.0 * majorant_R(z, x) >= abs(xx) - 1e-9
    _report(6, f"majorant suite, worst Siegel residual {worst_siegel:.1e}",
            time.time() - t0, 1.0,
            passed=worst_siegel <= 1e-10 and majorant_ok)


def test_criterion_7_enumeration_oracle():
    """Reduction+bounding enumeration equals the box-scan multiset, 20 points."""
    t0 = time.time()
    rng = np.random.RandomState(99)
    total_points = 0
    for i in range(20):
        y1, y3 = rng.uniform(0.6, 1.6, 2)
        y2 = rng.uniform(-0.8, 0.8) * math.sqrt(y1 * y3)
        z = SiegelPoint(complex(rng.uniform(-1, 1), y1),
                        complex(rng.uniform(-1, 1), y2),
                        complex(rng.uniform(-1, 1), y3))
        bound = float(rng.uniform(0.8, 2.5))
        P = majorant_gram(z)
        got = sorted(p.coords for p in enumerate_bounded(z, bound))
        want = _box_scan_numpy(P, bound)
        assert got == want, f"mismatch at sample {i}"
        total_points += len(got)
        assert len(got) <= 10_000
    _report(7, f"enumeration equals box scan, {total_points} points over 20 z",
            time.time() - t0, 30.0)


def _box_scan_numpy(P: np.ndarray, bound: float) -> list:
    """Vectorized brute-force box scan (independent of the tree search)."""
    Pinv = np.linalg.inv(P)
    radii = np.floor(np.sqrt(2.0 * bound * np.abs(np.diag(Pinv)))).astype(int) + 1
    axes = [np.arange(-int(r), int(r) + 1) for r in radii]
    grids = np.meshgrid(*axes, indexing="ij")
    U = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    vals = 0.5 * np.einsum("ij,jk,ik->i", U, P, U)
    keep = (vals <= bound) & np.any(U != 0, axis=1)
    # re-filter with the canonical scalar form to match the library's arbiter
    out = []
    for row in U[keep]:
        u = tuple(int(t) for t in row)
        if majorant_value(P, u) <= bound:
            out.append(u)
    return sorted(out)


def test_criterion_8_log_singularity():
    """beta_1 term + log(2 pi v R) is Cauchy along R = 10^{-k}, k = 2..8."""
    t0 = time.time()
    c = split_discriminant(0, 1)
    x0 = orbit_representative(c)
    v = 1e-3
    values = []
    for k in range(2, 9):
        r_target = 10.0 ** (-k)
        delta = math.sqrt(2.0 * r_target)
        for _ in range(60):
            delta = math.sqrt(2.0 * r_target * (1.0 + delta))
        z = SiegelPoint(complex(0.0, 1.0 + delta), 0j, 1j)
        R = majorant_R(z, AmbientVector.of(x0.u1, x0.u2, Fraction(x0.u3, 2),
                                           x0.u4, x0.u5))
        assert abs(R - r_target) / r_target < 1e-9
        t_arg = 2.0 * math.pi * v * R
        values.append(exp_e1(t_arg) + math.log(t_arg))
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    _report(8, f"log-singularity Cauchy, max successive diff {max(diffs):.1e}",
            time.time() - t0, 5.0, passed=max(diffs) <= 1e-4)


def test_criterion_9_volume_spot_values():
    """V13(-4) = Catalan/3, Hirzebruch (5,1) = 1/15 exact, V22 dual routes."""
    t0 = time.time()
    from kudla_green.volumes import V22, hirzebruch_vol, humbert_V13
    s0 = sum((-1) ** k / (2 * k + 1) ** 2 for k in range(40000))
    catalan = 0.5 * (s0 + s0 + 1.0 / (2 * 40000 + 1) ** 2)
    d_v13 = abs(humbert_V13(-4, PREC).value - catalan / 3.0)
    exact_ok = hirzebruch_vol(5, 1).exact_part == Fraction(1, 15)
    v22 = V22(5)
    via_L = 5.0 ** 1.5 * L_chi_2_series(5, 1e-11) / 3.0
    d_v22 = abs(v22.value - via_L) / via_L
    _report(9, f"volume spot values, |d13| {d_v13:.1e}, V22 rel {d_v22:.1e}",
            time.time() - t0, 5.0,
            passed=d_v13 <= 1e-9 and exact_ok and d_v22 <= 1e-9)
