"""Acceptance suite: the full identity battery at its stated tolerances.

Each test prints one line (run pytest -s to see them); the asserted
tolerances and time budgets are fixed here, not tuned at run time.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kudla_green import checks
from kudla_green.arith import is_fundamental_discriminant, split_discriminant
from kudla_green.geometry import SiegelPoint, majorant_R, majorant_gram
from kudla_green.integrals import frozen_normalization
from kudla_green.lattice import (enumerate_bounded, majorant_value,
                                 orbit_representative)
from kudla_green.specfun import exp_e1


def _report(num, label, elapsed, budget, passed=True):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {label} ... {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert passed, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_divisor_sum_identity():
    """Exact divisor-sum identity for all fundamental |D0| <= 200, f <= 50."""
    t0 = time.time()
    pairs = [(D0, f) for D0 in range(-200, 201)
             if D0 != 0 and is_fundamental_discriminant(D0)
             for f in range(1, 51)]
    rows = checks.divisor_sum(pairs)
    _report(1, f"divisor-sum identity exact on {len(pairs)} (D0, f) pairs",
            time.time() - t0, 1.0, passed=rows[0]["diff"] == 0.0)


def test_criterion_2_dual_route_cohen_numbers():
    """Bernoulli route equals the L-series route to 1e-9 relative, 4m <= 400."""
    t0 = time.time()
    indices = [N for N in range(1, 401) if N % 4 in (0, 1)]
    worst = checks.cohen_dual(indices)[0]["diff"]
    _report(2, f"dual-route Cohen numbers, {len(indices)} indices, worst rel {worst:.1e}",
            time.time() - t0, 5.0, passed=worst <= 1e-9)


def test_criterion_3_degree_dual_route():
    """-(B/2) C = -(1/12) H(2,4m) to 1e-9 relative; m=1 exact 7/144."""
    t0 = time.time()
    cases = [split_discriminant(0, m) for m in range(1, 31)]
    cases += [split_discriminant(1, Fraction(n, 4)) for n in range(1, 62, 4)]
    exact, dual = checks.degree_dual(cases)
    worst = dual["diff"]
    _report(3, f"degree dual route on {len(cases)} indices, worst rel {worst:.1e}",
            time.time() - t0, 5.0, passed=exact["diff"] == 0.0 and worst <= 1e-9)


def test_criterion_4_orbit_integral_reduction():
    """I3_plus = J_plus/3 to 1e-8 on the a-grid; I3_minus fixes e^{-|a|}."""
    t0 = time.time()
    grid = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst_plus = checks.worst_diff(checks.orbit_plus(grid))
    # the quadrature picks the decaying prefactor e^{-|a|} over e^{+|a|} ...
    (at_one,) = checks.orbit_minus((1.0,))
    growing = abs(at_one["lhs"] - at_one["rhs"] * math.exp(2.0))
    assert at_one["diff"] < growing
    # ... and that convention then holds on the whole grid
    worst_minus = checks.worst_diff(checks.orbit_minus(grid))
    _report(4, f"orbit-integral reduction, worst |diff| +:{worst_plus:.1e} -:{worst_minus:.1e}",
            time.time() - t0, 30.0,
            passed=worst_plus <= 1e-8 and worst_minus <= 1e-8)


def test_criterion_5_green_integral_identity():
    """Frozen at (m, a) = (1, 1); every other grid point matches to 1e-6."""
    t0 = time.time()
    frozen = frozen_normalization()
    worst = checks.worst_diff(checks.green_integral(
        (1, 2, 5, -1, -2), (0.5, 1.0, 2.0, 5.0)))
    _report(5, f"Green-integral identity, frozen const {frozen:.12f}, worst rel {worst:.1e}",
            time.time() - t0, 60.0, passed=worst <= 1e-6)


def test_criterion_6_majorant_suite():
    """Siegel condition to 1e-10 and the majorant inequality, 100 samples."""
    t0 = time.time()
    rng = np.random.RandomState(2024)
    points = []
    majorant_ok = True
    for _ in range(100):
        y1, y3 = rng.uniform(0.3, 3.0, 2)
        y2 = rng.uniform(-0.95, 0.95) * math.sqrt(y1 * y3)
        z = SiegelPoint(complex(rng.uniform(-2, 2), y1),
                        complex(rng.uniform(-2, 2), y2),
                        complex(rng.uniform(-2, 2), y3))
        points.append(z)
        xi = rng.randint(-6, 7, size=5)
        if xi.any():
            x1, x2, x3, x4, x5 = x = tuple(int(t) for t in xi)
            xx = 2.0 * float(x3 * x3 - x1 * x5 - x2 * x4)
            majorant_ok &= xx + 2.0 * majorant_R(z, x) >= abs(xx) - 1e-9
    worst_siegel = checks.siegel_condition(points)[0]["diff"]
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
        got = enumerate_bounded(z, bound)
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
    u1, u2, u3, u4, u5 = orbit_representative(c)
    x0 = (u1, u2, Fraction(u3, 2), u4, u5)  # x(u), exactly
    v = 1e-3
    values = []
    for k in range(2, 9):
        r_target = 10.0 ** (-k)
        delta = math.sqrt(2.0 * r_target)
        for _ in range(60):
            delta = math.sqrt(2.0 * r_target * (1.0 + delta))
        z = SiegelPoint(complex(0.0, 1.0 + delta), 0j, 1j)
        R = majorant_R(z, x0)
        assert abs(R - r_target) / r_target < 1e-9
        t_arg = 2.0 * math.pi * v * R
        values.append(exp_e1(t_arg) + math.log(t_arg))
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    _report(8, f"log-singularity Cauchy, max successive diff {max(diffs):.1e}",
            time.time() - t0, 5.0, passed=max(diffs) <= 1e-4)


def test_criterion_9_volume_spot_values():
    """V13(-4) = Catalan/3, Hirzebruch (5,1) = 1/15 exact, V22 dual routes."""
    t0 = time.time()
    v13, hirzebruch, v22 = checks.volume_spot_values()
    d_v13 = abs(v13["lhs"] - v13["rhs"])
    d_v22 = v22["diff"]
    _report(9, f"volume spot values, |d13| {d_v13:.1e}, V22 rel {d_v22:.1e}",
            time.time() - t0, 5.0,
            passed=d_v13 <= 1e-9 and hirzebruch["diff"] == 0.0 and d_v22 <= 1e-9)
