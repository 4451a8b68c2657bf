"""Lattice index sets, enumeration, and the Green function."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kudla_green.arith import split_discriminant
from kudla_green.geometry import (AmbientVector, SiegelPoint, majorant_R,
                                  majorant_gram)
from kudla_green.lattice import (EnumerationCapError, LatticeVector,
                                 SingularPointError, enumerate_bounded,
                                 green_function, majorant_value,
                                 orbit_representative, primitive_decomposition)
from kudla_green.specfun import e1_series, exp_e1

Z0 = SiegelPoint(1j, 0j, 1j)
Z_GENERIC = SiegelPoint(0.1 + 1.1j, 0.2 + 0.15j, -0.3 + 1.3j)


def _random_points(n, seed=0):
    rng = np.random.RandomState(seed)
    pts = []
    for _ in range(n):
        y1, y3 = rng.uniform(0.6, 1.8, 2)
        y2 = rng.uniform(-0.8, 0.8) * math.sqrt(y1 * y3)
        pts.append(SiegelPoint(complex(rng.uniform(-1, 1), y1),
                               complex(rng.uniform(-1, 1), y2),
                               complex(rng.uniform(-1, 1), y3)))
    return pts


def _box_scan(P: np.ndarray, bound: float) -> set:
    """Brute-force oracle: all nonzero u in a covering box with
    majorant_value(P, u) <= bound."""
    Pinv = np.linalg.inv(P)
    radii = np.floor(np.sqrt(2.0 * bound * np.abs(np.diag(Pinv)))).astype(int) + 1
    found = set()
    r1, r2, r3, r4, r5 = (int(r) for r in radii)
    for u1 in range(-r1, r1 + 1):
        for u2 in range(-r2, r2 + 1):
            for u3 in range(-r3, r3 + 1):
                for u4 in range(-r4, r4 + 1):
                    for u5 in range(-r5, r5 + 1):
                        u = (u1, u2, u3, u4, u5)
                        if any(u) and majorant_value(P, u) <= bound:
                            found.add(u)
    return found


# ---------------------------------------------------------------------------
# orbit representatives and decomposition
# ---------------------------------------------------------------------------

def test_orbit_representative_examples():
    r = orbit_representative(split_discriminant(0, 1))
    assert r.coords == (1, 0, 0, 0, -1) and r.qhat == 4
    r = orbit_representative(split_discriminant(1, Fraction(5, 4)))
    assert r.coords == (0, 1, 1, -1, 0) and r.qhat == 5
    r = orbit_representative(split_discriminant(0, -2))
    assert r.coords == (1, 0, 0, 0, 2) and r.qhat == -8


@pytest.mark.parametrize("gamma,m", [(0, m) for m in range(-6, 7) if m]
                         + [(1, Fraction(n, 4)) for n in range(-23, 24, 4)])
def test_orbit_representative_properties(gamma, m):
    c = split_discriminant(gamma, m)
    r = orbit_representative(c)
    assert r.qhat == 4 * m
    assert r.primitive
    assert r.u3 % 2 == gamma


def test_lattice_vector_derived_fields():
    u = LatticeVector(2, 4, 6, 8, 10)
    assert not u.primitive
    assert u.qhat == 36 - 4 * 4 * 8 - 4 * 2 * 10
    assert (-u).coords == (-2, -4, -6, -8, -10)


def test_primitive_decomposition_cases():
    dec = primitive_decomposition(split_discriminant(0, 1))
    assert [(n, c.m, c.gamma) for n, c in dec] == [(1, 1, 0), (2, Fraction(1, 4), 1)]
    dec = primitive_decomposition(split_discriminant(0, 4))
    assert [(n, c.m, c.gamma) for n, c in dec] == [
        (1, 4, 0), (2, 1, 0), (4, Fraction(1, 4), 1)]
    dec = primitive_decomposition(split_discriminant(1, Fraction(1, 4)))
    assert [(n, c.m) for n, c in dec] == [(1, Fraction(1, 4))]
    # 4m = -16 splits as (-4) * 2^2, so the layers stop at content 2
    # (a content-4 layer would need qhat = -1 = 3 mod 4, which is empty)
    dec = primitive_decomposition(split_discriminant(0, -4))
    assert [(n, c.m, c.gamma) for n, c in dec] == [(1, -4, 0), (2, -1, 0)]


def test_primitive_decomposition_layers_partition():
    # every n-layer must consist of discriminants, and n=1 is always first
    for m in (1, 2, 5, 9, 16, -3, -9):
        dec = primitive_decomposition(split_discriminant(0, m))
        assert dec[0][0] == 1
        for n, c in dec:
            assert 4 * c.m * n * n == 4 * m


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_empty_below_minimum():
    assert enumerate_bounded(Z0, 0.4) == []


def test_enumerate_base_point_contents():
    pts = enumerate_bounded(Z0, 1.0)
    coords = {p.coords for p in pts}
    assert (1, 0, 0, 0, 0) in coords and (-1, 0, 0, 0, 0) in coords
    # P_z0 = diag(1,1,2,1,1): value of e3 is exactly 1.0, on the boundary
    assert (0, 0, 1, 0, 0) in coords
    assert coords == _box_scan(majorant_gram(Z0), 1.0)


def test_enumerate_matches_box_scan_random_points():
    for i, z in enumerate(_random_points(6, seed=42)):
        P = majorant_gram(z)
        for bound in (0.8, 1.7):
            got = {p.coords for p in enumerate_bounded(z, bound)}
            want = _box_scan(P, bound)
            assert got == want, f"mismatch at point {i}, bound {bound}"


def test_enumerate_matches_box_scan_anisotropic_point():
    # strongly skewed Gram matrix (cusp-like y), exercising the reduction
    z = SiegelPoint(0.3 + 5.0j, 0.1 + 0.2j, -0.7 + 0.31j)
    got = {p.coords for p in enumerate_bounded(z, 2.0)}
    want = _box_scan(majorant_gram(z), 2.0)
    assert got == want and len(got) > 100


def test_enumerate_symmetry_and_order():
    pts = enumerate_bounded(Z_GENERIC, 2.2)
    coords = [p.coords for p in pts]
    assert coords == sorted(coords)
    cset = set(coords)
    assert all(tuple(-c for c in u) in cset for u in cset)


def test_enumerate_cap_guard():
    with pytest.raises(EnumerationCapError):
        enumerate_bounded(Z0, 40.0, cap=10)


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------

def _x(u):
    """x(u) = (u1, u2, u3/2, u4, u5), exactly."""
    u1, u2, u3, u4, u5 = u
    return AmbientVector.of(u1, u2, Fraction(u3, 2), u4, u5)


def _green_box_terms(c, z, radius):
    """Box scan for qhat = 4m: the (u, R) terms with R <= radius, sorted by u."""
    P = majorant_gram(z)
    D = np.diag([1.0, 1.0, 0.5, 1.0, 1.0])
    Ph = D @ P @ D
    terms = []
    for u in sorted(_box_scan(Ph, float(c.m) + radius)):
        if LatticeVector(*u).qhat != 4 * c.m:
            continue
        r_val = majorant_R(z, _x(u))
        if r_val <= radius:
            terms.append((u, r_val))
    return terms


def _green_box_oracle(c, v, z, radius):
    """Independent evaluation: box scan for qhat = 4m, series E1 terms."""
    terms = _green_box_terms(c, z, radius)
    total = sum(e1_series(2.0 * math.pi * v * r_val) for _, r_val in terms)
    return total, len(terms)


def test_green_against_box_oracle():
    c = split_discriminant(0, 1)
    ev = green_function(c, 1.0, Z_GENERIC, 2.5)
    want, n = _green_box_oracle(c, 1.0, Z_GENERIC, 2.5)
    assert ev.terms_used == n
    assert ev.value == pytest.approx(want, abs=1e-10)


def test_green_negative_index_against_box_oracle():
    c = split_discriminant(0, -1)
    ev = green_function(c, 0.7, Z_GENERIC, 3.0)
    want, n = _green_box_oracle(c, 0.7, Z_GENERIC, 3.0)
    assert ev.terms_used == n
    assert ev.value == pytest.approx(want, abs=1e-10)


def test_green_gamma1_terms_have_odd_u3():
    c = split_discriminant(1, Fraction(5, 4))
    ev = green_function(c, 1.0, Z_GENERIC, 3.0)
    assert ev.terms_used > 0  # the parity assertion runs inside


def test_green_term_count_is_even():
    ev = green_function(split_discriminant(0, 1), 1.0, Z_GENERIC, 4.0)
    assert ev.terms_used % 2 == 0  # +-u pairing; half-sum convention halves it


def test_green_deterministic():
    c = split_discriminant(0, 1)
    e1 = green_function(c, 1.0, Z_GENERIC, 5.0)
    e2 = green_function(c, 1.0, Z_GENERIC, 5.0)
    assert e1.value == e2.value and e1.tail_bound == e2.tail_bound


def test_green_decays_with_v():
    c = split_discriminant(0, 1)
    big_v = green_function(c, 40.0, Z_GENERIC, 10.0)
    small_v = green_function(c, 1.0, Z_GENERIC, 10.0)
    assert big_v.value < 1e-8 < small_v.value
    assert big_v.tail_bound < 1e-20


def test_green_radius_too_small_warning_state():
    c = split_discriminant(0, 1)
    ev = green_function(c, 1.0, Z_GENERIC, 1e-3)
    assert ev.value == 0.0 and ev.terms_used == 0
    assert ev.tail_bound > 0.0


def test_green_singular_point_rejected():
    # Z0 lies on the divisor of (1, 0, 0, 0, -1) (psi vanishes exactly)
    with pytest.raises(SingularPointError):
        green_function(split_discriminant(0, 1), 1.0, Z0, 5.0)


def test_green_input_validation():
    c = split_discriminant(0, 1)
    with pytest.raises(ValueError):
        green_function(c, 0.0, Z_GENERIC, 1.0)
    with pytest.raises(ValueError):
        green_function(c, 1.0, Z_GENERIC, 0.0)


def test_green_value_is_sum_over_geometry_R():
    # the terms' R is geometry.majorant_R at x(u), bit for bit
    for c, v, radius in ((split_discriminant(0, 1), 1.0, 2.5),
                         (split_discriminant(1, Fraction(5, 4)), 0.8, 2.0)):
        ev = green_function(c, v, Z_GENERIC, radius)
        terms = _green_box_terms(c, Z_GENERIC, radius)
        want = 0.0
        for _, r_val in terms:
            want += exp_e1(2.0 * math.pi * v * r_val)
        assert ev.terms_used == len(terms) > 0
        assert ev.value == want


def test_green_invariant_under_unit_translations():
    # z_k -> z_k + 1 permutes the index set and preserves every R
    for z in _random_points(8, seed=3):
        base = green_function(split_discriminant(0, 1), 1.0, z, 6.0)
        for k in range(3):
            shifted = [z.z1, z.z2, z.z3]
            shifted[k] += 1
            ev = green_function(split_discriminant(0, 1), 1.0,
                                SiegelPoint(*shifted), 6.0)
            assert ev.terms_used == base.terms_used
            assert ev.value == pytest.approx(base.value, rel=1e-12, abs=0.0)
