"""Lattice index sets, enumeration, and the Green function."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from kudla_green import lattice
from kudla_green.arith import CaseIndex, split_discriminant
from kudla_green.geometry import (SiegelPoint, humbert_discriminant,
                                  majorant_R, majorant_gram)
from kudla_green.lattice import (_QHAT, EnumerationCapError,
                                 SingularPointError, _enumerate_core,
                                 _lll_transform, _shell_roots,
                                 enumerate_bounded, green_function,
                                 majorant_value, orbit_representative,
                                 primitive_decomposition)
from kudla_green.specfun import ABS_TOL, e1_series, exp_e1

Z0 = SiegelPoint(1j, 0j, 1j)
Z_GENERIC = SiegelPoint(0.1 + 1.1j, 0.2 + 0.15j, -0.3 + 1.3j)
_ZERO = np.zeros((5, 5), dtype=np.int64)


def _qhat(u):
    """Oracle: qhat(u) = u3^2 - 4 u2 u4 - 4 u1 u5, in exact integers."""
    u1, u2, u3, u4, u5 = u
    return u3 * u3 - 4 * u2 * u4 - 4 * u1 * u5


def _x(u):
    """x(u) = (u1, u2, u3/2, u4, u5), exactly."""
    u1, u2, u3, u4, u5 = u
    return (u1, u2, Fraction(u3, 2), u4, u5)


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
    assert r == (1, 0, 0, 0, -1) and _qhat(r) == 4
    r = orbit_representative(split_discriminant(1, Fraction(5, 4)))
    assert r == (0, 1, 1, -1, 0) and _qhat(r) == 5
    r = orbit_representative(split_discriminant(0, -2))
    assert r == (1, 0, 0, 0, 2) and _qhat(r) == -8
    # the exact-integer assert holds beyond int64 and float precision:
    # D0 = -(3 * 5 * ... * 59) = 1 mod 4, squarefree, below -2^69
    D0 = -math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                     59))
    r = orbit_representative(CaseIndex(0, Fraction(D0), D0, 2))
    assert r == (1, 0, 0, 0, -D0) and _qhat(r) == 4 * D0


@pytest.mark.parametrize("gamma,m", [(0, m) for m in range(-6, 7) if m]
                         + [(1, Fraction(n, 4)) for n in range(-23, 24, 4)])
def test_orbit_representative_properties(gamma, m):
    c = split_discriminant(gamma, m)
    r = orbit_representative(c)
    assert all(type(t) is int for t in r)
    assert _qhat(r) == 4 * m
    assert math.gcd(*r) == 1
    assert r[2] % 2 == gamma


def test_lattice_vector_derived_fields():
    # qhat(u) = u^T _QHAT u, with _QHAT read off GRAM_Q, against the
    # oracle; 4 q(x(u)) is the same number
    form = _QHAT.astype(object)
    assert _qhat((2, 4, 6, 8, 10)) == 36 - 4 * 4 * 8 - 4 * 2 * 10
    rng = np.random.RandomState(17)
    for _ in range(400):
        u = tuple(int(t) for t in rng.randint(-10**6, 10**6 + 1, size=5))
        w = np.array(u, dtype=object)
        assert w @ form @ w == _qhat(u) == humbert_discriminant(_x(u)), u


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


@pytest.mark.parametrize("bound", [math.nan, math.inf])
def test_enumerate_rejects_non_finite_bound(bound):
    with pytest.raises(ValueError, match="bound must be finite"):
        enumerate_bounded(Z0, bound)
    assert enumerate_bounded(Z0, 0.0) == enumerate_bounded(Z0, -1.0) == []


def test_enumerate_base_point_contents():
    pts = enumerate_bounded(Z0, 1.0)
    coords = set(pts)
    assert (1, 0, 0, 0, 0) in coords and (-1, 0, 0, 0, 0) in coords
    # P_z0 = diag(1,1,2,1,1): value of e3 is exactly 1.0, on the boundary
    assert (0, 0, 1, 0, 0) in coords
    assert coords == _box_scan(majorant_gram(Z0), 1.0)


def test_enumerate_matches_box_scan_random_points():
    for i, z in enumerate(_random_points(6, seed=42)):
        P = majorant_gram(z)
        for bound in (0.8, 1.7):
            got = set(enumerate_bounded(z, bound))
            want = _box_scan(P, bound)
            assert got == want, f"mismatch at point {i}, bound {bound}"


def test_enumerate_matches_box_scan_anisotropic_point():
    # strongly skewed Gram matrix (cusp-like y), exercising the reduction
    z = SiegelPoint(0.3 + 5.0j, 0.1 + 0.2j, -0.7 + 0.31j)
    got = set(enumerate_bounded(z, 2.0))
    want = _box_scan(majorant_gram(z), 2.0)
    assert got == want and len(got) > 100


def test_enumerate_symmetry_and_order():
    coords = enumerate_bounded(Z_GENERIC, 2.2)
    assert all(type(t) is int for u in coords for t in u)
    assert coords == sorted(coords)
    cset = set(coords)
    assert all(tuple(-c for c in u) in cset for u in cset)


def test_enumerate_cap_guard(monkeypatch):
    monkeypatch.setattr(lattice, "_POINT_CAP", 10)
    with pytest.raises(EnumerationCapError,
                       match="more than 10 lattice points"):
        enumerate_bounded(Z0, 40.0)


def test_green_function_gets_no_mismatched_index():
    # the index is refused before green_function can sum its shell
    with pytest.raises(ValueError, match="gamma=1 requires"):
        green_function(CaseIndex(1, Fraction(1), 1, 2), 1.0, Z_GENERIC, 5.0)


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------

def _green_box_terms(c, z, radius):
    """Box scan for qhat = 4m: the (u, R) terms with R <= radius, sorted by u."""
    P = majorant_gram(z)
    D = np.diag([1.0, 1.0, 0.5, 1.0, 1.0])
    Ph = D @ P @ D
    terms = []
    for u in sorted(_box_scan(Ph, float(c.m) + radius)):
        if _qhat(u) != 4 * c.m:
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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="v must be positive and finite"):
            green_function(c, bad, Z_GENERIC, 1.0)
        with pytest.raises(ValueError,
                           match="radius must be positive and finite"):
            green_function(c, 1.0, Z_GENERIC, bad)


def test_green_tail_bound_is_never_nan():
    # 2 pi v radius below the smallest normal float is refused, on the
    # bound <= 0 path (m = -1, radius < 1) too; above it the estimate is
    # finite or, for tiny t and many terms, overflows to inf
    tiny = sys.float_info.min
    for m in (1, -1):
        c = split_discriminant(0, m)
        for v in (tiny, 1e-300, 1e-10, 1.0, 40.0):
            for radius in (5e-324, 1e-300, 1e-30, 1e-3, 0.5, 6.0):
                if 2.0 * math.pi * v * radius < tiny:
                    with pytest.raises(ValueError, match="2 pi v radius"):
                        green_function(c, v, Z_GENERIC, radius)
                    continue
                ev = green_function(c, v, Z_GENERIC, radius)
                assert not math.isnan(ev.tail_bound), (m, v, radius)
    ev = green_function(split_discriminant(0, 1), tiny, Z_GENERIC, 12.0)
    assert ev.terms_used > 1000 and ev.tail_bound == math.inf


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


def _sp4_images(z):
    """z moved by Sp4(Z) elements, as Z = [[z1, z2], [z2, z3]]: the unit
    translations Z -> Z + E_k, the inversion Z -> -Z^{-1} and
    Z -> U Z U^T for U in GL2(Z) (swap, shear, sign)."""
    z1, z2, z3 = z.z1, z.z2, z.z3
    images = []
    for k in range(3):
        shifted = [z1, z2, z3]
        shifted[k] += 1
        images.append(tuple(shifted))
    det = z1 * z3 - z2 * z2
    images.append((-z3 / det, z2 / det, -z1 / det))
    for (a, b), (c, d) in (((0, 1), (1, 0)), ((1, 1), (0, 1)),
                           ((1, 0), (0, -1))):
        images.append((a * a * z1 + 2 * a * b * z2 + b * b * z3,
                       a * c * z1 + (a * d + b * c) * z2 + b * d * z3,
                       c * c * z1 + 2 * c * d * z2 + d * d * z3))
    return [SiegelPoint(*w) for w in images]


def test_green_invariant_under_unit_translations():
    # Sp4(Z) permutes the index set and preserves every R, so the truncated
    # sum keeps its terms; only the rounding of each R moves
    for z in _random_points(8, seed=3):
        base = green_function(split_discriminant(0, 1), 1.0, z, 6.0)
        for image in _sp4_images(z):
            ev = green_function(split_discriminant(0, 1), 1.0, image, 6.0)
            assert ev.terms_used == base.terms_used
            assert ev.value == pytest.approx(base.value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# shell-direct enumeration against the full majorant ellipsoid
# ---------------------------------------------------------------------------

def _scan_points(n, seed):
    """Base points drawn as the green-scan benchmark draws them."""
    rng = np.random.RandomState(seed)
    pts = []
    for _ in range(n):
        y1, y3 = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 2))
        y2 = rng.uniform(-0.9, 0.9) * math.sqrt(y1 * y3)
        x1, x2, x3 = rng.uniform(-0.5, 0.5, 3) + rng.randint(-2, 3, 3)
        pts.append(SiegelPoint(complex(x1, y1), complex(x2, y2),
                               complex(x3, y3)))
    return pts


def _half_gram(z):
    D = np.diag([1.0, 1.0, 0.5, 1.0, 1.0])
    Ph = D @ majorant_gram(z) @ D
    return 0.5 * (Ph + Ph.T)


def _fincke_pohst_full_tree(P, limit, cap, form, target):
    """Reference: the Fincke-Pohst search over the full tree, both members
    of each pair +-w visited and yielded."""
    n = P.shape[0]
    R = np.linalg.cholesky(P).T.tolist()
    slack = limit * 1e-9 + 1e-9
    budget = limit + slack
    out = []
    w = [0] * n
    nodes = 0

    def descend(i, remaining, qtail):
        nonlocal nodes
        nodes += 1
        t = 0.0
        for j in range(i + 1, n):
            t += R[i][j] * w[j]
        rad = math.sqrt(max(remaining, 0.0))
        rii = R[i][i]
        lo = math.ceil((-rad - t) / rii - 1e-12)
        hi = math.floor((rad - t) / rii + 1e-12)
        row = form[i]
        b = 0
        for j in range(i + 1, n):
            b += row[j] * w[j]
        b *= 2
        wis = (_shell_roots(row[0], b, qtail - target, lo, hi) if i == 0
               else range(lo, hi + 1))
        for wi in wis:
            s = rii * wi + t
            rem = remaining - s * s
            if rem < -slack:
                continue
            w[i] = wi
            if i > 0:
                descend(i - 1, rem, qtail + wi * (row[i] * wi + b))
            elif any(w):
                out.append(tuple(w))
                if len(out) > cap:
                    raise EnumerationCapError(
                        f"more than {cap} lattice points below the bound")
        w[i] = 0

    descend(n - 1, budget, 0)
    return out, nodes


def _enumerate_full_tree(P, bound, slack, cap, form=_ZERO, target=0):
    """Reference for `_enumerate_core`: the full tree, every point mapped
    back and tested on its own."""
    T = _lll_transform(P)
    P_red = T.T @ P @ T
    P_red = 0.5 * (P_red + P_red.T)
    T_obj = T.astype(object)
    form_red = (T_obj.T @ form.astype(object) @ T_obj).tolist()
    points, nodes = _fincke_pohst_full_tree(P_red, 2.0 * bound, cap,
                                            form_red, target)
    found = []
    for wt in points:
        u = T @ np.array(wt, dtype=np.int64)
        if majorant_value(P, u) <= bound + slack:
            found.append(tuple(int(x) for x in u))
    found.sort()
    return found, nodes


def _green_ellipsoid_oracle(c, v, z, radius):
    """The whole-ellipsoid route: every point of the majorant ellipsoid (on
    the full tree), then the qhat = 4m and R <= radius filters, summed in
    order of u."""
    points, _ = _enumerate_full_tree(_half_gram(z), float(c.m) + radius,
                                     ABS_TOL, 2_000_000)
    value, n = 0.0, 0
    for u in points:
        if _qhat(u) != 4 * c.m:
            continue
        r_val = majorant_R(z, _x(u))
        if r_val <= radius:
            value += exp_e1(2.0 * math.pi * v * r_val)
            n += 1
    return value, n


def _first_reduced_column_isotropic(z):
    col = _lll_transform(_half_gram(z))[:, 0]
    return _qhat([int(x) for x in col]) == 0


def _gram_schmidt(G):
    """mu and |b*_i|^2 of the basis with Gram matrix G, by the textbook
    recursion <b_i, b*_j> = G_ij - sum_{k<j} mu_jk mu_ik |b*_k|^2."""
    n = len(G)
    mu, norms = np.eye(n), np.zeros(n)
    for i in range(n):
        for j in range(i):
            dot = G[i, j] - sum(mu[j, k] * mu[i, k] * norms[k]
                                for k in range(j))
            mu[i, j] = dot / norms[j]
        norms[i] = G[i, i] - sum(mu[i, k] ** 2 * norms[k] for k in range(i))
    return mu, norms


def test_lll_transform_contract():
    for z in [Z_GENERIC] + _scan_points(40, seed=2):
        for P in (majorant_gram(z), _half_gram(z)):
            T = _lll_transform(P)
            assert np.issubdtype(T.dtype, np.integer)
            assert abs(abs(np.linalg.det(T)) - 1.0) < 1e-9
            mu, norms = _gram_schmidt(T.T @ P @ T)
            for i in range(5):
                for j in range(i):
                    assert abs(mu[i, j]) <= 0.5 + 1e-9, (z, i, j)
            for k in range(1, 5):
                lovasz = (0.75 - mu[k, k - 1] ** 2) * norms[k - 1]
                assert norms[k] >= lovasz - 1e-9 * norms[k - 1], (z, k)


def test_green_shell_matches_full_ellipsoid():
    rng = np.random.RandomState(11)
    ms = [(0, 1), (1, Fraction(5, 4)), (0, 2), (0, 3), (1, Fraction(9, 4)),
          (0, -1)]
    zs = [Z_GENERIC] + _scan_points(23, seed=5)
    isotropic = 0
    for i, z in enumerate(zs):
        gamma, m = ms[i % len(ms)]
        c = split_discriminant(gamma, m)
        v = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        radius = 12.0 if i == 0 else float(rng.uniform(2.0, 12.0))
        ev = green_function(c, v, z, radius)
        want, n = _green_ellipsoid_oracle(c, v, z, radius)
        assert ev.terms_used == n, f"point {i}"
        assert ev.value.hex() == want.hex(), f"point {i}"
        isotropic += _first_reduced_column_isotropic(z)
    # the linear shell equation (reduced a = 0) is exercised, Z_GENERIC too
    assert _first_reduced_column_isotropic(Z_GENERIC) and isotropic >= 5


def test_shell_roots_match_brute_force():
    def brute(a, b, c, lo, hi):
        return [w for w in range(lo, hi + 1) if a * w * w + b * w + c == 0]

    named = {
        "linear": (0, 3, -6, -5, 5),
        "linear, root outside": (0, 1, -9, -5, 5),
        "linear, not divisible": (0, 2, 3, -5, 5),
        "whole range": (0, 0, 0, -3, 4),
        "no root": (0, 0, 2, -3, 4),
        "negative discriminant": (1, 1, 1, -5, 5),
        "non-square discriminant": (1, 0, -2, -5, 5),
        "double root": (2, -8, 8, -5, 5),
        "two roots": (-1, 1, 6, -5, 5),
        "roots outside": (1, 0, -64, -5, 5),
        "one root outside": (1, -5, -6, -5, 5),
        "one root not an integer": (2, -3, 1, -5, 5),
        "square discriminant, no integer root": (4, 0, -1, -5, 5),
    }
    for name, (a, b, c, lo, hi) in named.items():
        got = list(_shell_roots(a, b, c, lo, hi))
        assert got == brute(a, b, c, lo, hi), name
    assert list(_shell_roots(0, 0, 0, -3, 4)) == list(range(-3, 5))
    assert list(_shell_roots(2, -8, 8, -5, 5)) == [2]
    for a in range(-3, 4):
        for b in range(-7, 8):
            for c in range(-9, 10):
                for lo, hi in ((-4, 4), (-1, 2), (1, 3), (2, 1)):
                    got = list(_shell_roots(a, b, c, lo, hi))
                    assert got == brute(a, b, c, lo, hi), (a, b, c, lo, hi)


def test_green_cap_counts_shell_points(monkeypatch):
    c = split_discriminant(0, 1)
    ev = green_function(c, 1.0, Z_GENERIC, 4.0)
    ellipsoid, _ = _enumerate_core(_half_gram(Z_GENERIC), 5.0)
    monkeypatch.setattr(lattice, "_POINT_CAP", ev.terms_used - 1)
    with pytest.raises(EnumerationCapError):
        green_function(c, 1.0, Z_GENERIC, 4.0)
    # the cap bounds shell points, both members of each pair counted, not
    # the whole majorant ellipsoid
    monkeypatch.setattr(lattice, "_POINT_CAP", ev.terms_used)
    assert 2 * len(ellipsoid) > ev.terms_used
    assert green_function(c, 1.0, Z_GENERIC, 4.0).value == ev.value


def test_green_counters():
    c = split_discriminant(0, 1)
    e1 = green_function(c, 1.0, Z_GENERIC, 5.0)
    e2 = green_function(c, 1.0, Z_GENERIC, 5.0)
    assert e1.nodes_visited == e2.nodes_visited > 0
    assert e1.min_R == e2.min_R == min(
        r for _, r in _green_box_terms(c, Z_GENERIC, 5.0))
    empty = green_function(c, 1.0, Z_GENERIC, 1e-3)
    assert empty.terms_used == 0 and empty.min_R == math.inf
    assert empty.nodes_visited > 0


def test_half_tree_matches_full_tree():
    # the zero form (enumerate_bounded's grids) and the qhat = 4m shell;
    # the core applies no test of its own, so the reference keeps every
    # point its full tree yields (slack inf)
    cases = [(majorant_gram(z), bound, _ZERO, 0)
             for z in _random_points(6, seed=42) for bound in (0.8, 1.7)]
    cases += [(majorant_gram(SiegelPoint(0.3 + 5.0j, 0.1 + 0.2j,
                                         -0.7 + 0.31j)), 2.0, _ZERO, 0),
              (majorant_gram(Z_GENERIC), 2.2, _ZERO, 0)]
    shells = [(_half_gram(z), m + radius, _QHAT, 4 * m)
              for z, m, radius in ((Z_GENERIC, 1, 12.0),
                                   (_scan_points(1, seed=5)[0], 2, 8.0),
                                   (_scan_points(2, seed=5)[1], -1, 6.0))]
    for P, bound, form, target in cases + shells:
        got, nodes = _enumerate_core(P, bound, form, target)
        want, ref_nodes = _enumerate_full_tree(P, bound, math.inf, 10**6,
                                               form, target)
        negs = [tuple(-x for x in u) for u in got]
        # one member of each pair, and with its mirror image the full tree
        assert len(set(got) | set(negs)) == 2 * len(got)
        assert sorted(got + negs) == want
        # the full tree is the half tree, its mirror image and the shared
        # all-zero prefixes, one per level
        assert ref_nodes == 2 * nodes - 5
        if form is _QHAT:
            assert nodes <= 0.55 * ref_nodes
        for u, neg in zip(got, negs):
            assert majorant_value(P, u).hex() == majorant_value(P, neg).hex()


def test_green_pays_once_per_pair(monkeypatch):
    # one R and one E1 per pair +-u: each call count is half the terms
    calls = {"R": 0, "E1": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(lattice, "_majorant_R_at",
                        counted("R", lattice._majorant_R_at))
    monkeypatch.setattr(lattice, "exp_e1", counted("E1", lattice.exp_e1))
    ev = green_function(split_discriminant(0, 1), 1.0, Z_GENERIC, 12.0)
    assert ev.terms_used > 0
    assert calls == {"R": ev.terms_used // 2, "E1": ev.terms_used // 2}


@pytest.mark.parametrize("gamma,m,radius,value,terms,nodes,min_r", [
    (0, 1, 12.0, "0x1.21c3b254bc296p+2", 1094, 2266, "0x1.23032ed5b6566p-4"),
    (0, 1, 60.0, "0x1.21c3b254bc296p+2", 11336, 46362,
     "0x1.23032ed5b6566p-4"),
    (1, Fraction(5, 4), 12.0, "0x1.b8d6e2cd055afp+2", 638, 2364,
     "0x1.034f6d9ee9364p-5"),
    (0, -1, 12.0, "0x1.6e4f017fce525p-21", 524, 1633,
     "0x1.07bae271ad3e5p+1"),
], ids=["m1-r12", "m1-r60", "gamma1-m5/4", "m-1"])
def test_green_walk_pinned(gamma, m, radius, value, terms, nodes, min_r):
    # the walk's values, term and node counts at Z_GENERIC, v = 1, pinned
    # bit for bit; the box-scan and full-tree tests above are the oracle
    ev = green_function(split_discriminant(gamma, m), 1.0, Z_GENERIC, radius)
    assert ev.value.hex() == value
    assert ev.terms_used == terms
    assert ev.nodes_visited == nodes
    assert ev.min_R.hex() == min_r


def test_green_node_cap_boundary(monkeypatch):
    # the cap stops the walk at exactly the node past nodes_visited, the
    # level-0 nodes solved in their parent's loop counted as any other
    c = split_discriminant(0, 1)
    ev = green_function(c, 1.0, Z_GENERIC, 4.0)
    monkeypatch.setattr(lattice, "_NODE_CAP", ev.nodes_visited - 1)
    with pytest.raises(EnumerationCapError):
        green_function(c, 1.0, Z_GENERIC, 4.0)
    monkeypatch.setattr(lattice, "_NODE_CAP", ev.nodes_visited)
    assert green_function(c, 1.0, Z_GENERIC, 4.0).value == ev.value
