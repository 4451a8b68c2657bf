"""Half-space geometry, the embedding, and the majorant."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kudla_green.geometry import (GRAM_Q, GRAM_Q_INV, SiegelPoint, embed_u,
                                  humbert_discriminant, majorant_R,
                                  majorant_gram, psi)

Z0 = SiegelPoint(1j, 0j, 1j)


def _random_points(n, seed=0):
    rng = np.random.RandomState(seed)
    pts = []
    for _ in range(n):
        y1, y3 = rng.uniform(0.3, 3.0, 2)
        y2 = rng.uniform(-0.95, 0.95) * math.sqrt(y1 * y3)
        pts.append(SiegelPoint(complex(rng.uniform(-2, 2), y1),
                               complex(rng.uniform(-2, 2), y2),
                               complex(rng.uniform(-2, 2), y3)))
    return pts


def _q_complex(u):
    return u[2] * u[2] - u[0] * u[4] - u[1] * u[3]


def _bilinear(x, y):
    # pairing of the form (x, y) = 2 x3 y3 - x1 y5 - x5 y1 - x2 y4 - x4 y2
    return (2 * x[2] * y[2] - x[0] * y[4] - x[4] * y[0]
            - x[1] * y[3] - x[3] * y[1])


def test_siegel_point_membership():
    with pytest.raises(ValueError):
        SiegelPoint(-1j, 0j, 1j)
    with pytest.raises(ValueError):
        SiegelPoint(1j, 2j, 1j)  # eta2 = 1 - 4 < 0
    z = SiegelPoint(0.5 + 2j, 1j, 1j)
    assert z.eta2 == pytest.approx(1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for k, shift in itertools.product(range(3), (bad, complex(0, bad))):
            coords = [0.5 + 2j, 1j, 1j]
            coords[k] += shift
            with pytest.raises(ValueError, match="non-finite"):
                SiegelPoint(*coords)


def test_embed_u_base_point():
    u = embed_u(Z0)
    assert u == (1 + 0j, -1j, 0j, -1j, 1 + 0j)
    re = [w.real for w in u]
    im = [w.imag for w in u]
    assert _q_complex(re) == -1.0
    assert _q_complex(im) == -1.0
    assert _bilinear(re, im) == 0.0


def test_embed_u_last_coordinate_is_one():
    for z in _random_points(10):
        assert embed_u(z)[4] == 1.0


def test_embed_u_is_isotropic():
    for z in _random_points(50, seed=3):
        assert abs(_q_complex(embed_u(z))) < 1e-12


def test_embedded_plane_is_negative():
    for z in _random_points(50, seed=4):
        u = embed_u(z)
        re = [w.real for w in u]
        im = [w.imag for w in u]
        assert _q_complex(re) < 0
        assert _q_complex(im) < 0
        assert abs(_bilinear(re, im)) < 1e-12


def test_psi_examples():
    assert psi(Z0, (1, 0, 0, 0, 0)) == 1.0
    assert psi(Z0, (0, 0, 0, 0, 1)) == 1.0  # z2^2 - z1 z3 = 1
    assert psi(Z0, (1, 0, 0, 0, -1)) == 0.0  # on the divisor
    # ints, Fractions and floats of equal value give the same bits
    x = (Fraction(1, 2), 3, Fraction(-3, 4), -2, 5)
    z = SiegelPoint(0.3 + 1.2j, -0.4 + 0.25j, 0.1 + 0.9j)
    assert psi(z, x) == psi(z, [float(t) for t in x])
    assert majorant_R(z, x) == majorant_R(z, tuple(map(float, x)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=10, max_size=10),
       st.integers(-5, 5), st.integers(-5, 5))
def test_psi_linear_in_x(coords, alpha, beta):
    x, y = coords[:5], coords[5:]
    combo = [alpha * a + beta * b for a, b in zip(x, y)]
    z = SiegelPoint(0.3 + 1.2j, -0.4 + 0.25j, 0.1 + 0.9j)
    lhs = psi(z, combo)
    rhs = alpha * psi(z, x) + beta * psi(z, y)
    assert abs(lhs - rhs) < 1e-9


def test_majorant_R_examples():
    assert majorant_R(Z0, (1, 0, 0, 0, 0)) == 0.5
    x = (1, 0, 0, 0, -1)
    assert majorant_R(Z0, x) == 0.0  # Z0 lies on Z(x)
    assert majorant_R(Z0, tuple(-t for t in x)) == majorant_R(Z0, x)


def test_majorant_gram_base_point():
    P = majorant_gram(Z0)
    assert np.allclose(P, np.diag([1.0, 1.0, 2.0, 1.0, 1.0]))


def test_majorant_gram_positive_definite_and_siegel():
    for z in _random_points(100, seed=5):
        P = majorant_gram(z)
        assert np.min(np.linalg.eigvalsh(P)) > 0
        resid = np.max(np.abs(P @ GRAM_Q_INV @ P - GRAM_Q))
        assert resid <= 1e-10


def test_majorant_polarization_consistency():
    rng = np.random.RandomState(11)
    for z in _random_points(25, seed=6):
        P = majorant_gram(z)
        for _ in range(4):
            xi = rng.randint(-5, 6, size=5)
            x = tuple(int(v) for v in xi)
            quad = 0.5 * float(xi @ P @ xi)
            want = float(_q_complex(x)) + majorant_R(z, x)
            assert abs(quad - want) < 1e-9
            assert psi(z, x) == pytest.approx(-_bilinear(x, embed_u(z)),
                                              abs=1e-12)
            assert quad - float(_q_complex(x)) >= -1e-12  # 2R >= 0


def test_majorant_property():
    rng = np.random.RandomState(12)
    for z in _random_points(100, seed=7):
        for _ in range(10):
            xi = rng.randint(-4, 5, size=5)
            if not xi.any():
                continue
            x = tuple(int(v) for v in xi)
            q = float(_q_complex(x))
            lhs = 2.0 * q + 2.0 * majorant_R(z, x)
            assert lhs >= abs(2.0 * q) - 1e-9


def test_humbert_discriminant():
    assert humbert_discriminant((1, 0, 0, 0, -1)) == 4
    assert humbert_discriminant((1, 0, 0, 0, -7)) == 28
    x = (Fraction(1, 2), 3, Fraction(-2, 3), 1, 4)
    assert humbert_discriminant(x) == 4 * _q_complex(x)
    # floats are read exactly: 0.1 is not 1/10
    assert humbert_discriminant((0, 0, 0.1, 0, 0)) == 4 * Fraction(0.1) ** 2
    # 4 q(x) = 2 x^T GRAM_Q x, summed exactly over the Gram matrix's
    # integer entries, against the independent formula, on random integer
    # and Fraction vectors
    gram = [[int(GRAM_Q[i, j]) for j in range(5)] for i in range(5)]
    assert np.array_equal(np.array(gram, dtype=float), GRAM_Q)
    rng = np.random.RandomState(13)
    for k in range(400):
        nums = rng.randint(-60, 61, size=5)
        if k % 2:
            dens = rng.randint(1, 13, size=5)
            x = tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens))
        else:
            x = tuple(int(a) for a in nums)
        gram_form = 2 * sum(gram[i][j] * x[i] * x[j]
                            for i in range(5) for j in range(5))
        assert humbert_discriminant(x) == gram_form == 4 * _q_complex(x), x
