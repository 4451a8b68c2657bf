"""The identity criteria, one implementation each.

``kudla-green verify`` runs them on small grids and the acceptance battery
on larger ones, each with its own tolerances.  Every function takes its
grid and returns rows ``{label, lhs, rhs, diff}``; a worst-case row has
``lhs = rhs = 0.0`` and names its worst point in the label.  Each
independent L(2, chi), G = L(2, chi_{-4}) included, is the trigamma oracle
``L_chi_2_series`` (truncation certified, rounding a few ulp).  In the
worst-of reducer a NaN diff wins, so a route that returns NaN fails
``diff <= tol``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

from .arith import (CaseIndex, L_chi_2_series, sigma_gamma_m,
                    split_discriminant, xi_twisted)
from .eisenstein import cohen_H
from .geometry import GRAM_Q, GRAM_Q_INV, SiegelPoint, majorant_gram
from .integrals import (heegner_degree, heegner_degree_exact,
                        heegner_degree_via_cohen, theorem2_check)
from .specfun import FOUR_PI, I3_minus, I3_plus, J_minus, J_plus
from .volumes import V22, hirzebruch_vol, humbert_V13, zeta_K_minus1


def _worst(items: Iterable[tuple[float, str]]) -> tuple[float, str]:
    """(diff, where) of the largest diff, the first on ties; a NaN wins."""
    top, at = 0.0, ""
    for diff, where in items:
        if math.isnan(diff):
            return diff, where
        if diff > top:
            top, at = diff, where
    return top, at


def worst_diff(rows: list[dict]) -> float:
    """The largest diff over rows, NaN if any row's diff is NaN."""
    return _worst((row["diff"], row["label"]) for row in rows)[0]


def _row(label: str, diff: float, lhs: float = 0.0, rhs: float = 0.0) -> dict:
    return {"label": label, "lhs": lhs, "rhs": rhs, "diff": diff}


def _exact_row(label: str, value: Fraction, target: Fraction) -> dict:
    return _row(label, abs(float(value - target)), float(value), float(target))


def _case(n4: int) -> CaseIndex:
    """The index with 4m = n4 (gamma = 0 when 4 | n4, else 1)."""
    return split_discriminant(0 if n4 % 4 == 0 else 1, Fraction(n4, 4))


def divisor_sum(pairs: Iterable[tuple[int, int]]) -> list[dict]:
    """f^3 sigma(gamma, m) = xi(D0, f) exactly at 4m = D0 f^2; 1 on a miss."""
    miss = any(sigma_gamma_m(c) * c.f ** 3 != xi_twisted(c.D0, c.f)
               for c in (_case(D0 * f * f) for D0, f in pairs))
    return [_row("f^3 sigma = xi over sample grid", 1.0 if miss else 0.0)]


def cohen_dual(indices: Iterable[int]) -> list[dict]:
    """Exact H(2, 4m) against the L(2, chi) oracle route, worst relative diff."""
    def rel(n4: int) -> tuple[float, str]:
        c = _case(n4)
        exact = float(cohen_H(c))
        series = (-L_chi_2_series(c.D0) * c.D0 ** 1.5
                  * xi_twisted(c.D0, c.f) / (2.0 * math.pi ** 2))
        return abs(exact - series) / max(abs(exact), 1e-30), f"4m={n4}"

    diff, at = _worst(rel(n4) for n4 in indices)
    return [_row(f"Bernoulli vs L-series route, worst at {at}", diff)]


def degree_dual(cases: Iterable[CaseIndex]) -> list[dict]:
    """deg at m = 1 is 7/144 exactly; -(B/2) C against -(1/12) H(2, 4m)."""
    def rel(c: CaseIndex) -> tuple[float, str]:
        lhs = heegner_degree(c)
        rhs = float(heegner_degree_via_cohen(c))
        return abs(lhs - rhs) / max(abs(rhs), 1e-30), f"(gamma={c.gamma}, m={c.m})"

    exact = heegner_degree_exact(split_discriminant(0, 1))
    diff, at = _worst(rel(c) for c in cases)
    return [_exact_row("deg at m=1 equals 7/144 exactly", exact, Fraction(7, 144)),
            _row(f"coefficient vs class-number route, worst at {at}", diff)]


def orbit_plus(grid: Iterable[float]) -> list[dict]:
    """I3_plus(a / 4 pi, 1) = J_plus(3/2, a) / 3, one row per a."""
    rows = []
    for a in grid:
        i3 = I3_plus(a / FOUR_PI, 1.0).value
        jp = J_plus(1.5, a).value / 3.0
        rows.append(_row(f"I3_plus = J_plus/3 at a={a}", abs(i3 - jp), i3, jp))
    return rows


def orbit_minus(grid: Iterable[float]) -> list[dict]:
    """I3_minus(a / 4 pi, -1) = e^{-a} J_minus(3/2, a) / 3, one row per a."""
    rows = []
    for a in grid:
        i3 = I3_minus(a / FOUR_PI, -1.0).value
        jm = J_minus(1.5, a).value * math.exp(-a) / 3.0
        rows.append(_row(f"I3_minus = e^{{-|a|}} J_minus/3 at a={a}",
                         abs(i3 - jm), i3, jm))
    return rows


def green_integral(ms: Iterable[int],
                   a_grid: Iterable[float]) -> list[dict]:
    """theorem2_check at v = a / (4 pi |m|), one row per (m, a)."""
    rows = []
    for m in ms:
        c = split_discriminant(0, m)
        for a in a_grid:
            rep = theorem2_check(c, a / (FOUR_PI * abs(m)))
            rows.append(_row(f"(4/B) I vs Eisenstein side, m={m}, a={a}",
                             rep.rel_diff, rep.lhs, rep.rhs))
    return rows


def siegel_condition(points: list[SiegelPoint]) -> list[dict]:
    """max |P Q^-1 P - Q| over the majorants P of the sampled points."""
    resid = ((float(np.max(np.abs(P @ GRAM_Q_INV @ P - GRAM_Q))), "")
             for P in map(majorant_gram, points))
    return [_row(f"Siegel condition P Q^-1 P = Q, {len(points)} sampled z",
                 _worst(resid)[0])]


def volume_spot_values() -> list[dict]:
    """V_{1,3}(-4) = G/3, Hirzebruch (5, 1) = 1/15, V_{2,2}(5) via L(2, chi_5),
    with G = L(2, chi_{-4}) and L(2, chi_5) from the oracle."""
    catalan = L_chi_2_series(-4)
    v13 = humbert_V13(-4)
    v22 = V22(5)
    via_L = 5.0 ** 1.5 * L_chi_2_series(5) / 3.0
    return [_row("V_{1,3}(-4) = Catalan/3",
                 abs(v13 - catalan / 3.0) / (catalan / 3.0), v13, catalan / 3.0),
            _exact_row("Hirzebruch volume (5, f=1) = 1/15 exactly",
                       hirzebruch_vol(5, 1), Fraction(1, 15)),
            _row("V_{2,2}(5) dual routes", abs(v22 - via_L) / abs(via_L), v22, via_L)]


def zeta_functional_equation(dKs: Iterable[int]) -> list[dict]:
    """zeta_K(-1) exact against zeta(2) L(2, chi_dK) d^{3/2} / (4 pi^4)."""
    def resid(dK: int) -> tuple[float, str]:
        exact = float(zeta_K_minus1(dK))
        zk2 = math.pi ** 2 / 6.0 * L_chi_2_series(dK)
        return abs(exact - zk2 * dK ** 1.5 / (4.0 * math.pi ** 4)), f"dK={dK}"

    diff, at = _worst(resid(dK) for dK in dKs)
    return [_row(f"zeta_K(-1) = zeta_K(2) d^{{3/2}}/(4 pi^4), worst at {at}", diff)]
