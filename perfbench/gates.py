"""Correctness gates, one per workload, each checking an operation's output
against a route the operation did not take.  They run after the timed
region; a failed gate counts the operation as failed."""

from __future__ import annotations

import math
from fractions import Fraction

from kudla_green import (SiegelPoint, green_function, heegner_degree_via_cohen,
                         split_discriminant)
from kudla_green.arith import L_chi_2_series, xi_twisted

DEG_RTOL = 1e-9
SHIFT_RTOL = 1e-12
THEOREM2_TOL = 1e-6  # the acceptance battery's tolerance


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= DEG_RTOL * abs(ref)


def cohen_H_series(c) -> float:
    """H(2, 4m) with L(-1, chi) taken from the direct L(2, chi) series through
    the functional equation (the route of `verify --only cohen-dual-route`):
    no Bernoulli sum on the way."""
    return (-L_chi_2_series(c.D0, 1e-12) * c.D0 ** 1.5
            * xi_twisted(c.D0, c.f) / (2.0 * math.pi ** 2))


def coeff_row_ok(text: str, series: bool = False) -> bool:
    """One `coeff` row: D0 f^2 = 4m, and deg against the class-number route.
    Both routes of deg go through the Bernoulli sum B_{2,chi}; with `series`
    the row's H is also checked against the L-series route, which does not."""
    lines = text.splitlines()
    if len(lines) != 2:
        return False
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    gamma, m = int(row["gamma"]), Fraction(row["m"])
    if int(row["D0"]) * int(row["f"]) ** 2 != 4 * m:
        return False
    c = split_discriminant(gamma, m)
    if not _close(float(row["deg"]), float(heegner_degree_via_cohen(c))):
        return False
    return not series or _close(float(Fraction(row["H"])), cohen_H_series(c))


def siegel_point(z, shift: float = 0.0) -> SiegelPoint:
    """The base point of a green-scan operation, with z1 moved by `shift`."""
    (x1, y1), (x2, y2), (x3, y3) = z
    return SiegelPoint(complex(x1 + shift, y1), complex(x2, y2),
                       complex(x3, y3))


def green_shift_ok(op: dict, value: float, terms_used: int) -> bool:
    """z1 -> z1 + 1 is a symmetry of the truncated sum: the same terms and
    the same value to SHIFT_RTOL."""
    ev = green_function(split_discriminant(op["gamma"], Fraction(op["m"])),
                        op["v"], siegel_point(op["z"], 1.0), op["radius"])
    return (ev.terms_used == terms_used
            and abs(ev.value - value) <= SHIFT_RTOL * abs(value))


def theorem2_ok(rel_diff: float) -> bool:
    return rel_diff <= THEOREM2_TOL


def verify_ok(code: int, text: str) -> bool:
    """`verify` exited 0 and every check row reads PASS."""
    rows = [line.split("\t") for line in text.splitlines()[1:]
            if "\t" in line]
    return code == 0 and bool(rows) and all(r[-1] == "PASS" for r in rows)
