"""Command-line surface: coefficient tables, Green-function values, verification.

Three subcommands:

* ``coeff``  -- table of (gamma, m, D0, f, H(2,4m), C(gamma,m,0), deg) rows;
* ``green``  -- evaluate the truncated Green function at a point of the
  genus-2 half-space;
* ``verify`` -- run the identity suites and report one PASS/FAIL line per
  check (exit 1 on any FAIL).

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 domain error (point outside the half-space, v or radius not
positive, or a point so far out that the majorant Gram matrix loses positive
definiteness to rounding), 4 singular point (on a Heegner divisor).  Exact
rationals are printed as exact strings ("p/q"), floats with 15 significant
digits; identical invocations produce byte-identical output, and the JSON
and CSV payloads carry the same numbers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (CaseIndex, L_chi_2_functional, L_chi_2_series,
                    sigma_gamma_m, split_discriminant, xi_twisted)
from .eisenstein import coefficient_C, cohen_H
from .geometry import SiegelPoint, majorant_gram, GRAM_Q, GRAM_Q_INV
from .integrals import (heegner_degree, heegner_degree_exact,
                        heegner_degree_via_cohen, theorem2_check)
from .lattice import SingularPointError, green_function
from .specfun import FOUR_PI, I3_minus, I3_plus, J_minus, J_plus, Precision
from .volumes import V22, hirzebruch_vol, humbert_V13, zeta_K_minus1

__all__ = ["RunConfig", "cmd_coeff", "cmd_green", "cmd_verify", "main",
           "entrypoint"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_SINGULAR = 4


@dataclass
class RunConfig:
    command: str
    output_format: str = "text"
    output_path: str | None = None
    gamma: int = 0
    m_from: int = 1
    m_to: int = 1
    z: tuple[complex, complex, complex] | None = None
    m: Fraction | None = None
    v: float = 1.0
    radius: float = 10.0
    tol: float = 1e-6
    only: str | None = None


def _fmt15(x: float) -> str:
    return f"{x:.15g}"


def _json_float(x: float) -> float:
    return float(_fmt15(x))


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}") from exc


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(cfg: RunConfig, inputs: dict, key: str, rows: list[dict],
            columns: list[str]) -> str:
    if cfg.output_format == "json":
        payload = {"command": cfg.command, "inputs": inputs, key: rows}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[col] for col in columns])
        return buf.getvalue()
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(str(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

def _coeff_indices(cfg: RunConfig) -> list[CaseIndex]:
    if cfg.gamma == 0:
        if cfg.m_from < 1:
            raise ValueError("gamma=0 table requires m >= 1")
        return [split_discriminant(0, m) for m in range(cfg.m_from, cfg.m_to + 1)]
    if cfg.m_from < 1:
        raise ValueError("gamma=1 table requires 4m >= 1")
    out = []
    for n4 in range(cfg.m_from, cfg.m_to + 1):
        if n4 % 4 == 1:
            out.append(split_discriminant(1, Fraction(n4, 4)))
    return out


def cmd_coeff(cfg: RunConfig) -> tuple[int, str]:
    try:
        indices = _coeff_indices(cfg)
    except ValueError as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    prec = Precision(abs_tol=min(cfg.tol, 1e-10))
    rows = []
    for c in indices:
        rows.append({
            "gamma": c.gamma,
            "m": str(c.m),
            "D0": c.D0,
            "f": c.f,
            "H": str(cohen_H(c).value),
            "C": _json_float(coefficient_C(c, prec)),
            "deg": _json_float(heegner_degree(c, prec)),
        })
    inputs = {"gamma": cfg.gamma, "m_from": cfg.m_from, "m_to": cfg.m_to}
    columns = ["gamma", "m", "D0", "f", "H", "C", "deg"]
    return EXIT_OK, _render(cfg, inputs, "rows", rows, columns)


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------

def cmd_green(cfg: RunConfig) -> tuple[int, str]:
    try:
        z = SiegelPoint(*cfg.z)
    except ValueError as exc:
        return EXIT_DOMAIN, f"error: {exc}\n"
    try:
        c = split_discriminant(cfg.gamma, cfg.m)
    except ValueError as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    prec = Precision(abs_tol=min(cfg.tol, 1e-8))
    try:
        ev = green_function(c, cfg.v, z, cfg.radius, prec)
    except SingularPointError as exc:
        return EXIT_SINGULAR, f"error: {exc}\n"
    except ValueError as exc:
        return EXIT_DOMAIN, f"error: {exc}\n"
    rows = [{
        "value": _json_float(ev.value),
        "terms_used": ev.terms_used,
        "tail_bound": _json_float(ev.tail_bound),
        "radius": _json_float(ev.radius),
    }]
    inputs = {
        "gamma": cfg.gamma, "m": str(cfg.m), "v": _json_float(cfg.v),
        "radius": _json_float(cfg.radius),
        "z": [_fmt15(w.real) + "+" + _fmt15(w.imag) + "i" for w in cfg.z],
    }
    columns = ["value", "terms_used", "tail_bound", "radius"]
    return EXIT_OK, _render(cfg, inputs, "rows", rows, columns)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_divisor_sum() -> list[dict]:
    worst = 0.0
    for D0 in (1, 5, -4, 8, -8, 12, -3, 13):
        for f in (1, 2, 3, 4, 6, 12):
            c = split_discriminant(0 if D0 * f * f % 4 == 0 else 1,
                                   Fraction(D0 * f * f, 4))
            lhs = sigma_gamma_m(c) * c.f ** 3
            rhs = xi_twisted(c.D0, c.f)
            if lhs != rhs:
                worst = 1.0
    return [{"label": "f^3 sigma = xi over sample grid",
             "lhs": 0.0, "rhs": 0.0, "diff": worst}]


def _check_cohen_dual() -> list[dict]:
    worst, at = 0.0, ""
    for n4 in range(1, 121):
        if n4 % 4 not in (0, 1):
            continue
        c = split_discriminant(0 if n4 % 4 == 0 else 1, Fraction(n4, 4))
        exact = float(cohen_H(c).value)
        series = (-L_chi_2_series(c.D0, 1e-12) * c.D0 ** 1.5
                  * xi_twisted(c.D0, c.f) / (2.0 * math.pi ** 2))
        rel = abs(exact - series) / max(abs(exact), 1e-30)
        if rel > worst:
            worst, at = rel, f"4m={n4}"
    return [{"label": f"Bernoulli vs L-series route, worst at {at}",
             "lhs": 0.0, "rhs": 0.0, "diff": worst}]


def _check_degree_dual(prec: Precision) -> list[dict]:
    rows = []
    c1 = split_discriminant(0, 1)
    exact = heegner_degree_exact(c1)
    rows.append({"label": "deg at m=1 equals 7/144 exactly",
                 "lhs": float(exact), "rhs": 7.0 / 144.0,
                 "diff": abs(float(exact - Fraction(7, 144)))})
    worst, at = 0.0, ""
    cases = [split_discriminant(0, m) for m in range(1, 13)]
    cases += [split_discriminant(1, Fraction(n4, 4)) for n4 in range(1, 42, 4)]
    for c in cases:
        lhs = heegner_degree(c, prec)
        rhs = float(heegner_degree_via_cohen(c))
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        if rel > worst:
            worst, at = rel, f"(gamma={c.gamma}, m={c.m})"
    rows.append({"label": f"coefficient vs class-number route, worst at {at}",
                 "lhs": 0.0, "rhs": 0.0, "diff": worst})
    return rows


def _check_orbit_reduction(prec: Precision) -> list[dict]:
    rows = []
    for a in (0.5, 2.0):
        i3 = I3_plus(a / FOUR_PI, 1.0, prec).value
        jp = J_plus(1.5, a, prec).value / 3.0
        rows.append({"label": f"I3_plus = J_plus/3 at a={a}",
                     "lhs": i3, "rhs": jp, "diff": abs(i3 - jp)})
    return rows


def _check_orbit_negative(prec: Precision) -> list[dict]:
    a = 1.0
    i3 = I3_minus(a / FOUR_PI, -1.0, prec).value
    jm = J_minus(1.5, a, prec).value * math.exp(-a) / 3.0
    return [{"label": "I3_minus = e^{-|a|} J_minus/3 at a=1",
             "lhs": i3, "rhs": jm, "diff": abs(i3 - jm)}]


def _check_green_integral(prec: Precision) -> list[dict]:
    rows = []
    for m in (1, 2, -1):
        c = split_discriminant(0, m)
        for a in (1.0, 2.0):
            v = a / (FOUR_PI * abs(m))
            rep = theorem2_check(c, v, prec)
            rows.append({"label": f"(4/B) I vs Eisenstein side, m={m}, a={a}",
                         "lhs": rep.lhs, "rhs": rep.rhs, "diff": rep.rel_diff})
    return rows


def _check_majorant() -> list[dict]:
    rng = np.random.RandomState(7)
    worst = 0.0
    for _ in range(20):
        y1, y3 = rng.uniform(0.5, 2.0, size=2)
        y2 = rng.uniform(-0.9, 0.9) * math.sqrt(y1 * y3)
        x1, x2, x3 = rng.uniform(-2.0, 2.0, size=3)
        z = SiegelPoint(complex(x1, y1), complex(x2, y2), complex(x3, y3))
        P = majorant_gram(z)
        resid = float(np.max(np.abs(P @ GRAM_Q_INV @ P - GRAM_Q)))
        worst = max(worst, resid)
    return [{"label": "Siegel condition P Q^-1 P = Q, 20 sampled z",
             "lhs": 0.0, "rhs": 0.0, "diff": worst}]


def _check_volumes(prec: Precision) -> list[dict]:
    rows = []
    catalan = 0.0
    sign = 1.0
    for k in range(20001):
        catalan += sign / (2 * k + 1) ** 2
        sign = -sign
    v13 = humbert_V13(-4, prec).value
    rows.append({"label": "V_{1,3}(-4) = Catalan/3",
                 "lhs": v13, "rhs": catalan / 3.0,
                 "diff": abs(v13 - catalan / 3.0) / (catalan / 3.0)})
    hv = hirzebruch_vol(5, 1)
    rows.append({"label": "Hirzebruch volume (5, f=1) = 1/15 exactly",
                 "lhs": float(hv.exact_part), "rhs": 1.0 / 15.0,
                 "diff": abs(float(hv.exact_part - Fraction(1, 15)))})
    v22 = V22(5)
    via_L = 5.0 ** 1.5 * L_chi_2_functional(5) / 3.0
    rows.append({"label": "V_{2,2}(5) dual routes",
                 "lhs": v22.value, "rhs": via_L,
                 "diff": abs(v22.value - via_L) / abs(via_L)})
    return rows


def _check_zeta_fe() -> list[dict]:
    worst, at = 0.0, ""
    for dK in (5, 8, 13):
        exact = float(zeta_K_minus1(dK))
        zeta2 = math.pi ** 2 / 6.0
        zk2 = zeta2 * L_chi_2_series(dK, 1e-12)
        resid = abs(exact - zk2 * dK ** 1.5 / (4.0 * math.pi ** 4))
        if resid > worst:
            worst, at = resid, f"dK={dK}"
    return [{"label": f"zeta_K(-1) = zeta_K(2) d^{{3/2}}/(4 pi^4), worst at {at}",
             "lhs": 0.0, "rhs": 0.0, "diff": worst}]


_VERIFY_CHECKS = {
    "divisor-sum-exact": lambda prec: _check_divisor_sum(),
    "cohen-dual-route": lambda prec: _check_cohen_dual(),
    "degree-dual-route": _check_degree_dual,
    "orbit-integral-reduction": _check_orbit_reduction,
    "orbit-integral-negative-convention": _check_orbit_negative,
    "green-integral-identity": _check_green_integral,
    "majorant-siegel-condition": lambda prec: _check_majorant(),
    "volume-spot-values": _check_volumes,
    "zeta-functional-equation": lambda prec: _check_zeta_fe(),
}


def cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    names = list(_VERIFY_CHECKS)
    if cfg.only is not None:
        if cfg.only not in _VERIFY_CHECKS:
            return EXIT_USAGE, (f"error: unknown check {cfg.only!r}; "
                                f"choose from {', '.join(names)}\n")
        names = [cfg.only]
    prec = Precision()
    rows = []
    any_fail = False
    for name in names:
        for res in _VERIFY_CHECKS[name](prec):
            status = "PASS" if res["diff"] <= cfg.tol else "FAIL"
            any_fail = any_fail or status == "FAIL"
            rows.append({
                "name": name,
                "label": res["label"],
                "lhs": _json_float(res["lhs"]),
                "rhs": _json_float(res["rhs"]),
                "diff": _json_float(res["diff"]),
                "status": status,
            })
    inputs = {"tol": _json_float(cfg.tol), "only": cfg.only}
    columns = ["name", "label", "lhs", "rhs", "diff", "status"]
    text = _render(cfg, inputs, "checks", rows, columns)
    if cfg.output_format == "text":
        n_fail = sum(r["status"] == "FAIL" for r in rows)
        text += f"{len(rows) - n_fail}/{len(rows)} checks passed\n"
    return (EXIT_VERIFY_FAIL if any_fail else EXIT_OK), text


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kudla-green",
        description="coefficient tables, Green-function values and identity "
                    "verification for the SO(3,2) setting")
    parser.add_argument("--output", dest="output_path", default=None,
                        help="write the report to this path instead of stdout")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=["text", "json", "csv"])
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="table of coefficient data")
    p_coeff.add_argument("--gamma", type=int, choices=[0, 1], required=True)
    p_coeff.add_argument("--m-from", type=int, required=True,
                         help="first index (gamma=1: the integer 4m)")
    p_coeff.add_argument("--m-to", type=int, required=True,
                         help="last index (gamma=1: the integer 4m)")

    p_green = sub.add_parser("green", help="evaluate the Green function")
    for name in ("z1", "z2", "z3"):
        p_green.add_argument(f"--{name}", type=_parse_complex, required=True,
                             help=f"{name} as re+imi, e.g. 0.3+1.2i")
    p_green.add_argument("--m", type=_parse_fraction, required=True,
                         help="index m (integer, or p/4 for gamma=1)")
    p_green.add_argument("--gamma", type=int, choices=[0, 1], required=True)
    p_green.add_argument("--v", type=float, required=True)
    p_green.add_argument("--radius", type=float, default=10.0)
    p_green.add_argument("--tol", type=float, default=1e-8)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--only", default=None,
                          help="run a single named check")
    p_verify.add_argument("--tol", type=float, default=1e-6)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command,
                    output_format=args.output_format,
                    output_path=args.output_path)
    if args.command == "coeff":
        cfg.gamma = args.gamma
        cfg.m_from = args.m_from
        cfg.m_to = args.m_to
        code, text = cmd_coeff(cfg)
    elif args.command == "green":
        cfg.z = (args.z1, args.z2, args.z3)
        cfg.m = args.m
        cfg.gamma = args.gamma
        cfg.v = args.v
        cfg.radius = args.radius
        cfg.tol = args.tol
        code, text = cmd_green(cfg)
    else:
        cfg.only = args.only
        cfg.tol = args.tol
        code, text = cmd_verify(cfg)
    _emit(text, cfg)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
