"""Command-line surface: coefficient tables, Green-function values, verification.

Three subcommands:

* ``coeff``  -- table of (gamma, m, D0, f, H(2,4m), C(gamma,m,0), deg) rows;
* ``green``  -- evaluate the truncated Green function at a point of the
  genus-2 half-space;
* ``verify`` -- run the identity criteria of ``checks`` on small grids and
  report one PASS/FAIL line per row (exit 1 on any FAIL).

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error (including a ``--tol`` that is NaN, not positive for ``green`` or
negative for ``verify``, and an ``--output`` path that cannot be written,
reported on stderr), 3 domain error (point outside the half-space or
with a non-finite coordinate, v or radius not positive and finite, v or
2 pi v radius below the smallest normal float, a point so far out that the
majorant Gram matrix loses positive definiteness to rounding or finiteness
to overflow, or an enumeration past its point cap or node cap),
4 singular point (on a Heegner divisor).  Exact rationals are printed as
exact strings ("p/q"), floats with 15 significant digits; identical
invocations produce byte-identical output, and the JSON and CSV payloads
carry the same numbers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import checks
from .arith import CaseIndex, split_discriminant
from .eisenstein import coefficient_C, cohen_H
from .geometry import SiegelPoint
from .integrals import heegner_degree
from .lattice import EnumerationCapError, SingularPointError, green_function

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


def _json_float(x: float) -> float | str:
    """x to 15 digits; the string ("inf", "nan") where JSON has no number."""
    y = float(_fmt15(x))
    return y if math.isfinite(y) else _fmt15(x)


def _parse_complex(text: str) -> complex:
    try:
        text = text.strip()
        return complex(text[:-1] + "j" if text.endswith("i") else text)
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
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
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
    rows = []
    for c in indices:
        rows.append({
            "gamma": c.gamma,
            "m": str(c.m),
            "D0": c.D0,
            "f": c.f,
            "H": str(cohen_H(c)),
            "C": _json_float(coefficient_C(c)),
            "deg": _json_float(heegner_degree(c)),
        })
    inputs = {"gamma": cfg.gamma, "m_from": cfg.m_from, "m_to": cfg.m_to}
    columns = ["gamma", "m", "D0", "f", "H", "C", "deg"]
    return EXIT_OK, _render(cfg, inputs, "rows", rows, columns)


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------

def cmd_green(cfg: RunConfig) -> tuple[int, str]:
    if not cfg.tol > 0:
        return EXIT_USAGE, "error: tol must be positive\n"
    try:
        z = SiegelPoint(*cfg.z)
    except ValueError as exc:
        return EXIT_DOMAIN, f"error: {exc}\n"
    try:
        c = split_discriminant(cfg.gamma, cfg.m)
    except ValueError as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    try:
        ev = green_function(c, cfg.v, z, cfg.radius)
    except SingularPointError as exc:
        return EXIT_SINGULAR, f"error: {exc}\n"
    except (ValueError, EnumerationCapError) as exc:
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

def _siegel_samples() -> list[SiegelPoint]:
    # the MT19937 stream of numpy's RandomState(7) (init_genrand seeding),
    # without importing numpy.random
    mt = [7]
    for i in range(1, 624):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xffffffff)
    rng = random.Random()
    rng.setstate((3, (*mt, 624), None))
    points = []
    for _ in range(20):
        y1, y3 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        y2 = rng.uniform(-0.9, 0.9) * math.sqrt(y1 * y3)
        x1, x2, x3 = (rng.uniform(-2.0, 2.0) for _ in range(3))
        points.append(SiegelPoint(complex(x1, y1), complex(x2, y2), complex(x3, y3)))
    return points


# name -> rows; each entry fixes the grid of one checks.* criterion.
_VERIFY_CHECKS = {
    "divisor-sum-exact": lambda: checks.divisor_sum(
        (D0, f) for D0 in (1, 5, -4, 8, -8, 12, -3, 13)
        for f in (1, 2, 3, 4, 6, 12)),
    "cohen-dual-route": lambda: checks.cohen_dual(
        n4 for n4 in range(1, 121) if n4 % 4 in (0, 1)),
    "degree-dual-route": lambda: checks.degree_dual(
        [split_discriminant(0, m) for m in range(1, 13)]
        + [split_discriminant(1, Fraction(n4, 4)) for n4 in range(1, 42, 4)]),
    "orbit-integral-reduction": lambda: checks.orbit_plus((0.5, 2.0)),
    "orbit-integral-negative-convention":  # int a, so the label reads a=1
        lambda: checks.orbit_minus((1,)),
    "green-integral-identity": lambda: checks.green_integral(
        (1, 2, -1), (1.0, 2.0)),
    "majorant-siegel-condition":
        lambda: checks.siegel_condition(_siegel_samples()),
    "volume-spot-values": checks.volume_spot_values,
    "zeta-functional-equation":
        lambda: checks.zeta_functional_equation((5, 8, 13)),
}


def cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    if not cfg.tol >= 0:
        return EXIT_USAGE, "error: tol must be nonnegative\n"
    names = list(_VERIFY_CHECKS)
    if cfg.only is not None:
        if cfg.only not in _VERIFY_CHECKS:
            return EXIT_USAGE, (f"error: unknown check {cfg.only!r}; "
                                f"choose from {', '.join(names)}\n")
        names = [cfg.only]
    rows = []
    for name in names:
        for res in _VERIFY_CHECKS[name]():
            status = "PASS" if res["diff"] <= cfg.tol else "FAIL"
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
    n_fail = sum(r["status"] == "FAIL" for r in rows)
    if cfg.output_format == "text":
        text += f"{len(rows) - n_fail}/{len(rows)} checks passed\n"
    return (EXIT_VERIFY_FAIL if n_fail else EXIT_OK), text


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
    p_green.add_argument("--tol", type=float, default=1e-8,
                         help="must be positive; does not change output yet")

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--only", default=None,
                          help="run a single named check")
    p_verify.add_argument("--tol", type=float, default=1e-6)
    return parser


def main(argv: list[str] | None = None) -> int:
    opts = vars(_build_parser().parse_args(argv))
    if opts["command"] == "green":
        opts["z"] = (opts.pop("z1"), opts.pop("z2"), opts.pop("z3"))
    cfg = RunConfig(**opts)
    if cfg.command == "coeff":
        code, text = cmd_coeff(cfg)
    elif cfg.command == "green":
        code, text = cmd_green(cfg)
    else:
        code, text = cmd_verify(cfg)
    try:
        _emit(text, cfg)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {cfg.output_path}: "
                         f"{exc.strerror or exc}\n")
        return EXIT_USAGE
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
