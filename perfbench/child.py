"""One benchmark run in a fresh interpreter, started by run.py.

    python3 perfbench/child.py run WORKLOAD SEED SECONDS BLOCKS PASS
    python3 perfbench/child.py verify-op CHECK TRACE

`run` executes whole blocks of the workload's seeded stream in a closed loop
with one caller: until SECONDS of operations have passed and the workload's
tail percentile has ten operations beyond it (BLOCKS = 0), or exactly BLOCKS
blocks.  PASS is `e2e` for an end-to-end run, or `plain` and `traced` for
the two passes of a per-layer run; those call the cached lower layers of
each operation first (`prefill`), and `traced` records spans around the
calls into each layer.  Garbage is collected before each block or operation
and the correctness gates run after the loop, all outside the timed region.
The last stdout line is one JSON object with the raw measurements; run.py
reduces them to metrics.

`verify-op` is one verify-battery operation: `cli.main(["verify", "--only",
CHECK])` in this fresh process, its report captured into the JSON line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

from kudla_green import arith, cli, integrals, lattice

import gates
import spans
import workloads

GREEN_SHIFT_EVERY = 10  # green-scan operations per shift-invariance check
COEFF_SERIES_EVERY = 40  # coeff-table rows per L-series check of H
VERIFY_OP_TIMEOUT_S = 120


def _coeff_index(op: dict) -> arith.CaseIndex:
    m = Fraction(op["m_from"]) if op["gamma"] == 0 else Fraction(op["m_from"], 4)
    return arith.split_discriminant(op["gamma"], m)


def _coeff(op: dict):
    code, text = cli.cmd_coeff(cli.RunConfig(
        command="coeff", gamma=op["gamma"], m_from=op["m_from"],
        m_to=op["m_to"]))
    if code != 0:
        raise RuntimeError(text.strip())
    return text


def _green(op: dict):
    c = arith.split_discriminant(op["gamma"], Fraction(op["m"]))
    ev = lattice.green_function(c, op["v"], gates.siegel_point(op["z"]),
                                op["radius"])
    return ev.value, ev.terms_used


def _identity(op: dict):
    c = arith.split_discriminant(op["gamma"], Fraction(op["m"]))
    return integrals.theorem2_check(c, op["v"]).rel_diff


_verify_trace = False  # set by run(): trace the check processes too


def _verify(op: dict):
    proc = subprocess.run(
        [sys.executable, __file__, "verify-op", op["check"],
         str(int(_verify_trace))],
        capture_output=True, text=True, timeout=VERIFY_OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-400:])
    return json.loads(proc.stdout.splitlines()[-1])


def _enumerate_proxy(op: dict) -> None:
    """The lattice.enumerate_bounded proxy of a green-scan operation."""
    lattice.enumerate_bounded(gates.siegel_point(op["z"]),
                              float(Fraction(op["m"])) + op["radius"])


@dataclass(frozen=True)
class Operation:
    """run     -- one operation; its output goes to the gate
    gate       -- (index in the run, op, output) -> the output is correct
    prefill    -- per-layer passes: fill the op's cached lower layers first,
                  in their own spans, so the fill is charged to the layer
                  that pays it
    proxy      -- traced pass: an extra call after the op, outside its time
    """

    run: Callable[[dict], object]
    gate: Callable[[int, dict, object], bool]
    prefill: Callable[[dict], object] | None = None
    proxy: Callable[[dict], None] | None = None


OPERATIONS = {
    "coeff-table": Operation(
        _coeff,
        lambda i, op, out: gates.coeff_row_ok(
            out, series=i % COEFF_SERIES_EVERY == 0),
        # B_{2,chi} is cached per D0
        prefill=lambda op: arith.bernoulli_L_minus1(_coeff_index(op).D0)),
    "green-scan": Operation(
        _green,
        lambda i, op, out: (i % GREEN_SHIFT_EVERY != 0
                            or gates.green_shift_ok(op, *out)),
        proxy=_enumerate_proxy),
    "identity-grid": Operation(
        _identity,
        lambda i, op, out: gates.theorem2_ok(out),
        # cached once per process
        prefill=lambda op: integrals.frozen_normalization()),
    "verify-battery": Operation(
        _verify,
        lambda i, op, out: gates.verify_ok(out["code"], out["text"])),
}


def _peak_rss_kb() -> int:
    """Peak resident set so far, of this process or of any check process."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run(workload: str, seed: int, seconds: float, blocks: int,
        mode: str) -> dict:
    global _verify_trace
    spec = workloads.WORKLOADS[workload]
    oper = OPERATIONS[workload]
    prefill = oper.prefill if mode != "e2e" else None
    tracer = spans.Tracer() if mode == "traced" else None
    _verify_trace = tracer is not None
    records = []  # [op, latency_s, output, error]
    peak_kb = None  # high-water RSS once min_ops are done: a fixed amount of work
    op_s = 0.0  # the operation phase: latencies only, no collection or proxy
    if tracer:
        tracer.install()
    try:
        for count, block in enumerate(workloads.block_stream(workload, seed), 1):
            gc.collect()
            for op in block:
                if spec.collect_each_op:
                    gc.collect()
                t0 = perf_counter()
                try:
                    if prefill:
                        prefill(op)
                    out, err = oper.run(op), None
                except Exception as exc:  # a failed operation; the run goes on
                    out, err = None, f"{type(exc).__name__}: {exc}"
                latency = perf_counter() - t0
                op_s += latency
                records.append([op, latency, out, err])
                if tracer and oper.proxy and err is None:
                    oper.proxy(op)
            if peak_kb is None and len(records) >= spec.min_ops:
                peak_kb = _peak_rss_kb()
            if blocks:
                if count >= blocks:
                    break
            elif op_s >= seconds and len(records) >= spec.min_ops:
                break
        layers = tracer.metrics() if tracer else None
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        for _, _, out, err in records:
            if err is None and isinstance(out, dict) and out.get("layers"):
                # a verify check traced in its own process
                for key, value in out["layers"].items():
                    layers[key] += value

    errors = []
    for index, (op, _, out, err) in enumerate(records):
        if err is None and not oper.gate(index, op, out):
            err = f"gate failed: {json.dumps(op)}"
        if err is not None:
            errors.append(err)
    return {
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors[:5],
        "latencies": [rec[1] for rec in records],
        "op_phase_s": op_s,
        "peak_rss_kb": peak_kb or _peak_rss_kb(),
        "layers": layers,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def verify_op(check: str, trace: bool) -> dict:
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--only", check])
    finally:
        if tracer:
            tracer.uninstall()
    return {"code": code, "text": buf.getvalue(),
            "layers": tracer.metrics() if tracer else None}


def main(argv: list[str]) -> int:
    if (argv[:1] == ["run"] and len(argv) == 6
            and argv[5] in ("e2e", "plain", "traced")):
        workload, seed, seconds, blocks, mode = argv[1:]
        result = run(workload, int(seed), float(seconds), int(blocks), mode)
    elif argv[:1] == ["verify-op"] and len(argv) == 3:
        result = verify_op(argv[1], argv[2] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
