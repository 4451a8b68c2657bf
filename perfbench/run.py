"""End-to-end and per-layer benchmark of kudla-green.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the program is imported from
./src.  Workloads: coeff-table, green-scan, identity-grid, verify-battery
(see workloads.py and README.md).  Each run is a fresh child process with
cold caches and a one-thread BLAS pool, driven as a closed loop by one
caller.

--trace 0 prints the end-to-end metrics: setup_s (median of eleven
interpreter starts through `import kudla_green`), ops_per_s, op_s.p50,
op_s.tail, peak_rss_mb, plus failed_ratio.  --trace 1 runs a fixed
operation list twice, untraced and traced, each in a fresh child, and
prints the per-layer metrics and trace.overhead_ratio.  Every operation's
output passes a correctness gate; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
RUN_BUDGET_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(argv: list[str], timeout: float) -> str:
    """Run argv in its own process group; return stdout.  On timeout the
    whole group is killed, so no grandchild outlives the run."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {argv[1:]}")
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {argv[1:]}")
    return out


def setup_once(deadline: float) -> float:
    """Seconds from spawning an interpreter to `import kudla_green` done."""
    t0 = time.monotonic()
    out = _spawn([sys.executable, "-c",
                  "import time, kudla_green; print(repr(time.monotonic()))"],
                 deadline - t0)
    return float(out.strip()) - t0


def run_child(workload: str, seed: int, seconds: float, blocks: int,
              mode: str, deadline: float) -> dict:
    out = _spawn([sys.executable, str(HERE / "child.py"), "run", workload,
                  str(seed), repr(seconds), str(blocks), mode],
                 deadline - time.monotonic())
    result = json.loads(out.splitlines()[-1])
    for err in result["errors"]:
        print(f"  failure: {err}", file=sys.stderr)
    return result


def stamp(seed: int, child: dict) -> dict:
    """Python and numpy versions, CPU count, seed and source version."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": child["python"], "numpy": child["numpy"],
            "cpus": os.cpu_count(), "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, dict, list[str]]:
    setups = [setup_once(deadline) for _ in range(SETUP_SAMPLES)]
    blocks = workloads.run_blocks(workload, seconds)
    res = run_child(workload, seed, seconds, blocks, "e2e", deadline)
    lat = res["latencies"]
    done = res["attempted"] - res["failed"]
    pct = workloads.WORKLOADS[workload].tail_percentile
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (done / res["op_phase_s"], "1/s"),
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail": (statistics.quantiles(
            lat, n=100, method="inclusive")[pct - 1], "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    n = len(lat)
    notes = [
        f"setup_s: median of {SETUP_SAMPLES} interpreter starts",
        f"ops_per_s: {done} of {n} ops in {res['op_phase_s']:.2f} s",
        f"op_s.tail: p{pct} of {n} ops, {n - math.ceil(n * pct / 100)} beyond",
        f"failed_ratio = {res['failed'] / n!r} ({res['failed']}/{n})",
    ]
    return res, metrics, notes


def per_layer(workload: str, seed: int, seconds: float,
              deadline: float) -> tuple[dict, dict, list[str]]:
    blocks = workloads.trace_blocks(workload, seconds)
    plain = run_child(workload, seed, seconds, blocks, "plain", deadline)
    res = run_child(workload, seed, seconds, blocks, "traced", deadline)
    metrics = {name: (res["layers"][name], spans.UNITS[kind])
               for name, (kind, *_) in spans.METRICS.items()}
    metrics["trace.overhead_ratio"] = (
        sum(res["latencies"]) / sum(plain["latencies"]), "ratio")
    res = dict(res, attempted=res["attempted"] + plain["attempted"],
               failed=res["failed"] + plain["failed"])
    notes = [f"{blocks} blocks, {len(plain['latencies'])} ops, run untraced "
             "then traced, each in a fresh process"]
    return res, metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> None:
    deadline = time.monotonic() + RUN_BUDGET_S
    fn = per_layer if trace else end_to_end
    res, metrics, notes = fn(workload, seed, seconds, deadline)
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  "
          f"trace={int(trace)} ==")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  stamp {json.dumps(stamp(seed, res))}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kudla_green" / "__init__.py").is_file():
        print(f"error: no kudla_green sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            measure(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
