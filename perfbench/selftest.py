"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kudla_green import (green_function, split_discriminant,  # noqa: E402
                         theorem2_check)
from kudla_green.cli import RunConfig, cmd_coeff, main as cli_main  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_blocks(workload: str, seed: int, n: int) -> list:
    return list(itertools.islice(workloads.block_stream(workload, seed), n))


def indices(workload: str, seed: int, n: int):
    for block in first_blocks(workload, seed, n):
        for op in block:
            if workload == "coeff-table":
                m = op["m_from"]
                yield op["gamma"], Fraction(m) if op["gamma"] == 0 else Fraction(m, 4)
            else:
                yield op["gamma"], Fraction(op["m"])


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


# --- the seeded generator -------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_operations(workload):
    assert first_blocks(workload, 5, 30) == first_blocks(workload, 5, 30)
    assert first_blocks(workload, 5, 30) != first_blocks(workload, 6, 30)


@pytest.mark.parametrize("workload", ["coeff-table", "green-scan",
                                      "identity-grid"])
def test_every_index_splits(workload):
    for seed in range(5):
        for gamma, m in indices(workload, seed, 60):
            c = split_discriminant(gamma, m)
            assert c.D0 * c.f ** 2 == 4 * m


def test_identity_block_mix():
    for block in first_blocks("identity-grid", 3, 20):
        signs = [Fraction(op["m"]) > 0 for op in block]
        assert signs.count(True) == 6 and signs.count(False) == 4
        for op in block:
            assert 0.25 <= 4 * math.pi * abs(Fraction(op["m"])) * op["v"] <= 8


def test_verify_block_is_the_battery():
    for block in first_blocks("verify-battery", 1, 3):
        assert sorted(op["check"] for op in block) == sorted(workloads.VERIFY_CHECKS)


# --- the correctness gates reject perturbed outputs -------------------------

def test_coeff_gate():
    _, text = cmd_coeff(RunConfig(command="coeff", gamma=1, m_from=21, m_to=21))
    assert gates.coeff_row_ok(text)
    header, row = text.splitlines()
    fields = row.split("\t")
    fields[6] = repr(float(fields[6]) * (1 + 1e-6))
    assert not gates.coeff_row_ok(header + "\n" + "\t".join(fields) + "\n")
    fields = row.split("\t")
    fields[3] = str(int(fields[3]) + 1)
    assert not gates.coeff_row_ok(header + "\n" + "\t".join(fields) + "\n")


def test_coeff_gate_checks_the_bernoulli_sum(monkeypatch):
    """deg and the class-number route share B_{2,chi}; a wrong sum passes
    that comparison, and only the L-series check of H catches it."""
    from kudla_green import arith
    cfg = RunConfig(command="coeff", gamma=0, m_from=31, m_to=31)
    _, text = cmd_coeff(cfg)
    assert gates.coeff_row_ok(text, series=True)
    exact = arith.bernoulli_B2_chi
    monkeypatch.setattr(arith, "bernoulli_B2_chi",
                        lambda D0: exact(D0) * (1 + Fraction(1, 10 ** 6)))
    _, text = cmd_coeff(cfg)
    assert gates.coeff_row_ok(text)
    assert not gates.coeff_row_ok(text, series=True)


def test_coeff_runs_a_fixed_window():
    blocks = workloads.run_blocks("coeff-table", 20)
    assert blocks == workloads.COEFF_WINDOW
    ms = [block[0]["m_from"] for block in first_blocks("coeff-table", 4, blocks)]
    assert sorted(ms) == list(range(min(ms), min(ms) + blocks))
    assert ms != sorted(ms)
    assert 2 * workloads.run_blocks("coeff-table", 1) >= \
        workloads.WORKLOADS["coeff-table"].min_ops
    assert workloads.run_blocks("green-scan", 20) == 0


def test_busy_time_within_an_enclosing_span():
    tracer = spans.Tracer()
    inner = tracer._wrap("geometry.majorant_gram", "geometry", lambda: None)
    outer = tracer._wrap("lattice.green_function", "lattice", inner)
    outer()
    inner()  # outside green_function, as in the enumerate_bounded proxy
    calls = [i for i, span in enumerate(tracer.spans)
             if span[0] == "geometry.majorant_gram"]
    assert [tracer._nested_in(i, ["lattice.green_function"])
            for i in calls] == [True, False]
    busy = tracer.metrics()["geometry.majorant_gram.busy_s"]
    first = tracer.spans[calls[0]]
    assert busy == first[3] - first[2]


def test_green_gate():
    op = max(first_blocks("green-scan", 0, 1)[0], key=lambda o: o["v"])
    ev = green_function(split_discriminant(op["gamma"], Fraction(op["m"])),
                        op["v"], gates.siegel_point(op["z"]), op["radius"])
    assert gates.green_shift_ok(op, ev.value, ev.terms_used)
    assert not gates.green_shift_ok(op, ev.value * (1 + 1e-9), ev.terms_used)
    assert not gates.green_shift_ok(op, ev.value, ev.terms_used + 1)


def test_identity_gate():
    rep = theorem2_check(split_discriminant(1, Fraction(-7, 4)), 0.1)
    assert gates.theorem2_ok(rep.rel_diff)
    assert not gates.theorem2_ok(2e-6)


def test_verify_gate():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["verify", "--only", "orbit-integral-reduction"])
    text = buf.getvalue()
    assert gates.verify_ok(code, text)
    assert not gates.verify_ok(code, text.replace("PASS", "FAIL", 1))
    assert not gates.verify_ok(1, text)


# --- the command and its contract -------------------------------------------

def test_benchmark_json_matches_the_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expected = {name: spans.UNITS[kind] for name, (kind, *_) in spans.METRICS.items()}
    expected["trace.overhead_ratio"] = "ratio"
    assert layer == expected


def test_end_to_end_run():
    result = result_line(run_bench("--workload", "identity-grid", "--seed", "2",
                                   "--seconds", "1", "--trace", "0"))
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= workloads.WORKLOADS["identity-grid"].min_ops


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", "1")
    first, second = (result_line(run_bench(*args)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "coeff-table", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
