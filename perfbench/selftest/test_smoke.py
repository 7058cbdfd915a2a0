"""Smoke self-test of the benchmark, on a tiny input set per workload.

    python3 -m pytest perfbench/selftest -q

Each workload runs untraced and traced with ``--tiny``; the result line
must name every metric of BENCHMARK.json with its unit, with no failed op.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, meta["errors"]
    assert result["attempted"] >= 1 and meta["error_rate"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # The wrapped layers must account for the traced time: what is left
        # outside every orblocal span, once the tracer's estimated cost is
        # taken out, is small (a cost estimate far too high would make it
        # far below zero).
        values = {k: v["value"] for k, v in result["metrics"].items()}
        wall = values["harness.traced_wall_s"]
        assert 0 < values["harness.trace_cost_s"] < wall
        assert abs(values["harness.self_s"]) <= 0.1 * wall


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = run_bench(bare, "--workload", "roster", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_oracle_matches_the_sympy_derivation():
    out = subprocess.run([sys.executable, os.path.join(BENCH, "derive_oracle.py"),
                          "--check"], capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr


def test_host_speed_factor_uses_the_bursts_of_its_window():
    sys.path.insert(0, BENCH)
    import hostspeed

    s = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_S
    s.at = [1.0, 2.0, 3.0, 4.0]
    s.cpu = [nominal, nominal / 2, nominal * 2, nominal]
    assert s.factor(1.5, 3.5) == (2 + 0.5) / 2      # the bursts at 2 and 3
    assert s.factor(3.9, 3.95) == 1                 # none inside: the nearest, at 4
    assert s.factor(2.1, 2.2) == 2                  # nearest is at 2
