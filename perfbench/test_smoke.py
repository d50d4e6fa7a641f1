"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

Runs every workload untraced and traced, and checks that the result line
names every metric BENCHMARK.json declares, with its unit, that no instance
failed, and that no span's self time exceeds its total.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

END_TO_END = {"verdict_s", "instance_p50_us", "instance_p98_us", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    *(f"{span}.{m}" for m in ("calls", "self_s") for span in (
        "ccl.find_redexes_c", "ccl.reduce_at_c", "rewrite.reaches", "rewrite.check_sn",
        "lambda_sym.find_redexes", "lambda_sym.reduce_at", "lambda_sym.canonical",
        "lambda_sym.infer", "lambda_sym.substitute", "ccl.infer_c", "types.unify",
        "types.negate", "syntax.parse", "syntax.print")),
    "ccl.find_redexes_c.redexes", "ccl.redex_use", "lambda_sym.find_redexes.redexes",
    "lambda_sym.redex_use", "rewrite.reaches.p99_us", "rewrite.reaches.find_per_call",
    "rewrite.check_sn.classes", "rewrite.check_sn.max_path", "translate.phi.self_s",
    "translate.psi.self_s", "translate.bracket_abstract.self_s", "gen.enumerate.self_s",
    "trace.overhead",
}


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_declares_the_metrics():
    assert set(declared("end_to_end")) == END_TO_END
    assert PER_LAYER <= set(declared("per_layer"))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_at_tiny_size(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.split() == ["failed_share", "0", "share"] for line in lines)
    assert any(line.startswith("fingerprint ") for line in lines)
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        (spans_line,) = [line for line in lines if line.startswith("spans ")]
        for name, (calls, total, self_s) in json.loads(spans_line[len("spans "):]).items():
            assert 0 <= self_s <= total + 1e-9, name
            assert calls or total == 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("reach", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
