"""Self-test of the benchmark: each workload at minimal size.

    python -m pytest perfbench/test_perfbench.py

Checks the result format against BENCHMARK.json, that the known-answer
checks pass on this commit (no failed job) and that they reject a wrong
answer, and that the benchmark refuses to run without the package source.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace),
                           "--smoke"], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_minimal_size(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        assert values["trace.overhead_ratio"] > 0
        if workload == "verify-level5":
            # the smoke size is CV4: 6 measurements, 64 live branches
            assert values["recursive.measurements"] == 6
            assert values["simulator.verify.branches_live"] == 64
            assert values["simulator.verify.branches_dead"] == 0
    else:
        assert values["ok_ratio"] == 1.0
        assert all(v > 0 for v in values.values())


def test_known_answers_reject_a_wrong_result():
    import numpy as np
    import answers
    import workloads
    from spans import NullTracer

    tracer = NullTracer()
    workloads.hierarchy_job(tracer, "T", np.diag([1, np.exp(1j * np.pi / 4)]), 3)
    with pytest.raises(answers.Miss):
        workloads.hierarchy_job(tracer, "T", np.diag([1, np.exp(1j * np.pi / 4)]), 2)
    with pytest.raises(answers.Miss):
        answers.expect_branches({"0": 0.5, "1": 0.5}, 2, "two measurements")
    with pytest.raises(answers.Miss):
        answers.expect_fidelity(1 - 1e-6, answers.SYNTH_TOL, "near miss")


def test_refuses_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("synth-stream", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
