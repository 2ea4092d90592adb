"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload once untraced and once traced with ``--size tiny``
and checks the printed report: every metric of BENCHMARK.json (and the
printed-only job_p50_s and jobs_per_s) by name with its unit, and no
failed job.  It exercises the harness, not
performance.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def start(workload, trace):
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=BENCH.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("workload",
                         ["boundary-calibration", "rabi-calibration", "scan-repair"])
def test_tiny_run_reports_every_metric(workload):
    procs = {trace: start(workload, trace) for trace in (0, 1)}
    try:
        outputs = {trace: proc.communicate(timeout=300) for trace, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        stdout, stderr = outputs[trace]
        assert procs[trace].returncode == 0, stderr
        lines = stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert "  failed_ratio = 0.0 ratio" in lines
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            value = result["metrics"][name]["value"]
            assert isinstance(value, (int, float)), (name, value)
            assert f"  {name} = {value!r} {unit}" in lines
    # printed but not gated: too noisy on a shared host to carry a bound
    for name, unit in (("job_p50_s", "s"), ("jobs_per_s", "1/s")):
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in outputs[0][0].splitlines()), name
