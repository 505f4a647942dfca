"""Smoke test of the benchmark itself, in its tiny-length mode.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py

--seconds 0 measures a single round of each workload (one pass for
partition), untraced and traced; the whole module takes a minute or two.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_and_passes_the_gate(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        # the readable report names the metric with its unit as well
        assert re.search(r"^\s+%s\s+\S+\s+%s(\s|$)"
                         % (re.escape(m["name"]), re.escape(m["unit"])),
                         done.stdout, re.M), m["name"]


def test_fail_ratio_is_the_desk_scale_share():
    done = bench("--workload", "classify-stream", "--seed", "3",
                 "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    fail = re.search(r"^\s+fail_ratio\s+(\S+)", done.stdout, re.M)
    desk = re.search(r"desk_scale_share (\S+)", done.stdout)
    assert float(fail.group(1)) == float(desk.group(1))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "partition", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
