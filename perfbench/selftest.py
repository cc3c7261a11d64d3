"""Self-test of the benchmark: runs it in smoke mode and checks its output.

    python3 perfbench/selftest.py

It checks that BENCHMARK.json is well formed, that a smoke run of every
workload (pick-batch too, which BENCHMARK.json leaves out), untraced and
traced, ends with a result line of the documented schema that names
every declared metric with its unit and reports no failed operation, and
that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import workloads
from run import HERE, RESULTS, ROOT, load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def check_result(line: str, declared: list[dict]) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = load_spec()
    check_spec(spec)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            check_result(proc.stdout.strip().splitlines()[-1],
                         spec["per_layer"] if trace else spec["end_to_end"])
            print(f"ok {workload} trace {trace}")

    bare = os.path.join(RESULTS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok refuses to run without the diskops sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
