"""Smoke check of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py        # from the repository root, about a minute

Runs every workload of run.py in both modes on two 16x16 images and checks
the result line: exactly the keys correct/attempted/failed/metrics, every
output correct, and metric names and units exactly those that
BENCHMARK.json lists for the mode. BENCHMARK.json must name exactly
run.py's workloads. Then checks that the benchmark refuses
to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY_SIDE = 16
TINY_COUNT = 2


def _result(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1])


def _problems(spec, workload, trace):
    code, result = _result(workload, trace)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {result}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"printed {printed}, BENCHMARK.json lists {expected}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} has no finite value: {metric}")
    return [f"{workload} --trace {trace}: {p}" for p in problems]


def _refuses_without_sources(root):
    bare = root / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli-edge-512",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if set(names) != set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names}, run.py has "
                        f"{sorted(run.WORKLOADS)}")
    for name, (kinds, scene, _, _) in run.WORKLOADS.items():
        run.WORKLOADS[name] = (kinds, scene, TINY_SIDE, TINY_COUNT)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            problems += _problems(spec, name, trace)
    problems += _refuses_without_sources(root)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
