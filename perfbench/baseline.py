"""Measure a baseline: two sets of ten seeded runs per workload, plus one
traced run each.

    python3 perfbench/baseline.py > perfbench/baseline.json      # about 50 minutes

Runs BENCHMARK.json's command with its run_seconds on every workload it
names, one run at a time: seeds 1 to 10, then the same seeds again as a
second set. For every end-to-end metric and set it records the values,
their median and quartiles, and the spread: the distance between the
quartiles as a share of the median. It also records how far the second
set's median moved from the first's, as a share of the first, and lists
under "over_bound" every spread (setup_s excepted) and every shift that
exceeds the metric's bound. The traced run (the first seed) gives the
per-layer numbers. Progress goes to standard error, the summary to
standard output.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = tuple(range(1, 11))
SETS = 2


def _run(spec, workload, seed, trace):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    detail["wall_s"] = time.monotonic() - start
    return detail, json.loads(lines[-1])


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def _worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share of it."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for s in range(SETS):
        for workload in workloads:
            runs[workload].append([])
            for seed in SEEDS:
                detail, result = _run(spec, workload, seed, 0)
                runs[workload][s].append((detail, result))
                print(f"set {s + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"ops={result['attempted']}", file=sys.stderr, flush=True)
    out = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {},
           "over_bound": []}
    for workload in workloads:
        detail, traced = _run(spec, workload, SEEDS[0], 1)
        every = [run for runs_of_set in runs[workload] for run in runs_of_set]
        metrics = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [_summary([result["metrics"][name]["value"] for _, result in set_runs])
                    for set_runs in runs[workload]]
            shift = _worse_by(m, sets[0]["median"], sets[-1]["median"])
            metrics[name] = {"unit": m["unit"], "bound": bound, "sets": sets,
                             "second_median_worse_by": shift}
            late = [f"{workload} {name} set {k + 1} spread {s['spread']:.3f}"
                    for k, s in enumerate(sets)
                    if s["spread"] > bound and name != "setup_s"]
            if shift > bound:
                late.append(f"{workload} {name} second median worse by {shift:.3f}")
            out["over_bound"] += [f"{text} > bound {bound}" for text in late]
        results = [[result for _, result in set_runs] for set_runs in runs[workload]]
        out["workloads"][workload] = {
            "correct": all(r["correct"] for _, r in every) and traced["correct"],
            "attempted": [[r["attempted"] for r in rs] for rs in results],
            "failed": [[r["failed"] for r in rs] for rs in results],
            "end_to_end": metrics,
            "tail_percentile": every[0][0]["tail_percentile"],
            "samples_beyond_tail": [d["samples_beyond_tail"] for d, _ in every],
            "trivial_share": every[0][0]["trivial_share"],
            "env": every[0][0]["env"],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "trace_minus_untraced_ms": detail["trace_minus_untraced_ms"],
            "traced_operations": traced["attempted"],
            "run_wall_s": [d["wall_s"] for d, _ in every] + [detail["wall_s"]],
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
