"""The it2hspec benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports it2hspec from ./src
and writes only under ./.perfbench. It generates the workload's images from
the seed, then starts one single-threaded worker process
(perfbench/worker.py) that runs the operations as a closed loop, checks
every output and, between operations, times the start-up of fresh
interpreters.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run. A
per-layer metric of a layer the workload never calls reads 0. The line
before it holds the details behind them: the environment, the tail
percentile and sample count, failures, and the raw samples.

Workloads (see BENCHMARK.json for why each exists):
  compare-2048  run_compare on 2048x2048 images, 1-3 Gaussian modes over a
                uniform floor, full-range or in a low-contrast band
  cli-edge-512  `it2hspec enhance --report --export-dir` on 512x512 PGMs,
                half of them degenerate or edge images
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from corpus import EDGE_KINDS, MODE_KINDS, corpus, edge_scene, is_trivial, mode_scene

HERE = Path(__file__).resolve().parent

# kinds, scene generator, image side, images per pass
WORKLOADS = {
    "compare-2048": (MODE_KINDS, mode_scene, 2048, 6),
    "cli-edge-512": (EDGE_KINDS, edge_scene, 512, 8),
}

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_img_s": "img/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "aic_out_bits": "bit",
    "fit_objective": "1",
}

PER_LAYER = {
    "histogram.count_ms": "ms",
    "histogram.smooth_ms": "ms",
    "gaussfit.init_ms": "ms",
    "gaussfit.fit_ms": "ms",
    "fou.refit_ms": "ms",
    "membership.pointwise_ms": "ms",
    "membership.cow_ms": "ms",
    "membership.area_ms": "ms",
    "membership.km_ms": "ms",
    "pdfgen.ms": "ms",
    "hspec.specify_ms": "ms",
    "hspec.apply_ms": "ms",
    "metrics.aic_ms": "ms",
    "hspec.he_ms": "ms",
    "hspec.rmshe_ms": "ms",
    "imagio.load_ms": "ms",
    "imagio.save_ms": "ms",
    "imagio.export_ms": "ms",
    "pipeline.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
    "gaussfit.components": "count",
    "gaussfit.diverged": "count",
    "fou.diverged": "count",
    "gaussfit.obj_gain": "ratio",
    "membership.zero_overlap": "count",
    "hspec.levels_merged": "count",
    "hspec.apply_bytes": "B",
    "imagio.bytes_read": "B",
    "imagio.bytes_written": "B",
}

RUN_LIMIT_S = 170.0

# A fixed percentile, so parent and child report the same statistic however
# many operations each completes. A run completes only two to three dozen
# operations of 0.25-4 s, so no percentile above the median has 10 samples
# beyond it; p75 keeps a quarter of them, and the detail line says how many.
TAIL_PERCENTILE = 75


def _write_inputs(workload, seed, inputs):
    kinds, scene, size, count = WORKLOADS[workload]
    images = corpus(seed, kinds, size, count, scene)
    for k, (_, width, height, pixels) in enumerate(images):
        np.save(inputs / f"{k}.npy", pixels)
        if workload == "cli-edge-512":
            header = f"P5\n{width} {height}\n255\n".encode("ascii")
            (inputs / f"{k}.pgm").write_bytes(header + pixels.tobytes())
    manifest = {"images": [{"kind": kind, "width": w, "height": h}
                           for kind, w, h, _ in images]}
    (inputs / "manifest.json").write_text(json.dumps(manifest))
    return sum(is_trivial(px) for *_, px in images) / len(images)


def _percentile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    It weights every order statistic by how likely it is to be that
    quantile. A run holds only a few dozen operations whose costs cluster
    by image (0.25 s to 4 s), so a single order statistic jumps between
    clusters from run to run; the weighted estimate moves smoothly.
    """
    x = np.sort(values)
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    if min(a, b) <= 1.0:
        return float(np.quantile(x, q))
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_density = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def _worker(args, inputs, env, deadline):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--inputs", str(inputs), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "it2hspec" / "__init__.py").is_file():
        print(f"perfbench: no it2hspec sources under {src}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), str(HERE),
                                                         os.environ.get("PYTHONPATH")])))
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        trivial_share = _write_inputs(args.workload, args.seed, inputs)
        out = _worker(args, inputs, env, deadline)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    latencies = out["latencies_ms"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": out["env"],
        "operations": out["attempted"],
        "failed_frac": out["failed"] / out["attempted"],
        "problems": out["problems"],
        "trivial_share": trivial_share,
        "measured_s": out["busy_s"],
        "setup_samples_s": out["setup_s"],
    }
    if args.trace:
        layers = out["layers"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        detail["trace_minus_untraced_ms"] = out["trace_minus_untraced_ms"]
        spans = work / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(
            [dict(zip(("op", "name", "parent", "start", "end"), s))
             for s in out["spans"]]))
        detail["spans_file"] = str(spans.relative_to(root))
    elif not latencies or out["aic_out_bits"] is None:
        print(json.dumps({"detail": detail}))
        print("perfbench: no operation passed its checks, so there is nothing "
              "to measure", file=sys.stderr)
        return 1
    else:
        tail = _percentile(latencies, TAIL_PERCENTILE / 100.0)
        values = {
            "latency_ms_p50": _percentile(latencies, 0.5),
            "latency_ms_tail": tail,
            "throughput_img_s": len(latencies) / (sum(latencies) / 1000.0),
            "setup_s": statistics.median(out["setup_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
            "aic_out_bits": out["aic_out_bits"],
            "fit_objective": out["fit_objective"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        detail.update(tail_percentile=TAIL_PERCENTILE, latency_samples=len(latencies),
                      samples_beyond_tail=sum(v > tail for v in latencies),
                      latencies_ms=latencies)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
