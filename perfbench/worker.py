"""Closed-loop worker: one caller, each image starts after the previous one.

run.py starts this in a fresh single-threaded process with the workload's
images already on disk, so the worker's peak memory is the program's and
not the generator's. It prints one JSON object on its last line.

    python3 perfbench/worker.py --workload W --inputs DIR --seconds S --trace 0|1

Operations run in passes over the corpus, each image once per pass. An
untraced run stops only at the end of a pass, the one closest to S seconds
of operations, so every image weighs the same in the latency figures, and
never before the first pass ends: quality figures come from that pass, so
they do not depend on how fast the program is. A traced run stops once S
seconds of operations are measured.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import it2hspec
from it2hspec import (
    METHODS,
    FitConfig,
    GrayImage,
    PipelineConfig,
    compute_histogram,
    heuristic_init,
    run_compare,
    smooth_and_normalize,
)
from it2hspec.cli import main as cli_main

from corpus import corpus, mode_scene
from layers import Tracer, check_calls, layer_metrics

# CSV series carry 12 significant digits, so an objective recomputed from
# them can exceed the in-memory one by rounding alone.
_CSV_OBJECTIVE_TOL = 1e-9

# Set-up time: a fresh interpreter imports it2hspec and enhances a tiny
# image. An untraced run times one such start-up after every SETUP_EVERY-th
# operation, outside the operations' own timing, so the samples spread
# across the run.
SETUP_EVERY = 4
SETUP_LIMIT_S = 60.0
SETUP_CODE = """\
import sys
import numpy as np
from it2hspec import GrayImage, PipelineConfig, run_enhance
pixels = np.array([int(v) for v in sys.argv[1].split(",")], dtype=np.uint8)
run_enhance(GrayImage(16, 16, pixels), PipelineConfig())
"""


def _setup_argv():
    _, _, _, pixels = corpus(0, ("band-1",), 16, 1, mode_scene)[0]
    return [sys.executable, "-c", SETUP_CODE, ",".join(map(str, pixels))]


def _setup_seconds(argv):
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in 50 ms steps, which would quantize the
    # sample; a timer bounds the blocking wait instead
    watchdog = threading.Timer(SETUP_LIMIT_S, proc.kill)
    watchdog.start()
    code = proc.wait()
    elapsed = time.perf_counter() - start
    watchdog.cancel()
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited with code {code}")
    return elapsed


class CompareWorkload:
    """run_compare on in-memory images: one shared fit, HE, RMSHE, four methods."""

    def __init__(self, images):
        self.images = [GrayImage(w, h, px) for w, h, px in images]
        self.cfg = PipelineConfig()

    def run(self, i, op_dir):
        return run_compare(self.images[i], self.cfg)

    def traced(self, tr, i, op_dir):
        return tr.call("pipeline", run_compare, self.images[i], self.cfg)

    def verify(self, i, r, traced, problems, op_dir, first_pass):
        if r.errors:
            problems.append(f"run_compare reported errors {r.errors}")
        if set(r.methods) != {"he", "rmshe", *METHODS}:
            problems.append(f"run_compare returned methods {sorted(r.methods)}")
        for name, value in r.methods.items():
            if not value <= r.input_aic:
                problems.append(f"{name}: aic {value!r} exceeds input {r.input_aic!r}")
        fingerprint = (r.input_aic, sorted(r.methods.items()))
        quality = None
        if traced is None and first_pass:
            # run_compare returns only entropies: a traced re-run, outside the
            # timing, exposes every stage's output to the checks
            checker = Tracer()
            checker.begin(0)
            with checker.patched():
                traced = self.traced(checker, i, op_dir)
            check_calls(problems, checker.calls)
            objectives = [out.final_objective for name, _, out in checker.calls
                          if name == "gaussfit.fit"]
            quality = [r.methods[m] for m in METHODS], objectives[0]
        if traced is not None and (
                traced.input_aic, sorted(traced.methods.items()), traced.errors,
                traced.warnings) != (*fingerprint, r.errors, r.warnings):
            problems.append("traced run_compare differs from the untraced one")
        return fingerprint, quality


def _read_pgm(path):
    data = Path(path).read_bytes()
    magic, width, height, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    # the pixels are the file's last width * height bytes; some may be
    # whitespace values, so they cannot be split off the header
    return np.frombuffer(data[len(data) - int(width) * int(height):], dtype=np.uint8)


def _read_series(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]


class CliWorkload:
    """`it2hspec enhance --report --export-dir` in-process on PGM files."""

    def __init__(self, images, pgm_paths):
        self.pixels = [px for _, _, px in images]
        self.sizes = [(w, h) for w, h, _ in images]
        self.paths = pgm_paths
        self.methods = [METHODS[i % len(METHODS)] for i in range(len(images))]

    def _argv(self, i, out_dir):
        out_dir.mkdir(parents=True)
        return ["enhance", "--input", str(self.paths[i]),
                "--output", str(out_dir / "out.pgm"), "--method", self.methods[i],
                "--report", str(out_dir / "report.json"),
                "--export-dir", str(out_dir / "series")]

    def run(self, i, op_dir):
        return cli_main(self._argv(i, op_dir))

    def traced(self, tr, i, op_dir):
        return tr.call("cli", cli_main, self._argv(i, op_dir / "traced"))

    def verify(self, i, rc, traced, problems, op_dir, first_pass):
        if rc != 0:
            problems.append(f"cli exit code {rc}")
            return None, None
        pixels = self.pixels[i]
        out = _read_pgm(op_dir / "out.pgm")
        # the level map, read back from which output each input level became
        pairs = np.unique(pixels.astype(np.int64) * 256 + out) if out.size == pixels.size \
            else np.zeros(2, dtype=np.int64)
        levels, lut = pairs // 256, pairs % 256
        if np.any(np.diff(levels) == 0):
            problems.append("output is not a per-level map of the input")
        elif np.any(np.diff(lut) < 0):
            problems.append("level map is not monotone")
        series = op_dir / "series"
        pdf = _read_series(series / "pdf.csv")
        if pdf.min() < 0 or abs(pdf.sum() - 1.0) > 1e-9:
            problems.append("target PDF is negative or does not sum to 1")
        if np.any(_read_series(series / "lmf.csv") > _read_series(series / "umf.csv")):
            problems.append("lmf exceeds umf")
        report = _report(op_dir)
        if not report["aic_out"] <= report["aic_in"]:
            problems.append(f"aic_out {report['aic_out']!r} exceeds aic_in "
                            f"{report['aic_in']!r}")
        objective = self._csv_objective(series)
        w, h = self.sizes[i]
        smoothed = smooth_and_normalize(compute_histogram(GrayImage(w, h, pixels)), 5)
        start = heuristic_init(smoothed, FitConfig()).final_objective
        if not objective <= start + _CSV_OBJECTIVE_TOL * max(1.0, start):
            problems.append(f"mixture fit ended above its init objective "
                            f"({objective!r} > {start!r})")
        if traced is not None:
            other = op_dir / "traced"
            same = [traced == rc, _report(other) == report,
                    (op_dir / "out.pgm").read_bytes() == (other / "out.pgm").read_bytes()]
            same += [f.read_bytes() == (other / "series" / f.name).read_bytes()
                     for f in series.iterdir()]
            if not all(same):
                problems.append("traced cli run differs from the untraced one")
        digest = hashlib.sha256((op_dir / "out.pgm").read_bytes())
        digest.update((series / "pdf.csv").read_bytes())
        return digest.hexdigest(), ([report["aic_out"]], objective)

    @staticmethod
    def _csv_objective(series):
        r = _read_series(series / "mixture.csv") - _read_series(series / "smoothed.csv")
        return 0.5 * float(r @ r)


def _report(out_dir):
    """The cli's JSON report without the fields that differ between runs."""
    report = json.loads((out_dir / "report.json").read_text())
    return {k: v for k, v in report.items() if k not in ("output", "ms")}


def _load_inputs(inputs):
    manifest = json.loads((inputs / "manifest.json").read_text())
    return [(m["width"], m["height"], np.load(inputs / f"{k}.npy"))
            for k, m in enumerate(manifest["images"])]


def _done(attempted, count, busy, seconds, trace):
    if trace:
        return busy >= seconds
    if attempted % count:
        return False
    per_pass = busy / (attempted // count)
    return busy + per_pass / 2 >= seconds


def measure(workload, count, seconds, trace, scratch):
    tracer = Tracer() if trace else None
    setup_argv = _setup_argv()
    latencies, trace_gaps_ms, setup_s, problems_seen = [], [], [], []
    first, aic_values, objectives = {}, [], []
    attempted = failed = 0
    busy = 0.0
    while not attempted or not _done(attempted, count, busy, seconds, trace):
        i = attempted % count
        op_dir = scratch / f"op{attempted}"
        problems = []
        start = time.perf_counter()
        try:
            result = workload.run(i, op_dir)
        except Exception as exc:  # an operation that raises is a failed operation
            result = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        busy += elapsed
        if result is not None:
            try:
                traced = None
                if trace:
                    tracer.begin(attempted)
                    try:
                        with tracer.patched():
                            t0 = time.perf_counter()
                            traced = workload.traced(tracer, i, op_dir)
                            traced_s = time.perf_counter() - t0
                    except Exception:
                        tracer.drop()
                        raise
                    busy += traced_s
                    trace_gaps_ms.append((traced_s - elapsed) * 1000.0)
                    check_calls(problems, tracer.calls)
                fingerprint, quality = workload.verify(i, result, traced, problems, op_dir,
                                                       attempted < count)
                if attempted < count:
                    first[i] = fingerprint
                    if quality is not None and not problems:
                        aic_values.extend(quality[0])
                        objectives.append(quality[1])
                elif fingerprint != first.get(i):
                    problems.append("output differs from the same image's first run")
            except Exception as exc:  # a check that cannot run fails the operation
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        shutil.rmtree(op_dir, ignore_errors=True)
        if not trace and attempted % SETUP_EVERY == 0:
            setup_s.append(_setup_seconds(setup_argv))
        attempted += 1
        if problems:
            failed += 1
            problems_seen.append(f"image {i}: {'; '.join(problems)}")
        else:
            latencies.append(elapsed * 1000.0)
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen[:5],
        "latencies_ms": latencies,
        "setup_s": setup_s,
        "busy_s": busy,
        "aic_out_bits": float(np.mean(aic_values)) if aic_values else None,
        "fit_objective": float(np.mean(objectives)) if objectives else None,
    }
    if trace:
        out["layers"] = layer_metrics(tracer, tracer.wrapper_cost_ms())
        out["trace_minus_untraced_ms"] = float(np.median(trace_gaps_ms)) \
            if trace_gaps_ms else None
        out["spans"] = tracer.spans
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compare-2048", "cli-edge-512"))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    images = _load_inputs(args.inputs)
    if args.workload == "compare-2048":
        workload = CompareWorkload(images)
    else:
        workload = CliWorkload(images, [args.inputs / f"{k}.pgm"
                                        for k in range(len(images))])
    scratch = args.inputs / "ops"
    scratch.mkdir()
    out = measure(workload, len(images), args.seconds, args.trace, scratch)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "it2hspec": os.path.relpath(Path(it2hspec.__file__).parent),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
