"""Command-line front end.

    it2hspec enhance --input in.pgm --output out.pgm --method km \
        [--window N] [--rho R] [--iters K] [--m M] \
        [--export-dir DIR] [--report FILE]

    it2hspec compare --input a.pgm b.pgm ... --report FILE [--rmshe-depth r]

`enhance` writes the enhanced PGM and, optionally, per-level CSV series and
a JSON report. `compare` runs the baselines plus all four methods on every
input and writes one JSON report with a summary block.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .gaussfit import FitConfig, eval_mixture
from .histogram import GRID
from .imagio import SeriesExport, export_series, load_image, save_image
from .membership import KMMembershipValues
from .pipeline import (
    METHODS,
    PipelineConfig,
    run_compare,
    run_enhance,
)

_DEFAULT_FIT = FitConfig()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="it2hspec",
        description="Grayscale contrast enhancement by automatically derived "
                    "target PDFs (interval type-2 fuzzy histogram specification).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enhance = sub.add_parser("enhance", help="enhance a single PGM image")
    enhance.add_argument("--input", required=True, help="input PGM (P5) file")
    enhance.add_argument("--output", required=True, help="output PGM file")
    enhance.add_argument("--method", required=True, choices=METHODS,
                         help="membership-value method")
    enhance.add_argument("--window", type=int, default=5,
                         help="odd smoothing window (default 5)")
    enhance.add_argument("--rho", type=float, default=_DEFAULT_FIT.rho,
                         help="fraction of each mixture-fit step; the footprint "
                              f"refits take the full step (default {_DEFAULT_FIT.rho})")
    enhance.add_argument("--iters", type=int, default=_DEFAULT_FIT.max_iters,
                         help=f"max fit iterations (default {_DEFAULT_FIT.max_iters})")
    enhance.add_argument("--m", type=float, default=2.0,
                         help="Karnik-Mendel fuzzifier (default 2)")
    enhance.add_argument("--export-dir", default=None,
                         help="directory for per-level CSV series")
    enhance.add_argument("--report", default=None, help="JSON report path")

    compare = sub.add_parser("compare", help="compare methods over a corpus")
    compare.add_argument("--input", required=True, nargs="+",
                         help="input PGM files")
    compare.add_argument("--report", required=True, help="JSON report path")
    compare.add_argument("--rmshe-depth", type=int, default=2,
                         help="recursion depth of the RMSHE baseline (default 2)")
    return parser


def _config_echo(cfg: PipelineConfig) -> dict:
    return {
        "method": cfg.mv_method,
        "window": cfg.window,
        "rho": cfg.fit.rho,
        "iters": cfg.fit.max_iters,
        "m": cfg.fuzzifier,
    }


def _export_intermediates(result, export_dir: Path) -> None:
    export_dir.mkdir(parents=True, exist_ok=True)
    pairs = [
        ("histogram", result.raw_hist.counts.astype(float)),
        ("smoothed", result.smoothed.h),
        ("mixture", eval_mixture(result.mixture, GRID)),
        ("umf", result.fou.umf),
        ("lmf", result.fou.lmf),
    ]
    if isinstance(result.mv, KMMembershipValues):
        pairs.append(("mv_km", result.mv.mv))
    else:
        pairs.append(("mv_upper", result.mv.upper))
        pairs.append(("mv_lower", result.mv.lower))
    pairs.append(("pdf", result.desired_pdf.p))
    for name, values in pairs:
        export_series([SeriesExport(name, values)], export_dir / f"{name}.csv")


def cmd_enhance(args) -> int:
    start = time.perf_counter()
    img = load_image(args.input)
    cfg = PipelineConfig(
        mv_method=args.method,
        window=args.window,
        fit=FitConfig(rho=args.rho, max_iters=args.iters),
        fuzzifier=args.m,
    )
    result = run_enhance(img, cfg)
    save_image(result.enhanced, args.output)
    if args.export_dir:
        _export_intermediates(result, Path(args.export_dir))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.report:
        report = {
            "input": args.input,
            "output": args.output,
            "method": args.method,
            "aic_in": result.aic_in,
            "aic_out": result.aic_out,
            "ms": elapsed_ms,
            "config": _config_echo(cfg),
            "warnings": result.warnings,
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{args.input}: AIC {result.aic_in:.4f} -> {result.aic_out:.4f} "
          f"({args.method})")
    return 0


def cmd_compare(args) -> int:
    cfg = PipelineConfig()
    entries = []
    improvements = []
    failures = 0
    for path in args.input:
        start = time.perf_counter()
        try:
            img = load_image(path)
            report = run_compare(img, cfg, rmshe_depth=args.rmshe_depth)
        except Exception as exc:
            entries.append({"input": path, "error": str(exc)})
            failures += 1
            continue
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        methods = {
            name: {
                "aic": value,
                "output_path": None,
                "ms": report.timings_ms.get(name),
            }
            for name, value in report.methods.items()
        }
        entry = {
            "input": path,
            "input_aic": report.input_aic,
            "methods": methods,
            "errors": report.errors,
            "warnings": report.warnings,
            "ms": elapsed_ms,
            "model_ms": report.timings_ms.get("model"),
        }
        entries.append(entry)
        proposed = [report.methods[m] for m in METHODS if m in report.methods]
        he = report.methods.get("he")
        # zero-entropy baselines (constant images) have no relative scale
        if proposed and he:
            improvements.append((max(proposed) - he) / he)
    summary = {
        "mean_rel_improvement_vs_he":
            float(np.mean(improvements)) if improvements else None,
    }
    Path(args.report).write_text(
        json.dumps({"images": entries, "summary": summary}, indent=2) + "\n"
    )
    if failures == len(args.input):
        print("all inputs failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "enhance":
            return cmd_enhance(args)
        return cmd_compare(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"it2hspec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
