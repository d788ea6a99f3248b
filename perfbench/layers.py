"""Per-layer tracing of the program from outside, and the output invariants
every operation is checked against.

The traced run rebinds the public functions that it2hspec.pipeline and
it2hspec.cli call, in those two modules' namespaces, to wrappers that
record one span per call, and restores them when the operation ends.
Nothing under src/ changes and the program runs its own code, so a span
nested in another (the pipeline inside the CLI) lets the caller's own time
be measured as its span minus its children's spans, in the same execution.
"""

import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import it2hspec.cli
import it2hspec.pipeline
from it2hspec import DesiredPDF, ZeroOverlapWarning, bound_functions, mixture_objective

# span name of each function the pipeline module calls
PIPELINE_CALLS = {
    "compute_histogram": "histogram.count",
    "to_probability": "histogram.count",
    "smooth_and_normalize": "histogram.smooth",
    "heuristic_init": "gaussfit.init",
    "fit_mixture": "gaussfit.fit",
    "extract_fou": "fou.refit",
    "mv_km": "membership.km",
    "raw_pdf_km": "pdfgen",
    "raw_pdf_it2": "pdfgen",
    "defuzzify_mean": "pdfgen",
    "finalize_pdf": "pdfgen",
    "specify_map": "hspec.specify",
    "apply_map": "hspec.apply",
    "equalize_map": "hspec.he",
    "rmshe": "hspec.rmshe",
    "aic": "metrics.aic",
}
# the pipeline looks the three IT2 membership functions up in this table
PIPELINE_MEMBERSHIP_TABLE = "_IT2_FN"
# span name of each function the cli module calls
CLI_CALLS = {
    "load_image": "imagio.load",
    "save_image": "imagio.save",
    "export_series": "imagio.export",
    "run_enhance": "pipeline",
}
# spans whose own time is reported as <name>.self_ms
SELF_TIMED = ("pipeline", "cli")


class Tracer:
    """Spans (op, name, parent, start, end), per-op counters and the current
    op's calls, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = []
        self.calls = []
        self.op = -1
        self._stack = []

    def begin(self, op):
        self.op = op
        self.counters.append({})
        self.calls = []

    def drop(self):
        """Forget the current operation, whose traced run did not finish."""
        self.spans = [span for span in self.spans if span[0] != self.op]
        self.counters.pop()

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        try:
            start = time.perf_counter()
            if name.startswith("membership."):
                out = self._counting_zero_overlap(fn, *args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            end = time.perf_counter()
        finally:
            self._stack.pop()
        self.spans.append((self.op, name, parent, start, end))
        self.calls.append((name, args, out))
        _observe(self, name, args, out)
        return out

    def _counting_zero_overlap(self, fn, *args, **kwargs):
        # the pipeline records warnings itself, so each one is passed on
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, ZeroOverlapWarning):
                self.count("membership.zero_overlap", 1)
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out

    def count(self, name, value):
        ops = self.counters[-1]
        ops[name] = ops.get(name, 0.0) + value

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """The pipeline and cli modules calling through span wrappers."""
        saved = []
        for module, calls in ((it2hspec.pipeline, PIPELINE_CALLS),
                              (it2hspec.cli, CLI_CALLS)):
            for attr, name in calls.items():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn))
        table = getattr(it2hspec.pipeline, PIPELINE_MEMBERSHIP_TABLE, {})
        saved_table = dict(table)
        table.update({method: self._wrapper(f"membership.{method}", fn)
                      for method, fn in saved_table.items()})
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            table.update(saved_table)

    def wrapper_cost_ms(self, calls=2000):
        """Time one span wrapper adds to a call, measured on a no-op."""
        op, spans, counters = self.op, len(self.spans), self.counters
        self.counters = [{}]
        noop = self._wrapper("calibration", lambda: None)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            (lambda: None)()
        plain = time.perf_counter() - start
        del self.spans[spans:]
        self.op, self.counters, self.calls = op, counters, []
        return max(traced - plain, 0.0) / calls * 1000.0


def _observe(tr, name, args, out):
    """Per-op counters read from a call's arguments and result."""
    if name == "gaussfit.fit":
        init = args[1]
        tr.count("gaussfit.components", out.n_components)
        tr.count("gaussfit.diverged", int(out.diverged))
        if out.final_objective > 0:
            tr.count("gaussfit.obj_gain", init.final_objective / out.final_objective)
    elif name == "fou.refit":
        tr.count("fou.diverged", int(out.umf_fit.diverged) + int(out.lmf_fit.diverged))
    elif name == "hspec.specify":
        occupied = args[0].p > 0
        tr.count("hspec.levels_merged",
                 np.count_nonzero(occupied) - np.unique(out.values[occupied]).size)
    elif name == "hspec.apply":
        img, level_map = args[:2]
        tr.count("hspec.apply_bytes",
                 img.pixels.nbytes + level_map.values.nbytes + out.pixels.nbytes)
    elif name == "imagio.load":
        tr.count("imagio.bytes_read", Path(args[0]).stat().st_size)
    elif name in ("imagio.save", "imagio.export"):
        tr.count("imagio.bytes_written", Path(args[1]).stat().st_size)


def layer_metrics(tracer, wrapper_ms):
    """Per-layer means per traced operation, from spans and counters."""
    n = len(tracer.counters)
    sums, children, span_count = {}, {}, 0
    for _, name, parent, start, end in tracer.spans:
        ms = (end - start) * 1000.0
        key = f"{name}_ms" if "." in name else f"{name}.ms"
        sums[key] = sums.get(key, 0.0) + ms
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + ms
        span_count += 1
    layers = {key: value / n for key, value in sums.items()}
    for name in SELF_TIMED:
        layers[f"{name}.self_ms"] = (sums.get(f"{name}.ms", 0.0)
                                     - children.get(name, 0.0)) / n
    layers["trace.overhead_ms"] = wrapper_ms * span_count / n
    for name in {name for ops in tracer.counters for name in ops}:
        values = [ops[name] for ops in tracer.counters if name in ops]
        total = len(values) if name == "gaussfit.obj_gain" else n
        layers[name] = float(sum(values) / total)
    return layers


def check_calls(problems, calls):
    """The invariants of every traced call of one operation, in any order."""
    for name, args, out in calls:
        if name == "gaussfit.fit":
            init = args[1]
            if not out.final_objective <= init.final_objective:
                problems.append(f"mixture fit ended above its init objective "
                                f"({out.final_objective!r} > {init.final_objective!r})")
        elif name == "fou.refit":
            smoothed, mixture = args[:2]
            check_fou(problems, smoothed, mixture, out)
        elif isinstance(out, DesiredPDF):
            p = out.p
            if p.min() < 0 or abs(float(p.sum()) - 1.0) > 1e-9:
                problems.append("target PDF is negative or does not sum to 1")
        elif name in ("hspec.specify", "hspec.he"):
            if np.any(np.diff(out.values) < 0):
                problems.append(f"{name}: level map is not monotone")
        elif name == "hspec.apply":
            img, level_map = args[:2]
            lut = level_map.values.astype(np.uint8)
            if not np.array_equal(out.pixels, lut[img.pixels]):
                problems.append("output pixels differ from level_map[input]")


def check_fou(problems, smoothed, mixture, fou):
    """Both refits end no worse than their start; lmf <= umf."""
    upper, lower = bound_functions(smoothed, mixture)
    for name, fit, target in (("upper", fou.umf_fit, upper), ("lower", fou.lmf_fit, lower)):
        start = mixture_objective(mixture, target)
        if not fit.final_objective <= start:
            problems.append(f"{name} refit ended above its start objective "
                            f"({fit.final_objective!r} > {start!r})")
    if np.any(fou.lmf > fou.umf):
        problems.append("lmf exceeds umf")
