"""Per-layer tracing of risfeed from outside the program.

``Tracer`` wraps every public function of the package modules in every
risfeed namespace that binds it (the modules import each other by name,
so ``risfeed.sweep.build_T`` is the binding ``run_grid`` looks up). Each
call records a span: name, start, end, parent span and op id. Spans stay
in memory; ``layer_metrics`` derives busy and self times from them.

A span is named ``<layer>.<function>``. The layer is the defining module,
except that the ``write_*`` file writers belong to ``cli``.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("geometry", "coupling", "modes", "patterns", "sweep", "cli")

# Function groups behind the busy-time metrics.
BUSY = {
    "geometry.busy_ms": ("geometry.make_center_feed", "geometry.make_end_feed"),
    "coupling.busy_ms": ("coupling.build_T",),
    "modes.busy_ms": ("modes.svd_modes", "modes.mode_metrics"),
    "modes.metrics_busy_ms": ("modes.mode_metrics",),
    "patterns.busy_ms": ("patterns.ris_pattern", "patterns.amaf_pattern"),
    "patterns.sidelobe_busy_ms": ("patterns.sidelobe_level",),
    "patterns.excitation_busy_ms": ("patterns.ris_excitation",),
    "cli.write_busy_ms": ("cli.write_mode_report", "cli.write_pattern_csv",
                          "cli.write_profile_csv", "cli.write_table_csv",
                          "cli.write_trace_csv"),
}

# Spans behind the self-time metrics: each span's time minus its children's.
SELF = {
    "sweep.self_ms": ("sweep.run_grid", "sweep.optimize_f"),
    "cli.self_ms": ("cli.main", "cli.run"),
}

# Layers each workload is meant to exercise; the traced run must record
# at least one call in each (see selftest.py).
EXERCISED = {
    "sweep_f": ("geometry", "coupling", "modes", "patterns", "sweep", "cli"),
    "mode_table": ("geometry", "coupling", "modes", "sweep", "cli"),
    "report_files": ("geometry", "coupling", "modes", "patterns", "sweep",
                     "cli"),
}

# name, unit, better, the end-to-end metrics it should move (metric@workload)
PER_LAYER = (
    ("geometry.calls", "count", "lower", "op_ms_p50@mode_table"),
    ("geometry.busy_ms", "ms", "lower", "op_ms_p50@mode_table"),
    ("coupling.calls", "count", "lower", "op_ms_p50@mode_table"),
    ("coupling.busy_ms", "ms", "lower", "op_ms_p50@mode_table"),
    ("coupling.entries", "count", "lower", "op_ms_p50@mode_table"),
    ("modes.calls", "count", "lower",
     "op_ms_tail@mode_table points_per_s@mode_table; flat on sweep_f"),
    ("modes.busy_ms", "ms", "lower",
     "op_ms_tail@mode_table points_per_s@mode_table; flat on sweep_f"),
    ("modes.metrics_busy_ms", "ms", "lower",
     "op_ms_tail@mode_table points_per_s@mode_table"),
    ("modes.sigma_min_rel_err", "ratio", "lower", "accuracy; gates nothing"),
    ("modes.recon_resid", "ratio", "lower", "accuracy; gates nothing"),
    ("modes.orth_resid", "ratio", "lower", "accuracy; gates nothing"),
    ("modes.inf_cond_points", "count", "lower",
     "known defect inf_cond; gates nothing"),
    ("patterns.calls", "count", "lower",
     "op_ms_p50@sweep_f points_per_s@sweep_f; zero on mode_table"),
    ("patterns.busy_ms", "ms", "lower",
     "op_ms_p50@sweep_f points_per_s@sweep_f; smaller share on report_files"),
    ("patterns.terms", "count", "lower", "op_ms_p50@sweep_f"),
    ("patterns.terms_per_s", "1/s", "higher",
     "op_ms_p50@sweep_f points_per_s@sweep_f"),
    ("patterns.sidelobe_busy_ms", "ms", "lower", "op_ms_p50@sweep_f"),
    ("patterns.excitation_busy_ms", "ms", "lower",
     "op_ms_p50@report_files"),
    ("sweep.self_ms", "ms", "lower", "op_ms_p50@sweep_f op_ms_p50@mode_table"),
    ("sweep.points", "count", "lower", "points_per_s on every workload"),
    ("cli.self_ms", "ms", "lower", "op_ms_p50@report_files; flat on sweep_f"),
    ("cli.write_busy_ms", "ms", "lower",
     "op_ms_p50@report_files; flat on sweep_f"),
    ("cli.bytes_written", "bytes", "lower", "op_ms_p50@report_files"),
    ("cli.nonfinite_cells", "count", "lower",
     "output validity (ROADMAP item 4); gates nothing"),
    ("trace.overhead_frac", "ratio", "lower", "tracing cost; gates nothing"),
)


def layer_of(fn):
    if fn.__name__.startswith("write_"):
        return "cli"
    return fn.__module__.rsplit(".", 1)[-1]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = None

    def as_dict(self):
        return {"name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "op": self.op}


class Tracer:
    """Install with ``with tracer:``; set ``tracer.op`` before each op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.counts = defaultdict(float)
        self.svd_calls = []      # (T entries, ModeAnalysis), checked later
        self.worst = {}
        self._stack = []
        self._patched = []

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        mods = {name: m for name, m in sys.modules.items()
                if name == "risfeed" or name.startswith("risfeed.")}
        public = {}
        for layer in LAYERS:
            mod = mods[f"risfeed.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    public[id(obj)] = obj
        wrappers = {}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if public.get(id(obj)) is obj:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj)
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []
        return False

    def _wrap(self, fn):
        name = f"{layer_of(fn)}.{fn.__name__}"
        post = _POST.get(fn.__name__)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if post:
                post(self, args, result)
            return result
        return wrapper

    def check_accuracy(self):
        """Fold the ModeAnalysis results recorded since the last call into
        the worst-case accuracy against LAPACK: smallest-sigma relative
        error (full-rank T only), reconstruction and orthonormality
        residuals. Call between ops, outside their timing."""
        for M, modes in self.svd_calls:
            s = np.linalg.svd(M, compute_uv=False)
            sigma = modes.sigma
            if M.shape[0] >= M.shape[1] and s[-1] > 0:
                self._worst("modes.sigma_min_rel_err",
                            abs(sigma[-1] - s[-1]) / s[-1])
            L, R = modes.left_vectors, modes.right_vectors
            self._worst("modes.recon_resid",
                        np.linalg.norm(M - (L * sigma) @ R.conj().T)
                        / np.linalg.norm(M))
            Lk = L[:, sigma > 0]
            self._worst("modes.orth_resid", max(
                np.abs(R.conj().T @ R - np.eye(R.shape[1])).max(),
                np.abs(Lk.conj().T @ Lk - np.eye(Lk.shape[1])).max()))
        self.svd_calls = []

    def _worst(self, key, value):
        self.worst[key] = max(self.worst.get(key, 0.0), float(value))


def _post_build_T(tracer, args, T):
    tracer.counts["coupling.entries"] += T.entries.size


def _post_svd(tracer, args, modes):
    tracer.svd_calls.append((args[0].entries, modes))


def _post_amaf(tracer, args, curve):
    tracer.counts["patterns.terms"] += curve.angles_deg.size * len(
        args[0].weights)


def _post_ris(tracer, args, curve):
    tracer.counts["patterns.terms"] += curve.angles_deg.size * args[0].n_p


def _post_write(tracer, args, result):
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[-1])


_POST = {"build_T": _post_build_T, "svd_modes": _post_svd,
         "amaf_pattern": _post_amaf, "ris_pattern": _post_ris,
         "write_mode_report": _post_write, "write_pattern_csv": _post_write,
         "write_profile_csv": _post_write, "write_table_csv": _post_write,
         "write_trace_csv": _post_write}


def self_times(spans):
    """Per-span duration minus the durations of its direct children (ns)."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, counts, n_ops):
    """Per-op means of the span-derived metrics, plus the work counts."""
    out = {}
    dur = defaultdict(int)
    calls = defaultdict(int)
    for s in spans:
        dur[s.name] += s.end - s.start
        calls[s.name] += 1
    for metric, names in BUSY.items():
        out[metric] = sum(dur[n] for n in names) / 1e6 / n_ops
    for layer in ("geometry", "coupling", "modes", "patterns"):
        out[f"{layer}.calls"] = sum(
            calls[n] for n in BUSY[f"{layer}.busy_ms"]) / n_ops
    selfs = self_times(spans)
    for metric, names in SELF.items():
        out[metric] = sum(t for s, t in zip(spans, selfs)
                          if s.name in names) / 1e6 / n_ops
    out["sweep.points"] = calls["sweep.analyze_point"] / n_ops
    for key in ("coupling.entries", "patterns.terms", "cli.bytes_written"):
        out[key] = counts[key] / n_ops
    busy_s = out["patterns.busy_ms"] * n_ops / 1e3
    out["patterns.terms_per_s"] = (counts["patterns.terms"] / busy_s
                                   if busy_s else 0.0)
    return out
