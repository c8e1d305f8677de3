"""Spans at the pipeline's module boundaries, recorded from outside.

``Tracer.install()`` replaces each public function in ``BOUNDARIES`` with a
wrapper that records a span (name, start, end, parent, attributes) in
memory, and ``Tracer.remove()`` puts the originals back. A function is
wrapped under the name its caller looks it up by: ``pipeline`` imports
``extract_context`` into its own namespace, so the wrapper goes there.

The guard is strict so that a refactor cannot silently drop a layer from
the trace: a boundary name that no longer exists raises ``TraceError`` at
install time, and ``check_coverage`` raises when a layer the workload must
exercise recorded no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter
import threading
import time
from pathlib import Path


class TraceError(Exception):
    """A traced boundary is missing, or a required layer recorded no span."""


# (layer, module, attribute); a dotted attribute names a method of a class.
BOUNDARIES = (
    ("pipeline", "sarif_triage.pipeline", "stage_ingest"),
    ("pipeline", "sarif_triage.pipeline", "stage_context"),
    ("pipeline", "sarif_triage.pipeline", "stage_prompts"),
    ("pipeline", "sarif_triage.pipeline", "stage_adjudicate"),
    ("pipeline", "sarif_triage.pipeline", "stage_evaluate"),
    ("ingest", "sarif_triage.pipeline", "parse_sarif"),
    ("ingest", "sarif_triage.pipeline", "canonicalize"),
    ("context", "sarif_triage.pipeline", "extract_context"),
    ("context", "sarif_triage.pipeline", "extract_baseline_context"),
    ("methods", "sarif_triage.context", "locate_methods"),
    ("prompts", "sarif_triage.pipeline", "compile_prompt"),
    ("adjudicate", "sarif_triage.adjudicate", "adjudicate_all"),
    ("adjudicate", "sarif_triage.adjudicate", "validate_response"),
    ("backend", "sarif_triage.adjudicate", "send"),
    ("backend", "sarif_triage.backend", "HttpBackend.complete"),
    ("backend", "sarif_triage.backend", "MockBackend.complete"),
    ("evaluate", "sarif_triage.evaluate", "build_report"),
)
LAYERS = ("pipeline", "ingest", "methods", "context", "prompts", "backend", "adjudicate",
          "evaluate")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id, self.name, self.parent = span_id, name, parent
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


def _observe(name: str, args: tuple, result, span: Span) -> None:
    """Counts recorded at the boundary where the work happens."""
    a = span.attrs
    if name == "methods.locate_methods":
        a["file"], a["chars"], a["methods"] = args[1], len(args[0]), len(result)
    elif name in ("context.extract_context", "context.extract_baseline_context"):
        a["partial"], a["truncated"] = result.partial, result.truncated
        a["files"] = sorted({s.location.uri for s in args[0].trace}
                            or {args[0].primary_location.uri})
    elif name == "ingest.canonicalize":
        a["findings"] = len(result)
    elif name == "prompts.compile_prompt":
        a["chars"] = len(result.system_text) + len(result.user_text)
    elif name == "adjudicate.validate_response":
        a["salvaged"] = result.salvaged
    elif name == "adjudicate.adjudicate_all":
        results, _ = result
        a["ok_attempts"] = [r.adjudication.attempt_count for r in results
                            if r.adjudication is not None]
        a["unevaluated"] = [r.error.split(":", 1)[0] for r in results
                            if r.adjudication is None]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # A worker thread's first span was caused by whatever the main
        # thread has open (the adjudicate_all that started the pool).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(len(self.spans), name, None if parent is None else parent.id)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def sleep(self, seconds: float) -> None:
        """The ``sleep=`` hook of ``run_all``: time actually spent backing off."""
        span = self.open("backend.backoff_sleep")
        try:
            time.sleep(seconds)
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            _observe(name, args, result, span)
            return result

        return wrapper

    def install(self) -> None:
        missing = []
        for layer, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            original = (target.__dict__.get(leaf) if isinstance(target, type)
                        else getattr(target, leaf, None))
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((target, leaf, original))
            setattr(target, leaf, self._wrap(f"{layer}.{leaf}", original))
        if missing:
            self.remove()
            raise TraceError("wrapped public name missing: " + ", ".join(missing))

    def remove(self) -> None:
        while self._installed:
            target, leaf, original = self._installed.pop()
            setattr(target, leaf, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run


def spans_under(spans: list[Span], root: Span) -> list[Span]:
    inside = {root.id}
    out = []
    for span in spans:  # parents are always recorded before their children
        if span.parent in inside:
            inside.add(span.id)
            out.append(span)
    return out


def self_time(span: Span, spans: list[Span]) -> float:
    """Duration minus the part of it that direct children cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in spans if c.parent == span.id)
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.dur - covered


def check_coverage(spans: list[Span], required: tuple[str, ...]) -> None:
    seen = {s.name.split(".", 1)[0] for s in spans} | {s.name for s in spans}
    absent = [name for name in required if name not in seen]
    if absent:
        raise TraceError("no spans recorded for required layer(s): " + ", ".join(absent))


def p_high(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _p_high_or_max(values: list[float]) -> tuple[float, float]:
    return p_high(values) or (100.0, max(values, default=0.0))


def layer_metrics(spans: list[Span], run_root: Span, resume_root: Span,
                  stub_delay_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced ``run_all`` plus its resume. Returns
    (metrics, notes): notes are printed, never compared."""
    run = spans_under(spans, run_root)
    named: dict[str, list[Span]] = {}
    for span in run:
        named.setdefault(span.name, []).append(span)

    def durs(name: str, scale: float = 1.0) -> list[float]:
        return [s.dur * scale for s in named.get(name, [])]

    m: dict[str, float] = {}
    notes: dict[str, object] = {}
    stages = [s for s in run if s.parent == run_root.id and s.name.startswith("pipeline.stage_")]
    for span in stages:
        stage = span.name.removeprefix("pipeline.stage_")
        m[f"pipeline.{stage}_s"] = span.dur
        notes[f"pipeline.{stage}_self_s"] = self_time(span, run)
    m["pipeline.resume_verify_s"] = resume_root.dur

    m["ingest.parse_s"] = sum(durs("ingest.parse_sarif"))
    m["ingest.canonicalize_s"] = sum(durs("ingest.canonicalize"))
    m["ingest.findings"] = sum(s.attrs["findings"] for s in named["ingest.canonicalize"])

    scans = named.get("methods.locate_methods", [])
    scan_kb = sum(s.attrs["chars"] for s in scans) / 1024.0
    m["methods.scan_calls"] = len(scans)
    m["methods.scan_kb"] = scan_kb
    m["methods.scan_us_per_kb"] = sum(s.dur for s in scans) * 1e6 / scan_kb if scan_kb else 0.0
    m["methods.empty_scan_files"] = len({s.attrs["file"] for s in scans
                                         if s.attrs["methods"] == 0})
    extracts = named.get("context.extract_context", [])
    notes["methods.distinct_files"] = len({s.attrs["file"] for s in scans})
    notes["context.finding_file_pairs"] = sum(len(s.attrs["files"]) for s in extracts)

    extract_ms = durs("context.extract_context", 1e3)
    m["context.extract_calls"] = len(extracts)
    m["context.extract_ms_p50"] = statistics.median(extract_ms)
    pct, m["context.extract_ms_phigh"] = _p_high_or_max(extract_ms)
    notes["context.extract_ms_phigh_percentile"] = pct
    baseline_ms = durs("context.extract_baseline_context", 1e3)
    notes["context.baseline_calls"] = len(baseline_ms)
    notes["context.baseline_ms_p50"] = statistics.median(baseline_ms) if baseline_ms else None
    m["context.partial_count"] = sum(s.attrs["partial"] for s in extracts)
    m["context.truncated_count"] = sum(s.attrs["truncated"] for s in extracts)

    compiles = named.get("prompts.compile_prompt", [])
    chars = [s.attrs["chars"] for s in compiles]
    m["prompts.compile_calls"] = len(compiles)
    m["prompts.compile_us_p50"] = statistics.median(durs("prompts.compile_prompt", 1e6))
    m["prompts.chars_p50"] = statistics.median(chars)
    m["prompts.chars_max"] = max(chars, default=0)

    calls = durs("backend.complete", 1e3)
    sends = named.get("backend.send", [])
    m["backend.calls"] = len(calls)
    attempts = Counter(s.parent for s in named.get("backend.complete", []))
    m["backend.retried_calls"] = sum(attempts[s.id] > 1 for s in sends)
    m["backend.call_ms_p50"] = statistics.median(calls)
    pct, m["backend.call_ms_phigh"] = _p_high_or_max(calls)
    notes["backend.call_ms_phigh_percentile"] = pct
    m["backend.client_overhead_ms_p50"] = statistics.median(calls) - stub_delay_ms
    m["backend.backoff_sleep_s"] = sum(durs("backend.backoff_sleep"))

    (adj_all,) = named["adjudicate.adjudicate_all"]
    validates = named.get("adjudicate.validate_response", [])
    ok_attempts = adj_all.attrs["ok_attempts"]
    m["adjudicate.validate_us_p50"] = statistics.median(durs("adjudicate.validate_response", 1e6))
    m["adjudicate.salvaged"] = sum(bool(s.attrs.get("salvaged")) for s in validates)
    classes = adj_all.attrs["unevaluated"]
    m["adjudicate.unevaluated"] = len(classes)
    notes["adjudicate.unevaluated_by_class"] = dict(sorted(Counter(classes).items()))
    m["adjudicate.attempts_per_verdict"] = sum(ok_attempts) / len(ok_attempts)

    m["evaluate.build_report_s"] = sum(durs("evaluate.build_report"))
    return m, notes


# Counts that must repeat exactly from one traced run to the next.
EXACT = ("ingest.findings", "methods.scan_calls", "methods.scan_kb", "methods.empty_scan_files",
         "context.extract_calls", "context.partial_count", "context.truncated_count",
         "prompts.compile_calls", "prompts.chars_p50", "prompts.chars_max", "backend.calls",
         "backend.retried_calls", "adjudicate.salvaged", "adjudicate.unevaluated",
         "adjudicate.attempts_per_verdict")

PER_LAYER_UNITS = {
    "pipeline.ingest_s": "s", "pipeline.context_s": "s", "pipeline.prompts_s": "s",
    "pipeline.adjudicate_s": "s", "pipeline.evaluate_s": "s",
    "pipeline.artifact_files": "count", "pipeline.artifact_mb": "MB",
    "pipeline.resume_verify_s": "s",
    "ingest.parse_s": "s", "ingest.canonicalize_s": "s", "ingest.findings": "count",
    "methods.scan_calls": "count", "methods.scan_kb": "KiB", "methods.scan_us_per_kb": "us/KiB",
    "methods.empty_scan_files": "count",
    "context.extract_calls": "count", "context.extract_ms_p50": "ms",
    "context.extract_ms_phigh": "ms", "context.partial_count": "count",
    "context.truncated_count": "count",
    "prompts.compile_calls": "count", "prompts.compile_us_p50": "us",
    "prompts.chars_p50": "chars", "prompts.chars_max": "chars",
    "backend.calls": "count", "backend.retried_calls": "count", "backend.call_ms_p50": "ms",
    "backend.call_ms_phigh": "ms", "backend.client_overhead_ms_p50": "ms",
    "backend.backoff_sleep_s": "s",
    "adjudicate.validate_us_p50": "us", "adjudicate.salvaged": "count",
    "adjudicate.unevaluated": "count",
    "adjudicate.attempts_per_verdict": "ratio",
    "evaluate.build_report_s": "s",
    "cli.import_s": "s", "cli.config_s": "s",
    "trace.overhead_s": "s",
}
