"""Code-context extraction for findings.

Reconstructs the precise code path between dataflow steps: the exact line
of every step, the intermediate lines between consecutive steps that share
a method, and method signatures plus call sites when a flow crosses method
boundaries. A windowed and a whole-file baseline extractor are provided for
comparison runs.

Source text comes from one ``SourceSnapshot`` (``source``) per run, shared
by both extractors and the context stamp; the method scan of each file is
made here, once per snapshot. Line endings are normalized to LF before
any offset math. Extraction is pure over (finding, snapshot, limits).
"""

from __future__ import annotations

import re
import warnings
from enum import Enum
from typing import Any, Mapping, NamedTuple

from .config import ContextLimits
from .ingest import CodeLocation, Finding
from .methods import MethodRecord, UnbalancedBraces, enclosing_method, locate_methods
from .source import SourceSnapshot


class SegmentReason(str, Enum):
    STEP_LINE = "STEP_LINE"
    INTERMEDIATE = "INTERMEDIATE"
    METHOD_SIGNATURE = "METHOD_SIGNATURE"
    CALL_SITE = "CALL_SITE"


class BaselineMode(str, Enum):
    WINDOW5 = "WINDOW5"
    WHOLE_FILE = "WHOLE_FILE"


class ContextSegment(NamedTuple):
    file: str
    start_line: int
    end_line: int
    text: str
    reason: SegmentReason
    step_index: int | None = None
    elided_after: int = 0  # lines elided between this segment and the next

    def line_count(self) -> int:
        return self.end_line - self.start_line + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.file,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "reason": self.reason.value,
            "step_index": self.step_index,
            "elided_after": self.elided_after,
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ContextSegment":
        return cls(
            file=d["file"],
            start_line=d["start_line"],
            end_line=d["end_line"],
            text=d["text"],
            reason=SegmentReason(d["reason"]),
            step_index=d.get("step_index"),
            elided_after=d.get("elided_after", 0),
        )


class CodeContext(NamedTuple):
    finding_id: str
    segments: tuple[ContextSegment, ...]
    truncated: bool
    total_lines: int
    partial: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "finding_id": self.finding_id,
            "segments": [s.to_dict() for s in self.segments],
            "truncated": self.truncated,
            "total_lines": self.total_lines,
            "partial": self.partial,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CodeContext":
        return cls(
            finding_id=d["finding_id"],
            segments=tuple(ContextSegment.from_dict(s) for s in d["segments"]),
            truncated=d["truncated"],
            total_lines=d["total_lines"],
            partial=d.get("partial", False),
            notes=tuple(d.get("notes", [])),
        )


def _segment(
    lines: list[str],
    uri: str,
    start: int,
    end: int,
    reason: SegmentReason,
    step_index: int | None = None,
) -> ContextSegment:
    text = "\n".join(lines[start - 1 : end])
    return ContextSegment(
        file=uri,
        start_line=start,
        end_line=end,
        text=text,
        reason=reason,
        step_index=step_index,
    )


class _Collector:
    def __init__(self) -> None:
        self.segments: list[ContextSegment] = []
        self.seen: set[tuple[str, int, int]] = set()
        self.notes: list[str] = []
        self.partial = False

    def add(self, segment: ContextSegment) -> None:
        key = (segment.file, segment.start_line, segment.end_line)
        if key in self.seen:
            return
        self.seen.add(key)
        self.segments.append(segment)

    def note(self, message: str) -> None:
        self.notes.append(message)
        self.partial = True


def _methods(collector: _Collector, source: SourceSnapshot, uri: str) -> list[MethodRecord]:
    """The file's method records, scanned once per snapshot. A scan that
    ended unbalanced may have lost some, so it marks the context partial,
    with one note per file."""
    if uri not in source.method_scans:
        lines = source.lines(uri)
        # The scanner reports an unbalanced file by warning; the warning is
        # kept here so every context that uses the file can say so.
        # catch_warnings swaps process-wide state: scan on one thread.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UnbalancedBraces)
            records = [] if lines is None else locate_methods("\n".join(lines), uri)
        problems = [str(w.message) for w in caught if issubclass(w.category, UnbalancedBraces)]
        source.method_scans[uri] = (records, "; ".join(problems) or None)
    records, problem = source.method_scans[uri]
    if problem is not None and f"unbalanced braces: {problem}" not in collector.notes:
        collector.note(f"unbalanced braces: {problem}")
    return records


def _enclosing(
    collector: _Collector, source: SourceSnapshot, idx: int | None, loc: CodeLocation
) -> MethodRecord | None:
    """The method record holding the step. A step that lies in none gets one
    note, unless its file's scan ended unbalanced: that note covers it."""
    method = enclosing_method(_methods(collector, source, loc.uri), loc.start_line)
    note = f"no enclosing method: {loc.uri}:{loc.start_line} (step {idx})"
    if method is None and source.method_scans[loc.uri][1] is None and note not in collector.notes:
        collector.note(note)
    return method


def _resolved_step_locations(finding: Finding) -> list[tuple[int | None, CodeLocation]]:
    """Trace locations in order, or the primary location when the trace is
    empty. The int is the 1-based step index (None for the primary)."""
    if finding.trace:
        return [(step.index, step.location) for step in finding.trace]
    return [(None, finding.primary_location)]


def _probe_step(
    collector: _Collector, source: SourceSnapshot, idx: int | None, loc: CodeLocation
) -> bool:
    """Check that the step's file and line exist, recording a note (and
    marking the context partial) when they do not."""
    lines = source.lines(loc.uri)
    label = f"step {idx}" if idx is not None else "primary location"
    if lines is None:
        collector.note(f"missing file: {loc.uri} ({label})")
        return False
    if loc.start_line > len(lines):
        collector.note(
            f"line out of range: {loc.uri}:{loc.start_line} ({label}, file has {len(lines)} lines)"
        )
        return False
    return True


def _emit_step_line(
    collector: _Collector, source: SourceSnapshot, idx: int | None, loc: CodeLocation
) -> None:
    lines = source.lines(loc.uri)
    end = min(loc.end_line, len(lines))
    if end < loc.end_line:
        label = f"step {idx}" if idx is not None else "primary location"
        collector.note(f"end line clamped: {loc.uri}:{loc.end_line} -> {end} ({label})")
    collector.add(_segment(lines, loc.uri, loc.start_line, end, SegmentReason.STEP_LINE, idx))


def _add_intermediate(
    collector: _Collector,
    source: SourceSnapshot,
    uri: str,
    lo_end: int,
    hi_start: int,
    step_index: int | None,
    limits: ContextLimits,
) -> None:
    start, end = lo_end + 1, hi_start - 1
    if start > end:
        return
    lines = source.lines(uri)
    assert lines is not None  # caller resolved both step lines already
    span = end - start + 1
    if span > limits.intermediate_elide_threshold:
        # The config holds head, tail >= 1 and head + tail <= threshold, so
        # both segments are non-empty and at least one line is elided.
        head_end = start + limits.elide_head_lines - 1
        tail_start = end - limits.elide_tail_lines + 1
        head = _segment(lines, uri, start, head_end, SegmentReason.INTERMEDIATE, step_index)
        head = head._replace(elided_after=tail_start - head_end - 1)
        collector.add(head)
        collector.add(
            _segment(lines, uri, tail_start, end, SegmentReason.INTERMEDIATE, step_index)
        )
    else:
        collector.add(_segment(lines, uri, start, end, SegmentReason.INTERMEDIATE, step_index))


def _add_method_signature(
    collector: _Collector, source: SourceSnapshot, method: MethodRecord
) -> None:
    collector.add(
        _segment(
            source.lines(method.file),
            method.file,
            method.start_line,
            method.signature_end_line,
            SegmentReason.METHOD_SIGNATURE,
        )
    )


def _add_call_site(
    collector: _Collector,
    source: SourceSnapshot,
    caller: MethodRecord,
    callee_name: str,
    from_line: int,
    to_line: int,
    step_index: int | None,
) -> None:
    """First line in the caller's body between the step lines that mentions
    the callee followed by an opening paren; omitted when none matches."""
    lines = source.lines(caller.file)
    start = max(from_line, caller.start_line)
    end = min(to_line, caller.end_line, len(lines))
    pattern = re.compile(r"\b" + re.escape(callee_name) + r"\s*\(")
    for lineno in range(start, end + 1):
        if pattern.search(lines[lineno - 1]):
            collector.add(
                _segment(
                    lines, caller.file, lineno, lineno, SegmentReason.CALL_SITE, step_index
                )
            )
            return


def drop_longest_intermediate(segments: list[ContextSegment]) -> ContextSegment | None:
    """Remove and return the longest ``INTERMEDIATE`` segment, the earliest
    starting of equal ones; None when there is none. Step lines, signatures
    and call sites are never shed."""
    candidates = [s for s in segments if s.reason is SegmentReason.INTERMEDIATE]
    if not candidates:
        return None
    victim = max(candidates, key=lambda s: (s.line_count(), -s.start_line))
    segments.remove(victim)
    return victim


def _apply_line_cap(
    collector: _Collector, limits: ContextLimits
) -> tuple[list[ContextSegment], bool, int]:
    segments = list(collector.segments)
    total = sum(s.line_count() for s in segments)
    truncated = total > limits.max_total_lines
    while total > limits.max_total_lines:
        victim = drop_longest_intermediate(segments)
        if victim is None:
            break
        total -= victim.line_count()
    return segments, truncated, total


def extract_context(
    finding: Finding,
    source: SourceSnapshot,
    limits: ContextLimits = ContextLimits(),
) -> CodeContext:
    """Build the ordered code context for one finding.

    Missing files, out-of-range lines and steps of a pair that lie in no
    method record mark the context as partial but never abort extraction.
    """
    collector = _Collector()
    steps = _resolved_step_locations(finding)

    resolved = [_probe_step(collector, source, idx, loc) for idx, loc in steps]
    for pos, (idx, loc) in enumerate(steps):
        # Between-pair segments come before the later step line, keeping
        # segment order a stable refinement of trace order.
        if pos > 0 and resolved[pos - 1] and resolved[pos]:
            link_index, prev_loc = steps[pos - 1]
            m_prev = _enclosing(collector, source, link_index, prev_loc)
            m_cur = _enclosing(collector, source, idx, loc)
            # Records carry their file, so methods in different files differ.
            if m_prev is not None and m_prev == m_cur:
                lo, hi = sorted(
                    [(prev_loc.start_line, prev_loc.end_line), (loc.start_line, loc.end_line)]
                )
                _add_intermediate(collector, source, loc.uri, lo[1], hi[0], link_index, limits)
            else:
                # Different methods (or files): capture both enclosing
                # signatures plus the call site when identifiable.
                if m_prev is not None:
                    _add_method_signature(collector, source, m_prev)
                if m_cur is not None:
                    _add_method_signature(collector, source, m_cur)
                if m_prev is not None and m_cur is not None:
                    to_line = loc.start_line if prev_loc.uri == loc.uri else m_prev.end_line
                    _add_call_site(
                        collector, source, m_prev, m_cur.name,
                        prev_loc.start_line, to_line, link_index,
                    )
        if resolved[pos]:
            _emit_step_line(collector, source, idx, loc)

    segments, truncated, total = _apply_line_cap(collector, limits)
    return CodeContext(
        finding_id=finding.finding_id,
        segments=tuple(segments),
        truncated=truncated,
        total_lines=total,
        partial=collector.partial,
        notes=tuple(collector.notes),
    )


def extract_baseline_context(
    finding: Finding,
    source: SourceSnapshot,
    mode: BaselineMode,
    limits: ContextLimits = ContextLimits(),
) -> CodeContext:
    """Minimal-context baselines: an 11-line window around each step, or one
    whole-file segment per distinct file in the trace."""
    collector = _Collector()
    steps = _resolved_step_locations(finding)

    if mode is BaselineMode.WINDOW5:
        for idx, loc in steps:
            lines = source.lines(loc.uri)
            label = f"step {idx}" if idx is not None else "primary location"
            if lines is None:
                collector.note(f"missing file: {loc.uri} ({label})")
                continue
            if loc.start_line > len(lines):
                collector.note(f"line out of range: {loc.uri}:{loc.start_line} ({label})")
                continue
            start = max(1, loc.start_line - 5)
            end = min(len(lines), loc.start_line + 5)
            collector.add(_segment(lines, loc.uri, start, end, SegmentReason.STEP_LINE, idx))
    elif mode is BaselineMode.WHOLE_FILE:
        seen_files: set[str] = set()
        for idx, loc in steps:
            if loc.uri in seen_files:
                continue
            seen_files.add(loc.uri)
            lines = source.lines(loc.uri)
            if lines is None:
                collector.note(f"missing file: {loc.uri}")
                continue
            collector.add(
                _segment(lines, loc.uri, 1, len(lines), SegmentReason.STEP_LINE, idx)
            )
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown baseline mode: {mode}")

    total = sum(s.line_count() for s in collector.segments)
    return CodeContext(
        finding_id=finding.finding_id,
        segments=tuple(collector.segments),
        truncated=total > limits.max_total_lines,
        total_lines=total,
        partial=collector.partial,
        notes=tuple(collector.notes),
    )
