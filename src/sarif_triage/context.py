"""Code-context extraction for findings.

Reconstructs the precise code path between dataflow steps: the exact line
of every step, the intermediate lines between consecutive steps that share
a method, and method signatures plus call sites when a flow crosses method
boundaries. A windowed and a whole-file baseline extractor are provided for
comparison runs; the baseline style is the name the run config gives it.
A segment's reason, like each field of a record, is the value its
``contexts.jsonl`` row holds: an upper-case name such as ``STEP_LINE``.

Source text comes from one ``SourceSnapshot`` (``source``) per run, shared
by both extractors and the context stamp; the method scan of each file is
made here, once per snapshot. Line endings are normalized to LF before
any offset math. Extraction is pure over (finding, snapshot, limits).
"""

from __future__ import annotations

import re
from typing import Any, Mapping, NamedTuple

from .config import ContextLimits
from .ingest import CodeLocation, Finding, from_row
from .methods import MethodRecord, enclosing_method, locate_methods
from .source import SourceSnapshot


class ContextSegment(NamedTuple):
    file: str
    start_line: int
    end_line: int
    text: str
    reason: str  # STEP_LINE, INTERMEDIATE, METHOD_SIGNATURE or CALL_SITE
    step_index: int | None = None
    elided_after: int = 0  # lines elided between this segment and the next

    def line_count(self) -> int:
        return self.end_line - self.start_line + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.file,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "reason": self.reason,
            "step_index": self.step_index,
            "elided_after": self.elided_after,
            "text": self.text,
        }


class CodeContext(NamedTuple):
    finding_id: str
    segments: tuple[ContextSegment, ...]
    truncated: bool
    total_lines: int
    notes: tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        """True when a note says what the context is missing."""
        return bool(self.notes)

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
        return from_row(cls, d, notes=tuple, segments=lambda rows: tuple(
            from_row(ContextSegment, row) for row in rows))


def _label(idx: int | None) -> str:
    return f"step {idx}" if idx is not None else "primary location"


class _Collector:
    """One context's segments and notes, cut from one snapshot. Each span
    and each note is kept once, in the order first added."""

    def __init__(self, source: SourceSnapshot) -> None:
        self.source = source
        self.segments: dict[tuple[str, int, int], ContextSegment] = {}
        self.notes: dict[str, None] = {}

    def add(
        self,
        uri: str,
        start: int,
        end: int,
        reason: str,
        step_index: int | None = None,
        elided_after: int = 0,
    ) -> None:
        """Keep lines ``start`` to ``end`` of ``uri``, which the caller has
        found to exist, as a segment, unless one already holds that span."""
        key = (uri, start, end)
        if key not in self.segments:
            text = "\n".join(self.source.lines(uri)[start - 1 : end])
            self.segments[key] = ContextSegment(
                uri, start, end, text, reason, step_index, elided_after
            )

    def note(self, message: str) -> None:
        self.notes[message] = None

    def lines(self, idx: int | None, loc: CodeLocation) -> list[str] | None:
        """The lines of the step's file; None, with a note, when the file is
        missing or the step starts past its end."""
        lines = self.source.lines(loc.uri)
        if lines is None:
            self.note(f"missing file: {loc.uri} ({_label(idx)})")
        elif loc.start_line > len(lines):
            self.note(
                f"line out of range: {loc.uri}:{loc.start_line}"
                f" ({_label(idx)}, file has {len(lines)} lines)"
            )
        else:
            return lines
        return None

    def method(self, idx: int | None, loc: CodeLocation) -> MethodRecord | None:
        """The method record holding the step, whose lines exist, from one
        scan of its file per snapshot. A scan that ended unbalanced may have
        lost records, so its file's note is added; otherwise a step that
        lies in no record gets a note of its own."""
        scans = self.source.method_scans
        if loc.uri not in scans:
            scans[loc.uri] = locate_methods("\n".join(self.source.lines(loc.uri)), loc.uri)
        scan = scans[loc.uri]
        method = enclosing_method(scan, loc.start_line)
        if scan.problems:
            self.note(f"unbalanced braces: {'; '.join(scan.problems)}")
        elif method is None:
            self.note(f"no enclosing method: {loc.uri}:{loc.start_line} (step {idx})")
        return method

    def context(self, finding_id: str, limits: ContextLimits) -> CodeContext:
        """The context of what was collected. Over the line cap it is
        truncated, and intermediate segments are shed longest first."""
        segments = list(self.segments.values())
        total = sum(s.line_count() for s in segments)
        truncated = total > limits.max_total_lines
        while total > limits.max_total_lines:
            victim = drop_longest_intermediate(segments)
            if victim is None:
                break
            total -= victim.line_count()
        return CodeContext(finding_id, tuple(segments), truncated, total, tuple(self.notes))


def _add_intermediate(
    collector: _Collector,
    uri: str,
    lo_end: int,
    hi_start: int,
    step_index: int | None,
    limits: ContextLimits,
) -> None:
    start, end = lo_end + 1, hi_start - 1
    if start > end:
        return
    if end - start + 1 > limits.intermediate_elide_threshold:
        # The config holds head, tail >= 1 and head + tail <= threshold, so
        # both segments are non-empty and at least one line is elided.
        head_end = start + limits.elide_head_lines - 1
        tail_start = end - limits.elide_tail_lines + 1
        collector.add(uri, start, head_end, "INTERMEDIATE", step_index,
                      elided_after=tail_start - head_end - 1)
        collector.add(uri, tail_start, end, "INTERMEDIATE", step_index)
    else:
        collector.add(uri, start, end, "INTERMEDIATE", step_index)


def _add_call_site(
    collector: _Collector,
    caller: MethodRecord,
    callee_name: str,
    from_line: int,
    step_index: int | None,
) -> None:
    """The first line of the caller's body, from ``from_line`` (a line in it)
    to its end, that calls the callee: its name, not continuing another
    identifier, then an opening paren. Omitted when no line does."""
    lines = collector.source.lines(caller.file)
    pattern = re.compile(r"(?<![\w$])" + re.escape(callee_name) + r"\s*\(")
    for lineno in range(from_line, caller.end_line + 1):
        if pattern.search(lines[lineno - 1]):
            collector.add(caller.file, lineno, lineno, "CALL_SITE", step_index)
            return


def drop_longest_intermediate(segments: list[ContextSegment]) -> ContextSegment | None:
    """Remove and return the longest ``INTERMEDIATE`` segment, the earliest
    starting of equal ones; None when there is none. Step lines, signatures
    and call sites are never shed."""
    candidates = [s for s in segments if s.reason == "INTERMEDIATE"]
    if not candidates:
        return None
    victim = max(candidates, key=lambda s: (s.line_count(), -s.start_line))
    segments.remove(victim)
    return victim


def extract_context(
    finding: Finding,
    source: SourceSnapshot,
    limits: ContextLimits = ContextLimits(),
) -> CodeContext:
    """Build the ordered code context for one finding.

    Missing files, out-of-range lines and steps of a pair that lie in no
    method record mark the context as partial but never abort extraction.
    """
    collector = _Collector(source)
    steps = finding.steps()

    resolved = [collector.lines(idx, loc) for idx, loc in steps]
    for pos, (idx, loc) in enumerate(steps):
        lines = resolved[pos]
        if lines is None:
            continue
        # Between-pair segments come before the later step line, keeping
        # segment order a stable refinement of trace order.
        if pos > 0 and resolved[pos - 1] is not None:
            link_index, prev_loc = steps[pos - 1]
            m_prev = collector.method(link_index, prev_loc)
            m_cur = collector.method(idx, loc)
            # Records carry their file, so methods in different files differ.
            if m_prev is not None and m_prev == m_cur:
                lo, hi = sorted(
                    [(prev_loc.start_line, prev_loc.end_line), (loc.start_line, loc.end_line)]
                )
                _add_intermediate(collector, loc.uri, lo[1], hi[0], link_index, limits)
            else:
                # Different methods (or files): capture both enclosing
                # signatures plus the call site when identifiable.
                for method in (m_prev, m_cur):
                    if method is not None:
                        collector.add(method.file, method.start_line,
                                      method.signature_end_line, "METHOD_SIGNATURE")
                if m_prev is not None and m_cur is not None:
                    # Records never overlap, so the callee, wherever it is
                    # declared, is outside the caller's body.
                    _add_call_site(collector, m_prev, m_cur.name, prev_loc.start_line, link_index)
        end = min(loc.end_line, len(lines))
        if end < loc.end_line:
            collector.note(f"end line clamped: {loc.uri}:{loc.end_line} -> {end} ({_label(idx)})")
        collector.add(loc.uri, loc.start_line, end, "STEP_LINE", idx)

    return collector.context(finding.finding_id, limits)


def extract_baseline_context(
    finding: Finding,
    source: SourceSnapshot,
    style: str,
    limits: ContextLimits = ContextLimits(),
) -> CodeContext:
    """Minimal-context baselines by ``style``: ``WINDOW5``, an 11-line window
    around each step, or ``WHOLE_FILE``, one whole-file segment per distinct
    file in the trace; another name is a ``ValueError``."""
    collector = _Collector(source)
    for idx, loc in finding.steps():
        if style == "WINDOW5":
            lines = collector.lines(idx, loc)
            if lines is not None:
                start, end = max(1, loc.start_line - 5), min(len(lines), loc.start_line + 5)
                collector.add(loc.uri, start, end, "STEP_LINE", idx)
        elif style == "WHOLE_FILE":
            lines = source.lines(loc.uri)
            if lines is None:
                collector.note(f"missing file: {loc.uri}")
            else:
                collector.add(loc.uri, 1, len(lines), "STEP_LINE", idx)
        else:
            raise ValueError(f"unknown baseline style: {style!r}")
    return collector.context(finding.finding_id, limits)
