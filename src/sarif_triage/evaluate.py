"""Scoring adjudications against ground truth.

The task is false-positive identification, so the positive class is
FALSE_POSITIVE: a true positive here means the model correctly flagged a
spurious alert. Metrics are micro-aggregated (counts summed within a group
before precision/recall/F1 are computed) and printed at three decimals.
A label and a verdict are the upper-case names the labels file and
``adjudications.jsonl`` spell; a label is checked against ``LABELS`` as the
labels file is read.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .adjudicate import AdjudicationResult
from .ingest import Finding, normalize_uri
from .rubrics import SHIPPED_CWES


LABELS = ("TRUE_VULNERABILITY", "FALSE_POSITIVE")


class GroundTruth(NamedTuple):
    label: str  # one of LABELS
    finding_id: str | None = None
    rule_id: str | None = None
    uri: str | None = None
    start_line: int | None = None

    @classmethod
    def from_dict(cls, d: Any) -> "GroundTruth":
        """One row of a labels file; ``ValueError`` for a row that would be
        misread or could never match."""
        if not isinstance(d, dict) or d.get("label") not in LABELS:
            raise ValueError(f"not an object whose label is {' or '.join(LABELS)}")
        for key, kind in (("finding_id", str), ("rule_id", str), ("uri", str), ("start_line", int)):
            value = d.get(key)
            if value is not None and (type(value) is not kind or kind is int and value < 1):
                want = "a string" if kind is str else "an integer >= 1"
                raise ValueError(f"{key} {value!r} is not {want}")
        # The keys ``match_truth`` matches on: a row without them never matches.
        if not (d.get("finding_id") or d.get("rule_id") and d.get("uri") and d.get("start_line")):
            raise ValueError("has neither a finding_id nor all of rule_id, uri and start_line")
        return cls(**{name: d.get(name) for name in cls._fields})


class ConfusionCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def to_dict(self) -> dict[str, Any]:
        rates = {"precision": self.precision, "recall": self.recall, "f1": self.f1}
        return {**self._asdict(), **rates}


class EvalReport(NamedTuple):
    mode: str
    overall: ConfusionCounts
    per_cwe: dict[str, ConfusionCounts]
    unevaluated_count: int
    unmatched_count: int
    total_findings: int

    def groups(self) -> list[tuple[str, ConfusionCounts]]:
        """``overall``, then each CWE in the order ``per_cwe`` holds them
        (``build_report`` stores them in reporting order)."""
        return [("overall", self.overall), *self.per_cwe.items()]

    def to_dict(self) -> dict[str, Any]:
        return {**self._asdict(), "overall": self.overall.to_dict(),
                "per_cwe": {cwe: m.to_dict() for cwe, m in self.per_cwe.items()}}


def cwe_sort_key(cwe_id: str) -> tuple[bool, str]:
    """Shipped CWEs first, then the rest, each group by name."""
    return (cwe_id not in SHIPPED_CWES, cwe_id)


def match_truth(
    findings: list[Finding], truths: list[GroundTruth]
) -> dict[str, GroundTruth]:
    """Resolve ground truth per finding id.

    Exact finding_id match wins; otherwise the (rule_id, uri, start_line)
    triple is tried, for a row with no id or one whose id names no finding,
    its uri normalized as ingest normalizes the findings'.
    A triple shared by several findings or several truth entries is
    ambiguous and stays unmatched.
    """
    ids = {f.finding_id for f in findings}
    by_id: dict[str, GroundTruth] = {}
    triple_truths: dict[tuple[str, str, int], list[GroundTruth]] = {}
    for truth in truths:
        if truth.finding_id in ids:
            by_id[truth.finding_id] = truth
        elif truth.rule_id and truth.uri and truth.start_line is not None:
            key = (truth.rule_id, normalize_uri(truth.uri), truth.start_line)
            triple_truths.setdefault(key, []).append(truth)

    triple_findings: dict[tuple[str, str, int], list[str]] = {}
    for f in findings:
        key = (f.rule_id, f.primary_location.uri, f.primary_location.start_line)
        triple_findings.setdefault(key, []).append(f.finding_id)

    matched: dict[str, GroundTruth] = {}
    for f in findings:
        if f.finding_id in by_id:
            matched[f.finding_id] = by_id[f.finding_id]
            continue
        key = (f.rule_id, f.primary_location.uri, f.primary_location.start_line)
        candidates = triple_truths.get(key, [])
        if len(candidates) == 1 and len(triple_findings[key]) == 1:
            matched[f.finding_id] = candidates[0]
    return matched


def build_report(
    findings: list[Finding],
    results: list[AdjudicationResult],
    truths: list[GroundTruth],
    mode: str,
) -> EvalReport:
    """Join adjudication results with labels and aggregate.

    Conservation: scored (tp+fp+tn+fn) + unevaluated + unmatched equals the
    number of results passed in. Unevaluated findings never enter metric
    denominators; unmatched adjudications are counted, never scored. Every
    CWE among ``findings`` has a group, zero when none of its rows is
    scored, so two modes over the same findings have the same groups.
    """
    cwe_of = {f.finding_id: f.cwe_id for f in findings}
    matched = match_truth(findings, truths)

    per_cwe = {cwe: ConfusionCounts() for cwe in sorted(set(cwe_of.values()), key=cwe_sort_key)}
    unevaluated = 0
    unmatched = 0
    for row in results:
        if row.adjudication is None:
            unevaluated += 1
            continue
        truth = matched.get(row.finding_id)
        if truth is None:
            unmatched += 1
            continue
        # The positive class is FALSE_POSITIVE: flagging a spurious alert.
        says_fp = row.adjudication.verdict == "FALSE_POSITIVE"
        is_fp = truth.label == "FALSE_POSITIVE"
        if says_fp and is_fp:
            cell = ConfusionCounts(tp=1)
        elif says_fp:
            cell = ConfusionCounts(fp=1)
        elif is_fp:
            cell = ConfusionCounts(fn=1)
        else:
            cell = ConfusionCounts(tn=1)
        cwe = cwe_of[row.finding_id]
        per_cwe[cwe] = per_cwe[cwe] + cell

    return EvalReport(
        mode=mode,
        overall=sum(per_cwe.values(), ConfusionCounts()),
        per_cwe=per_cwe,
        unevaluated_count=unevaluated,
        unmatched_count=unmatched,
        total_findings=len(results),
    )


class DeltaRow(NamedTuple):
    group: str
    baseline_f1: float
    optimized_f1: float
    delta: float  # optimized - baseline, rounded to 3 decimals

    def to_dict(self) -> dict[str, Any]:
        direction = "up" if self.delta > 0 else "down" if self.delta < 0 else "flat"
        return {**self._asdict(), "direction": direction}


def compare_modes(
    report_baseline: EvalReport, report_optimized: EvalReport
) -> list[DeltaRow]:
    """Per-group F1 deltas (optimized minus baseline), overall first then
    per CWE in reporting order. The two reports cover the same findings,
    so ``build_report`` gave them the same groups."""
    optimized = dict(report_optimized.groups())
    return [
        DeltaRow(group, base.f1, optimized[group].f1, round(optimized[group].f1 - base.f1, 3))
        for group, base in report_baseline.groups()
    ]


def _metrics_line(name: str, m: ConfusionCounts) -> str:
    return (
        f"{name:<14} tp={m.tp:<5} fp={m.fp:<5} tn={m.tn:<5} "
        f"fn={m.fn:<5} P={m.precision:.3f} R={m.recall:.3f} F1={m.f1:.3f}"
    )


def render_report_text(
    reports: dict[str, EvalReport], deltas: list[DeltaRow] | None = None
) -> str:
    lines: list[str] = []
    for mode in sorted(reports):
        report = reports[mode]
        lines.append(f"== {mode} ==")
        lines.extend(_metrics_line(group, counts) for group, counts in report.groups())
        lines.append(
            f"unevaluated={report.unevaluated_count} unmatched={report.unmatched_count} "
            f"total={report.total_findings}"
        )
        lines.append("")
    if deltas is not None:
        lines.append("== mode delta (optimized - baseline F1) ==")
        for row in deltas:
            lines.append(
                f"{row.group:<14} baseline={row.baseline_f1:.3f} "
                f"optimized={row.optimized_f1:.3f} delta={row.delta:+.3f}"
            )
        lines.append("")
    return "\n".join(lines)


def render_report_csv(reports: dict[str, EvalReport]) -> str:
    """Per-CWE metric rows, one per (mode, cwe), for heatmap plotting; CSV, ``\\r\\n`` row ends."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["mode", "group", "tp", "fp", "tn", "fn", "precision", "recall", "f1"])
    for mode in sorted(reports):
        for group, m in reports[mode].groups():
            writer.writerow([mode, group, m.tp, m.fp, m.tn, m.fn,
                             f"{m.precision:.3f}", f"{m.recall:.3f}", f"{m.f1:.3f}"])
    return buffer.getvalue()
