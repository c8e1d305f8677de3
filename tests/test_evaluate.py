from __future__ import annotations

import json
import random
import re

import pytest

from sarif_triage.adjudicate import (
    Adjudication,
    AdjudicationResult,
    Confidence,
    Verdict,
)
from sarif_triage.evaluate import (
    ConfusionCounts,
    GroundTruth,
    Label,
    MismatchedSets,
    Outcome,
    build_report,
    compare_modes,
    counts_from_outcomes,
    f1,
    f1_delta,
    match_truth,
    render_report_csv,
    render_report_text,
    score,
)
from sarif_triage.ingest import CodeLocation, Finding


def test_score_definitions():
    assert score(Verdict.FALSE_POSITIVE, Label.FALSE_POSITIVE) is Outcome.TP
    assert score(Verdict.FALSE_POSITIVE, Label.TRUE_VULNERABILITY) is Outcome.FP
    assert score(Verdict.TRUE_POSITIVE, Label.FALSE_POSITIVE) is Outcome.FN
    assert score(Verdict.TRUE_POSITIVE, Label.TRUE_VULNERABILITY) is Outcome.TN


def test_counts_match_brute_force_tally():
    rng = random.Random(7)
    pairs = [
        (rng.choice(list(Verdict)), rng.choice(list(Label)))
        for _ in range(10)
    ]
    outcomes = [score(v, l) for v, l in pairs]
    counts = counts_from_outcomes(outcomes)
    brute = {o: sum(1 for x in outcomes if x is o) for o in Outcome}
    assert counts.tp == brute[Outcome.TP]
    assert counts.fp == brute[Outcome.FP]
    assert counts.tn == brute[Outcome.TN]
    assert counts.fn == brute[Outcome.FN]
    assert counts.total == 10


@pytest.mark.parametrize(
    "p,r,expected",
    [
        (0.976, 0.855, 0.912),
        (1.000, 0.914, 0.955),
        (1.0, 1.0, 1.0),
    ],
)
def test_f1_reproduces_reported_values(p, r, expected):
    assert abs(f1(p, r) - expected) <= 0.005


def test_f1_zero_denominators():
    assert f1(0.0, 0.0) == 0.0
    zero = ConfusionCounts()
    assert zero.precision == 0.0 and zero.recall == 0.0 and zero.f1 == 0.0


# The (verdict, label) pair that scores as each outcome.
_PAIRS = {
    Outcome.TP: (Verdict.FALSE_POSITIVE, Label.FALSE_POSITIVE),
    Outcome.FP: (Verdict.FALSE_POSITIVE, Label.TRUE_VULNERABILITY),
    Outcome.FN: (Verdict.TRUE_POSITIVE, Label.FALSE_POSITIVE),
    Outcome.TN: (Verdict.TRUE_POSITIVE, Label.TRUE_VULNERABILITY),
}


def _report_of(scored: list[tuple[str, Outcome]]):
    """``build_report`` over one labelled finding per (CWE, outcome) pair."""
    findings, results, truths = [], [], []
    for i, (cwe, outcome) in enumerate(scored):
        verdict, label = _PAIRS[outcome]
        findings.append(_finding(f"f{i}", cwe=cwe, uri=f"F{i}.java"))
        results.append(_ok(f"f{i}", verdict))
        truths.append(GroundTruth(label=label, finding_id=f"f{i}"))
    return build_report(findings, results, truths, "OPTIMIZED")


def test_aggregate_micro_sums_counts_before_metrics():
    report = _report_of(
        [("CWE-089", Outcome.TP)] * 2
        + [("CWE-089", Outcome.FN)] * 1
        + [("CWE-079", Outcome.TP)] * 3
        + [("CWE-079", Outcome.FP)] * 1
    )
    overall = report.overall
    # Hand computation: tp=5, fp=1, fn=1 -> P = R = 5/6
    assert overall == ConfusionCounts(tp=5, fp=1, tn=0, fn=1)
    assert overall.precision == pytest.approx(5 / 6)
    assert overall.recall == pytest.approx(5 / 6)
    assert overall.f1 == pytest.approx(5 / 6)
    per_cwe = report.per_cwe
    assert per_cwe["CWE-089"] == ConfusionCounts(tp=2, fp=0, tn=0, fn=1)
    assert per_cwe["CWE-079"] == ConfusionCounts(tp=3, fp=1, tn=0, fn=0)


def test_empty_outcomes_give_zero_report():
    report = _report_of([])
    assert report.per_cwe == {}
    assert report.overall == ConfusionCounts()
    assert counts_from_outcomes([]).f1 == 0.0


def test_single_group_equals_overall():
    report = _report_of([("CWE-089", Outcome.TP), ("CWE-089", Outcome.TN)])
    assert report.per_cwe == {"CWE-089": report.overall}


def _loc(uri="A.java", line=3):
    return CodeLocation(uri=uri, start_line=line, end_line=line)


def _finding(fid, cwe="CWE-089", rule="r", uri="A.java", line=3):
    return Finding(
        finding_id=fid,
        rule_id=rule,
        cwe_id=cwe,
        message="m",
        primary_location=_loc(uri, line),
        trace=(),
        origin_index=0,
    )


def _ok(fid, verdict, mode="OPTIMIZED"):
    return AdjudicationResult(
        finding_id=fid,
        mode=mode,
        adjudication=Adjudication(
            verdict=verdict,
            confidence=Confidence.HIGH,
            reasoning="r",
            salvaged=False,
            raw_response="{}",
            latency_ms=0,
            attempt_count=1,
        ),
    )


def test_match_precedence_finding_id_then_triple():
    findings = [
        _finding("f1", uri="A.java", line=1),
        _finding("f2", uri="B.java", line=2),
    ]
    truths = [
        GroundTruth(label=Label.FALSE_POSITIVE, finding_id="f1"),
        GroundTruth(label=Label.TRUE_VULNERABILITY, rule_id="r", uri="B.java", start_line=2),
    ]
    matched = match_truth(findings, truths)
    assert matched["f1"].label is Label.FALSE_POSITIVE
    assert matched["f2"].label is Label.TRUE_VULNERABILITY


def test_ambiguous_triple_stays_unmatched():
    findings = [
        _finding("f1", uri="A.java", line=1),
        _finding("f2", uri="A.java", line=1),  # same triple
    ]
    truths = [GroundTruth(label=Label.FALSE_POSITIVE, rule_id="r", uri="A.java", start_line=1)]
    assert match_truth(findings, truths) == {}

    report = build_report(findings, [_ok("f1", Verdict.FALSE_POSITIVE)], truths, "OPTIMIZED")
    assert report.unmatched_count == 1
    assert report.overall.total == 0


def test_build_report_conserves_counts_and_routes_statuses():
    findings = [_finding(f"f{i}", cwe="CWE-089" if i < 3 else "CWE-022", uri=f"F{i}.java") for i in range(5)]
    truths = [
        GroundTruth(label=Label.FALSE_POSITIVE, finding_id="f0"),
        GroundTruth(label=Label.TRUE_VULNERABILITY, finding_id="f1"),
        GroundTruth(label=Label.FALSE_POSITIVE, finding_id="f2"),
        # f3 has no label -> unmatched
    ]
    results = [
        _ok("f0", Verdict.FALSE_POSITIVE),  # TP
        _ok("f1", Verdict.FALSE_POSITIVE),  # FP
        _ok("f2", Verdict.TRUE_POSITIVE),  # FN
        _ok("f3", Verdict.TRUE_POSITIVE),  # unmatched
        AdjudicationResult(finding_id="f4", mode="OPTIMIZED", error="boom"),
    ]
    report = build_report(findings, results, truths, "OPTIMIZED")
    counts = report.overall
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 0, 1)
    assert report.unevaluated_count == 1
    assert report.unmatched_count == 1
    assert counts.total + report.unevaluated_count + report.unmatched_count == len(results)
    # overall equals the sum of per-CWE counts
    summed = ConfusionCounts()
    for cwe_counts in report.per_cwe.values():
        summed = summed + cwe_counts
    assert summed == counts


@pytest.mark.parametrize("row, problem", [
    ({"label": "FALSE_POSITIVE", "finding_id": 5}, "finding_id 5 is not a string"),
    ({"label": "FALSE_POSITIVE", "uri": ["A.java"]}, "uri ['A.java'] is not a string"),
    ({"label": "FALSE_POSITIVE", "start_line": True}, "start_line True is not an integer >= 1"),
    ({"label": "FALSE_POSITIVE", "start_line": 0}, "start_line 0 is not an integer >= 1"),
    ({"label": ["FALSE_POSITIVE"]}, "not an object whose label is"),
    ("FALSE_POSITIVE", "not an object whose label is"),
    ({"label": "FALSE_POSITIVE"}, "has neither a finding_id nor all of rule_id, uri and start_line"),
    ({"label": "FALSE_POSITIVE", "rule_id": "r", "uri": "A.java"},
     "has neither a finding_id nor all of rule_id, uri and start_line"),
    ({"label": "FALSE_POSITIVE", "finding_id": "", "uri": "A.java", "start_line": 3},
     "has neither a finding_id nor all of rule_id, uri and start_line"),
])
def test_ground_truth_refuses_a_row_it_would_misread(row, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        GroundTruth.from_dict(row)


def test_ground_truth_reads_a_null_field_as_absent():
    row = {"label": "FALSE_POSITIVE", "finding_id": None, "rule_id": "r", "uri": "A.java",
           "start_line": 7}
    assert GroundTruth.from_dict(row) == GroundTruth(
        Label.FALSE_POSITIVE, rule_id="r", uri="A.java", start_line=7
    )


def test_a_cwe_with_only_unevaluated_rows_keeps_a_zero_group():
    findings = [
        _finding("f1", cwe="CWE-089", uri="A.java"),
        _finding("f2", cwe="CWE-327", uri="B.java"),
    ]
    truths = [GroundTruth(label=Label.FALSE_POSITIVE, finding_id=fid) for fid in ("f1", "f2")]
    results = [
        _ok("f1", Verdict.FALSE_POSITIVE),
        AdjudicationResult(finding_id="f2", mode="OPTIMIZED", error="NotJson: x"),
    ]
    report = build_report(findings, results, truths, "OPTIMIZED")
    assert report.per_cwe == {"CWE-089": ConfusionCounts(tp=1), "CWE-327": ConfusionCounts()}
    assert report.unevaluated_count == 1
    # The other mode scores both, and the two reports still compare.
    both = build_report(findings, [_ok("f1", Verdict.FALSE_POSITIVE),
                                   _ok("f2", Verdict.FALSE_POSITIVE)], truths, "BASELINE")
    deltas = compare_modes(both, report)
    assert [(row.group, row.delta) for row in deltas] == [
        ("overall", 0.0), ("CWE-089", 0.0), ("CWE-327", -1.0)
    ]


def test_per_cwe_table_is_in_report_order():
    findings = [
        _finding("f1", cwe="CWE-643", uri="A.java", line=1),
        _finding("f2", cwe="CWE-022", uri="B.java", line=2),
        _finding("f3", cwe="CWE-ZZZ", uri="C.java", line=3),
    ]
    truths = [GroundTruth(label=Label.FALSE_POSITIVE, finding_id=f"f{i}") for i in (1, 2, 3)]
    results = [_ok(f"f{i}", Verdict.FALSE_POSITIVE) for i in (1, 2, 3)]
    report = build_report(findings, results, truths, "OPTIMIZED")
    assert list(report.per_cwe) == ["CWE-022", "CWE-643", "CWE-ZZZ"]


def counts_with_f1(value: float) -> ConfusionCounts:
    """Counts whose F1 is ``value`` (three decimals): with no false negative,
    F1 = 2tp / (2tp + fp), and 2tp + fp is 2000 here."""
    tp = round(value * 1000)
    return ConfusionCounts(tp=tp, fp=2000 - 2 * tp)


def _report_with_f1(value, total=10, cwe_f1s=None):
    from sarif_triage.evaluate import EvalReport

    return EvalReport(
        mode="X",
        overall=counts_with_f1(value),
        per_cwe={cwe: counts_with_f1(v) for cwe, v in (cwe_f1s or {}).items()},
        unevaluated_count=0,
        unmatched_count=0,
        total_findings=total,
    )


def test_compare_modes_reports_signed_deltas():
    baseline = _report_with_f1(0.690)
    optimized = _report_with_f1(0.884)
    rows = compare_modes(baseline, optimized)
    assert rows[0].group == "overall"
    assert rows[0].delta == pytest.approx(0.194)
    assert rows[0].rendered() == "+0.194"


def test_compare_modes_zero_delta_on_equal_reports():
    report = _report_with_f1(0.5, cwe_f1s={"CWE-089": 0.5})
    rows = compare_modes(report, report)
    assert all(row.delta == 0.0 for row in rows)


def test_compare_modes_small_positive_delta():
    rows = compare_modes(_report_with_f1(0.892), _report_with_f1(0.910))
    assert rows[0].rendered() == "+0.018"


def test_compare_modes_rejects_mismatched_sets():
    with pytest.raises(MismatchedSets):
        compare_modes(_report_with_f1(0.5, total=10), _report_with_f1(0.5, total=11))
    with pytest.raises(MismatchedSets):
        compare_modes(
            _report_with_f1(0.5, cwe_f1s={"CWE-089": 0.4}),
            _report_with_f1(0.5, cwe_f1s={"CWE-022": 0.4}),
        )


def test_f1_delta_rounds_to_three_decimals():
    assert f1_delta(0.690, 0.884) == 0.194
    assert f1_delta(0.895, 0.791) == -0.104


def test_f1_bounds_hold_on_random_counts():
    rng = random.Random(20250808)
    for _ in range(200):
        m = ConfusionCounts(
            tp=rng.randint(0, 50), fp=rng.randint(0, 50),
            tn=rng.randint(0, 50), fn=rng.randint(0, 50),
        )
        assert 0.0 <= m.f1 <= 1.0
        assert m.f1 <= max(m.precision, m.recall) + 1e-12
        assert m.f1 >= min(m.precision, m.recall) - 1e-12 or m.f1 == 0.0


def _pinned_reports():
    """Two modes over two CWEs: every outcome, one UNEVALUATED row (f6) and
    one adjudicated row with no label (f7)."""
    fp, tp = Verdict.FALSE_POSITIVE, Verdict.TRUE_POSITIVE
    findings = [
        _finding(f"f{i}", cwe="CWE-089" if i < 4 else "CWE-079", uri=f"F{i}.java")
        for i in range(8)
    ]
    truths = [
        GroundTruth(
            label=Label.FALSE_POSITIVE if i in (0, 2, 4, 5) else Label.TRUE_VULNERABILITY,
            finding_id=f"f{i}",
        )
        for i in range(7)
    ]
    verdicts = {
        "OPTIMIZED": [fp, fp, tp, tp, fp, tp, None, tp],
        "BASELINE": [fp, tp, tp, tp, tp, fp, None, fp],
    }
    reports = {}
    for mode, row_verdicts in verdicts.items():
        rows = [
            AdjudicationResult(f"f{i}", mode, error="Exhausted: gave up")
            if verdict is None
            else _ok(f"f{i}", verdict, mode)
            for i, verdict in enumerate(row_verdicts)
        ]
        reports[mode] = build_report(findings, rows, truths, mode)
    return reports


def test_report_text_csv_and_dict_are_pinned_byte_for_byte():
    reports = _pinned_reports()
    deltas = compare_modes(reports["BASELINE"], reports["OPTIMIZED"])
    assert render_report_text(reports, deltas) == (
        "== BASELINE ==\n"
        "overall        tp=2     fp=0     tn=2     fn=2     P=1.000 R=0.500 F1=0.667\n"
        "CWE-079        tp=1     fp=0     tn=0     fn=1     P=1.000 R=0.500 F1=0.667\n"
        "CWE-089        tp=1     fp=0     tn=2     fn=1     P=1.000 R=0.500 F1=0.667\n"
        "unevaluated=1 unmatched=1 total=8\n"
        "\n"
        "== OPTIMIZED ==\n"
        "overall        tp=2     fp=1     tn=1     fn=2     P=0.667 R=0.500 F1=0.571\n"
        "CWE-079        tp=1     fp=0     tn=0     fn=1     P=1.000 R=0.500 F1=0.667\n"
        "CWE-089        tp=1     fp=1     tn=1     fn=1     P=0.500 R=0.500 F1=0.500\n"
        "unevaluated=1 unmatched=1 total=8\n"
        "\n"
        "== mode delta (optimized - baseline F1) ==\n"
        "overall        baseline=0.667 optimized=0.571 delta=-0.095\n"
        "CWE-079        baseline=0.667 optimized=0.667 delta=+0.000\n"
        "CWE-089        baseline=0.667 optimized=0.500 delta=-0.167\n"
    )

    assert render_report_csv(reports) == (
        "mode,group,tp,fp,tn,fn,precision,recall,f1\r\n"
        "BASELINE,overall,2,0,2,2,1.000,0.500,0.667\r\n"
        "BASELINE,CWE-079,1,0,0,1,1.000,0.500,0.667\r\n"
        "BASELINE,CWE-089,1,0,2,1,1.000,0.500,0.667\r\n"
        "OPTIMIZED,overall,2,1,1,2,0.667,0.500,0.571\r\n"
        "OPTIMIZED,CWE-079,1,0,0,1,1.000,0.500,0.667\r\n"
        "OPTIMIZED,CWE-089,1,1,1,1,0.500,0.500,0.500\r\n"
    )

    assert json.dumps(reports["BASELINE"].to_dict()) == (
        '{"mode": "BASELINE", '
        '"overall": {"tp": 2, "fp": 0, "tn": 2, "fn": 2, '
        '"precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666}, '
        '"per_cwe": {'
        '"CWE-079": {"tp": 1, "fp": 0, "tn": 0, "fn": 1, '
        '"precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666}, '
        '"CWE-089": {"tp": 1, "fp": 0, "tn": 2, "fn": 1, '
        '"precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666}}, '
        '"unevaluated_count": 1, "unmatched_count": 1, "total_findings": 8}'
    )
    assert json.dumps(reports["OPTIMIZED"].to_dict()) == (
        '{"mode": "OPTIMIZED", '
        '"overall": {"tp": 2, "fp": 1, "tn": 1, "fn": 2, '
        '"precision": 0.6666666666666666, "recall": 0.5, "f1": 0.5714285714285715}, '
        '"per_cwe": {'
        '"CWE-079": {"tp": 1, "fp": 0, "tn": 0, "fn": 1, '
        '"precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666}, '
        '"CWE-089": {"tp": 1, "fp": 1, "tn": 1, "fn": 1, '
        '"precision": 0.5, "recall": 0.5, "f1": 0.5}}, '
        '"unevaluated_count": 1, "unmatched_count": 1, "total_findings": 8}'
    )
