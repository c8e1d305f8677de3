from __future__ import annotations

import json
import random

import pytest

from conftest import SARIF_DIR, rows_in
from sarif_triage.ingest import (
    CWE_UNKNOWN,
    CodeLocation,
    Finding,
    MalformedJson,
    NotSarif,
    canonicalize,
    compute_finding_id,
    normalize_cwe,
    parse_sarif,
)
from sarif_triage.pipeline import write_rows

OWASP_GOLDEN_ID = "ed24fe20eea0c733ea6ac7cbf739c8b1a4997ac666722f4856d411f334c5ea75"


def _sarif(results, rules=None, version="2.1.0"):
    return json.dumps(
        {
            "version": version,
            "runs": [
                {
                    "tool": {"driver": {"name": "CodeQL", "rules": rules or []}},
                    "results": results,
                }
            ],
        }
    ).encode("utf-8")


def _result(rule_id="java/x", uri="A.java", line=3, flows=None):
    result = {
        "ruleId": rule_id,
        "message": {"text": "alert"},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": line},
                }
            }
        ],
    }
    if flows is not None:
        result["codeFlows"] = flows
    return result


def _flow(steps):
    locations = [
        {
            "location": {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": line},
                },
                "message": {"text": msg},
            }
        }
        for uri, line, msg in steps
    ]
    return [{"threadFlows": [{"locations": locations}]}]


def test_empty_runs_yield_zero_results():
    doc = parse_sarif(b'{"version": "2.1.0", "runs": []}')
    assert doc == ()
    assert canonicalize(doc) == []


def test_minimal_fixture_has_one_result_and_no_trace(minimal_finding):
    assert minimal_finding.rule_id == "java/example-rule"
    assert minimal_finding.trace == ()
    assert minimal_finding.cwe_id == "CWE-079"
    assert minimal_finding.primary_location.uri == "org/example/web/Example.java"
    assert minimal_finding.primary_location.start_line == 3


def test_owasp205_thread_flow_is_four_steps_in_order(owasp_finding):
    assert len(owasp_finding.trace) == 4
    assert [s.index for s in owasp_finding.trace] == [1, 2, 3, 4]
    assert [s.kind for s in owasp_finding.trace] == [
        "SOURCE",
        "STEP",
        "STEP",
        "SINK",
    ]
    assert owasp_finding.trace[0].step_message == "getHeader(...) : String"
    assert owasp_finding.trace[3].step_message == "sql"
    assert owasp_finding.trace[0].location.start_line == 10
    assert owasp_finding.trace[3].location.start_line == 13


def test_malformed_json_and_not_sarif_are_distinct():
    with pytest.raises(MalformedJson):
        parse_sarif(b"this is not json")
    with pytest.raises(NotSarif):
        parse_sarif(b'{"version": "2.1.0"}')
    with pytest.raises(NotSarif):
        parse_sarif(b'{"runs": []}')  # missing version
    with pytest.raises(MalformedJson):
        parse_sarif(b"\xff\xfe\x00broken")


def test_json_beyond_the_decoders_limits_is_malformed():
    with pytest.raises(MalformedJson):
        parse_sarif(b'{"version": "2.1.0", "runs": [], "n": ' + b"1" * 5000 + b"}")
    with pytest.raises(MalformedJson):
        parse_sarif(b"[" * 100_000 + b"]" * 100_000)


def test_result_without_rule_or_location_is_schema_error():
    with pytest.raises(NotSarif, match="ruleId"):
        parse_sarif(_sarif([{"message": {"text": "x"}, "locations": [{}]}]))
    with pytest.raises(NotSarif, match="locations"):
        parse_sarif(_sarif([{"ruleId": "r", "message": {"text": "x"}}]))


def test_cwe_resolved_from_rule_tags():
    rules = [{"id": "java/sqli", "properties": {"tags": ["security", "external/cwe/cwe-089"]}}]
    doc = parse_sarif(_sarif([_result(rule_id="java/sqli")], rules=rules))
    assert canonicalize(doc)[0].cwe_id == "CWE-089"


def test_cwe_falls_back_to_map_then_unknown():
    doc = parse_sarif(_sarif([_result(rule_id="vendor/rule")]))
    assert canonicalize(doc, {"vendor/rule": "CWE-79"})[0].cwe_id == "CWE-079"
    assert canonicalize(doc)[0].cwe_id == CWE_UNKNOWN


@pytest.mark.parametrize(
    "tags,cwe_map,expected",
    [
        (["external/cwe/cwe-089"], {"java/x": "CWE-79"}, "CWE-089"),
        (["security"], {"java/x": "CWE-79"}, "CWE-079"),
        (["security"], {"java/x": "not-a-cwe"}, CWE_UNKNOWN),
    ],
    ids=["a-driver-tag-wins-over-the-map", "tags-naming-no-cwe-leave-the-map",
         "a-map-value-naming-no-cwe-is-unknown"],
)
def test_cwe_precedence_is_driver_tag_then_cwe_map_then_unknown(tags, cwe_map, expected):
    rules = [{"id": "java/x", "properties": {"tags": tags}}]
    doc = parse_sarif(_sarif([_result(rule_id="java/x")], rules=rules))
    assert [finding.cwe_id for finding in canonicalize(doc, cwe_map)] == [expected]


def test_no_code_flows_means_empty_trace():
    doc = parse_sarif(_sarif([_result()]))
    finding = canonicalize(doc)[0]
    assert finding.trace == ()


def test_byte_identical_results_get_distinct_ids():
    doc = parse_sarif(_sarif([_result(), _result()]))
    findings = canonicalize(doc)
    assert findings[0].finding_id != findings[1].finding_id
    assert [f.origin_index for f in findings] == [0, 1]


def test_finding_id_is_deterministic_and_sensitive(owasp_finding):
    same = compute_finding_id(
        owasp_finding.rule_id,
        owasp_finding.primary_location,
        [s.location for s in owasp_finding.trace],
        owasp_finding.origin_index,
    )
    assert same == owasp_finding.finding_id
    loc = owasp_finding.trace[0].location
    moved = CodeLocation(loc.uri, loc.start_line + 1, loc.end_line + 1, loc.start_column, loc.end_column)
    changed = compute_finding_id(
        owasp_finding.rule_id,
        owasp_finding.primary_location,
        [moved] + [s.location for s in owasp_finding.trace[1:]],
        owasp_finding.origin_index,
    )
    assert changed != owasp_finding.finding_id


def test_owasp_fixture_id_matches_golden(owasp_finding):
    assert owasp_finding.finding_id == OWASP_GOLDEN_ID


def test_extra_code_flows_are_counted_not_consumed():
    flows = _flow([("A.java", 1, "src")]) + _flow([("A.java", 2, "alt")])
    doc = parse_sarif(_sarif([_result(flows=flows)]))
    finding = canonicalize(doc)[0]
    assert finding.extra_flow_count == 1
    assert len(finding.trace) == 1
    assert finding.trace[0].kind == "SOURCE"  # degenerate single step


def test_single_step_trace_is_source_only():
    doc = parse_sarif(_sarif([_result(flows=_flow([("A.java", 1, "m")]))]))
    trace = canonicalize(doc)[0].trace
    assert [s.kind for s in trace] == ["SOURCE"]


def test_round_trip_and_jsonl_serialization(tmp_path, owasp_finding, minimal_finding):
    raw = (SARIF_DIR / "owasp205.sarif").read_bytes()
    once = canonicalize(parse_sarif(raw))
    twice = canonicalize(parse_sarif(raw))
    assert once == twice

    path = tmp_path / "findings.jsonl"
    write_rows(path, [owasp_finding, minimal_finding])
    loaded = [Finding.from_dict(row) for row in rows_in(path)]
    assert loaded == [owasp_finding, minimal_finding]
    # documented fixed key order
    first = json.loads(path.read_text().splitlines()[0])
    assert list(first) == [
        "finding_id", "rule_id", "cwe_id", "message",
        "primary_location", "trace", "origin_index", "extra_flow_count",
    ]


def test_totality_order_and_trace_kinds_on_random_documents():
    rng = random.Random(20250808)
    for _ in range(25):
        results = []
        for i in range(rng.randint(0, 12)):
            if rng.random() < 0.5:
                steps = [
                    (f"F{rng.randint(0, 3)}.java", rng.randint(1, 200), f"m{i}")
                    for _ in range(rng.randint(1, 6))
                ]
                results.append(_result(rule_id=f"r{rng.randint(0, 4)}", flows=_flow(steps)))
            else:
                results.append(_result(rule_id=f"r{rng.randint(0, 4)}"))
        doc = parse_sarif(_sarif(results))
        findings = canonicalize(doc)
        assert len(findings) == len(results)  # totality
        assert [f.origin_index for f in findings] == list(range(len(results)))
        for f in findings:
            if not f.trace:
                continue
            kinds = [s.kind for s in f.trace]
            assert kinds[0] == "SOURCE"
            assert kinds.count("SOURCE") == 1
            if len(kinds) > 1:
                assert kinds[-1] == "SINK"
                assert kinds.count("SINK") == 1


def test_origin_index_continues_across_runs():
    doc = parse_sarif(
        json.dumps(
            {
                "version": "2.1.0",
                "runs": [
                    {"tool": {"driver": {"name": "A"}}, "results": [_result(), _result()]},
                    {"tool": {"driver": {"name": "B"}}, "results": [_result()]},
                ],
            }
        ).encode("utf-8")
    )
    findings = canonicalize(doc)
    assert [f.origin_index for f in findings] == [0, 1, 2]


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("CWE-89", "CWE-089"),
        ("cwe-089", "CWE-089"),
        ("external/cwe/cwe-22", "CWE-022"),
        ("89", "CWE-089"),
        ("CWE-1004", "CWE-1004"),
        ("not-a-cwe", CWE_UNKNOWN),
        # Digits outside ASCII (Arabic-Indic, fullwidth, superscript) are no CWE number.
        ("external/cwe/cwe-\u0660\u0668\u0669", CWE_UNKNOWN),
        ("CWE-\uff18\uff19", CWE_UNKNOWN),
        ("\u00b2", CWE_UNKNOWN),
    ],
)
def test_normalize_cwe(raw, expected):
    assert normalize_cwe(raw) == expected


def test_bad_location_line_rejected():
    # The SARIF reader is the one place that checks a location's lines.
    with pytest.raises(NotSarif, match=r"^runs\[0\]\.results\[0\]\.locations\[0\]"
                       r"\.physicalLocation\.region\.startLine is not an integer >= 1: 0$"):
        parse_sarif(_sarif([_result(line=0)]))
    flow = _flow([("A.java", 5, "step")])
    flow[0]["threadFlows"][0]["locations"][0]["location"]["physicalLocation"]["region"][
        "endLine"] = 4
    with pytest.raises(NotSarif, match=r"^runs\[0\]\.results\[0\]\.codeFlows\[0\]"
                       r"\.threadFlows\[0\]\.locations\[0\]\.location\.physicalLocation"
                       r"\.region\.endLine 4 precedes startLine 5$"):
        parse_sarif(_sarif([_result(flows=flow)]))
