from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from conftest import FIXTURES, JAVA_DIR, OWASP_SRC
from corpus import build_corpus, write_config
from sarif_triage import context as context_module
from sarif_triage.context import (
    ContextLimits,
    SourceSnapshot,
    extract_baseline_context,
    extract_context,
)
from sarif_triage.ingest import CodeLocation, Finding, TraceStep
from sarif_triage.methods import locate_methods
from sarif_triage.pipeline import RunConfig, load_config, run_all, stage_context, stage_ingest


def _loc(uri, line, end=None):
    return CodeLocation(uri=uri, start_line=line, end_line=end or line)


def _finding(uri, step_lines, fid="f" * 64, rule="java/sql-injection"):
    steps = tuple(
        TraceStep(
            index=i + 1,
            kind="SOURCE" if i == 0 else (
                "SINK" if i == len(step_lines) - 1 else "STEP"
            ),
            location=_loc(uri, line),
            step_message=f"step {i + 1}",
        )
        for i, line in enumerate(step_lines)
    )
    primary = _loc(uri, step_lines[-1]) if step_lines else _loc(uri, 1)
    return Finding(
        finding_id=fid,
        rule_id=rule,
        cwe_id="CWE-089",
        message="msg",
        primary_location=primary,
        trace=steps,
        origin_index=0,
    )


def _reasons(ctx):
    return [(s.reason, s.start_line, s.end_line) for s in ctx.segments]


def test_single_step_trace_yields_one_step_line_segment():
    ctx = extract_context(_finding("SiblingMethods.java", [5]), SourceSnapshot(JAVA_DIR))
    assert _reasons(ctx) == [("STEP_LINE", 5, 5)]
    assert ctx.truncated is False
    assert ctx.total_lines == 1
    assert ctx.segments[0].text == "        return a + 1;"


def test_same_method_steps_get_intermediate_lines_between():
    ctx = extract_context(_finding("SameMethodFlow.java", [10, 15]), SourceSnapshot(JAVA_DIR))
    assert _reasons(ctx) == [
        ("STEP_LINE", 10, 10),
        ("INTERMEDIATE", 11, 14),
        ("STEP_LINE", 15, 15),
    ]
    intermediate = ctx.segments[1]
    assert intermediate.text.split("\n") == [
        "        java.util.List<String> values = new java.util.ArrayList<>();",
        '        values.add("safe");',
        "        values.add(param);",
        "        values.remove(0);",
    ]


def test_cross_method_steps_get_signatures_and_call_site():
    ctx = extract_context(_finding("CrossMethodFlow.java", [10, 17]), SourceSnapshot(JAVA_DIR))
    assert _reasons(ctx) == [
        ("STEP_LINE", 10, 10),
        ("METHOD_SIGNATURE", 9, 9),
        ("METHOD_SIGNATURE", 15, 15),
        ("CALL_SITE", 12, 12),
        ("STEP_LINE", 17, 17),
    ]
    assert ctx.segments[3].text.strip() == "runSql(bar);"


def test_adjacent_steps_produce_no_intermediate():
    ctx = extract_context(_finding("SameMethodFlow.java", [15, 16]), SourceSnapshot(JAVA_DIR))
    assert _reasons(ctx) == [
        ("STEP_LINE", 15, 15),
        ("STEP_LINE", 16, 16),
    ]


def test_coincident_ranges_are_deduplicated():
    ctx = extract_context(_finding("SameMethodFlow.java", [10, 10, 15]), SourceSnapshot(JAVA_DIR))
    step_lines = [s for s in ctx.segments if s.reason == "STEP_LINE"]
    assert [(s.start_line, s.end_line) for s in step_lines] == [(10, 10), (15, 15)]


def test_missing_file_marks_partial_never_fatal():
    ctx = extract_context(_finding("Nowhere.java", [3, 7]), SourceSnapshot(JAVA_DIR))
    assert ctx.segments == ()
    assert ctx.partial is True
    assert any("missing file" in note for note in ctx.notes)


def test_line_out_of_range_skips_segment_and_flags():
    ctx = extract_context(_finding("SiblingMethods.java", [5, 999]), SourceSnapshot(JAVA_DIR))
    assert _reasons(ctx) == [("STEP_LINE", 5, 5)]
    assert ctx.partial is True
    assert any("line out of range" in note for note in ctx.notes)


def test_empty_trace_uses_primary_location_only(minimal_finding):
    ctx = extract_context(minimal_finding, SourceSnapshot(JAVA_DIR))
    # file missing in this tree -> partial, but primary was attempted
    assert ctx.partial is True

    on_disk = _finding("SiblingMethods.java", [])
    ctx2 = extract_context(on_disk, SourceSnapshot(JAVA_DIR))
    assert _reasons(ctx2) == [("STEP_LINE", 1, 1)]
    assert ctx2.segments[0].step_index is None


def test_extraction_is_deterministic(owasp_finding):
    a = extract_context(owasp_finding, SourceSnapshot(OWASP_SRC))
    b = extract_context(owasp_finding, SourceSnapshot(OWASP_SRC))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def _long_method_tree(tmp_path, body_lines):
    lines = ["package gen;", "", "public class Big {", "    public void m() {"]
    lines += [f"        int v{i} = {i};" for i in range(body_lines)]
    lines += ["    }", "}"]
    (tmp_path / "Big.java").write_text("\n".join(lines) + "\n")
    first_body = 5
    last_body = 4 + body_lines
    return first_body, last_body


def test_long_intermediate_elided_to_head_and_tail(tmp_path):
    first, last = _long_method_tree(tmp_path, 100)
    ctx = extract_context(_finding("Big.java", [first, last]), SourceSnapshot(tmp_path))
    reasons = _reasons(ctx)
    assert reasons[0] == ("STEP_LINE", first, first)
    head = ctx.segments[1]
    tail = ctx.segments[2]
    assert head.reason == "INTERMEDIATE"
    assert head.line_count() == 20
    assert tail.line_count() == 20
    assert head.elided_after == (last - first - 1) - 40
    assert reasons[-1] == ("STEP_LINE", last, last)
    # per-segment text always covers exactly its recorded range
    for seg in ctx.segments:
        assert len(seg.text.split("\n")) == seg.line_count()


def test_total_lines_cap_drops_intermediates_and_flags_truncated(tmp_path):
    first, last = _long_method_tree(tmp_path, 100)
    limits = ContextLimits(max_total_lines=10, intermediate_elide_threshold=200)
    ctx = extract_context(_finding("Big.java", [first, last]), SourceSnapshot(tmp_path), limits)
    assert ctx.truncated is True
    assert all(s.reason != "INTERMEDIATE" for s in ctx.segments)
    assert ctx.total_lines <= 10


def test_the_line_cap_keeps_every_segment_when_no_intermediate_is_left_to_shed():
    limits = ContextLimits(max_total_lines=1)
    ctx = extract_context(_finding("SameMethodFlow.java", [10, 11]), SourceSnapshot(JAVA_DIR), limits)
    assert _reasons(ctx) == [("STEP_LINE", 10, 10), ("STEP_LINE", 11, 11)]
    assert ctx.truncated is True
    assert ctx.total_lines == 2
    assert ctx.notes == ()


def _wide_tree(tmp_path):
    lines = [f"line{i}" for i in range(1, 101)]
    (tmp_path / "Wide.java").write_text("\n".join(lines) + "\n")


def test_a_step_ending_past_the_file_is_clamped_with_a_note(tmp_path):
    _wide_tree(tmp_path)
    finding = _finding("Wide.java", [98])
    step = finding.trace[0]._replace(location=_loc("Wide.java", 98, 120))
    ctx = extract_context(finding._replace(trace=(step,)), SourceSnapshot(tmp_path))
    assert _reasons(ctx) == [("STEP_LINE", 98, 100)]
    assert ctx.notes == ("end line clamped: Wide.java:120 -> 100 (step 1)",)
    assert ctx.partial is True


def test_window5_notes_a_missing_file_and_a_line_out_of_range(tmp_path):
    _wide_tree(tmp_path)
    finding = _finding("Wide.java", [3, 50, 500])
    first = finding.trace[0]._replace(location=_loc("Nowhere.java", 3))
    finding = finding._replace(trace=(first, *finding.trace[1:]))
    ctx = extract_baseline_context(finding, SourceSnapshot(tmp_path), "WINDOW5")
    assert _reasons(ctx) == [("STEP_LINE", 45, 55)]
    assert ctx.notes == (
        "missing file: Nowhere.java (step 1)",
        "line out of range: Wide.java:500 (step 3, file has 100 lines)",
    )
    assert ctx.partial is True


def test_window5_clamps_at_file_start(tmp_path):
    lines = [f"line{i}" for i in range(1, 101)]
    (tmp_path / "Wide.java").write_text("\n".join(lines) + "\n")
    ctx = extract_baseline_context(
        _finding("Wide.java", [3]), SourceSnapshot(tmp_path), "WINDOW5"
    )
    assert [(s.start_line, s.end_line) for s in ctx.segments] == [(1, 8)]


def test_window5_is_five_lines_each_side(tmp_path):
    lines = [f"line{i}" for i in range(1, 101)]
    (tmp_path / "Wide.java").write_text("\n".join(lines) + "\n")
    ctx = extract_baseline_context(
        _finding("Wide.java", [50]), SourceSnapshot(tmp_path), "WINDOW5"
    )
    assert [(s.start_line, s.end_line) for s in ctx.segments] == [(45, 55)]


def test_whole_file_emits_one_segment_per_distinct_file():
    ctx = extract_baseline_context(
        _finding("SameMethodFlow.java", [10, 15, 16]), SourceSnapshot(JAVA_DIR), "WHOLE_FILE"
    )
    assert len(ctx.segments) == 1
    seg = ctx.segments[0]
    assert (seg.start_line, seg.end_line) == (1, 18)
    assert seg.text.startswith("package fixtures;")


@pytest.mark.parametrize("style", ["WINDOW", "window5", "BASELINE"])
def test_a_baseline_style_the_config_does_not_name_is_refused(style):
    finding = _finding("SameMethodFlow.java", [10])
    with pytest.raises(ValueError, match=f"unknown baseline style: '{style}'"):
        extract_baseline_context(finding, SourceSnapshot(JAVA_DIR), style)


def test_coverage_and_bounds_invariants(owasp_finding):
    ctx = extract_context(owasp_finding, SourceSnapshot(OWASP_SRC))
    file_lines = (OWASP_SRC / owasp_finding.primary_location.uri).read_text().split("\n")
    n = len(file_lines) - 1 if file_lines[-1] == "" else len(file_lines)
    for step in owasp_finding.trace:
        assert any(
            s.file == step.location.uri
            and s.start_line <= step.location.start_line <= s.end_line
            for s in ctx.segments
        )
    for seg in ctx.segments:
        assert 1 <= seg.start_line <= seg.end_line <= n


def _write_sarif(path, uris):
    results = [
        {
            "ruleId": "java/path-injection",
            "message": {"text": f"alert {i}"},
            "locations": [{"physicalLocation": {
                "artifactLocation": {"uri": uri},
                "region": {"startLine": 1},
            }}],
        }
        for i, uri in enumerate(uris)
    ]
    doc = {"version": "2.1.0", "runs": [{"tool": {"driver": {"name": "CodeQL"}}, "results": results}]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_uris_that_leave_the_source_root_read_as_missing(tmp_path):
    root = tmp_path / "src"
    (root / "app").mkdir(parents=True)
    (root / "app" / "Inside.java").write_text("class Inside {}\n")
    (tmp_path / "secret.txt").write_text("TOP-SECRET\n")
    uris = [
        (tmp_path / "secret.txt").as_uri(), "../secret.txt", "app/../../secret.txt",
        # Percent-encoded dot segments decode to ``..`` and stay confined.
        "%2E%2E/%2E/secret.txt", "%2E%2E/%2E%2E/etc/hostname",
    ]
    _write_sarif(tmp_path / "alerts.sarif", uris)
    out = tmp_path / "out"
    config = RunConfig(
        sarif_path=tmp_path / "alerts.sarif", source_root=root, output_dir=out,
        prompt_mode="BOTH", baseline_style="WHOLE_FILE",
    )
    stage_ingest(config)
    stage_context(config)
    for name in ("contexts.jsonl", "contexts_baseline.jsonl"):
        text = (out / name).read_text(encoding="utf-8")
        assert "TOP-SECRET" not in text
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == len(uris)
        for row in rows:
            assert row["segments"] == []
            assert row["partial"] is True
            assert any(note.startswith("missing file") for note in row["notes"])
    stamp = json.loads((out / ".stamps" / "context.json").read_text(encoding="utf-8"))
    sources = {k: v for k, v in stamp["inputs"].items() if k.startswith("src:")}
    assert len(sources) == len(uris)
    assert set(sources.values()) == {"missing"}


def test_percent_encoded_uris_name_the_decoded_file(tmp_path):
    # SARIF's artifactLocation.uri is a URI reference: a space arrives as %20.
    root = tmp_path / "src"
    (root / "a b").mkdir(parents=True)
    (root / "a b" / "Foo.java").write_text("class Foo {\n    void run() {}\n}\n")
    _write_sarif(tmp_path / "alerts.sarif", ["a%20b/Foo.java"])
    out = tmp_path / "out"
    config = RunConfig(
        sarif_path=tmp_path / "alerts.sarif", source_root=root, output_dir=out,
        prompt_mode="BOTH", baseline_style="WHOLE_FILE",
    )
    stage_ingest(config)
    stage_context(config)
    findings = [json.loads(line) for line in (out / "findings.jsonl").read_text().splitlines()]
    assert [f["primary_location"]["uri"] for f in findings] == ["a b/Foo.java"]
    for name in ("contexts.jsonl", "contexts_baseline.jsonl"):
        rows = [json.loads(line) for line in (out / name).read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["partial"] is False
        assert rows[0]["segments"]
        assert not any(note.startswith("missing file") for note in rows[0]["notes"])


def test_one_method_scan_per_distinct_file_per_run(tmp_path, monkeypatch):
    corpus = build_corpus(tmp_path / "corpus")
    # Every alert reported twice, as two analyzer runs over one tree would:
    # each traced file is then named by two findings.
    sarif = json.loads(corpus.sarif_path.read_text(encoding="utf-8"))
    sarif["runs"][0]["results"] *= 2
    corpus.sarif_path.write_text(json.dumps(sarif), encoding="utf-8")
    scanned: list[str] = []

    def counting_locate_methods(text, uri):
        scanned.append(uri)
        return locate_methods(text, uri)

    monkeypatch.setattr(context_module, "locate_methods", counting_locate_methods)
    config = load_config(write_config(corpus, tmp_path / "out", prompt_mode="BOTH",
                                      with_labels=False))
    run_all(config)
    traced = {step.location.uri for f in corpus.findings for step in f.trace}
    assert len(traced) == 18
    assert sorted(scanned) == sorted(traced)


def test_snapshot_keeps_absolute_uris_and_symlinks_inside_the_root(tmp_path):
    root = tmp_path / "src"
    (root / "app").mkdir(parents=True)
    (root / "app" / "A.java").write_bytes(b"class A {\r\n}\r")
    (tmp_path / "shared").mkdir()
    (tmp_path / "shared" / "B.java").write_text("class B {}\n")
    (root / "app" / "B.java").symlink_to(tmp_path / "shared" / "B.java")
    source = SourceSnapshot(root)
    assert source.lines("app/A.java") == ["class A {", "}"]
    assert source.lines(str(root / "app" / "A.java")) == ["class A {", "}"]
    assert source.lines("app/../app/A.java") == ["class A {", "}"]
    assert source.sha256("app/A.java") == hashlib.sha256(b"class A {\r\n}\r").hexdigest()
    assert source.lines("app/B.java") == ["class B {}"]
    assert source.lines("../shared/B.java") is None
    assert source.sha256("../shared/B.java") == "missing"
    assert source.sha256("app/Nowhere.java") == "missing"


def test_snapshot_reads_a_uri_that_leaves_the_root_as_missing(tmp_path):
    root = tmp_path / "src"
    (root / "app").mkdir(parents=True)
    (root / "app" / "A.java").write_text("class A {}\n")
    # A sibling whose name the root's name begins with: a test of the path's
    # prefix that leaves out the separator takes it for part of the root.
    (tmp_path / "src2").mkdir()
    (tmp_path / "src2" / "X.java").write_text("class X {}\n")
    (tmp_path / "Y.java").write_text("class Y {}\n")
    outside = ["../src2/X.java", "app/../../src2/X.java", "../Y.java", "..", "app/../..",
               str(tmp_path / "src2" / "X.java"), str(tmp_path / "Y.java"), "/", "", ".",
               "app", "app/A.java/x", "app/A.java\0", "x" * 300 + ".java"]
    for root_spelling in (root, f"{root}{os.sep}", f"{root}{os.sep}app{os.sep}.."):
        source = SourceSnapshot(root_spelling)
        for uri in outside:
            assert source.sha256(uri) == "missing", (root_spelling, uri)
            assert source.lines(uri) is None, (root_spelling, uri)
        assert source.lines("app/A.java") == ["class A {}"]
        assert source.lines(str(root / "app" / "A.java")) == ["class A {}"]


def test_snapshot_reads_through_a_symlinked_root_and_a_symlinked_directory(tmp_path):
    (tmp_path / "real" / "app").mkdir(parents=True)
    (tmp_path / "real" / "app" / "A.java").write_text("class A {}\n")
    (tmp_path / "root").symlink_to(tmp_path / "real")
    (tmp_path / "real" / "linked").symlink_to(tmp_path / "real" / "app")
    source = SourceSnapshot(tmp_path / "root")
    assert source.lines("app/A.java") == ["class A {}"]
    assert source.lines("linked/A.java") == ["class A {}"]
    assert source.lines("../real/app/A.java") is None


def test_context_using_an_unbalanced_files_methods_is_partial_and_names_it():
    # Unbalanced.java ends inside `dangling`, so its scan cannot close it.
    source = SourceSnapshot(FIXTURES / "java_bad")
    ctx = extract_context(_finding("Unbalanced.java", [5, 9]), source)
    assert ctx.partial is True
    assert ctx.notes == (
        "unbalanced braces: Unbalanced.java: file ends inside 2 unclosed brace block(s)",
    )
    assert ("STEP_LINE", 5, 5) in _reasons(ctx)
    assert ("STEP_LINE", 9, 9) in _reasons(ctx)


def _two_method_flow(tmp_path, callee, calls, callee_first):
    """``go`` reads a source and makes ``calls``, one a line; ``callee``
    holds the sink, declared above or below ``go``. The steps are the
    source and the sink."""
    callee_body = [f"    void {callee}(String s) {{", "        sink(s);", "    }"]
    caller_body = ["    void go() {", "        String s = source();",
                   *(f"        {call};" for call in calls), "        done();", "    }"]
    methods = [*callee_body, "", *caller_body] if callee_first else [*caller_body, "", *callee_body]
    lines = ["class Flow {", *methods, "}"]
    (tmp_path / "Flow.java").write_text("\n".join(lines) + "\n")
    source, sink = lines.index("        String s = source();"), lines.index("        sink(s);")
    return _finding("Flow.java", [source + 1, sink + 1]), lines


@pytest.mark.parametrize("callee_first", [False, True])
def test_the_call_site_is_found_wherever_the_callee_is_declared(tmp_path, callee_first):
    finding, lines = _two_method_flow(tmp_path, "load", ["load(s)"], callee_first)
    ctx = extract_context(finding, SourceSnapshot(tmp_path))
    call_sites = [s for s in ctx.segments if s.reason == "CALL_SITE"]
    assert [(s.start_line, s.text) for s in call_sites] == [
        (lines.index("        load(s);") + 1, "        load(s);")
    ]
    assert call_sites[0].step_index == 1
    assert ctx.notes == ()


@pytest.mark.parametrize("callee, calls, found", [
    ("$load", ["$load(s)"], ["$load(s);"]),
    ("load$", ["load$ (s)"], ["load$ (s);"]),
    ("run", ["a$run(s)", "run(s)"], ["run(s);"]),
    ("run", ["a$run(s)", "b_run(s)", "run$(s)"], []),
])
def test_the_call_site_pattern_bounds_the_name_by_identifier_characters(
    tmp_path, callee, calls, found
):
    finding, _ = _two_method_flow(tmp_path, callee, calls, False)
    ctx = extract_context(finding, SourceSnapshot(tmp_path))
    assert [s.text.strip() for s in ctx.segments if s.reason == "CALL_SITE"] == found


# A source, step and sink with four filler lines between each, in bodies
# given as (lines before, lines after). Only the ordinary method is a
# method record; the scanner records none of the other four.
_FLOW = ["String a = source();", *["int f = 0;"] * 4, "String b = a.trim();",
         *["int g = 0;"] * 4, "sink(b);"]
_BODIES = {
    "ordinary-method": (["class O {", "void m() {"], ["}", "}"]),
    "compact-constructor": (["record P(String s) {", "P {"], ["}", "}"]),
    "anonymous-class-in-field": (["class A {", "Runnable r = new Runnable() {",
                                  "public void run() {"], ["}", "};", "}"]),
    "enum-constant-body": (["enum E {", "C {", "void m() {"], ["}", "};", "}"]),
    "static-initializer": (["class S {", "static {"], ["}", "}"]),
}


@pytest.mark.parametrize("body", sorted(_BODIES))
def test_a_step_pair_outside_every_method_record_says_so(tmp_path, body):
    before, after = _BODIES[body]
    (tmp_path / "Flow.java").write_text("\n".join([*before, *_FLOW, *after]) + "\n")
    steps = [len(before) + 1, len(before) + 6, len(before) + 11]
    ctx = extract_context(_finding("Flow.java", steps), SourceSnapshot(tmp_path))
    if body == "ordinary-method":
        assert (len(ctx.segments), ctx.total_lines, ctx.partial, ctx.notes) == (5, 11, False, ())
        return
    assert _reasons(ctx) == [("STEP_LINE", line, line) for line in steps]
    assert ctx.partial is True
    assert ctx.notes == tuple(f"no enclosing method: Flow.java:{line} (step {k})"
                              for k, line in enumerate(steps, 1))


# Contexts pinned byte for byte: seeded findings over the three fixture
# trees, each extracted by ``extract_context`` under the default and a tight
# set of limits and by both baseline styles. Steps may name a missing file,
# a line past the end, or a range ending past it; the tight limits elide
# and cap. A case's value is the start of the SHA-256 of its artifact row;
# a change meant to alter context bytes rewrites the file from
# ``_pinned_contexts`` and names the cases that moved.
_CONTEXT_PIN = FIXTURES / "context_pin.json"
_PIN_TREES = {"java": JAVA_DIR, "java_bad": FIXTURES / "java_bad", "src_owasp": OWASP_SRC}
_TIGHT = ContextLimits(max_total_lines=10, intermediate_elide_threshold=4,
                       elide_head_lines=1, elide_tail_lines=2)
_PIN_EXTRACTORS = {
    "extract": lambda f, s: extract_context(f, s),
    "extract-tight": lambda f, s: extract_context(f, s, _TIGHT),
    "WINDOW5": lambda f, s: extract_baseline_context(f, s, "WINDOW5", _TIGHT),
    "WHOLE_FILE": lambda f, s: extract_baseline_context(f, s, "WHOLE_FILE", _TIGHT),
}


def _pin_findings(tree, source, count=60):
    rng = random.Random(f"context-pin:{tree}")
    uris = sorted(p.relative_to(source.root).as_posix()
                  for p in _PIN_TREES[tree].rglob("*.java")) + ["Missing.java"]

    def location(uri, near=None):
        size = len(source.lines(uri) or ())
        # Most steps land a few lines past the one before, in its file.
        start = rng.randint(1, size + 2) if near is None else near + rng.randint(1, 8)
        return _loc(uri, start, start + rng.choice([0, 0, 0, 1, 4]))

    for number in range(count):
        uri = rng.choice(uris)
        steps = []
        for index in range(1, rng.randint(0, 5) + 1):
            near = None
            if rng.random() < 0.2:
                uri = rng.choice(uris)
            elif steps and rng.random() < 0.7:
                near = steps[-1].location.start_line
            steps.append(TraceStep(index, "STEP", location(uri, near), ""))
        primary = steps[-1].location if steps else location(uri)
        yield Finding(f"{number:064x}", "java/pin", "CWE-089", "msg", primary, tuple(steps), number)


def _pinned_contexts():
    for tree in _PIN_TREES:
        source = SourceSnapshot(_PIN_TREES[tree])
        for finding in _pin_findings(tree, source):
            for name, extract in _PIN_EXTRACTORS.items():
                yield f"{tree}/{finding.origin_index:02d}/{name}", extract(finding, source)


def _row_digest(ctx):
    row = json.dumps(ctx.to_dict(), ensure_ascii=False)
    return hashlib.sha256(row.encode("utf-8")).hexdigest()[:16]


def test_contexts_match_the_pinned_bytes():
    contexts = dict(_pinned_contexts())
    pinned = json.loads(_CONTEXT_PIN.read_text(encoding="utf-8"))
    assert {case: _row_digest(ctx) for case, ctx in contexts.items()} == pinned
    # The pinned cases reach every note kind, elision, the cap and call sites.
    notes = {note.split(":")[0] for ctx in contexts.values() for note in ctx.notes}
    assert notes == {"missing file", "line out of range", "end line clamped",
                     "unbalanced braces", "no enclosing method"}
    assert any("line out of range" in note for case, ctx in contexts.items()
               if case.endswith("/WINDOW5") for note in ctx.notes)
    segments = [s for ctx in contexts.values() for s in ctx.segments]
    assert {s.reason for s in segments} == {"STEP_LINE", "INTERMEDIATE", "METHOD_SIGNATURE", "CALL_SITE"}
    assert any(s.elided_after for s in segments)
    assert any(ctx.truncated for case, ctx in contexts.items() if case.endswith("/extract-tight"))
    assert any(ctx.truncated for case, ctx in contexts.items() if case.endswith("/WHOLE_FILE"))
