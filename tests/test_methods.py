from __future__ import annotations

import json
import warnings

import pytest

from conftest import BOUNDARY_TABLE, FIXTURES, JAVA_DIR
from sarif_triage.methods import _strip_leading_annotations, enclosing_method, locate_methods


def _records(name: str):
    return locate_methods((JAVA_DIR / name).read_text(), name)


def test_interface_constants_has_zero_methods():
    assert _records("InterfaceConstants.java") == []


def test_sibling_methods_exact_boundaries():
    records = _records("SiblingMethods.java")
    assert [(r.name, r.start_line, r.end_line) for r in records] == [
        ("first", 4, 6),
        ("second", 8, 11),
    ]


def test_braces_in_string_and_char_literals_are_ignored():
    records = _records("LiteralBraces.java")
    assert [(r.name, r.start_line, r.end_line) for r in records] == [
        ("tricky", 4, 7),
        ("count", 9, 15),
    ]


def test_braces_in_comments_are_ignored():
    records = _records("CommentBraces.java")
    assert [(r.name, r.start_line, r.end_line) for r in records] == [
        ("value", 6, 9),
        ("other", 14, 16),
    ]


def test_annotations_fold_into_signature_line():
    records = _records("AnnotatedMethods.java")
    assert records[0].signature_line == "@Override public String toString()"
    assert (
        records[1].signature_line
        == '@SuppressWarnings("unchecked") protected static final int compute(int x)'
    )


def test_multiline_signature_normalizes_to_one_line():
    (record,) = _records("SameMethodFlow.java")
    assert record.name == "handle"
    assert record.start_line == 6
    assert record.signature_end_line == 8
    assert record.signature_line == (
        "public void handle(javax.servlet.http.HttpServletRequest request) "
        "throws java.sql.SQLException"
    )


def test_nested_bodies_never_produce_records():
    assert [r.name for r in _records("LambdaInside.java")] == ["total"]
    assert [r.name for r in _records("AnonymousClass.java")] == ["task", "also"]
    assert [r.name for r in _records("StaticInitializer.java")] == ["get"]


def test_full_boundary_table_equivalence():
    table = json.loads(BOUNDARY_TABLE.read_text())
    assert len(table) == 13
    for file_name, expected in sorted(table.items()):
        records = _records(file_name)
        got = [
            {
                "name": r.name,
                "signature_line": r.signature_line,
                "start_line": r.start_line,
                "end_line": r.end_line,
            }
            for r in records
        ]
        assert got == expected, file_name


def test_text_block_with_a_lone_quote_and_a_brace_keeps_both_methods():
    records = _records("TextBlock.java")
    assert records.problems == []
    assert [(r.name, r.start_line, r.signature_end_line, r.end_line) for r in records] == [
        ("banner", 8, 8, 10),
        ("query", 12, 12, 17),
    ]


def test_unterminated_text_block_runs_to_the_end_of_the_file():
    source = 'class A {\n void m() {\n  String s = """\n   } }\n'
    records = locate_methods(source, "Open.java")
    assert records == []
    assert records.problems == ["Open.java: file ends inside 2 unclosed brace block(s)"]


def test_unbalanced_file_returns_closed_methods_and_its_problem_under_warnings_as_errors():
    # The scan reports through its result, not through process-wide warning
    # state, so a filter that turns warnings into errors changes nothing.
    source = (FIXTURES / "java_bad" / "Unbalanced.java").read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = locate_methods(source, "Unbalanced.java")
    assert [r.name for r in records] == ["closed"]
    assert records.problems == ["Unbalanced.java: file ends inside 2 unclosed brace block(s)"]


def test_stray_closing_brace_is_a_problem():
    records = locate_methods("}\nclass A {\n void m() {\n }\n}\n", "Stray.java")
    assert [r.name for r in records] == ["m"]
    assert records.problems == ["Stray.java:1: unmatched closing brace"]


def test_crlf_input_is_normalized_before_line_math():
    source = (JAVA_DIR / "SiblingMethods.java").read_text().replace("\n", "\r\n")
    records = locate_methods(source, "SiblingMethods.java")
    assert [(r.name, r.start_line, r.end_line) for r in records] == [
        ("first", 4, 6),
        ("second", 8, 11),
    ]


def test_enclosing_method_picks_innermost_containing_span():
    records = _records("CrossMethodFlow.java")
    assert enclosing_method(records, 10).name == "doGet"
    assert enclosing_method(records, 17).name == "runSql"
    assert enclosing_method(records, 1) is None


@pytest.mark.parametrize(
    "prefix", ["", "public ", "@Retention(RUNTIME) ", "@Retention(RUNTIME) public "],
    ids=["bare", "public", "annotated", "annotated-public"],
)
def test_an_annotation_type_is_a_type_whatever_precedes_it(prefix):
    source = f"{prefix}@interface Marker {{\n  class Inner {{\n    void m() {{\n    }}\n  }}\n}}\n"
    records = locate_methods(source, "Marker.java")
    assert [(r.name, r.start_line, r.end_line) for r in records] == [("m", 3, 4)]
    assert records.problems == []


def test_unterminated_annotation_args_leave_the_rest_of_the_declaration():
    assert _strip_leading_annotations('@A @B("x", (1) class C') == '("x", (1) class C'
