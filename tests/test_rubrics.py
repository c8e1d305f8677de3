from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from conftest import rubrics_in
from sarif_triage.pipeline import SHIPPED_RUBRIC_DIR
from sarif_triage.rubrics import (
    GENERIC_ID,
    SHIPPED_CWES,
    RUBRIC_TAGS,
    InvalidRubric,
    parse_rubric_text,
    rubric_for,
)


@pytest.fixture(scope="module")
def store():
    return rubrics_in(SHIPPED_RUBRIC_DIR)


# The OWASP Benchmark's eleven categories, which the paper evaluates on.
_OWASP_BENCHMARK_CWES = ("CWE-022", "CWE-078", "CWE-079", "CWE-089", "CWE-090", "CWE-327",
                         "CWE-328", "CWE-330", "CWE-501", "CWE-614", "CWE-643")


def test_shipped_directory_loads_the_owasp_benchmark_cwes_plus_generic(store):
    assert SHIPPED_CWES == _OWASP_BENCHMARK_CWES
    assert set(SHIPPED_CWES) | {GENERIC_ID} == set(store)


def test_the_shipped_cwes_are_the_shipped_rubric_files_sorted(store):
    names = [path.name for path in sorted(SHIPPED_RUBRIC_DIR.glob("cwe-*.rubric"))]
    assert [f"{cwe.lower()}.rubric" for cwe in SHIPPED_CWES] == names
    assert list(SHIPPED_CWES) == sorted(store.keys() - {GENERIC_ID})


def test_every_shipped_rubric_meets_invariants(store):
    for rubric in store.values():
        assert 10 <= len(rubric.rules) <= 20, rubric.cwe_id
        tags = {rule.tag for rule in rubric.rules}
        assert tags == set(RUBRIC_TAGS), rubric.cwe_id
        assert 3 <= len(rubric.checklist) <= 7, rubric.cwe_id
        for rule in rubric.rules:
            assert rule.text.endswith("."), (rubric.cwe_id, rule.text)
            assert "\n" not in rule.text


def test_cwe_501_mentions_auth_checks_at_trust_boundaries(store):
    rubric = store["CWE-501"]
    joined = " ".join(rule.text.lower() for rule in rubric.rules)
    assert "authentication" in joined
    assert "authorization" in joined
    assert "trust boundar" in joined


def test_cwe_089_safe_idioms_cover_constant_collection_values(store):
    safe = [r.text.lower() for r in store["CWE-089"].rules if r.tag == "SAFE_IDIOM"]
    assert any("collection" in text or "list" in text for text in safe)


def test_lookup_exact_then_generic_fallback(store):
    assert rubric_for("CWE-089", store).title == "SQL Injection"
    assert rubric_for("CWE-UNKNOWN", store).cwe_id == GENERIC_ID
    assert rubric_for("CWE-9999", store).cwe_id == GENERIC_ID


def test_loading_is_order_independent(store):
    again = rubrics_in(SHIPPED_RUBRIC_DIR)
    assert again == store


def _rubric_text(n_rules=12, tags=None, checks=4):
    tags = tags or (["HIGH_RISK", "SAFE_IDIOM", "NON_SANITIZER"] * 6)
    lines = ["cwe: CWE-089", "title: Test"]
    for i in range(n_rules):
        lines.append(f"rule {tags[i % len(tags)]}: Declarative sentence number {i}.")
    for i in range(checks):
        lines.append(f"check: Question number {i}?")
    return "\n".join(lines)


def test_nine_rules_is_invalid():
    with pytest.raises(InvalidRubric, match="9 rules"):
        parse_rubric_text(_rubric_text(n_rules=9), "nine.rubric")


def test_twenty_one_rules_is_invalid():
    with pytest.raises(InvalidRubric, match="21 rules"):
        parse_rubric_text(_rubric_text(n_rules=21), "many.rubric")


def test_missing_tag_is_invalid():
    with pytest.raises(InvalidRubric, match="NON_SANITIZER"):
        parse_rubric_text(
            _rubric_text(tags=["HIGH_RISK", "SAFE_IDIOM"]), "tags.rubric"
        )


def test_unknown_tag_reports_file_and_rule():
    text = "cwe: CWE-089\ntitle: T\nrule BOGUS: Sentence."
    with pytest.raises(InvalidRubric, match=r"bad\.rubric:3"):
        parse_rubric_text(text, "bad.rubric")


def test_checklist_bounds_enforced():
    with pytest.raises(InvalidRubric, match="checklist"):
        parse_rubric_text(_rubric_text(checks=2), "fewchecks.rubric")
    with pytest.raises(InvalidRubric, match="checklist"):
        parse_rubric_text(_rubric_text(checks=8), "manychecks.rubric")


def test_missing_generic_rubric_fails_load(tmp_path):
    (tmp_path / "cwe-089.rubric").write_text(_rubric_text(), encoding="utf-8")
    with pytest.raises(InvalidRubric, match="generic"):
        rubrics_in(tmp_path)


def test_custom_directory_overrides_shipped(tmp_path):
    (tmp_path / "cwe-089.rubric").write_text(_rubric_text(), encoding="utf-8")
    generic = _rubric_text().replace("cwe: CWE-089", "cwe: GENERIC")
    (tmp_path / "generic.rubric").write_text(generic, encoding="utf-8")
    store = rubrics_in(tmp_path)
    assert set(store) == {"CWE-089", GENERIC_ID}


def test_a_rubric_that_is_not_utf8_is_invalid_naming_the_file(tmp_path):
    (tmp_path / "cwe-999.rubric").write_bytes(b"# a comment, then \xff\n")
    with pytest.raises(InvalidRubric, match=r"^cwe-999\.rubric: not UTF-8: .*0xff"):
        rubrics_in(tmp_path)


def _line(number: int, new):
    """An edit of a copied ``cwe-089.rubric`` that replaces line ``number``
    with ``new`` of its text."""
    def edit(directory: Path) -> None:
        path = directory / "cwe-089.rubric"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[number - 1] = new(lines[number - 1])
        path.write_text("".join(lines), encoding="utf-8")
    return edit


def _remove_every_rubric(directory: Path) -> None:
    for path in directory.glob("*.rubric"):
        path.unlink()


# Each edit of a directory holding copies of the shipped cwe-089 and generic
# rubrics, and the refusal it meets, which names the file and, for a fault
# of one line, the line.
_REFUSALS = {
    "rule-without-text": (_line(4, lambda text: "rule HIGH_RISK:\n"),
                          "cwe-089.rubric:4: rule 1 has no text"),
    "rule-without-period": (_line(5, lambda text: text.replace("parameters.", "parameters")),
                            "cwe-089.rubric:5: rule 2 must be a single declarative sentence "
                            "ending with a period"),
    "check-not-a-question": (_line(17, lambda text: text.replace("?", ".")),
                             "cwe-089.rubric:17: checklist entries must be questions"),
    "unrecognized-line": (_line(3, lambda text: text + "severity: high\n"),
                          "cwe-089.rubric:4: unrecognized line 'severity: high'"),
    "no-cwe-header": (_line(2, lambda text: ""), "cwe-089.rubric: missing `cwe:` header"),
    "bad-cwe-id": (_line(2, lambda text: "cwe: CWE-89\n"), "cwe-089.rubric: bad cwe id 'CWE-89'"),
    "non-ascii-cwe-digits": (_line(2, lambda text: "cwe: CWE-\u0660\u0668\u0669\n"),
                             "cwe-089.rubric: bad cwe id 'CWE-\u0660\u0668\u0669'"),
    "no-title": (_line(3, lambda text: ""), "cwe-089.rubric: missing `title:` header"),
    "two-files-for-one-cwe": (
        lambda directory: shutil.copy(directory / "cwe-089.rubric", directory / "cwe-89.rubric"),
        "cwe-89.rubric: duplicate rubric for CWE-089",
    ),
    "no-rubric-file": (_remove_every_rubric, "no *.rubric files found in {directory}"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_an_edited_shipped_rubric_is_refused_naming_the_file_and_line(tmp_path, case):
    for name in ("cwe-089.rubric", "generic.rubric"):
        shutil.copy(SHIPPED_RUBRIC_DIR / name, tmp_path)
    rubrics_in(tmp_path)
    edit, message = _REFUSALS[case]
    edit(tmp_path)
    with pytest.raises(InvalidRubric) as refused:
        rubrics_in(tmp_path)
    assert str(refused.value) == message.format(directory=tmp_path)
