from __future__ import annotations

import pytest

from sarif_triage.pipeline import SHIPPED_RUBRIC_DIR
from sarif_triage.rubrics import (
    GENERIC_ID,
    SHIPPED_CWES,
    InvalidRubric,
    RubricTag,
    load_rubrics,
    parse_rubric_text,
    rubric_for,
)


@pytest.fixture(scope="module")
def store():
    return load_rubrics(SHIPPED_RUBRIC_DIR)


def test_shipped_directory_loads_ten_cwes_plus_generic(store):
    assert len(store) == 11
    assert set(SHIPPED_CWES) | {GENERIC_ID} == set(store)


def test_every_shipped_rubric_meets_invariants(store):
    for rubric in store.values():
        assert 10 <= len(rubric.rules) <= 20, rubric.cwe_id
        tags = {rule.tag for rule in rubric.rules}
        assert tags == set(RubricTag), rubric.cwe_id
        assert 3 <= len(rubric.checklist) <= 7, rubric.cwe_id
        for rule in rubric.rules:
            assert rule.text.endswith("."), (rubric.cwe_id, rule.text)
            assert "\n" not in rule.text


def test_rubric_text_never_contains_placeholder_braces(store):
    for rubric in store.values():
        texts = [rubric.title, *[r.text for r in rubric.rules], *rubric.checklist]
        for text in texts:
            assert "{" not in text and "}" not in text, (rubric.cwe_id, text)


def test_cwe_501_mentions_auth_checks_at_trust_boundaries(store):
    rubric = store["CWE-501"]
    joined = " ".join(rule.text.lower() for rule in rubric.rules)
    assert "authentication" in joined
    assert "authorization" in joined
    assert "trust boundar" in joined


def test_cwe_089_safe_idioms_cover_constant_collection_values(store):
    safe = [r.text.lower() for r in store["CWE-089"].rules if r.tag is RubricTag.SAFE_IDIOM]
    assert any("collection" in text or "list" in text for text in safe)


def test_lookup_exact_then_generic_fallback(store):
    assert rubric_for("CWE-089", store).title == "SQL Injection"
    assert rubric_for("CWE-UNKNOWN", store).cwe_id == GENERIC_ID
    assert rubric_for("CWE-9999", store).cwe_id == GENERIC_ID


def test_loading_is_order_independent(store):
    again = load_rubrics(SHIPPED_RUBRIC_DIR)
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


def test_braces_in_rule_text_are_rejected():
    text = _rubric_text() + "\nrule HIGH_RISK: Contains a {placeholder} token."
    with pytest.raises(InvalidRubric, match="curly brace"):
        parse_rubric_text(text, "braces.rubric")


def test_checklist_bounds_enforced():
    with pytest.raises(InvalidRubric, match="checklist"):
        parse_rubric_text(_rubric_text(checks=2), "fewchecks.rubric")
    with pytest.raises(InvalidRubric, match="checklist"):
        parse_rubric_text(_rubric_text(checks=8), "manychecks.rubric")


def test_missing_generic_rubric_fails_load(tmp_path):
    (tmp_path / "cwe-089.rubric").write_text(_rubric_text(), encoding="utf-8")
    with pytest.raises(InvalidRubric, match="generic"):
        load_rubrics(tmp_path)


def test_custom_directory_overrides_shipped(tmp_path):
    (tmp_path / "cwe-089.rubric").write_text(_rubric_text(), encoding="utf-8")
    generic = _rubric_text().replace("cwe: CWE-089", "cwe: GENERIC")
    (tmp_path / "generic.rubric").write_text(generic, encoding="utf-8")
    store = load_rubrics(tmp_path)
    assert set(store) == {"CWE-089", GENERIC_ID}


def test_a_rubric_that_is_not_utf8_is_invalid_naming_the_file(tmp_path):
    (tmp_path / "cwe-999.rubric").write_bytes(b"# a comment, then \xff\n")
    with pytest.raises(InvalidRubric, match=r"^cwe-999\.rubric: not UTF-8: .*0xff"):
        load_rubrics(tmp_path)
