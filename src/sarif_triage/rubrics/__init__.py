"""CWE micro-rubrics: compact declarative rule lists injected into prompts.

Rubrics live as one human-editable text file per CWE (``cwe-NNN.rubric``,
plus ``generic.rubric`` for the fallback); a file shipped in this package
ships its CWE, listed first in reports. The format is line-oriented:

    # comment
    cwe: CWE-089
    title: SQL Injection
    rule HIGH_RISK: <one declarative sentence>
    rule SAFE_IDIOM: <one declarative sentence>
    rule NON_SANITIZER: <one declarative sentence>
    check: <one interpretation question>

Each rubric must carry 10-20 rules with every tag represented at least
once and 3-7 checklist questions. A rule's tag is the name the file
spells, checked against ``RUBRIC_TAGS`` as the file is read; a CWE id has
ASCII digits only. Rubric text goes into a prompt as written, so a rule
may quote code, braces included.

The shipped rubric content is editorial: drafted from the public CWE
definitions and common analyzer false-positive patterns, not model
ground truth. Edit the files freely; the loader re-validates on load.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping, NamedTuple

GENERIC_ID = "GENERIC"

#: CWEs with a shipped rubric, sorted: one per ``cwe-NNN.rubric`` file here.
SHIPPED_CWES = tuple(sorted(p.stem.upper() for p in Path(__file__).parent.glob("cwe-*.rubric")))

MIN_RULES = 10
MAX_RULES = 20
MIN_CHECKS = 3
MAX_CHECKS = 7

_CWE_ID = re.compile(r"^CWE-\d{3,}$", re.ASCII)
RUBRIC_TAGS = ("HIGH_RISK", "SAFE_IDIOM", "NON_SANITIZER")


class InvalidRubric(ValueError):
    """A rubric file violates the format or cardinality rules."""


class RubricRule(NamedTuple):
    tag: str  # one of RUBRIC_TAGS
    text: str


class Rubric(NamedTuple):
    cwe_id: str
    title: str
    rules: tuple[RubricRule, ...]
    checklist: tuple[str, ...]


def parse_rubric_text(text: str, source: str) -> Rubric:
    cwe_id: str | None = None
    title: str | None = None
    rules: list[RubricRule] = []
    checklist: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if line.startswith("cwe:"):
            cwe_id = line[len("cwe:"):].strip()
        elif line.startswith("title:"):
            title = line[len("title:"):].strip()
        elif line.startswith("rule "):
            body = line[len("rule "):]
            tag_name, _, sentence = body.partition(":")
            tag_name = tag_name.strip()
            sentence = sentence.strip()
            if tag_name not in RUBRIC_TAGS:
                raise InvalidRubric(f"{where}: unknown rule tag {tag_name!r}")
            if not sentence:
                raise InvalidRubric(f"{where}: rule {len(rules) + 1} has no text")
            if not sentence.endswith("."):
                raise InvalidRubric(
                    f"{where}: rule {len(rules) + 1} must be a single declarative "
                    f"sentence ending with a period"
                )
            rules.append(RubricRule(tag=tag_name, text=sentence))
        elif line.startswith("check:"):
            question = line[len("check:"):].strip()
            if not question.endswith("?"):
                raise InvalidRubric(f"{where}: checklist entries must be questions")
            checklist.append(question)
        else:
            raise InvalidRubric(f"{where}: unrecognized line {line!r}")

    if cwe_id is None:
        raise InvalidRubric(f"{source}: missing `cwe:` header")
    if cwe_id != GENERIC_ID and not _CWE_ID.match(cwe_id):
        raise InvalidRubric(f"{source}: bad cwe id {cwe_id!r}")
    if not title:
        raise InvalidRubric(f"{source}: missing `title:` header")
    if not (MIN_RULES <= len(rules) <= MAX_RULES):
        raise InvalidRubric(
            f"{source}: {len(rules)} rules, expected {MIN_RULES}-{MAX_RULES}"
        )
    present = {rule.tag for rule in rules}
    missing = [tag for tag in RUBRIC_TAGS if tag not in present]
    if missing:
        raise InvalidRubric(f"{source}: no rule tagged {', '.join(missing)}")
    if not (MIN_CHECKS <= len(checklist) <= MAX_CHECKS):
        raise InvalidRubric(
            f"{source}: {len(checklist)} checklist entries, expected "
            f"{MIN_CHECKS}-{MAX_CHECKS}"
        )
    return Rubric(
        cwe_id=cwe_id, title=title, rules=tuple(rules), checklist=tuple(checklist)
    )


def load_rubrics(directory: Path | str, files: Mapping[Path, bytes]) -> dict[str, Rubric]:
    """Validate the ``*.rubric`` files of ``directory`` from ``files``, each
    path's bytes as the caller read them; this opens no file.

    Returns a map keyed by CWE id (plus ``GENERIC``). Loading is
    order-independent; a missing GENERIC rubric is an error because
    ``rubric_for`` relies on it as the total fallback.
    """
    store: dict[str, Rubric] = {}
    for path in sorted(files):
        try:
            text = files[path].decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise InvalidRubric(f"{path.name}: not UTF-8: {exc}") from exc
        rubric = parse_rubric_text(text, path.name)
        if rubric.cwe_id in store:
            raise InvalidRubric(f"{path.name}: duplicate rubric for {rubric.cwe_id}")
        store[rubric.cwe_id] = rubric
    if not store:
        raise InvalidRubric(f"no *.rubric files found in {directory}")
    if GENERIC_ID not in store:
        raise InvalidRubric(f"{directory}: missing required generic.rubric")
    return store


def rubric_for(cwe_id: str, store: dict[str, Rubric]) -> Rubric:
    """Exact CWE match, else the GENERIC fallback. Never fails on a store
    produced by ``load_rubrics``."""
    return store.get(cwe_id, store[GENERIC_ID])
