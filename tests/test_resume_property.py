"""Property: on a generated corpus, a resume after one edit equals a clean run.

Each example builds a corpus of 1-6 findings from ``tests/corpus.py``'s
templates, some in one of its ``ODD_SHAPES`` (a zero-step trace, a missing
source file, a multi-line message), and moves one finding's middle trace
step to another file when one has a middle step. It runs ``run`` with both
prompt modes, applies one edit drawn from ``test_cli``'s input-file and
config-key edits, and runs ``run --resume``. The resumed run must hold one verdict or
``UNEVALUATED`` row per (finding, mode), a report whose counts add up to the
findings, and, outside ``audit/`` and ``.stamps/``, the files a clean
``run`` of the edited inputs writes: an incremental build that equals a
clean one (Mokhov, Mitchell and Peyton Jones, *Build Systems a la Carte*).

Tier-1 runs 10 examples; CI runs the file once per ``--hypothesis-seed``
from 1 to 10."""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import rows_in  # noqa: E402
from corpus import CASE_PLAN, ODD_SHAPES, build_corpus, write_config  # noqa: E402
from sarif_triage.adjudicate import STATUS_OK, STATUS_UNEVALUATED, VERDICTS  # noqa: E402
from sarif_triage.cli import EXIT_OK, main  # noqa: E402
from sarif_triage.pipeline import SHIPPED_RUBRIC_DIR, load_config  # noqa: E402
from test_cli import (  # noqa: E402
    _CONFIG_EDITS,
    _INPUT_EDITS,
    _artifacts,
    _edit_config,
    _move_a_location_to_a_helper,
    _write_helper,
)

_TEMPLATES = sorted(set(CASE_PLAN))
# The first case is an SQL-injection case whose source is there: its trace
# skips a line, so its optimized context holds an intermediate segment, the
# one kind of segment ``prompt_char_budget`` sheds.
_SQL = next(template for template in _TEMPLATES if template[2] == "sql")
_CASE = st.tuples(st.sampled_from(_TEMPLATES), st.sampled_from((None, *ODD_SHAPES)))


def _check_rows_and_report(config: Path, out: Path) -> None:
    """One verdict or UNEVALUATED row per (finding, mode), and report counts
    that add up to the findings."""
    modes = load_config(config).modes()
    ids = [row["finding_id"] for row in rows_in(out / "findings.jsonl")]
    rows = rows_in(out / "adjudications.jsonl")
    assert Counter((r["finding_id"], r["mode"]) for r in rows) == {
        (fid, mode): 1 for fid in ids for mode in modes}
    for row in rows:
        assert (row["status"], row.get("verdict") in VERDICTS) in (
            (STATUS_OK, True), (STATUS_UNEVALUATED, False))
    if not (out / "report.json").exists():
        return
    reports = json.loads((out / "report.json").read_text(encoding="utf-8"))["modes"]
    assert sorted(reports) == sorted(modes)
    for report in reports.values():
        counts = [report["overall"], *report["per_cwe"].values()]
        scored = [sum(c[k] for k in ("tp", "fp", "tn", "fn")) for c in counts]
        assert scored[0] == sum(scored[1:])
        assert scored[0] + report["unevaluated_count"] + report["unmatched_count"] == len(ids)
        assert report["total_findings"] == len(ids)


@settings(max_examples=10)
@given(first_shape=st.sampled_from((None, "multi-line-message")), rest=st.lists(_CASE, max_size=5),
       edit=st.sampled_from(sorted(_INPUT_EDITS) + sorted(_CONFIG_EDITS)))
def test_a_resume_after_one_edit_writes_what_a_clean_run_writes(
    tmp_path_factory, first_shape, rest, edit
):
    root = tmp_path_factory.mktemp("resume")
    cases = [(_SQL, first_shape), *rest]
    corpus = build_corpus(root / "corpus", plan=[template for template, _ in cases],
                          odd={i: shape for i, (_, shape) in enumerate(cases) if shape})
    # The middle-step-source edit changes gen/Helper.java, where a later
    # case's middle step moves when one has a middle step.
    movable = [i for i, finding in enumerate(corpus.findings) if i and len(finding.trace) >= 3]
    if movable:
        _move_a_location_to_a_helper(corpus, index=movable[0])
    else:
        _write_helper(corpus)
    rubric_dir = root / "rubrics"
    shutil.copytree(SHIPPED_RUBRIC_DIR, rubric_dir,
                    ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    out = root / "out"
    config = write_config(corpus, out, prompt_mode="BOTH", extra={"rubric_dir": str(rubric_dir)})
    assert main(["run", "--config", str(config)]) == EXIT_OK
    if edit in _INPUT_EDITS:
        _INPUT_EDITS[edit][0](corpus, rubric_dir)
    else:
        value = _CONFIG_EDITS[edit][0]
        _edit_config(config, edit, value(corpus, rubric_dir) if callable(value) else value)
    assert main(["run", "--config", str(config), "--resume"]) == EXIT_OK
    _check_rows_and_report(config, out)
    resumed = _artifacts(out)
    shutil.rmtree(out)
    assert main(["run", "--config", str(config)]) == EXIT_OK
    assert _artifacts(out) == resumed
