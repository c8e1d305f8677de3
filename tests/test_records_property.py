"""Property: every artifact record comes back from its own row unchanged.

Each example draws a ``Finding``, a ``CodeContext``, a ``PromptBundle`` or an
``AdjudicationResult``: traces may be empty, optional columns ``None``, a
result ``UNEVALUATED``, and any text non-ASCII. The row its ``to_dict``
gives goes through JSON as ``write_rows`` writes it; ``from_dict`` of what
comes back must equal the record, and its own row must hold the same keys,
in the same order, with the same values."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sarif_triage.adjudicate import CONFIDENCES, VERDICTS, Adjudication, AdjudicationResult  # noqa: E402
from sarif_triage.context import CodeContext, ContextSegment  # noqa: E402
from sarif_triage.ingest import CodeLocation, Finding, TraceStep  # noqa: E402
from sarif_triage.prompts import PromptBundle  # noqa: E402

_TEXT = st.text(max_size=12)
_LINE = st.integers(1, 10**6)
_COLUMN = st.none() | _LINE
_MODE = st.sampled_from(["OPTIMIZED", "BASELINE"])

_LOCATION = st.builds(CodeLocation, _TEXT, _LINE, _LINE, _COLUMN, _COLUMN)
_STEP = st.builds(TraceStep, _LINE, st.sampled_from(["SOURCE", "STEP", "SINK"]), _LOCATION, _TEXT)
_FINDING = st.builds(Finding, _TEXT, _TEXT, _TEXT, _TEXT, _LOCATION,
                     st.lists(_STEP, max_size=4).map(tuple),
                     st.integers(0, 10**6), st.integers(0, 100))

_REASON = st.sampled_from(["STEP_LINE", "INTERMEDIATE", "METHOD_SIGNATURE", "CALL_SITE"])
_SEGMENT = st.builds(ContextSegment, _TEXT, _LINE, _LINE, _TEXT, _REASON,
                     st.none() | _LINE, st.integers(0, 1000))
_CONTEXT = st.builds(CodeContext, _TEXT, st.lists(_SEGMENT, max_size=4).map(tuple),
                     st.booleans(), st.integers(0, 10**6), st.lists(_TEXT, max_size=3).map(tuple))

_BUNDLE = st.builds(PromptBundle, _TEXT, _MODE, _TEXT, _TEXT, _TEXT)

_ADJUDICATION = st.builds(
    Adjudication,
    st.sampled_from(VERDICTS),
    st.sampled_from(CONFIDENCES),
    _TEXT, st.booleans(), _TEXT, st.integers(0, 10**6), st.integers(1, 10),
)
_RESULT = st.builds(AdjudicationResult, _TEXT, _MODE, st.none() | _ADJUDICATION,
                    st.none() | _TEXT)


@given(st.one_of(_FINDING, _CONTEXT, _BUNDLE, _RESULT))
def test_a_record_comes_back_from_its_row(record):
    row = json.dumps(record.to_dict(), ensure_ascii=False)
    back = type(record).from_dict(json.loads(row))
    assert back == record
    assert json.dumps(back.to_dict(), ensure_ascii=False) == row
