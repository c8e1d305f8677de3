"""Property: ingest turns any damage to a SARIF document into a SARIF error.

Each example takes a fixture under ``fixtures/sarif`` and, at one to three
drawn JSON paths, replaces the value, deletes it, or wraps it in a list.
``parse_sarif`` and ``canonicalize`` must then succeed or raise
``MalformedJson``/``NotSarif``, never another exception, and the ``ingest``
and ``run`` commands must exit 0 or 2, never 1."""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import OWASP_SRC, SARIF_DIR  # noqa: E402
from sarif_triage.cli import EXIT_OK, EXIT_USAGE, main  # noqa: E402
from sarif_triage.ingest import MalformedJson, NotSarif, canonicalize, parse_sarif  # noqa: E402

_FIXTURES = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(SARIF_DIR.glob("*.sarif"))
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**40) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, path + (i,))


@st.composite
def _damaged_sarif(draw) -> str:
    doc = copy.deepcopy(_FIXTURES[draw(st.sampled_from(sorted(_FIXTURES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "delete", "wrap"]))
        if not path:  # the whole document
            doc = [doc] if op == "wrap" else draw(_JSON)
            continue
        *parents, leaf = path
        owner = doc
        for key in parents:
            owner = owner[key]
        if op == "delete":
            del owner[leaf]
        else:
            owner[leaf] = [owner[leaf]] if op == "wrap" else draw(_JSON)
    return json.dumps(doc)


@given(_damaged_sarif())
def test_damaged_sarif_raises_only_sarif_errors(raw):
    try:
        canonicalize(parse_sarif(raw))
    except (MalformedJson, NotSarif):
        pass


_VERDICT = json.dumps({"verdict": "TRUE_POSITIVE", "confidence": "LOW", "reasoning": "r"})


def _result_count(raw: str) -> int:
    return sum(len(run.get("results") or []) for run in json.loads(raw)["runs"])


# Each example runs a whole command, so the budget is kept small.
@settings(max_examples=30)
@given(_damaged_sarif(), st.sampled_from(["ingest", "run"]))
def test_the_cli_exits_0_or_2_on_damaged_sarif(raw, command):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "in.sarif").write_text(raw, encoding="utf-8")
        (root / "mock.json").write_text(json.dumps({"default": _VERDICT}), encoding="utf-8")
        config = root / "config.json"
        config.write_text(json.dumps({
            "sarif_path": "in.sarif", "source_root": str(OWASP_SRC), "output_dir": "out",
            "prompt_mode": "BOTH", "backend": {"kind": "mock", "script_path": "mock.json"},
        }), encoding="utf-8")
        code = main([command, "--config", str(config)])
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_OK:
            rows = (root / "out" / "findings.jsonl").read_text(encoding="utf-8").splitlines()
            assert len(rows) == _result_count(raw)
