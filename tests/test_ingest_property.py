"""Property: ingest turns any damage to a SARIF document into a SARIF error.

Each example takes a fixture under ``fixtures/sarif`` and, at one to three
drawn JSON paths, replaces the value, deletes it, or wraps it in a list.
``parse_sarif`` and ``canonicalize`` must then succeed or raise
``MalformedJson``/``NotSarif``, never another exception."""

from __future__ import annotations

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import SARIF_DIR  # noqa: E402
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
