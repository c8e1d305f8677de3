"""Property: one damaged config key makes ``run`` exit 0 or 2, never raise.

Each example takes ``tests/corpus.py``'s BOTH config (no scripted failures)
and, at one key drawn from every key the config reads (top level, inside
``backend`` or inside ``limits``), replaces the value with a JSON value of
another type, deletes it, or pushes a number below its least allowed value.
``cli.main(["run", ...])`` must return 0 or 2 without raising, and an exit
of 2 must leave no output directory. A value out of range, or of another
type (bar a string for a number, which may convert), must exit 2."""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corpus import build_corpus, write_config  # noqa: E402
from sarif_triage.cli import EXIT_OK, EXIT_USAGE, main  # noqa: E402
from sarif_triage.config import BackendConfig, ContextLimits, RunConfig  # noqa: E402

_NULL = type(None)

# Every key the config reads: the JSON types it takes (null where that is
# the default) and, for a number, the least value it takes.
_KEYS = {
    "sarif_path": ((str,), None), "source_root": ((str,), None), "output_dir": ((str,), None),
    "prompt_mode": ((str,), None), "baseline_style": ((str,), None),
    "backend": ((dict,), None), "limits": ((dict,), None),
    "prompt_char_budget": ((int, _NULL), 1), "max_output_chars": ((int,), 1),
    "parallelism": ((int,), 1), "labels_path": ((str, _NULL), None),
    "rubric_dir": ((str, _NULL), None), "cwe_map": ((dict,), None), "write_csv": ((bool,), None),
    "backend.kind": ((str,), None), "backend.endpoint": ((str,), None),
    "backend.model": ((str,), None), "backend.key_env": ((str,), None),
    "backend.script_path": ((str, _NULL), None), "backend.max_prompt_chars": ((int, _NULL), 1),
    "backend.attempt_cap": ((int,), 1), "backend.backoff_base_s": ((int, float), 0),
    **{f"limits.{name}": ((int,), 1) for name in ContextLimits._fields},
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**40) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def both_config(tmp_path_factory) -> dict:
    corpus = build_corpus(tmp_path_factory.mktemp("corpus"))
    path = write_config(corpus, corpus.root / "out", prompt_mode="BOTH")
    return json.loads(path.read_text(encoding="utf-8"))


@st.composite
def _damage(draw, config: dict) -> tuple[dict, bool]:
    """The config with one key damaged, and whether the damage must exit 2."""
    key = draw(st.sampled_from(sorted(_KEYS)))
    types, minimum = _KEYS[key]
    *parents, name = key.split(".")
    config = copy.deepcopy(config)
    section = config
    for parent in parents:
        section = section.setdefault(parent, {})
    ops = ["replace"] + ["delete"] * (name in section) + ["push"] * (minimum is not None)
    op = draw(st.sampled_from(ops))
    if op == "delete":
        del section[name]
        return config, False
    if op == "replace":
        value = section[name] = draw(_JSON.filter(lambda value: type(value) not in types))
        return config, not (minimum is not None and isinstance(value, str))
    if float in types:
        section[name] = draw(st.floats(max_value=minimum, exclude_max=True)
                             | st.sampled_from([float("inf"), "nan", "inf"]))
    else:
        section[name] = draw(st.integers(max_value=minimum - 1))
    return config, True


# Each example runs a whole command, so the budget is kept small.
@settings(max_examples=30)
@given(data=st.data())
def test_run_exits_2_on_a_damaged_config_key_and_never_raises(both_config, data):
    assert set(_KEYS) == {*RunConfig._fields, *(f"backend.{k}" for k in BackendConfig._fields),
                          *(f"limits.{k}" for k in ContextLimits._fields)}
    config, refused = data.draw(_damage(both_config))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if isinstance(config.get("output_dir"), str):
            config["output_dir"] = str(out)
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["run", "--config", str(config_path)])
        assert code in ((EXIT_USAGE,) if refused else (EXIT_OK, EXIT_USAGE))
        if code == EXIT_USAGE:
            assert not out.exists()
