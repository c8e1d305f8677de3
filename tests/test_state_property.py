"""Property: a stage never reads a damaged artifact of a finished run.

Each example takes a finished ``BOTH`` run on ``tests/corpus.py``, damages
one of its artifacts or stamps (flips a bit, truncates it, drops,
duplicates or swaps a line, gives a value another JSON type, inserts a byte
that is not UTF-8, or writes a line nested past the decoder's depth) and
runs one of ``context``, ``prompts``, ``adjudicate``, ``evaluate`` or
``run --resume`` through ``cli.main``, which must return without raising.
Either it exits 0 and every file outside ``audit/`` and ``.stamps/`` is the
clean run's (for a subcommand the damaged file may stay as damaged, when
the command does not write it), or it exits 1 with one ``error:`` line
naming the damaged file, or an artifact the damaged stamp vouched for. A
refused ``adjudicate`` makes no backend call."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corpus import build_corpus, write_config  # noqa: E402
from sarif_triage.backend import MockBackend  # noqa: E402
from sarif_triage.cli import EXIT_OK, EXIT_STAGE_FAILURE, main  # noqa: E402

_STAGES = ("ingest", "context", "prompts", "adjudicate", "evaluate")
_COMMANDS = (["context"], ["prompts"], ["adjudicate"], ["evaluate"], ["run", "--resume"])
# The artifacts and stamps each subcommand reads; a damage picks from these
# as often as from every file, so that refusals are common.
_READS = {
    "context": ("findings.jsonl", ".stamps/ingest.json"),
    "prompts": ("findings.jsonl", "contexts.jsonl", "contexts_baseline.jsonl",
                ".stamps/ingest.json", ".stamps/context.json"),
    "adjudicate": ("prompts.jsonl", ".stamps/prompts.json"),
    "evaluate": ("findings.jsonl", "adjudications.jsonl", ".stamps/ingest.json",
                 ".stamps/adjudicate.json"),
}
_DAMAGES = ("flip", "truncate", "drop", "duplicate", "swap", "not-utf8", "retype", "nested")
_OTHER_TYPES = (None, True, 7, "x", [], {})


def _artifacts(out: Path) -> dict[str, bytes]:
    """Every file under ``out`` outside ``audit/`` and ``.stamps/``."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.relative_to(out).parts[0] not in ("audit", ".stamps")}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The config, the output dir it names, a copy of a clean ``BOTH`` run,
    and the files a damage may pick."""
    corpus = build_corpus(tmp_path_factory.mktemp("corpus"))
    root = tmp_path_factory.mktemp("state")
    out, clean = root / "out", root / "clean"
    config = write_config(corpus, out, prompt_mode="BOTH")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config)]) == EXIT_OK
    shutil.copytree(out, clean)
    audit = sorted(p.relative_to(out) for p in (out / "audit").iterdir())[0]
    targets = [*_artifacts(out), str(audit), *(f".stamps/{stage}.json" for stage in _STAGES)]
    return config, out, clean, sorted(targets)


def _retyped(draw, doc: bytes) -> bytes:
    """``doc`` with one value, at any depth, of another JSON type."""
    value = json.loads(doc)
    slots = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                slots.append((node, key))
                walk(child)

    walk(value)
    container, key = draw(st.sampled_from(slots))
    old = container[key]
    container[key] = draw(st.sampled_from([new for new in _OTHER_TYPES
                                           if type(new) is not type(old)]))
    return json.dumps(value, ensure_ascii=False).encode() + b"\n"


@st.composite
def _damaged(draw, data: bytes, name: str) -> bytes:
    lines = data.splitlines(keepends=True)
    # Only JSON is retyped or nested, and JSON Lines a row at a time.
    kind = draw(st.sampled_from(_DAMAGES if name.endswith((".json", ".jsonl")) else _DAMAGES[:-2]))
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "not-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    line = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[line]
    elif kind == "duplicate":
        lines.insert(line, lines[line])
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 2))
        other += other >= line
        lines[line], lines[other] = lines[other], lines[line]
    elif not name.endswith(".jsonl"):
        return _retyped(draw, data) if kind == "retype" else b"[" * 100_000
    else:
        lines[line] = _retyped(draw, lines[line]) if kind == "retype" else b"[" * 100_000 + b"\n"
    return b"".join(lines)


# Each example runs a whole command, so the budget is kept small.
@settings(max_examples=50)
@given(data=st.data())
def test_a_command_repairs_or_refuses_one_damaged_file_and_never_raises(finished_run, data):
    config, out, clean, targets = finished_run
    command = data.draw(st.sampled_from(_COMMANDS))
    target = data.draw(st.sampled_from(_READS.get(command[0], targets)) | st.sampled_from(targets))
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(clean, out)
    damaged = data.draw(_damaged((out / target).read_bytes(), target))
    (out / target).write_bytes(damaged)

    calls = []
    complete = MockBackend.complete
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        patch.setattr(MockBackend, "complete",
                      lambda self, request: calls.append(request) or complete(self, request))
        code = main([*command, "--config", str(config)])

    event(f"{' '.join(command)}: exit {code}")
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    if code == EXIT_OK:
        assert errors == []
        expected = _artifacts(clean)
        if command[0] != "run" and target in expected:
            # A file the command does not write stays as it was damaged.
            if _artifacts(out).get(target) == damaged:
                expected[target] = damaged
        assert _artifacts(out) == expected
        return
    assert code == EXIT_STAGE_FAILURE, stderr.getvalue()
    assert len(errors) == 1, stderr.getvalue()
    if target.startswith(".stamps/"):
        stamp = json.loads((clean / target).read_text(encoding="utf-8"))
        named = [str(out / rel) for rel in stamp["outputs"]]
    else:
        named = [str(out / target)]
    assert any(name in errors[0] for name in named), (target, errors[0])
    if command[0] == "adjudicate":
        assert calls == []
