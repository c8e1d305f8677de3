"""The adjudicate stage writes each audit record as its call returns: an
interrupt keeps the records already received, and a record that cannot be
written stops the run."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import sarif_triage
from corpus import build_corpus, write_config
from sarif_triage import pipeline
from sarif_triage.backend import BackendReply, MockBackend
from sarif_triage.cli import EXIT_OK, EXIT_STAGE_FAILURE, main

SRC = Path(sarif_triage.__file__).resolve().parents[1]
VERDICT = json.dumps({"verdict": "FALSE_POSITIVE", "confidence": "LOW", "reasoning": "stub"})


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return build_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(autouse=True)
def _corpus_unchanged(request):
    """Fails a test that leaves the shared ``corpus``'s files other than
    built, before a later test of the module reads them."""
    yield
    if "corpus" in request.fixturenames:
        corpus = request.getfixturevalue("corpus")
        if corpus.files_digest() != corpus.digest:
            pytest.fail(f"the shared corpus under {corpus.root} was changed; "
                        "build a corpus of the test's own with build_corpus")


def _audit_names(out: Path) -> list[str]:
    return sorted(p.name for p in (out / "audit").glob("*.json"))


def _prompt_tags(config: Path, out: Path) -> list[str]:
    """Run the stages before adjudicate; the tag of each prompt, in order."""
    for command in ("ingest", "context", "prompts"):
        assert main([command, "--config", str(config)]) == EXIT_OK
    rows = pipeline.read_rows(out / "prompts.jsonl")
    return [f"{row['finding_id']}.{row['mode']}" for row in rows]


class _Calls(MockBackend):
    """Answers every prompt with one verdict, ``delay_s`` per call, and
    records each call's tag; ``before_call(n, tag)`` runs first, ``n``
    counting from 1."""

    def __init__(self, delay_s: float = 0.0, before_call=None):
        super().__init__(responses={}, default=VERDICT)
        self.delay_s, self.before_call = delay_s, before_call
        self.tags: list[str] = []
        self.lock = threading.Lock()

    def complete(self, request) -> BackendReply:
        with self.lock:
            self.tags.append(request.tag)
            n = len(self.tags)
        if self.before_call is not None:
            self.before_call(n, request.tag)
        time.sleep(self.delay_s)
        return super().complete(request)


def test_a_record_is_on_disk_while_later_calls_are_still_to_come(corpus, tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = write_config(corpus, out, with_labels=False)
    tags = _prompt_tags(config, out)
    first_tag: list[str] = []
    waited: list[bool] = []

    def before_call(n, tag):
        if n == 1:
            first_tag.append(tag)
        elif n == len(tags):  # at parallelism 1 the first call is back by now
            fid, mode = first_tag[0].split(".")
            record = out / "audit" / f"{fid}.{mode.lower()}.json"
            deadline = time.monotonic() + 5
            while not record.is_file() and time.monotonic() < deadline:
                time.sleep(0.005)
            waited.append(record.is_file())

    backend = _Calls(before_call=before_call)
    monkeypatch.setattr(pipeline, "build_backend", lambda config, reads: backend)
    assert main(["adjudicate", "--config", str(config)]) == EXIT_OK
    assert waited == [True]
    assert sorted(backend.tags) == sorted(tags)


def test_an_audit_record_that_cannot_be_written_stops_the_run(
    corpus, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "out"
    config = write_config(corpus, out, with_labels=False)
    tags = _prompt_tags(config, out)
    fid, mode = tags[0].split(".")
    blocked = out / "audit" / f"{fid}.{mode.lower()}.json"
    blocked.mkdir(parents=True)
    backend = _Calls(delay_s=0.02)
    monkeypatch.setattr(pipeline, "build_backend", lambda config, reads: backend)
    write_file = pipeline.write_file
    calls_at_failure: list[int] = []

    def recording(path, chunks):
        try:
            return write_file(path, chunks)
        except OSError:
            with backend.lock:
                calls_at_failure.append(len(backend.tags))
            raise

    monkeypatch.setattr(pipeline, "write_file", recording)
    assert main(["adjudicate", "--config", str(config)]) == EXIT_STAGE_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: stage adjudicate: ")
    assert "Is a directory" in err
    # Only the call in flight in the one slot may follow the failed write.
    assert len(calls_at_failure) == 1 and calls_at_failure[0] < len(tags)
    time.sleep(0.1)  # a call that wrongly started after it would be counted by now
    assert len(backend.tags) <= calls_at_failure[0] + 1
    assert blocked.is_dir()
    assert not (out / "adjudications.jsonl").exists()
    assert not (out / ".stamps" / "adjudicate.json").exists()
    assert [p for p in out.rglob("*") if p.name.endswith(".tmp")] == []


class _StallingServer(ThreadingHTTPServer):
    """A chat-completions stand-in that answers the first ``answered``
    requests and holds every later one, without a reply, until ``release``
    is set; once ``answer_all`` is set it answers every new request."""

    def __init__(self, answered: int):
        super().__init__(("127.0.0.1", 0), _StallingHandler)
        self.answered = answered
        self.answer_all = False
        self.release = threading.Event()
        self.seen = 0
        self.lock = threading.Lock()

    def admit(self) -> bool:
        with self.lock:
            self.seen += 1
            return self.answer_all or self.seen <= self.answered


class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if not self.server.admit():
            self.server.release.wait(60)
            self.close_connection = True
            return
        data = json.dumps({"choices": [{"message": {"role": "assistant", "content": VERDICT}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data.encode())

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def stalling_server():
    server = _StallingServer(answered=3)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX signals")
def test_ctrl_c_keeps_the_records_received_and_resume_completes_the_run(
    corpus, tmp_path, stalling_server, monkeypatch
):
    out = tmp_path / "out"
    config = json.loads(write_config(corpus, out, with_labels=False).read_text())
    endpoint = f"http://127.0.0.1:{stalling_server.server_address[1]}/v1/chat/completions"
    config["parallelism"] = 2
    config["backend"] = {"kind": "live", "endpoint": endpoint, "backoff_base_s": 0.0}
    config_path = tmp_path / "live.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    # The run and the resume below both reach the server directly.
    for name in ("http_proxy", "https_proxy", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    k = stalling_server.answered

    with subprocess.Popen(
        [sys.executable, "-c", "import sys; from sarif_triage.cli import main; sys.exit(main())",
         "run", "--config", str(config_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            deadline = time.monotonic() + 30
            while len(_audit_names(out)) < k:
                assert proc.poll() is None, proc.communicate()[1].decode()
                assert time.monotonic() < deadline, "no audit record before the run ends"
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert proc.returncode == -signal.SIGINT, stderr.decode()
    records = [json.loads((out / "audit" / name).read_text()) for name in _audit_names(out)]
    assert len(records) == k
    assert all(record["attempt_count"] >= 1 for record in records)
    assert [p for p in out.rglob("*") if p.name.endswith(".tmp")] == []
    assert not (out / "adjudications.jsonl").exists()
    assert not (out / ".stamps" / "adjudicate.json").exists()

    stalling_server.answer_all = True
    stalling_server.release.set()
    assert main(["run", "--resume", "--config", str(config_path)]) == EXIT_OK
    expected = sorted(f"{f.finding_id}.optimized.json" for f in corpus.findings)
    assert _audit_names(out) == expected
    rows = list(pipeline.read_rows(out / "adjudications.jsonl"))
    assert sorted(f"{r['finding_id']}.optimized.json" for r in rows) == expected
