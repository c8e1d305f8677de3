from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sarif_triage.backend import (
    BackendError,
    BackendReply,
    BackendRequest,
    ContextOverflow,
    Exhausted,
    HttpBackend,
    MockBackend,
    RETRY_AFTER_CAP_S,
    RateLimited,
    RetryPolicy,
    TransportError,
    send,
)

NO_SLEEP = RetryPolicy(attempt_cap=4, backoff_base_s=0.0, sleep=lambda _: None)


def _request(tag="fid.OPTIMIZED", user="user text"):
    return BackendRequest(model="m", system_text="system text", user_text=user, tag=tag)


def test_temperature_is_pinned_to_zero():
    with pytest.raises(ValueError):
        BackendRequest(model="m", system_text="s", user_text="u", temperature=1)
    assert _request().temperature == 0


def test_mock_returns_scripted_reply_verbatim():
    backend = MockBackend(responses={"fid.OPTIMIZED": "canned reply"})
    result = send(_request(), backend, NO_SLEEP)
    assert result.text == "canned reply"
    assert result.attempt_count == 1
    assert result.latency_ms == 0


def test_mock_lookup_falls_back_to_finding_id_then_hash_then_default():
    backend = MockBackend(responses={"fid": "by finding id"})
    assert send(_request(), backend, NO_SLEEP).text == "by finding id"

    from sarif_triage.prompts import prompt_sha256

    digest = prompt_sha256("system text", "user text")
    backend = MockBackend(responses={f"sha256:{digest}": "by hash"})
    assert send(_request(), backend, NO_SLEEP).text == "by hash"

    backend = MockBackend(responses={}, default="fallback")
    assert send(_request(), backend, NO_SLEEP).text == "fallback"

    backend = MockBackend(responses={})
    with pytest.raises(BackendError, match="no entry"):
        send(_request(), backend, NO_SLEEP)


def test_mock_scripted_failures_then_success_counts_attempts():
    backend = MockBackend(
        responses={"fid.OPTIMIZED": {"response": "ok", "fail_first": 2}}
    )
    result = send(_request(), backend, NO_SLEEP)
    assert result.text == "ok"
    assert result.attempt_count == 3


def test_rate_limited_failures_are_retried_too():
    backend = MockBackend(
        responses={
            "fid.OPTIMIZED": {"response": "ok", "fail_first": 1, "failure": "rate_limited"}
        }
    )
    assert send(_request(), backend, NO_SLEEP).attempt_count == 2


def test_attempt_cap_raises_exhausted():
    backend = MockBackend(
        responses={"fid.OPTIMIZED": {"response": "ok", "fail_first": 99}}
    )
    with pytest.raises(Exhausted):
        send(_request(), backend, RetryPolicy(attempt_cap=3, backoff_base_s=0.0, sleep=lambda _: None))


def test_backoff_schedule_is_exponential():
    sleeps: list[float] = []
    backend = MockBackend(
        responses={"fid.OPTIMIZED": {"response": "ok", "fail_first": 3}}
    )
    policy = RetryPolicy(attempt_cap=4, backoff_base_s=0.5, sleep=sleeps.append)
    assert send(_request(), backend, policy).attempt_count == 4
    assert sleeps == [0.5, 1.0, 2.0]


def test_prompt_over_mock_limit_is_context_overflow():
    backend = MockBackend(responses={"fid.OPTIMIZED": "ok"}, max_prompt_chars=32768)
    huge = "x" * 40000
    with pytest.raises(ContextOverflow):
        send(_request(user=huge), backend, NO_SLEEP)


def test_context_overflow_is_not_retried():
    attempts = []

    class Probe(MockBackend):
        def complete(self, request):
            attempts.append(1)
            raise ContextOverflow("too big")

    with pytest.raises(ContextOverflow):
        send(_request(), Probe(responses={}), NO_SLEEP)
    assert len(attempts) == 1


def test_mock_script_file_round_trip(tmp_path):
    script = {
        "max_prompt_chars": 1000,
        "default": "dflt",
        "responses": {"fid": {"response": "ok", "fail_first": 1}},
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    backend = MockBackend.from_script_file(path)
    assert backend.max_prompt_chars == 1000
    result = send(_request(), backend, NO_SLEEP)
    assert result.text == "ok"
    assert result.attempt_count == 2


# ---------------------------------------------------------------------------
# Live HTTP contract, exercised against a local chat-completions stand-in.


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub"
    # (status, payload) or (status, payload, extra response headers)
    script: list[tuple] = []
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        _Handler.seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        status, payload, *extra = (
            _Handler.script.pop(0) if _Handler.script else (200, _reply("ok"))
        )
        data = json.dumps(payload).encode() if isinstance(payload, dict) else payload.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output quiet
        pass


def _reply(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


@pytest.fixture()
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _Handler.script = []
    _Handler.seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_http_backend_sends_two_messages_at_temperature_zero(http_server, monkeypatch):
    monkeypatch.setenv("SARIF_TRIAGE_API_KEY", "sk-test")
    backend = HttpBackend(endpoint=http_server)
    _Handler.script = [(200, _reply("answer"))]
    reply = backend.complete(_request())
    assert isinstance(reply, BackendReply)
    assert reply.text == "answer"
    seen = _Handler.seen[0]
    assert seen["auth"] == "Bearer sk-test"
    assert seen["body"]["model"] == "m"
    assert seen["body"]["temperature"] == 0
    roles = [m["role"] for m in seen["body"]["messages"]]
    assert roles == ["system", "user"]
    assert seen["body"]["messages"][0]["content"] == "system text"
    assert seen["body"]["messages"][1]["content"] == "user text"


def test_http_backend_retries_rate_limit_then_succeeds(http_server):
    backend = HttpBackend(endpoint=http_server)
    _Handler.script = [(429, {"error": "slow down"}), (200, _reply("eventually"))]
    result = send(_request(), backend, NO_SLEEP)
    assert result.text == "eventually"
    assert result.attempt_count == 2


@pytest.mark.parametrize(
    "headers, backoff_base_s, expected",
    [
        ({"retry-after-ms": "300"}, 0.0, 0.3),
        ({"Retry-After": "2"}, 0.0, 2.0),
        ({"retry-after-ms": "soon", "Retry-After": "1"}, 0.0, 1.0),
        ({"retry-after-ms": "100"}, 0.5, 0.5),
        ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, 0.5, 0.5),
        ({"Retry-After": "garbage"}, 0.5, 0.5),
        ({"Retry-After": "-3"}, 0.5, 0.5),
        ({"Retry-After": "3600"}, 0.0, RETRY_AFTER_CAP_S),
    ],
)
def test_retry_after_header_sets_the_wait_when_longer_than_the_backoff(
    http_server, headers, backoff_base_s, expected
):
    sleeps: list[float] = []
    backend = HttpBackend(endpoint=http_server)
    _Handler.script = [(429, {"error": "slow down"}, headers), (200, _reply("ok"))]
    policy = RetryPolicy(attempt_cap=2, backoff_base_s=backoff_base_s, sleep=sleeps.append)
    assert send(_request(), backend, policy).attempt_count == 2
    assert sleeps == [expected]


def test_http_backend_maps_overflow_and_other_errors(http_server):
    backend = HttpBackend(endpoint=http_server)
    _Handler.script = [(400, {"error": "maximum context length exceeded"})]
    with pytest.raises(ContextOverflow):
        backend.complete(_request())
    _Handler.script = [(401, {"error": "bad key"})]
    with pytest.raises(BackendError):
        backend.complete(_request())
    _Handler.script = [(200, "not json at all")]
    with pytest.raises(BackendError, match="malformed"):
        backend.complete(_request())


def test_http_backend_preflights_prompt_limit(http_server):
    backend = HttpBackend(endpoint=http_server, max_prompt_chars=10)
    with pytest.raises(ContextOverflow):
        backend.complete(_request(user="x" * 100))
    assert _Handler.seen == []  # never reached the wire


def test_http_transport_error_is_retryable():
    backend = HttpBackend(endpoint="http://127.0.0.1:1/unreachable", timeout_s=0.2)
    with pytest.raises(Exhausted):
        send(_request(), backend, RetryPolicy(attempt_cap=2, backoff_base_s=0.0, sleep=lambda _: None))
    with pytest.raises(TransportError):
        backend.complete(_request())
