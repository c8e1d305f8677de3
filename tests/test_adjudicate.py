from __future__ import annotations

import json
import signal
import sys
import threading
import time

import pytest

from sarif_triage.adjudicate import (
    STATUS_OK,
    STATUS_UNEVALUATED,
    AdjudicationResult,
    BadEnum,
    Confidence,
    MissingField,
    NotJson,
    Verdict,
    adjudicate_all,
    validate_response,
)
from sarif_triage.backend import BackendError, MockBackend, RateLimited, RetryPolicy
from sarif_triage.pipeline import read_rows, write_rows
from sarif_triage.prompts import PromptBundle, PromptMode, prompt_sha256

NO_SLEEP = RetryPolicy(attempt_cap=4, backoff_base_s=0.0, sleep=lambda _: None)


def test_canonical_response_validates_strictly():
    adjudication = validate_response(
        '{"verdict":"FALSE_POSITIVE","confidence":"High","reasoning":"value is list-constant"}'
    )
    assert adjudication.verdict is Verdict.FALSE_POSITIVE
    assert adjudication.confidence is Confidence.HIGH
    assert adjudication.salvaged is False
    assert adjudication.reasoning == "value is list-constant"


def test_wrapped_prose_is_salvaged():
    adjudication = validate_response(
        'Sure! {"verdict":"TRUE_POSITIVE","confidence":"Low","reasoning":"tainted sink"}'
    )
    assert adjudication.verdict is Verdict.TRUE_POSITIVE
    assert adjudication.salvaged is True


def test_bad_enum_is_reported_with_field_and_value():
    with pytest.raises(BadEnum) as info:
        validate_response('{"verdict":"maybe","confidence":"HIGH","reasoning":"r"}')
    assert info.value.field_name == "verdict"
    assert info.value.value == "maybe"
    with pytest.raises(BadEnum):
        validate_response('{"verdict":"TRUE_POSITIVE","confidence":"sure","reasoning":"r"}')


def test_missing_fields_are_named():
    with pytest.raises(MissingField) as info:
        validate_response('{"confidence":"HIGH","reasoning":"r"}')
    assert info.value.field_name == "verdict"
    with pytest.raises(MissingField):
        validate_response('{"verdict":"TRUE_POSITIVE","confidence":"HIGH","reasoning":"  "}')


def test_nested_braces_inside_reasoning_parse_fine():
    raw = '{"verdict":"FALSE_POSITIVE","confidence":"MEDIUM","reasoning":"guarded by if (x) { y } block"}'
    assert validate_response(raw).salvaged is False
    wrapped = "Answer: " + raw + " hope that helps { unrelated }"
    adjudication = validate_response(wrapped)
    assert adjudication.salvaged is True
    assert adjudication.reasoning == "guarded by if (x) { y } block"


def test_not_json_at_all():
    with pytest.raises(NotJson):
        validate_response("the alert looks fine to me")
    with pytest.raises(NotJson):
        validate_response("broken { not json")


def test_case_insensitive_enums_normalize_to_canonical():
    adjudication = validate_response(
        '{"verdict":"false_positive","confidence":"medium","reasoning":"r"}'
    )
    assert adjudication.verdict is Verdict.FALSE_POSITIVE
    assert adjudication.confidence is Confidence.MEDIUM


def _bundle(fid: str, mode=PromptMode.OPTIMIZED, user="user") -> PromptBundle:
    return PromptBundle(
        finding_id=fid,
        mode=mode,
        system_text="system",
        user_text=user,
        prompt_sha256=prompt_sha256("system", user),
    )


def _oracle_script(verdicts: dict[str, str]) -> dict[str, str]:
    return {
        fid: json.dumps(
            {"verdict": verdict, "confidence": "HIGH", "reasoning": "scripted"}
        )
        for fid, verdict in verdicts.items()
    }


def test_adjudicate_all_matches_scripted_labels():
    verdicts = {"f1": "TRUE_POSITIVE", "f2": "FALSE_POSITIVE", "f3": "TRUE_POSITIVE"}
    backend = MockBackend(responses=_oracle_script(verdicts))
    bundles = [_bundle(fid) for fid in verdicts]
    results, audits = adjudicate_all(bundles, backend, retry=NO_SLEEP)
    assert [r.finding_id for r in results] == ["f1", "f2", "f3"]
    assert [r.adjudication.verdict.value for r in results] == list(verdicts.values())
    assert len(audits) == len(bundles)
    for audit, bundle in zip(audits, bundles):
        assert audit["prompt_sha256"] == bundle.prompt_sha256
        assert audit["status"] == STATUS_OK


def _flaky_script(verdicts: dict[str, str]) -> dict:
    """The oracle script with every third finding failing its first one or
    two attempts, alternating transport errors and rate limits."""
    script: dict = _oracle_script(verdicts)
    for i, fid in enumerate(verdicts):
        if i % 3 == 0:
            script[fid] = {
                "response": script[fid],
                "fail_first": 1 + i % 2,
                "failure": "rate_limited" if i % 2 else "transport",
            }
    return script


def test_parallelism_does_not_change_serialized_output(tmp_path):
    verdicts = {f"f{i}": ("TRUE_POSITIVE" if i % 2 else "FALSE_POSITIVE") for i in range(12)}
    bundles = [_bundle(fid) for fid in verdicts]
    # Real (short) backoff sleeps let retried findings finish out of order.
    retry = RetryPolicy(attempt_cap=4, backoff_base_s=0.002)

    paths = []
    for parallelism in (1, 4):
        backend = MockBackend(responses=_flaky_script(verdicts))
        results, _ = adjudicate_all(bundles, backend, parallelism=parallelism, retry=retry)
        assert [r.adjudication.attempt_count for r in results][:4] == [2, 1, 1, 3]
        path = tmp_path / f"adjudications_{parallelism}.jsonl"
        write_rows(path, (r.to_dict() for r in results))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_overflow_yields_unevaluated_placeholder_not_a_drop():
    verdicts = {"f1": "FALSE_POSITIVE", "f3": "TRUE_POSITIVE"}
    backend = MockBackend(responses=_oracle_script(verdicts))
    bundles = [
        _bundle("f1"),
        _bundle("f2", user="x" * 200),  # will overflow
        _bundle("f3"),
    ]
    results, audits = adjudicate_all(bundles, backend, retry=NO_SLEEP, max_prompt_chars=50)
    assert [r.status for r in results] == [STATUS_OK, STATUS_UNEVALUATED, STATUS_OK]
    assert results[1].error is not None and "ContextOverflow" in results[1].error
    assert len(audits) == 3
    assert audits[1]["status"] == STATUS_UNEVALUATED
    assert audits[1]["raw_response"] is None


def test_a_prompt_over_the_limit_is_refused_before_any_backend_call():
    calls = []

    class Counting(MockBackend):
        def complete(self, request):
            calls.append(request.tag)
            return super().complete(request)

    backend = Counting(responses={"f1": "ok", "f2": "ok"})
    bundles = [_bundle("f1", user="x" * 40000), _bundle("f2", user="x" * 32762)]
    results, audits = adjudicate_all(bundles, backend, retry=NO_SLEEP, max_prompt_chars=32768)
    # 6 chars of system text: f1 is 40006 chars, f2 exactly at the limit.
    assert results[0].error == "ContextOverflow: prompt is 40006 chars, limit is 32768"
    assert audits[0]["attempt_count"] == 0
    assert audits[0]["raw_response"] is None
    assert calls == ["f2.OPTIMIZED"]
    assert audits[1]["attempt_count"] == 1


def test_validation_failure_is_unevaluated_with_audit_detail():
    backend = MockBackend(responses={"f1": "not json"})
    results, audits = adjudicate_all([_bundle("f1")], backend, retry=NO_SLEEP)
    assert results[0].status == STATUS_UNEVALUATED
    assert "NotJson" in results[0].error
    assert audits[0]["raw_response"] == "not json"
    assert audits[0]["parsed"] is None


def test_retry_metadata_lands_in_the_adjudication():
    script = {
        "f1": {
            "response": json.dumps(
                {"verdict": "FALSE_POSITIVE", "confidence": "LOW", "reasoning": "r"}
            ),
            "fail_first": 2,
        }
    }
    backend = MockBackend(responses=script)
    results, audits = adjudicate_all([_bundle("f1")], backend, retry=NO_SLEEP)
    assert results[0].adjudication.attempt_count == 3
    assert audits[0]["attempt_count"] == 3


def test_a_failed_call_audits_the_requests_it_made():
    class Malformed(MockBackend):
        def complete(self, request):
            super().complete(request)  # the scripted transport failures first
            raise BackendError("malformed completion response")

    script = {"f1": {"response": "ok", "fail_first": 99}, "f2": {"response": "ok", "fail_first": 1}}
    results, audits = adjudicate_all([_bundle("f1"), _bundle("f2")], Malformed(responses=script),
                                     retry=NO_SLEEP)
    assert [r.error.split(":", 1)[0] for r in results] == ["Exhausted", "BackendError"]
    assert [a["attempt_count"] for a in audits] == [NO_SLEEP.attempt_cap, 2]
    assert [a["status"] for a in audits] == [STATUS_UNEVALUATED] * 2
    assert "attempt_count" not in results[0].to_dict()


def test_oversized_reply_is_rejected():
    big = json.dumps(
        {"verdict": "FALSE_POSITIVE", "confidence": "LOW", "reasoning": "x" * 500}
    )
    backend = MockBackend(responses={"f1": big})
    results, _ = adjudicate_all([_bundle("f1")], backend, retry=NO_SLEEP, max_output_chars=100)
    assert results[0].status == STATUS_UNEVALUATED
    assert "limit is 100" in results[0].error


def test_adjudications_jsonl_round_trip(tmp_path):
    backend = MockBackend(responses=_oracle_script({"f1": "FALSE_POSITIVE"}))
    results, _ = adjudicate_all([_bundle("f1")], backend, retry=NO_SLEEP)
    path = tmp_path / "adjudications.jsonl"
    write_rows(path, (r.to_dict() for r in results))
    loaded = [AdjudicationResult.from_dict(row) for row in read_rows(path)]
    assert loaded == results


def test_every_persisted_verdict_passed_validation():
    # A verdict row exists only when validate_response succeeded; scripted
    # garbage must surface as UNEVALUATED rows instead.
    backend = MockBackend(
        responses={
            "f1": '{"verdict":"FALSE_POSITIVE","confidence":"HIGH","reasoning":"ok"}',
            "f2": '{"verdict":"INVALID","confidence":"HIGH","reasoning":"bad"}',
        }
    )
    results, _ = adjudicate_all([_bundle("f1"), _bundle("f2")], backend, retry=NO_SLEEP)
    assert results[0].status == STATUS_OK
    assert results[1].status == STATUS_UNEVALUATED
    assert results[1].adjudication is None


class _CountingBackend(MockBackend):
    """Records how many ``complete`` calls overlap and which threads make
    them. Each call waits (briefly, bounded) until ``parallelism`` calls are
    in flight at once, so the bound is reached whenever it is allowed."""

    def __init__(self, responses, parallelism: int):
        super().__init__(responses=responses)
        self.parallelism = parallelism
        self.in_flight = 0
        self.peak = 0
        self.threads: set[int] = set()
        self.full = threading.Event()
        self.count_lock = threading.Lock()

    def complete(self, request):
        with self.count_lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.get_ident())
            if self.in_flight == self.parallelism:
                self.full.set()
        try:
            self.full.wait(timeout=0.5)
            time.sleep(0.002)
            return super().complete(request)
        finally:
            with self.count_lock:
                self.in_flight -= 1


def test_a_backoff_does_not_hold_a_slot():
    # One slot: while f0 backs off, f1's call must still go out.
    verdicts = {"f0": "TRUE_POSITIVE", "f1": "FALSE_POSITIVE"}
    script = _oracle_script(verdicts)
    script["f0"] = {"response": script["f0"], "fail_first": 1}
    f1_called = threading.Event()

    class Backend(MockBackend):
        def complete(self, request):
            if request.tag.startswith("f1."):
                f1_called.set()
            return super().complete(request)

    waited: list[bool] = []
    retry = RetryPolicy(attempt_cap=2, backoff_base_s=0.0,
                        sleep=lambda _: waited.append(f1_called.wait(timeout=5)))
    results, audits = adjudicate_all(
        [_bundle(fid) for fid in verdicts], Backend(responses=script), parallelism=1, retry=retry
    )
    assert waited == [True]
    assert [r.status for r in results] == [STATUS_OK, STATUS_OK]
    assert [a["attempt_count"] for a in audits] == [2, 1]


def test_in_flight_calls_never_exceed_parallelism_while_retrying():
    verdicts = {f"f{i}": "TRUE_POSITIVE" for i in range(24)}
    backend = _CountingBackend(_flaky_script(verdicts), parallelism=3)
    retry = RetryPolicy(attempt_cap=4, backoff_base_s=0.002)
    # Frequent thread switches make a lost slot release or a double
    # acquire show as a wrong peak.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results, _ = adjudicate_all(
            [_bundle(fid) for fid in verdicts], backend, parallelism=3, retry=retry
        )
    finally:
        sys.setswitchinterval(interval)
    assert all(r.status == STATUS_OK for r in results)
    assert backend.peak == 3


def test_worker_threads_are_bounded_by_parallelism_times_attempt_cap():
    verdicts = {f"f{i}": "TRUE_POSITIVE" for i in range(40)}
    script = {
        fid: {"response": reply, "fail_first": 1, "failure": "rate_limited"}
        for fid, reply in _oracle_script(verdicts).items()
    }
    backend = _CountingBackend(script, parallelism=2)
    retry = RetryPolicy(attempt_cap=2, backoff_base_s=0.005)
    results, _ = adjudicate_all(
        [_bundle(fid) for fid in verdicts], backend, parallelism=2, retry=retry
    )
    assert [r.adjudication.attempt_count for r in results] == [2] * 40
    assert backend.peak <= 2
    assert len(backend.threads) <= 2 * 2


class _InterruptingBackend(MockBackend):
    """Records the tag of every ``complete`` call; call ``k`` runs ``on_k``
    first. Every call takes ``delay_s``, so calls overlap at parallelism 2."""

    def __init__(self, responses, k: int, on_k, delay_s: float = 0.01):
        super().__init__(responses=responses)
        self.k, self.on_k, self.delay_s = k, on_k, delay_s
        self.calls: list[str] = []
        self.calls_lock = threading.Lock()

    def complete(self, request):
        with self.calls_lock:
            self.calls.append(request.tag)
            n = len(self.calls)
        if n == self.k:
            self.on_k()
        time.sleep(self.delay_s)
        return super().complete(request)


@pytest.mark.parametrize("k", [1, 5])
def test_no_call_starts_after_a_backend_raises_keyboard_interrupt(k):
    verdicts = {f"f{i}": "TRUE_POSITIVE" for i in range(40)}
    interrupt = KeyboardInterrupt()

    def raise_interrupt():
        raise interrupt

    backend = _InterruptingBackend(_oracle_script(verdicts), k, raise_interrupt)
    with pytest.raises(KeyboardInterrupt) as caught:
        adjudicate_all(
            [_bundle(fid) for fid in verdicts], backend, parallelism=2, retry=NO_SLEEP
        )
    assert caught.value is interrupt
    # Only the call already in flight in the other slot may follow call k.
    assert len(backend.calls) <= k + 1


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_no_call_starts_after_the_caller_receives_sigint():
    verdicts = {f"f{i}": "TRUE_POSITIVE" for i in range(40)}
    backend = _InterruptingBackend(
        _oracle_script(verdicts), 5,
        lambda: signal.pthread_kill(threading.main_thread().ident, signal.SIGINT),
        delay_s=0.02,
    )
    seen_at: list[int] = []

    def on_sigint(signum, frame):
        seen_at.append(len(backend.calls))
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            adjudicate_all(
                [_bundle(fid) for fid in verdicts], backend, parallelism=2, retry=NO_SLEEP
            )
    finally:
        signal.signal(signal.SIGINT, previous)
    assert len(seen_at) == 1
    assert len(backend.calls) == seen_at[0]


def test_a_bug_in_one_call_stops_the_run_at_once():
    verdicts = {f"f{i}": "TRUE_POSITIVE" for i in range(40)}
    bug = RuntimeError("bug in the backend")

    def raise_bug():
        raise bug

    backend = _InterruptingBackend(_oracle_script(verdicts), 5, raise_bug)
    with pytest.raises(RuntimeError) as caught:
        adjudicate_all(
            [_bundle(fid) for fid in verdicts], backend, parallelism=2, retry=NO_SLEEP
        )
    assert caught.value is bug
    # Only the call already in flight in the other slot may follow call 5.
    assert len(backend.calls) <= 6


def _throttled(wake: threading.Event, on_backoff) -> RetryPolicy:
    """A policy whose backoff runs ``on_backoff`` and then waits the full
    time unless ``wake`` is set, which lets the test end its workers."""

    def sleep(seconds):
        on_backoff()
        wake.wait(seconds)

    return RetryPolicy(attempt_cap=4, backoff_base_s=0.0, sleep=sleep)


class _ThrottlingBackend(MockBackend):
    """Throttles every call with ``Retry-After: 3``, except ``f0``'s, which
    runs ``on_f0`` instead."""

    def __init__(self, on_f0=None):
        super().__init__(responses={})
        self.on_f0 = on_f0

    def complete(self, request):
        if self.on_f0 is not None and request.tag.startswith("f0."):
            self.on_f0()
        raise RateLimited("HTTP 429", retry_after_s=3.0)


def test_an_interrupt_in_one_call_does_not_wait_out_the_others_backoffs():
    backing_off = threading.Semaphore(0)
    wake = threading.Event()
    raised_at: list[float] = []

    def interrupt_once_the_others_back_off():
        for _ in range(3):
            assert backing_off.acquire(timeout=5)
        raised_at.append(time.monotonic())
        raise KeyboardInterrupt

    bundles = [_bundle(f"f{i}") for i in range(4)]
    try:
        with pytest.raises(KeyboardInterrupt):
            adjudicate_all(bundles, _ThrottlingBackend(interrupt_once_the_others_back_off),
                           parallelism=2, retry=_throttled(wake, backing_off.release))
        reached_at = time.monotonic()
    finally:
        wake.set()
    assert reached_at - raised_at[0] < 1.0


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_a_sigint_during_a_backoff_reaches_the_caller_at_once():
    wake = threading.Event()
    sent_at: list[float] = []

    def send_sigint():
        sent_at.append(time.monotonic())
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    # Sent a little into the first backoff, once every worker has started.
    timer = threading.Timer(0.1, send_sigint)
    once = threading.Lock()

    def send_sigint_soon():
        if once.acquire(blocking=False):
            timer.start()

    def on_sigint(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            adjudicate_all([_bundle(f"f{i}") for i in range(4)], _ThrottlingBackend(),
                           parallelism=2, retry=_throttled(wake, send_sigint_soon))
        reached_at = time.monotonic()
    finally:
        timer.cancel()
        wake.set()
        signal.signal(signal.SIGINT, previous)
    assert reached_at - sent_at[0] < 1.0
