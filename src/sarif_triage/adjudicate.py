"""Adjudication: send compiled prompts to a backend, validate the JSON
verdicts, and keep a complete audit record for every attempt.

Findings are evaluated independently and results always come back in input
order regardless of completion order. A finding whose call or validation
fails is marked UNEVALUATED, never dropped. A verdict and a confidence are
names in ``VERDICTS`` and ``CONFIDENCES``, as ``adjudications.jsonl`` spells
them; a reply's are checked against those tuples when it is validated.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from typing import Any, Callable, Mapping, NamedTuple

from .backend import (
    Backend,
    BackendError,
    BackendRequest,
    CallSlots,
    ContextOverflow,
    RetryPolicy,
    send,
)
from .ingest import from_row
from .prompts import PromptBundle

VERDICTS = ("TRUE_POSITIVE", "FALSE_POSITIVE")
CONFIDENCES = ("HIGH", "MEDIUM", "LOW")


class ResponseValidationError(ValueError):
    """Base class for schema violations in a model response."""


class NotJson(ResponseValidationError):
    pass


class MissingField(ResponseValidationError):
    def __init__(self, field_name: str):
        super().__init__(f"missing field: {field_name}")
        self.field_name = field_name


class BadEnum(ResponseValidationError):
    def __init__(self, field_name: str, value: Any):
        super().__init__(f"bad enum for {field_name}: {value!r}")
        self.field_name = field_name
        self.value = value


STATUS_OK = "OK"
STATUS_UNEVALUATED = "UNEVALUATED"


class Adjudication(NamedTuple):
    verdict: str  # one of VERDICTS
    confidence: str  # one of CONFIDENCES
    reasoning: str
    salvaged: bool
    raw_response: str
    latency_ms: int
    attempt_count: int


class AdjudicationResult(NamedTuple):
    """Outcome for one (finding, mode): a validated adjudication or an
    UNEVALUATED placeholder with the failure reason."""

    finding_id: str
    mode: str
    adjudication: Adjudication | None = None
    error: str | None = None

    @property
    def status(self) -> str:
        return STATUS_UNEVALUATED if self.adjudication is None else STATUS_OK

    def to_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "finding_id": self.finding_id,
            "mode": self.mode,
            "status": self.status,
        }
        if self.adjudication is not None:
            row.update(self.adjudication._asdict())
        if self.error is not None:
            row["error"] = self.error
        return row

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AdjudicationResult":
        # Only an OK row holds the adjudication's keys; only a failed one, "error".
        adjudication = from_row(Adjudication, d) if d["status"] == STATUS_OK else None
        return from_row(cls, {**d, "adjudication": adjudication, "error": d.get("error")})


def _validate_object(obj: Any) -> tuple[str, str, str]:
    if not isinstance(obj, dict):
        raise NotJson("response is not a JSON object")
    for name in ("verdict", "confidence", "reasoning"):
        if name not in obj:
            raise MissingField(name)
    members = []
    for name, allowed in (("verdict", VERDICTS), ("confidence", CONFIDENCES)):
        value = obj[name]
        # Case folds in ASCII only: upper-cased, a dotless i reads as an I.
        text = value.strip() if isinstance(value, str) else ""
        if not text.isascii() or text.upper() not in allowed:
            raise BadEnum(name, value)
        members.append(text.upper())
    reasoning = obj["reasoning"]
    if not isinstance(reasoning, str) or not reasoning.strip():
        raise MissingField("reasoning")
    return members[0], members[1], reasoning


def validate_response(
    raw: str,
    latency_ms: int = 0,
    attempt_count: int = 1,
) -> Adjudication:
    """Validate a model response against the closed verdict schema.

    Strict pass first: the response must be exactly one JSON object with
    ``verdict``, ``confidence``, and ``reasoning`` (their values accepted
    case-insensitively in ASCII). On a strict JSON failure, one salvage pass
    decodes the object that starts at the first ``{``, ignoring the prose
    around it, and re-validates, setting ``salvaged``. Anything else raises
    ``NotJson``, ``MissingField``, or ``BadEnum``.
    """
    salvaged = False
    # Past its integer digit or nesting limit, json raises these, not JSONDecodeError.
    try:
        obj = json.loads(raw.strip())
    except (ValueError, RecursionError):
        start = raw.find("{")
        if start < 0:
            raise NotJson("no JSON object found in response") from None
        try:
            obj, _ = json.JSONDecoder().raw_decode(raw, start)
        except (ValueError, RecursionError) as exc:
            raise NotJson(f"no valid JSON object at the first '{{': {exc}") from exc
        salvaged = True
    verdict, confidence, reasoning = _validate_object(obj)
    return Adjudication(
        verdict=verdict,
        confidence=confidence,
        reasoning=reasoning,
        salvaged=salvaged,
        raw_response=raw,
        latency_ms=latency_ms,
        attempt_count=attempt_count,
    )


def _adjudicate_one(
    bundle: PromptBundle,
    backend: Backend,
    model: str,
    retry: RetryPolicy,
    slots: CallSlots,
    max_output_chars: int,
    max_prompt_chars: int | None,
) -> tuple[AdjudicationResult, dict[str, Any]]:
    """The result for one bundle and its audit record, the dict written to
    ``audit/<fid>.<mode>.json``. A prompt over ``max_prompt_chars`` sends
    no request; a reply over ``max_output_chars`` is not kept."""
    requested_at = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    request = BackendRequest(model, bundle.system_text, bundle.user_text,
                             tag=f"{bundle.finding_id}.{bundle.mode}")
    raw_response: str | None = None
    latency_ms = attempt_count = 0
    adjudication: Adjudication | None = None
    error: str | None = None
    try:
        chars = len(bundle.system_text) + len(bundle.user_text)
        if max_prompt_chars is not None and chars > max_prompt_chars:
            raise ContextOverflow(f"prompt is {chars} chars, limit is {max_prompt_chars}")
        reply = send(request, backend, retry, slots)
        raw_response, latency_ms, attempt_count = reply.text, reply.latency_ms, reply.attempt_count
        if len(reply.text) > max_output_chars:
            raise ResponseValidationError(
                f"response is {len(reply.text)} chars, limit is {max_output_chars}"
            )
        adjudication = validate_response(reply.text, reply.latency_ms, reply.attempt_count)
    except BackendError as exc:
        error, attempt_count = f"{type(exc).__name__}: {exc}", exc.attempt_count
    except ResponseValidationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    result = AdjudicationResult(bundle.finding_id, bundle.mode, adjudication, error)
    audit = {
        "finding_id": bundle.finding_id,
        "mode": bundle.mode,
        "prompt_sha256": bundle.prompt_sha256,
        "model": model,
        "requested_at": requested_at,
        "raw_response": raw_response,
        "status": result.status,
        "parsed": None if adjudication is None else {
            "verdict": adjudication.verdict,
            "confidence": adjudication.confidence,
            "reasoning": adjudication.reasoning,
            "salvaged": adjudication.salvaged,
        },
        "error": error,
        "latency_ms": latency_ms,
        "attempt_count": attempt_count,
    }
    return result, audit


def adjudicate_all(
    bundles: list[PromptBundle],
    backend: Backend,
    parallelism: int = 1,
    model: str = "mock",
    retry: RetryPolicy | None = None,
    max_output_chars: int = 16384,
    max_prompt_chars: int | None = None,
    on_audit: Callable[[dict[str, Any]], None] | None = None,
) -> tuple[list[AdjudicationResult], list[dict[str, Any]]]:
    """Adjudicate every bundle exactly once: the results and their audit
    records, in input order regardless of completion order.

    At most ``parallelism`` calls are in flight: ``send`` holds one of
    ``parallelism`` slots only while the backend call runs, so a backoff
    between retries holds none. Up to ``parallelism * retry.attempt_cap``
    daemon threads run, enough for others to fill the slots while some wait.
    The calling thread hands each bundle's audit record to ``on_audit`` as
    soon as that bundle is done, in completion order, while the other calls
    are still in flight. The first exception other than a ``BackendError``
    that a call, a worker or the caller meets (a bug, Ctrl-C, an ``on_audit``
    that raises) stops the run: no further call starts, and that exception
    leaves at once, without waiting for the calls in flight or the backoffs
    in progress.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    retry = retry or RetryPolicy()
    slots = CallSlots(parallelism)
    pairs: list[Any] = [None] * len(bundles)
    cursor = iter(range(len(bundles)))
    cursor_lock = threading.Lock()  # one index per thread, GIL or not
    # Each finished bundle's index, and a None as each worker ends.
    done: queue.SimpleQueue[int | None] = queue.SimpleQueue()

    def work() -> None:
        try:
            while slots.failure is None:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    return
                pairs[i] = _adjudicate_one(bundles[i], backend, model, retry, slots,
                                           max_output_chars, max_prompt_chars)
                done.put(i)
        except BaseException as exc:
            slots.fail(exc)
        finally:
            done.put(None)

    workers = max(1, min(len(bundles), parallelism * retry.attempt_cap))
    try:
        for _ in range(workers):
            threading.Thread(target=work, daemon=True).start()
        running = workers
        while running and slots.failure is None:
            i = done.get()
            if i is None:
                running -= 1
            elif on_audit is not None:
                on_audit(pairs[i][1])
    except BaseException as exc:  # Ctrl-C reached the caller, or on_audit raised
        slots.fail(exc)
    if slots.failure is not None:
        raise slots.failure
    return [pair[0] for pair in pairs], [pair[1] for pair in pairs]
