"""Adjudication: send compiled prompts to a backend, validate the JSON
verdicts, and keep a complete audit record for every attempt.

Findings are evaluated independently and results always come back in input
order regardless of completion order. A finding whose call or validation
fails is marked UNEVALUATED, never dropped.
"""

from __future__ import annotations

import json
import threading
import time
from enum import Enum
from typing import Any, Mapping, NamedTuple

from .backend import (
    Backend,
    BackendError,
    BackendRequest,
    CallSlots,
    ContextOverflow,
    RetryPolicy,
    send,
)
from .prompts import PromptBundle


class Verdict(str, Enum):
    TRUE_POSITIVE = "TRUE_POSITIVE"
    FALSE_POSITIVE = "FALSE_POSITIVE"


class Confidence(str, Enum):
    HIGH = "HIGH"
    MEDIUM = "MEDIUM"
    LOW = "LOW"


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
    verdict: Verdict
    confidence: Confidence
    reasoning: str
    salvaged: bool
    raw_response: str
    latency_ms: int
    attempt_count: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict.value,
            "confidence": self.confidence.value,
            "reasoning": self.reasoning,
            "salvaged": self.salvaged,
            "raw_response": self.raw_response,
            "latency_ms": self.latency_ms,
            "attempt_count": self.attempt_count,
        }


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
            row.update(self.adjudication.to_dict())
        if self.error is not None:
            row["error"] = self.error
        return row

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AdjudicationResult":
        adjudication = None
        if d.get("status") == STATUS_OK:
            adjudication = Adjudication(
                verdict=Verdict(d["verdict"]),
                confidence=Confidence(d["confidence"]),
                reasoning=d["reasoning"],
                salvaged=d.get("salvaged", False),
                raw_response=d.get("raw_response", ""),
                latency_ms=d.get("latency_ms", 0),
                attempt_count=d.get("attempt_count", 1),
            )
        return cls(
            finding_id=d["finding_id"],
            mode=d["mode"],
            adjudication=adjudication,
            error=d.get("error"),
        )


def _extract_outer_object(raw: str) -> str:
    """Outermost brace-delimited substring, found with a string-aware scan
    so braces inside JSON strings do not end the object early."""
    start = raw.find("{")
    if start < 0:
        raise NotJson("no JSON object found in response")
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(raw)):
        ch = raw[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return raw[start : i + 1]
    raise NotJson("unterminated JSON object in response")


def _validate_object(obj: Any) -> tuple[Verdict, Confidence, str]:
    if not isinstance(obj, dict):
        raise NotJson("response is not a JSON object")
    for name in ("verdict", "confidence", "reasoning"):
        if name not in obj:
            raise MissingField(name)
    verdict_raw = obj["verdict"]
    if not isinstance(verdict_raw, str):
        raise BadEnum("verdict", verdict_raw)
    try:
        verdict = Verdict(verdict_raw.strip().upper())
    except ValueError:
        raise BadEnum("verdict", verdict_raw) from None
    confidence_raw = obj["confidence"]
    if not isinstance(confidence_raw, str):
        raise BadEnum("confidence", confidence_raw)
    try:
        confidence = Confidence(confidence_raw.strip().upper())
    except ValueError:
        raise BadEnum("confidence", confidence_raw) from None
    reasoning = obj["reasoning"]
    if not isinstance(reasoning, str) or not reasoning.strip():
        raise MissingField("reasoning")
    return verdict, confidence, reasoning


def validate_response(
    raw: str,
    latency_ms: int = 0,
    attempt_count: int = 1,
) -> Adjudication:
    """Validate a model response against the closed verdict schema.

    Strict pass first: the response must be exactly one JSON object with
    ``verdict``, ``confidence``, and ``reasoning`` (enum values accepted
    case-insensitively). On a strict JSON failure, one salvage pass extracts
    the outermost object from surrounding prose and re-validates, setting
    ``salvaged``. Anything else raises ``NotJson``, ``MissingField``, or
    ``BadEnum``.
    """
    salvaged = False
    # Past its integer digit or nesting limit, json raises these, not JSONDecodeError.
    try:
        obj = json.loads(raw.strip())
    except (ValueError, RecursionError):
        candidate = _extract_outer_object(raw)  # may raise NotJson
        try:
            obj = json.loads(candidate)
        except (ValueError, RecursionError) as exc:
            raise NotJson(f"salvaged substring is not valid JSON: {exc}") from exc
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
    mode = bundle.mode.value
    audit: dict[str, Any] = {
        "finding_id": bundle.finding_id,
        "mode": mode,
        "prompt_sha256": bundle.prompt_sha256,
        "model": model,
        "requested_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "raw_response": None,
        "status": STATUS_UNEVALUATED,
        "parsed": None,
        "error": None,
        "latency_ms": 0,
        "attempt_count": 0,
    }
    request = BackendRequest(model, bundle.system_text, bundle.user_text,
                             tag=f"{bundle.finding_id}.{mode}")
    adjudication: Adjudication | None = None
    try:
        chars = len(bundle.system_text) + len(bundle.user_text)
        if max_prompt_chars is not None and chars > max_prompt_chars:
            raise ContextOverflow(f"prompt is {chars} chars, limit is {max_prompt_chars}")
        reply = send(request, backend, retry, slots)
        audit.update(raw_response=reply.text, latency_ms=reply.latency_ms,
                     attempt_count=reply.attempt_count)
        if len(reply.text) > max_output_chars:
            raise ResponseValidationError(
                f"response is {len(reply.text)} chars, limit is {max_output_chars}"
            )
        adjudication = validate_response(reply.text, reply.latency_ms, reply.attempt_count)
        audit["status"] = STATUS_OK
        audit["parsed"] = {
            "verdict": adjudication.verdict.value,
            "confidence": adjudication.confidence.value,
            "reasoning": adjudication.reasoning,
            "salvaged": adjudication.salvaged,
        }
    except BackendError as exc:
        audit.update(error=f"{type(exc).__name__}: {exc}", attempt_count=exc.attempt_count)
    except ResponseValidationError as exc:
        audit["error"] = f"{type(exc).__name__}: {exc}"
    result = AdjudicationResult(bundle.finding_id, mode, adjudication, audit["error"])
    return result, audit


def adjudicate_all(
    bundles: list[PromptBundle],
    backend: Backend,
    parallelism: int = 1,
    model: str = "mock",
    retry: RetryPolicy | None = None,
    max_output_chars: int = 16384,
    max_prompt_chars: int | None = None,
) -> tuple[list[AdjudicationResult], list[dict[str, Any]]]:
    """Adjudicate every bundle exactly once: the results and their audit
    records, in input order regardless of completion order.

    At most ``parallelism`` calls are in flight: ``send`` holds one of
    ``parallelism`` slots only while the backend call runs, so a backoff
    between retries holds none. Up to ``parallelism * retry.attempt_cap``
    daemon threads run, enough for others to fill the slots while some wait.
    The first exception other than a ``BackendError`` that a call, a worker
    or the caller meets (a bug, Ctrl-C) stops the run: no further call
    starts, and that exception leaves at once, without waiting for the
    calls in flight or the backoffs in progress.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    retry = retry or RetryPolicy()
    slots = CallSlots(parallelism)
    pairs: list[Any] = [None] * len(bundles)
    cursor = iter(range(len(bundles)))
    cursor_lock = threading.Lock()  # one index per thread, GIL or not
    ended = threading.Semaphore(0)

    def work() -> None:
        try:
            while slots.failure is None:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    return
                pairs[i] = _adjudicate_one(bundles[i], backend, model, retry, slots,
                                           max_output_chars, max_prompt_chars)
        except BaseException as exc:
            slots.fail(exc)
        finally:
            ended.release()

    workers = max(1, min(len(bundles), parallelism * retry.attempt_cap))
    try:
        for _ in range(workers):
            threading.Thread(target=work, daemon=True).start()
        for _ in range(workers):
            ended.acquire()
            if slots.failure is not None:
                break
    except BaseException as exc:  # Ctrl-C reached the caller
        slots.fail(exc)
    if slots.failure is not None:
        raise slots.failure
    return [pair[0] for pair in pairs], [pair[1] for pair in pairs]
