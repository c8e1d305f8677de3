"""Model backends: a chat-completions HTTP client and a scripted mock.

Every backend answers a ``BackendRequest`` (two-message conversation at
temperature 0) with a ``BackendReply``. ``send`` adds retry with
exponential backoff for transport errors and rate limiting, waiting longer
when a throttling reply asks for it (``retry-after-ms`` or ``Retry-After``);
context overflow is never retried. ``send`` waits through
``RetryPolicy.sleep``, which ``adjudicate_all`` wraps so that a waiting call
gives its ``parallelism`` slot to another.

The mock backend is driven by a JSON script file mapping finding keys (or
prompt hashes) to canned responses, optionally with scripted failures:

    {
      "max_prompt_chars": 32768,
      "default": "fallback raw response",
      "responses": {
        "<finding_id>.<mode>": "raw response text",
        "<finding_id>": {"response": "...", "fail_first": 2, "failure": "transport"},
        "sha256:<prompt_sha256>": "..."
      }
    }
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping

import requests

from .prompts import prompt_sha256


class BackendError(Exception):
    """Base class for backend failures; not retryable by itself."""


class TransportError(BackendError):
    """Network-level failure; retryable."""


class RateLimited(BackendError):
    """Throttled by the provider; retryable. ``retry_after_s`` is the wait
    the provider asked for, 0 when it named none."""

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ContextOverflow(BackendError):
    """Prompt exceeds the model's context limit; never retried."""


class Exhausted(BackendError):
    """Retry attempt cap reached without a successful reply."""


@dataclass(frozen=True)
class BackendRequest:
    model: str
    system_text: str
    user_text: str
    max_output_chars: int = 16384
    tag: str = ""  # "<finding_id>.<mode>"; used for audit and mock lookup
    temperature: int = 0

    def __post_init__(self) -> None:
        if self.temperature != 0:
            raise ValueError("temperature is fixed at 0 for deterministic output")

    @property
    def prompt_chars(self) -> int:
        return len(self.system_text) + len(self.user_text)


@dataclass(frozen=True)
class BackendReply:
    text: str
    latency_ms: int
    attempt_count: int = 1  # set by ``send`` to the attempt that succeeded


@dataclass(frozen=True)
class RetryPolicy:
    attempt_cap: int = 4
    backoff_base_s: float = 0.5
    sleep: Callable[[float], None] = time.sleep


def send(request: BackendRequest, backend: "Backend", retry: RetryPolicy | None = None) -> BackendReply:
    """Issue one request, retrying transport errors and rate limits with
    exponential backoff up to ``retry.attempt_cap`` attempts. A rate limit
    waits for the longer of the backoff and the provider's ``retry_after_s``."""
    retry = retry or RetryPolicy()
    last_error: BackendError | None = None
    for attempt in range(1, retry.attempt_cap + 1):
        try:
            return replace(backend.complete(request), attempt_count=attempt)
        except (TransportError, RateLimited) as exc:
            last_error = exc
            if attempt < retry.attempt_cap:
                wait = retry.backoff_base_s * (2 ** (attempt - 1))
                if isinstance(exc, RateLimited):
                    wait = max(wait, exc.retry_after_s)
                retry.sleep(wait)
    raise Exhausted(
        f"gave up after {retry.attempt_cap} attempts: {last_error}"
    ) from last_error


class Backend:
    """Interface: answer one request with one reply."""

    def complete(self, request: BackendRequest) -> BackendReply:
        raise NotImplementedError


_RETRYABLE_STATUSES = {429, 502, 503, 504}
RETRY_AFTER_CAP_S = 60.0  # longest wait a provider's retry header can ask for


def _retry_after_s(headers: Mapping[str, str]) -> float:
    """The wait a throttling reply asks for: ``retry-after-ms``, or failing
    that ``Retry-After`` as delta-seconds, clamped to ``RETRY_AFTER_CAP_S``.
    An absent, negative or unparsable value (an HTTP-date included) is 0."""
    for name, per_second in (("retry-after-ms", 1000.0), ("Retry-After", 1.0)):
        try:
            seconds = float(headers.get(name, "")) / per_second
        except ValueError:
            continue
        if seconds >= 0:  # also false for NaN
            return min(seconds, RETRY_AFTER_CAP_S)
    return 0.0


class HttpBackend(Backend):
    """Chat-completions style HTTP backend.

    POSTs ``{"model", "messages": [system, user], "temperature": 0}`` to the
    endpoint with a bearer token read from ``key_env`` and returns the first
    choice's message content.
    """

    def __init__(
        self,
        endpoint: str,
        key_env: str = "SARIF_TRIAGE_API_KEY",
        timeout_s: float = 120.0,
        max_prompt_chars: int | None = None,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.key_env = key_env
        self.timeout_s = timeout_s
        self.max_prompt_chars = max_prompt_chars
        self._session = session or requests.Session()

    def complete(self, request: BackendRequest) -> BackendReply:
        if self.max_prompt_chars is not None and request.prompt_chars > self.max_prompt_chars:
            raise ContextOverflow(
                f"prompt is {request.prompt_chars} chars, limit is {self.max_prompt_chars}"
            )
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": 0,
        }
        started = time.monotonic()
        try:
            response = self._session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout_s
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        latency_ms = int((time.monotonic() - started) * 1000)

        if response.status_code in _RETRYABLE_STATUSES:
            raise RateLimited(
                f"HTTP {response.status_code}: {response.text[:200]}",
                retry_after_s=_retry_after_s(response.headers),
            )
        if response.status_code == 400 and _looks_like_overflow(response.text):
            raise ContextOverflow(f"HTTP 400: {response.text[:200]}")
        if response.status_code != 200:
            raise BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
        try:
            body = response.json()
            content = body["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError("completion content is not a string")
        return BackendReply(text=content, latency_ms=latency_ms)


def _looks_like_overflow(body: str) -> bool:
    lowered = body.lower()
    return "context" in lowered and ("length" in lowered or "token" in lowered or "overflow" in lowered)


@dataclass
class _MockEntry:
    response: str
    fail_first: int = 0
    failure: str = "transport"


class MockBackend(Backend):
    """Deterministic scripted backend for tests and offline runs."""

    def __init__(
        self,
        responses: Mapping[str, Any],
        default: Any | None = None,
        max_prompt_chars: int | None = None,
    ):
        self._entries: dict[str, _MockEntry] = {
            key: _coerce_entry(key, value) for key, value in responses.items()
        }
        self._default = None if default is None else _coerce_entry("default", default)
        self.max_prompt_chars = max_prompt_chars
        self._remaining_failures: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_script_file(cls, path: Path | str) -> "MockBackend":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"mock script {path} must be a JSON object")
        return cls(
            responses=data.get("responses", {}),
            default=data.get("default"),
            max_prompt_chars=data.get("max_prompt_chars"),
        )

    def _lookup(self, request: BackendRequest) -> tuple[str, _MockEntry] | None:
        keys = []
        if request.tag:
            keys.append(request.tag)
            finding_id = request.tag.rsplit(".", 1)[0]
            if finding_id != request.tag:
                keys.append(finding_id)
        keys.append("sha256:" + prompt_sha256(request.system_text, request.user_text))
        for key in keys:
            entry = self._entries.get(key)
            if entry is not None:
                return key, entry
        if self._default is not None:
            return "default", self._default
        return None

    def complete(self, request: BackendRequest) -> BackendReply:
        if self.max_prompt_chars is not None and request.prompt_chars > self.max_prompt_chars:
            raise ContextOverflow(
                f"prompt is {request.prompt_chars} chars, limit is {self.max_prompt_chars}"
            )
        found = self._lookup(request)
        if found is None:
            raise BackendError(f"mock script has no entry for {request.tag or 'request'}")
        key, entry = found
        if entry.fail_first:
            with self._lock:
                remaining = self._remaining_failures.setdefault(key, entry.fail_first)
                if remaining > 0:
                    self._remaining_failures[key] = remaining - 1
                    if entry.failure == "rate_limited":
                        raise RateLimited(f"scripted rate limit for {key}")
                    raise TransportError(f"scripted transport failure for {key}")
        return BackendReply(text=entry.response, latency_ms=0)


def _coerce_entry(key: str, value: Any) -> _MockEntry:
    if isinstance(value, str):
        return _MockEntry(response=value)
    if isinstance(value, dict) and isinstance(value.get("response"), str):
        failure = value.get("failure", "transport")
        if failure not in ("transport", "rate_limited"):
            raise ValueError(f"mock entry {key}: unknown failure kind {failure!r}")
        return _MockEntry(
            response=value["response"],
            fail_first=int(value.get("fail_first", 0)),
            failure=failure,
        )
    raise ValueError(f"mock entry {key} must be a string or an object with `response`")
