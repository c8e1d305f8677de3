"""Model backends: a chat-completions HTTP client and a scripted mock.

Every backend answers a ``BackendRequest`` (two-message conversation at
temperature 0) with a ``BackendReply``. ``send`` adds retry with
exponential backoff for transport errors and rate limiting, waiting longer
when a throttling reply asks for it (``retry-after-ms`` or ``Retry-After``);
context overflow is never retried. ``send`` waits through
``RetryPolicy.sleep`` and holds a ``CallSlots`` slot only while the backend
call runs, so a call that backs off holds none. A prompt over the run's
prompt-size limit reaches neither backend: ``adjudicate`` refuses it as
``ContextOverflow`` before any request, with ``attempt_count`` 0.

The HTTP backend speaks HTTP/1.1 through the standard library's
``http.client``: it keeps finished connections alive in a pool it owns and
closes them in ``close()``, takes proxies from ``http_proxy``/
``https_proxy``/``no_proxy``, and verifies HTTPS certificates and host names
against the system trust store (``SSL_CERT_FILE``/``SSL_CERT_DIR`` override
it). Redirects, ``.netrc`` credentials and compressed replies are not
supported.

The mock backend is driven by a JSON script file mapping finding keys (or
prompt hashes) to canned responses, optionally with scripted failures:

    {
      "default": "fallback raw response",
      "responses": {
        "<finding_id>.<mode>": "raw response text",
        "<finding_id>": {"response": "...", "fail_first": 2, "failure": "transport"},
        "sha256:<prompt_sha256>": "..."
      }
    }

Any other top-level key is refused.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.parse
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from .config import parse_endpoint
from .prompts import prompt_sha256

if TYPE_CHECKING:
    import http.client


class BackendError(Exception):
    """Base class for backend failures; not retryable by itself.
    ``attempt_count`` is the number of backend calls ``send`` made before
    this error left it."""

    attempt_count = 0


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


class BackendRequest(NamedTuple):
    model: str
    system_text: str
    user_text: str
    tag: str = ""  # "<finding_id>.<mode>"; used for audit and mock lookup


class BackendReply(NamedTuple):
    text: str
    latency_ms: int
    attempt_count: int = 1  # set by ``send`` to the attempt that succeeded


class RetryPolicy(NamedTuple):
    attempt_cap: int = 4
    backoff_base_s: float = 0.5
    sleep: Callable[[float], None] = time.sleep


# The longest wait between two attempts, whatever the backoff or a
# throttling reply asks for.
MAX_RETRY_WAIT_S = 60.0


class CallSlots:
    """The in-flight limit and a run's one stop rule.

    At most ``limit`` backend calls run at once. ``failure`` holds the first
    exception other than a ``BackendError`` that a call in a slot raised or
    ``fail`` was given (a bug, Ctrl-C); from then on no call starts: taking
    a slot raises ``BackendError``.
    """

    def __init__(self, limit: int = 1):
        self._free = threading.BoundedSemaphore(limit)
        self._lock = threading.Lock()
        self.failure: BaseException | None = None

    def fail(self, exc: BaseException | None) -> None:
        if exc is not None and not isinstance(exc, BackendError):
            with self._lock:
                if self.failure is None:
                    self.failure = exc

    def __enter__(self) -> None:
        self._free.acquire()
        if self.failure is not None:
            self._free.release()
            raise BackendError("not started: the run was stopped")

    def __exit__(self, kind: type | None, exc: BaseException | None, tb: Any) -> None:
        self.fail(exc)  # before a waiting call can take the slot
        self._free.release()


def send(
    request: BackendRequest,
    backend: "Backend",
    retry: RetryPolicy | None = None,
    slots: CallSlots | None = None,
) -> BackendReply:
    """Issue one request, retrying transport errors and rate limits with
    exponential backoff up to ``retry.attempt_cap`` attempts. A rate limit
    waits for the longer of the backoff and the provider's ``retry_after_s``;
    no wait is longer than ``MAX_RETRY_WAIT_S``. Each attempt holds one of
    ``slots`` while the backend call runs, and none while it backs off. A
    ``BackendError`` that leaves carries the number of calls made in
    ``attempt_count``."""
    retry = retry or RetryPolicy()
    slots = slots or CallSlots()
    calls = 0
    backoff = retry.backoff_base_s
    last_error: BackendError | None = None
    try:
        for attempt in range(1, retry.attempt_cap + 1):
            try:
                with slots:
                    calls += 1
                    reply = backend.complete(request)
                return reply._replace(attempt_count=calls)
            except (TransportError, RateLimited) as exc:
                last_error = exc
                if attempt < retry.attempt_cap:
                    wait = backoff
                    if isinstance(exc, RateLimited):
                        wait = max(wait, exc.retry_after_s)
                    retry.sleep(min(wait, MAX_RETRY_WAIT_S))
                    # Doubled and clamped step by step, so no attempt number overflows.
                    backoff = min(backoff * 2, MAX_RETRY_WAIT_S)
        raise Exhausted(
            f"gave up after {retry.attempt_cap} attempts: {last_error}"
        ) from last_error
    except BackendError as exc:
        exc.attempt_count = calls
        raise


class Backend:
    """Interface: answer one request with one reply."""

    def complete(self, request: BackendRequest) -> BackendReply:
        raise NotImplementedError

    def close(self) -> None:
        """Release the connections the backend keeps open between calls."""


_RETRYABLE_STATUSES = {429, 502, 503, 504}


def _retry_after_s(headers: http.client.HTTPMessage) -> float:
    """The wait a throttling reply asks for: ``retry-after-ms``, or failing
    that ``Retry-After`` as delta-seconds (``send`` clamps the wait); header
    names match in any case. An absent, negative or unparsable value (an
    HTTP-date included) is 0."""
    for name, per_second in (("retry-after-ms", 1000.0), ("Retry-After", 1.0)):
        try:
            seconds = float(headers.get(name, "")) / per_second
        except ValueError:
            continue
        if seconds >= 0:  # also false for NaN
            return seconds
    return 0.0


def _proxy_for(
    url: urllib.parse.SplitResult,
) -> tuple[tuple[str, int | None] | None, dict[str, str]]:
    """The ``(host, port)`` of the proxy that ``*_proxy``/``no_proxy`` name
    for ``url`` (None for a direct connection) and the headers it needs."""
    import base64
    import urllib.request

    proxy_url = urllib.request.getproxies().get(url.scheme)
    if not proxy_url or urllib.request.proxy_bypass(url.netloc):
        return None, {}
    proxy = urllib.parse.urlsplit(proxy_url if "://" in proxy_url else "http://" + proxy_url)
    if proxy.scheme != "http" or not proxy.hostname:
        raise ValueError(f"unsupported {url.scheme} proxy: {proxy_url!r}")
    headers = {}
    if proxy.username is not None:
        user_pass = ":".join(
            urllib.parse.unquote(part or "") for part in (proxy.username, proxy.password)
        )
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode()
    return (proxy.hostname, proxy.port), headers


# A reused keep-alive connection the server closed while it sat idle fails
# with one of these before any status line arrives (``http.client``'s
# ``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE_CONNECTION = (ConnectionResetError, BrokenPipeError)


class HttpBackend(Backend):
    """Chat-completions style HTTP backend.

    POSTs ``{"model", "messages": [system, user], "temperature": 0}`` to the
    endpoint with a bearer token read from ``key_env`` and returns the first
    choice's message content. Connections are kept alive and reused; a call
    never shares one with another call in flight.
    """

    def __init__(
        self,
        endpoint: str,
        key_env: str = "SARIF_TRIAGE_API_KEY",
        timeout_s: float = 120.0,
    ):
        # Only a live backend needs the transport, so only its construction
        # pays for importing it; the calls reach it through ``self._http``.
        import http.client
        import ssl

        url = parse_endpoint(endpoint)
        self._http = http.client
        self.endpoint = endpoint
        self.key_env = key_env
        self.timeout_s = timeout_s
        self._https = url.scheme == "https"
        self._host, self._port = url.hostname, url.port
        self._target = url.path or "/"
        if url.query:
            self._target += "?" + url.query
        self._headers = {"Content-Type": "application/json", "User-Agent": "sarif-triage"}
        self._proxy, self._proxy_headers = _proxy_for(url)
        if self._proxy is not None and not self._https:
            self._target = f"http://{url.netloc}{self._target}"  # absolute form
            self._headers.update(self._proxy_headers)
        self._ssl = ssl.create_default_context() if self._https else None
        self._idle: list[http.client.HTTPConnection] = []
        self._closed = False
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._proxy or (self._host, self._port)
        if not self._https:
            return self._http.HTTPConnection(host, port, timeout=self.timeout_s)
        conn = self._http.HTTPSConnection(host, port, timeout=self.timeout_s, context=self._ssl)
        if self._proxy is not None:
            conn.set_tunnel(self._host, self._port, headers=self._proxy_headers)
        return conn

    def _post(
        self, body: bytes, headers: dict[str, str]
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """POST ``body`` on a pooled or new connection; the response and its
        whole body. Any network failure closes the connection and raises
        ``TransportError``."""
        with self._lock:
            pooled = self._idle.pop() if self._idle else None
        conn = pooled or self._connect()
        try:
            try:
                conn.request("POST", self._target, body=body, headers=headers)
                response = conn.getresponse()
            except _STALE_CONNECTION:
                if conn is not pooled:
                    raise
                conn.close()  # dropped while idle: one retry on a fresh connection
                conn = self._connect()
                conn.request("POST", self._target, body=body, headers=headers)
                response = conn.getresponse()
            data = response.read()
        except (OSError, self._http.HTTPException) as exc:
            conn.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        with self._lock:
            keep = not (response.will_close or self._closed)
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        return response, data

    def close(self) -> None:
        """Close the pooled connections now and each other one as its call ends."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def complete(self, request: BackendRequest) -> BackendReply:
        headers = dict(self._headers)
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
        response, data = self._post(json.dumps(payload).encode(), headers)
        latency_ms = int((time.monotonic() - started) * 1000)

        text = data.decode("utf-8", errors="replace")
        if response.status in _RETRYABLE_STATUSES:
            raise RateLimited(
                f"HTTP {response.status}: {text[:200]}",
                retry_after_s=_retry_after_s(response.headers),
            )
        if response.status == 400 and _looks_like_overflow(text):
            raise ContextOverflow(f"HTTP 400: {text[:200]}")
        if response.status != 200:
            raise BackendError(f"HTTP {response.status}: {text[:200]}")
        try:
            body = json.loads(text)
            content = body["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError("completion content is not a string")
        return BackendReply(text=content, latency_ms=latency_ms)


def _looks_like_overflow(body: str) -> bool:
    lowered = body.lower()
    return "context" in lowered and ("length" in lowered or "token" in lowered or "overflow" in lowered)


class _MockEntry(NamedTuple):
    response: str
    fail_first: int = 0
    failure: str = "transport"


class MockBackend(Backend):
    """Deterministic scripted backend for tests and offline runs."""

    def __init__(self, responses: Mapping[str, Any], default: Any | None = None):
        self._entries: dict[str, _MockEntry] = {
            key: _coerce_entry(key, value) for key, value in responses.items()
        }
        self._default = None if default is None else _coerce_entry("default", default)
        self._remaining_failures: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_script_file(cls, path: str | os.PathLike[str], data: bytes) -> "MockBackend":
        """The backend the script file ``path`` describes, parsed from
        ``data``, its bytes as the caller read them; a ``ValueError`` naming
        the file for one that is not UTF-8 JSON of the shape above."""
        try:
            script = json.loads(data.decode("utf-8-sig"))
            if not isinstance(script, dict):
                raise ValueError("not a JSON object")
            for key in sorted(script.keys() - {"responses", "default"}):
                raise ValueError(f"unknown key {key!r}")
            responses = script.get("responses", {})
            if not isinstance(responses, dict):
                raise ValueError("`responses` is not an object")
            return cls(responses=responses, default=script.get("default"))
        except (ValueError, RecursionError) as exc:  # RecursionError: past json's depth
            raise ValueError(f"mock script {path}: {exc}") from exc

    def _lookup(self, request: BackendRequest) -> tuple[str, _MockEntry] | None:
        """The entry for the request's tag, else its finding id, else its
        prompt hash (computed only then), else the default."""
        keys = [request.tag, request.tag.rsplit(".", 1)[0]] if request.tag else []
        for key in keys:
            if key in self._entries:
                return key, self._entries[key]
        key = "sha256:" + prompt_sha256(request.system_text, request.user_text)
        if key in self._entries:
            return key, self._entries[key]
        if self._default is not None:
            return "default", self._default
        return None

    def complete(self, request: BackendRequest) -> BackendReply:
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
        fail_first = value.get("fail_first", 0)
        if type(fail_first) is not int or fail_first < 0:
            raise ValueError(f"mock entry {key}: fail_first {fail_first!r} is not an integer >= 0")
        return _MockEntry(response=value["response"], fail_first=fail_first, failure=failure)
    raise ValueError(f"mock entry {key} must be a string or an object with `response`")
