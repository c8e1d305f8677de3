"""Localhost chat-completions stub with a deterministic fault schedule.

Usage: python3 perfbench/stub.py PLAN_JSON

Binds 127.0.0.1 on an ephemeral port and prints ``PORT <n>`` on its first
stdout line. ``POST /reset`` clears the request and attempt counters so the
schedule repeats exactly on every run; ``GET /stats`` returns
``{"requests": n}``, the number of completion requests since the last reset.

Each completion request is matched to its plan entry by the ``[Annnnn]``
alert key inside the prompt. The entry's kind and the attempt number for
that key pick the answer:

    ratelimit  attempt 1: 429 with Retry-After; then the reply
    unavail    attempts 1-2: 503; then the reply
    malformed  HTTP 200 whose body is not valid JSON
    any other  the planned reply text

Every request waits a fixed service delay, ``DELAY_MS``, first. Responses
go out in a single write with Nagle's algorithm off, so no delayed-ACK
stall is added to the client's measured call time.
"""

from __future__ import annotations

import argparse
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_MS = 5.0
_KEY = re.compile(r"\[(A\d{5})\]")
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests",
            503: "Service Unavailable"}


class _State:
    def __init__(self, plan: dict):
        self.plan = plan
        self.lock = threading.Lock()
        self.requests = 0
        self.attempts: dict[str, int] = {}

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.attempts.clear()

    def next_attempt(self, key: str) -> int:
        with self.lock:
            self.requests += 1
            self.attempts[key] = self.attempts.get(key, 0) + 1
            return self.attempts[key]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    state: _State  # set on the subclass built in main()

    def log_message(self, format, *args):  # noqa: A002 - signature fixed by the base class
        pass

    def _send(self, status: int, body: bytes, extra: dict[str, str] | None = None) -> None:
        head = [f"HTTP/1.1 {status} {_REASONS[status]}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        head += [f"{k}: {v}" for k, v in (extra or {}).items()]
        self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        self.wfile.flush()

    def _json(self, status: int, obj, extra: dict[str, str] | None = None) -> None:
        self._send(status, json.dumps(obj).encode("utf-8"), extra)

    def do_GET(self):  # noqa: N802 - http.server naming
        if self.path == "/stats":
            with self.state.lock:
                self._json(200, {"requests": self.state.requests})
        else:
            self._json(404, {"error": "not found"})

    def do_POST(self):  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.state.reset()
            self._json(200, {"requests": 0})
            return
        time.sleep(DELAY_MS / 1000.0)
        try:
            user_text = json.loads(body)["messages"][-1]["content"]
            key = _KEY.search(user_text).group(1)
            entry = self.state.plan[key]
        except (ValueError, LookupError, TypeError, AttributeError):
            with self.state.lock:
                self.state.requests += 1
            self._json(400, {"error": "request does not name a planned alert"})
            return
        attempt = self.state.next_attempt(key)
        kind = entry["kind"]
        if kind == "ratelimit" and attempt == 1:
            self._json(429, {"error": "rate limited"},
                       {"Retry-After": "0", "retry-after-ms": "50"})
        elif kind == "unavail" and attempt <= 2:
            self._json(503, {"error": "overloaded"})
        elif kind == "malformed":
            self._send(200, b'{"choices": [{"message": {"content": "trunc')
        else:
            self._json(200, {"choices": [{"index": 0, "finish_reason": "stop",
                                          "message": {"role": "assistant",
                                                      "content": entry["reply"]}}]})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    handler = type("Handler", (_Handler,), {"state": _State(plan)})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
