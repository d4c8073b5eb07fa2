"""Deterministic stand-in for the HTTP extraction backend.

One server thread speaking HTTP/1.0 serves one connection at a time, so every
reply closes its connection and a retry never waits behind a kept-alive
socket.  Answers come from mentions computed before timing starts.  A fixed,
hash-chosen subset of first attempts gets a 503, so the client retries the
same number of times on every run.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from sewtree.pipeline import extract_pieces_rule_based

REJECT_ONE_IN = 8


def rejects_first_attempt(step: str) -> bool:
    return hashlib.sha256(step.encode()).digest()[0] % REJECT_ONE_IN == 0


def answers_for(workload) -> dict[tuple[str, tuple[str, ...]], list[str]]:
    """Rule-based mentions of every step, keyed as the adapter posts them."""
    specs = {p.spec.pattern_id: p.spec for p in workload.patterns}
    answers = {}
    for doc in workload.docs:
        spec = specs[doc.pattern_id]
        inventory = tuple(str(p) for p in sorted(spec.inventory))
        for step in doc.steps:
            mentions = extract_pieces_rule_based(step, spec).mentions
            answers[(step, inventory)] = [str(p) for p in mentions]
    return answers


class StubBackend:
    """Answers ``{"step", "inventory"}`` POSTs from a precomputed table.

    ``answers`` maps (step text, inventory labels as sent) to piece labels.
    Use as a context manager; :meth:`reset` starts a new client run.
    """

    def __init__(self, answers: dict[tuple[str, tuple[str, ...]], list[str]]):
        self._answers = answers
        self._lock = threading.Lock()
        self.reset()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.0"

            def do_POST(self):
                stub._handle(self)

            def log_message(self, format, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, name="adapter-stub")

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/extract"

    def __enter__(self) -> "StubBackend":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def reset(self) -> None:
        with self._lock:
            self._seen: set = set()
            self.calls = 0
            self.rejected = 0
            self.busy_s = 0.0

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        start = time.perf_counter()
        length = int(handler.headers.get("Content-Length", 0))
        try:
            body = json.loads(handler.rfile.read(length))
            key = (body["step"], tuple(body["inventory"]))
        except (ValueError, KeyError, TypeError):
            key = None
        with self._lock:
            self.calls += 1
            first = key not in self._seen
            self._seen.add(key)
            if key is None or key not in self._answers:
                status, payload = 400, {"error": "unknown request"}
            elif first and rejects_first_attempt(key[0]):
                self.rejected += 1
                status, payload = 503, {"error": "busy"}
            else:
                status, payload = 200, {"pieces": self._answers[key]}
        data = json.dumps(payload).encode()
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)
        with self._lock:
            self.busy_s += time.perf_counter() - start
