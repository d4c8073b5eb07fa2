import json
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sewtree.grammar import parse_grammar
from sewtree.pipeline import InstructionDoc, PatternSpec

FIXTURES = Path(__file__).parent / "fixtures"

GRAMMAR_NAMES = ["skirt", "pants_a", "pants_b", "pants_combined", "shirt", "jumpsuit"]


def load_grammar(name: str):
    return parse_grammar((FIXTURES / "grammars" / f"{name}.grammar").read_text())


@pytest.fixture(scope="session")
def grammars():
    return {name: load_grammar(name) for name in GRAMMAR_NAMES}


@pytest.fixture(scope="session")
def skirt_grammar(grammars):
    return grammars["skirt"]


@pytest.fixture(scope="session")
def skirt_spec():
    data = json.loads((FIXTURES / "specs" / "skirt.json").read_text())
    return PatternSpec.from_json(data)


@pytest.fixture(scope="session")
def skirt_doc():
    data = json.loads((FIXTURES / "docs" / "skirt-demo.json").read_text())
    return InstructionDoc.from_json(data)


# A reply nested deeper than the decoder's recursion allows.
DEEP_REPLY = b'{"pieces": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


class _AdapterHandler(BaseHTTPRequestHandler):
    """Stub extraction backend shared by the pipeline and CLI tests.

    ``behavior`` picks the reply; every request body it reads is appended
    to ``bodies`` under ``lock`` (see :func:`posted_requests`).
    """

    behavior = "ok"
    bodies: list[bytes] = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        data = self.rfile.read(length)
        with self.lock:
            self.bodies.append(data)
        request = json.loads(data)
        if self.behavior == "slow":
            time.sleep(1.0)
        if self.behavior == "bad-label":
            payload = {"pieces": ["Q"]}
        elif self.behavior == "list-reply":
            payload = ["A"]
        else:
            # echo back labels present in the step text, in inventory order
            payload = {"pieces": [p for p in request["inventory"] if f"({p})" in request["step"]]}
        body = DEEP_REPLY if self.behavior == "deep-reply" else json.dumps(payload).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # a client that timed out has closed the connection

    def log_message(self, *args):
        pass


def posted_requests() -> list[tuple[str, tuple[str, ...]]]:
    """``(step, inventory)`` of every request the stub has read, in order."""
    with _AdapterHandler.lock:
        bodies = list(_AdapterHandler.bodies)
    return [(r["step"], tuple(r["inventory"])) for r in map(json.loads, bodies)]


def wait_for_posts(count: int, deadline_s: float = 5.0) -> list[tuple[str, tuple[str, ...]]]:
    """:func:`posted_requests` once it holds ``count`` requests.  A client
    that timed out may return before the stub has read its request."""
    end = time.monotonic() + deadline_s
    while len(posted := posted_requests()) < count and time.monotonic() < end:
        time.sleep(0.01)
    return posted


@pytest.fixture()
def adapter_server():
    """URL of a fresh stub backend answering "ok" with an empty log."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _AdapterHandler)
    # A short poll interval lets shutdown() return promptly.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _AdapterHandler.behavior = "ok"
    with _AdapterHandler.lock:
        _AdapterHandler.bodies.clear()
    yield f"http://127.0.0.1:{server.server_address[1]}/extract"
    server.shutdown()
    server.server_close()


class _ScriptedHandler(socketserver.BaseRequestHandler):
    """Reads one whole request, logs it and answers with the server's next
    scripted reply, byte for byte."""

    def handle(self):
        request = b""
        while b"\r\n\r\n" not in request:
            chunk = self.request.recv(65536)
            if not chunk:
                return
            request += chunk
        head, _, body = request.partition(b"\r\n\r\n")
        length = next(
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        while len(body) < length and (chunk := self.request.recv(65536)):
            body += chunk
        server = self.server
        with server.lock:
            server.requests.append(head + b"\r\n\r\n" + body)
            # The last reply answers every request after it.
            reply = server.replies.pop(0) if len(server.replies) > 1 else server.replies[0]
        self.request.sendall(reply)
        if server.hold_open:
            server.released.wait(10.0)


class ScriptedServer(socketserver.ThreadingTCPServer):
    """A raw-socket backend: the n-th connection gets ``replies[n]`` (the
    last one from then on) and, with ``hold_open``, is kept open until the
    test ends.  ``requests`` holds every request read, head and body."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.replies: list[bytes] = []
        self.hold_open = False
        self.requests: list[bytes] = []
        self.lock = threading.Lock()
        self.released = threading.Event()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/extract"


@pytest.fixture()
def scripted_server():
    """A fresh :class:`ScriptedServer`; set its ``replies`` before posting."""
    server = ScriptedServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.released.set()
    server.shutdown()
    server.server_close()
