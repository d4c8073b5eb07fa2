"""HTTP adapter for an external piece-extraction backend.

Wire protocol: POST ``{"step": str, "inventory": [str]}`` to the configured
endpoint; the backend answers ``{"pieces": [str]}``.  Returned labels are
validated against the pattern inventory.

The backend is taken to be a function of its request: a CLI run wraps the
extractor from :func:`make_adapter_extractor` in
:func:`~sewtree.pipeline.extract_once_per_run`, so each distinct step and
inventory is posted once and identical steps of one pattern are extracted
identically, as the rule-based extractor guarantees.
"""

from __future__ import annotations

import json
import re

from .labels import LabelError, piece_key
from .pipeline import PatternSpec, StepExtraction, extract_pieces_rule_based


class AdapterError(RuntimeError):
    """The extraction backend failed or returned an invalid response."""


# socket.settimeout holds a timeout as 64-bit nanoseconds and overflows past
# about 9.2e9 s; no backend call needs more than this.
MAX_TIMEOUT_S = 1e9


class AdapterConfig:
    def __init__(
        self, url: str, timeout: float = 10.0, retries: int = 1, fallback_to_rules: bool = False
    ) -> None:
        if not 0 < timeout <= MAX_TIMEOUT_S:
            raise ValueError(
                f"adapter timeout must be positive and at most {MAX_TIMEOUT_S:g} s, got {timeout}"
            )
        if retries < 0:
            raise ValueError(f"adapter retries must be >= 0, got {retries}")
        from urllib.parse import urlsplit

        # Only HTTP is a backend.  The URL goes into the request line and the
        # Host header as it is, so it must be printable ASCII without spaces,
        # and user info would be dropped without a word.
        try:
            parts = urlsplit(url)
            parts.port  # raises ValueError unless an integer in 0-65535
            valid = (
                parts.scheme in ("http", "https")
                and bool(parts.hostname)
                and "@" not in parts.netloc
                and url.isascii()
                and url.isprintable()
                and " " not in url
            )
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(
                "adapter url is not an http(s) URL with a host, a port in 0-65535, "
                f"no user info and no spaces or control characters: {url!r}"
            )
        self.url = url
        self.parts = parts
        self.timeout = timeout
        self.retries = retries
        self.fallback_to_rules = fallback_to_rules


# Longest reply head (status line and headers) read before giving up.
MAX_HEAD_BYTES = 65536

# Matched through re's cache, so only an adapter run compiles it.
_STATUS_2XX = rb"HTTP/1\.\d 2\d\d(?: |$)"


def _post(endpoint: AdapterConfig, body: bytes) -> bytes:
    """POST ``body`` as JSON over one HTTP/1.0 connection (RFC 1945) and
    return the reply body.

    A 1.0 client gets no chunked reply, and the server closes the connection
    after it, so the body ends at ``Content-Length`` or else at EOF.  Any
    other reply (not 2xx, cut short, with a ``Transfer-Encoding``) raises
    ``ValueError``; a transport failure raises ``OSError``.
    """
    # Imported here, not at module load: only an adapter run needs them.
    import socket

    parts = endpoint.parts
    https = parts.scheme == "https"
    port = parts.port if parts.port is not None else 443 if https else 80
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    head = (
        f"POST {target} HTTP/1.0\r\nHost: {parts.netloc}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    sock = socket.create_connection((parts.hostname, port), endpoint.timeout)
    try:
        if https:
            import ssl

            # Verifies the certificate and host name, as urlopen does.
            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=parts.hostname)
        sock.sendall(head.encode("ascii") + body)
        reply = b""
        while (end := reply.find(b"\r\n\r\n")) < 0:
            if len(reply) > MAX_HEAD_BYTES:
                raise ValueError(f"reply head longer than {MAX_HEAD_BYTES} bytes")
            chunk = sock.recv(65536)
            if not chunk:
                raise ValueError(f"reply ends before the end of its headers: {reply[:80]!r}")
            reply += chunk
        status, *fields = reply[:end].split(b"\r\n")
        if not re.match(_STATUS_2XX, status):
            raise ValueError(f"backend replied {status.decode('latin-1')!r}")
        length = None
        for field in fields:
            name, _, value = field.partition(b":")
            name = name.strip().lower()
            if name == b"transfer-encoding":
                raise ValueError(f"reply has a transfer coding: {field!r}")
            if name == b"content-length":
                value = value.strip()
                # Past 18 significant digits a value is no length a reply
                # could have, and int() refuses thousands of digits in words
                # of its own; the field is named by its first bytes.
                digits = value.lstrip(b"0") or b"0"
                if not value.isdigit() or len(digits) > 18 or length not in (None, int(digits)):
                    raise ValueError(f"reply has a bad Content-Length: {field[:80]!r}")
                length = int(digits)
        data = bytearray(reply[end + 4 :])
        while length is None or len(data) < length:
            chunk = sock.recv(65536)
            if not chunk:
                if length is None:
                    break
                raise ValueError(f"reply body ends after {len(data)} of {length} bytes")
            data += chunk
        return bytes(data[:length])
    finally:
        sock.close()


def extract_via_adapter(step: str, spec: PatternSpec, endpoint: AdapterConfig) -> StepExtraction:
    """Extract pieces for one step through the HTTP backend.

    Transport failures are retried ``retries`` times; after that the step
    either fails the document or, with ``fallback_to_rules``, degrades to the
    rule-based extractor with a diagnostic marker.
    """
    payload = {"step": step, "inventory": list(spec.inventory)}
    body = json.dumps(payload).encode()
    last_error: Exception | None = None
    for _ in range(endpoint.retries + 1):
        try:
            data = json.loads(_post(endpoint, body))
            break
        except UnicodeDecodeError as exc:
            # ``json.loads`` decodes the reply body whole: it is ``exc.object``.
            last_error = ValueError(f"reply body is not UTF-8 JSON: {exc.object[:80]!r}")
        except (OSError, ValueError, RecursionError) as exc:
            last_error = exc
    else:
        if endpoint.fallback_to_rules:
            rule = extract_pieces_rule_based(step, spec)
            return StepExtraction(rule.mentions, rule.unknown, rule.dropped, source="fallback")
        raise AdapterError(f"extraction backend unreachable: {last_error}") from last_error

    raw = data.get("pieces") if isinstance(data, dict) else None
    if not isinstance(raw, list):
        raise AdapterError(f"backend response missing 'pieces' list: {data!r}")
    mentions = []
    for token in raw:
        piece = str(token)
        try:
            piece_key(piece)
        except LabelError as exc:
            raise AdapterError(f"backend returned malformed label {token!r}") from exc
        if piece not in spec.pieces:
            raise AdapterError(f"backend returned {token!r}, not in the inventory")
        if piece not in mentions:
            mentions.append(piece)
    return StepExtraction(tuple(mentions), source="adapter")


def make_adapter_extractor(endpoint: AdapterConfig):
    """An extractor ``(step, spec) -> StepExtraction``, like the rule-based
    one, that makes one backend request per call."""

    def extract(step: str, spec: PatternSpec) -> StepExtraction:
        return extract_via_adapter(step, spec, endpoint)

    return extract
