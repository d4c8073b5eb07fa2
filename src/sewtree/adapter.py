"""HTTP adapter for an external piece-extraction backend.

Wire protocol: POST ``{"step": str, "inventory": [str]}`` to the configured
endpoint; the backend answers ``{"pieces": [str]}``.  Returned labels are
validated against the pattern inventory.

The backend is taken to be a function of its request: within one run, the
extractor from :func:`make_adapter_extractor` posts each distinct step and
inventory once, so identical steps of one pattern are extracted identically,
as the rule-based extractor guarantees.
"""

from __future__ import annotations

import json

from .labels import LabelError, PieceLabel, parse_piece_label
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

        # urlopen would also read file: and ftp: URLs; only HTTP is a backend.
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"adapter url is not an http(s) URL with a host: {url!r}")
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.fallback_to_rules = fallback_to_rules


def extract_via_adapter(
    step: str, spec: PatternSpec, endpoint: AdapterConfig, step_index: int = 0
) -> StepExtraction:
    """Extract pieces for one step through the HTTP backend.

    Transport failures are retried ``retries`` times; after that the step
    either fails the document or, with ``fallback_to_rules``, degrades to the
    rule-based extractor with a diagnostic marker.
    """
    # Imported here, not at module load: only an adapter run needs the HTTP
    # stack (with email and ssl, a large share of importing sewtree.cli).
    import http.client
    import urllib.request

    inventory = sorted(spec.inventory)
    payload = {"step": step, "inventory": [str(p) for p in inventory]}
    body = json.dumps(payload).encode()
    last_error: Exception | None = None
    for _ in range(endpoint.retries + 1):
        try:
            request = urllib.request.Request(endpoint.url, body, {"Content-Type": "application/json"})
            # urlopen raises HTTPError (an OSError) on any non-2xx status.
            with urllib.request.urlopen(request, timeout=endpoint.timeout) as response:
                data = json.loads(response.read())
            break
        except (OSError, http.client.HTTPException, ValueError) as exc:
            last_error = exc
    else:
        if endpoint.fallback_to_rules:
            rule = extract_pieces_rule_based(step, spec, step_index=step_index)
            return StepExtraction(
                step_index, rule.mentions, rule.unknown, rule.dropped, source="fallback"
            )
        raise AdapterError(f"extraction backend unreachable: {last_error}") from last_error

    raw = data.get("pieces") if isinstance(data, dict) else None
    if not isinstance(raw, list):
        raise AdapterError(f"backend response missing 'pieces' list: {data!r}")
    mentions = []
    for token in raw:
        try:
            piece = parse_piece_label(str(token))
        except LabelError as exc:
            raise AdapterError(f"backend returned malformed label {token!r}") from exc
        if piece not in spec.inventory:
            raise AdapterError(f"backend returned {token!r}, not in the inventory")
        if piece not in mentions:
            mentions.append(piece)
    return StepExtraction(step_index, tuple(mentions), source="adapter")


def make_adapter_extractor(endpoint: AdapterConfig):
    """An extractor callable with the same signature as the rule-based one.

    It keeps the validated mentions of each backend reply, keyed by the
    request posted (step text and inventory), and answers a repeat from them
    with its own ``step_index``.  A fallback is not kept, so the next
    occurrence of that step asks the backend again.
    """
    replies: dict[tuple[str, frozenset[PieceLabel]], tuple[PieceLabel, ...]] = {}

    def extractor(step: str, spec: PatternSpec, step_index: int = 0) -> StepExtraction:
        key = (step, spec.inventory)
        mentions = replies.get(key)
        if mentions is not None:
            return StepExtraction(step_index, mentions, source="adapter")
        extraction = extract_via_adapter(step, spec, endpoint, step_index=step_index)
        if extraction.source == "adapter":
            replies[key] = extraction.mentions
        return extraction

    return extractor
