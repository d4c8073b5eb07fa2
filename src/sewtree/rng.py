"""Deterministic, platform-stable randomness for the experiment harness.

SplitMix64 keeps every experiment reproducible from a single 64-bit seed;
per-document streams are derived by hashing the seed with string context, so
no document's draws depend on which other documents were processed.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele et al.); tiny state, full 64-bit output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = _MASK64 + 1 - (_MASK64 + 1) % n
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, *context: str) -> int:
    """A 64-bit seed deterministically derived from (seed, context strings)."""
    # Imported here, not at module load: only the experiment commands derive
    # seeds, and hashlib's OpenSSL binding is a noticeable share of start-up.
    import hashlib

    digest = hashlib.sha256()
    digest.update(str(seed & _MASK64).encode())
    for part in context:
        digest.update(b"\x00")
        digest.update(part.encode())
    return int.from_bytes(digest.digest()[:8], "big")
