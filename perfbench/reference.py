"""Fixed reference job that measures the host, not the program.

The benchmark runs it as a child process right after every measured child
and scales that child's times by REF_NOMINAL_S over this job's wall time.
It imports only the standard library, so changes to sewtree never change
it.  Like the CLI it starts an interpreter, imports modules and runs
pure-Python code heavy in tuple hashing, frozensets, dicts and an LCS sweep
over short strings.
"""

import argparse  # noqa: F401  (imports are part of the job)
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import json  # noqa: F401
import pathlib  # noqa: F401
import statistics  # noqa: F401
import urllib.request  # noqa: F401


def main() -> None:
    words = [f"w{i % 37}" for i in range(96)]
    pairs = frozenset((words[i], words[(i * 5) % 96]) for i in range(96))
    counts: dict = {}
    hits = 0
    for i in range(150_000):
        key = (i % 97, (i * 7) % 89, words[i % 96])
        counts[key] = counts.get(key, 0) + 1
        hits += len(frozenset(((words[i % 96], words[(i * 3) % 96]), key)) & pairs)
    for _ in range(40):
        prev = [0] * (len(words) + 1)
        for x in words:
            cur = [0]
            for j, y in enumerate(words, start=1):
                cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
            prev = cur


if __name__ == "__main__":
    main()
