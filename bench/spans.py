"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer of dettree, recorded from outside the
package by a wrapper around a public function. Each span has a name
(``<layer>.<function>``, or ``bench.*`` / ``cli.*`` for the benchmark's own
boundaries), a start and an end from ``time.perf_counter``, the id of its
parent span and a pass id. On Linux ``perf_counter`` reads CLOCK_MONOTONIC,
which every process on the machine shares, so spans recorded by a CLI child
process line up with the parent's. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

__all__ = ["Tracer", "self_times", "layer_of"]

# Functions whose first argument is a file path: their spans record the
# file's size after the call.
_PATH_FUNCTIONS = {"read_csv", "write_csv", "read_tree", "write_tree"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = None
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pass": self.pass_id,
            "attrs": {},
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn):
        """Return ``fn`` recording one span per call, named after the
        dettree module that defines it (``dettree.io.read_csv`` -> ``io.read_csv``)."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        records_path = fn.__name__ in _PATH_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if records_path:
                record["attrs"]["bytes"] = os.path.getsize(args[0])
            return result

        return traced

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Append spans recorded by another process, re-numbered, with their
        root spans placed under ``parent``."""
        offset = len(self.spans)
        for record in spans:
            record = dict(record)
            record["id"] += offset
            record["parent"] = parent["id"] if record["parent"] is None else record["parent"] + offset
            record["pass"] = parent["pass"]
            self.spans.append(record)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children. The
    benchmark is single-threaded within a process, so children never overlap."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
