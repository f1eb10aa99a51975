"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the library's public functions by
wrappers this module installs on the owning module or class (and removes
again with :meth:`Tracer.restore`).  The library itself is not edited.

A span has a name, start, end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so server and client spans share one
timeline), the id of the span that was open on the same thread when it
started, and an optional job id shared by all spans of one job.  Spans are
kept in memory and written out once, as a Chrome trace-event file that
Perfetto (https://ui.perfetto.dev) and chrome://tracing open.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """Span and hot-call recorder; a no-op until wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: name -> [calls, seconds, size] for functions called once per
        #: iteration, where one span per call would swamp the trace.
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start, end, job=None) -> None:
        """Append a finished span that has no parent."""
        self.spans.append({
            "id": next(self._ids), "parent": None, "name": name,
            "start": start, "end": end, "tid": threading.get_ident(),
            "job": job, "args": {},
        })

    def call(self, name, fn, /, *a, **k):
        """Run ``fn(*a, **k)`` inside a span nested under the open one."""
        return self._call(name, fn, a, k, None, None)

    def _call(self, name, fn, a, k, job, after):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*a, **k)
        finally:
            end = time.perf_counter()
            stack.pop()
        args = after(result, *a, **k) if after is not None else {}
        self.spans.append({
            "id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "tid": threading.get_ident(), "job": job,
            "args": args or {},
        })
        return result

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner, attr, name, job=None, after=None, hot=False,
             size=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``job(*args, **kwargs)`` names the job a call belongs to;
        ``after(result, *args, **kwargs)`` returns extra span arguments.
        ``hot`` functions only accumulate call count and time, and the sum
        of ``size(*args, **kwargs)`` when given (the work per call).  Coroutine
        functions get a span without a parent: tasks interleave on the
        event loop, so a per-thread stack cannot nest them.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        if hot:
            slot = self.calls[name]

            @functools.wraps(original)
            def wrapper(*a, **k):
                start = time.perf_counter()
                try:
                    return original(*a, **k)
                finally:
                    slot[0] += 1
                    slot[1] += time.perf_counter() - start
                    if size is not None:
                        slot[2] += size(*a, **k)
        elif inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*a, **k):
                start = time.perf_counter()
                try:
                    return await original(*a, **k)
                finally:
                    tracer.record(
                        name, start, time.perf_counter(),
                        job=job(*a, **k) if job else None,
                    )
        else:

            @functools.wraps(original)
            def wrapper(*a, **k):
                return tracer._call(
                    name, original, a, k, job(*a, **k) if job else None, after
                )

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Remove every installed wrapper, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------
    def to_json(self) -> dict:
        """Spans and hot-call totals as plain JSON."""
        return {"spans": self.spans, "calls": dict(self.calls)}


def durations(spans, name) -> list[float]:
    """Wall durations (seconds) of every span called ``name``."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def write_chrome_trace(path, processes) -> None:
    """Write ``{process label: spans}`` as one Chrome trace-event file."""
    starts = [s["start"] for spans in processes.values() for s in spans]
    origin = min(starts) if starts else 0.0
    events = []
    for pid, (label, spans) in enumerate(processes.items(), start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        tids: dict = {}
        for s in spans:
            tid = tids.setdefault(s["tid"], len(tids) + 1)
            args = {"id": s["id"], "parent": s["parent"], **s["args"]}
            if s["job"] is not None:
                args["job"] = s["job"]
            events.append({
                "name": s["name"], "ph": "X", "pid": pid, "tid": tid,
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": args,
            })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
