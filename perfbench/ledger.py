"""Benchmark-side tracing: an in-memory span recorder and its wrappers.

The traced run wraps public entry points of the program at the name the
caller resolves (``repro.core.ood_gnn.learn_many``, a class method, a
module global), records one span per call — name, start, end, parent span
and trace id — and keeps everything in memory until the process writes it
out with :meth:`Recorder.dump`.  Nothing in the program changes; the
untraced runs that give the end-to-end metrics install none of this.

The aggregation half (:func:`self_times`, :func:`chrome_trace`) runs in
the benchmark's main process (``run.py``) over the dumped spans of every
process.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time

# Span record layout (lists, so a dump is compact):
#   [name, start, end, parent_index, trace, thread_id]
# ``trace`` is a request's trace id (str), the trace ids of a micro-batch
# (list) or None; children inherit their parent's trace.
NAME, START, END, PARENT, TRACE, TID = range(6)


class Recorder:
    """Spans and events of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.events: list[list] = []      # [name, trace, value]
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list = []

    def reset_locks(self) -> None:
        """Fresh lock and thread stacks, for a process forked from the recorder's."""
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_trace(self):
        stack = self._stack()
        return self.spans[stack[-1]][TRACE] if stack else None

    def begin(self, name: str, trace=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent][TRACE]
        record = [name, time.monotonic(), None, parent, trace, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.monotonic()
        self._stack().pop()

    def record(self, name: str, start: float, end: float, trace=None) -> None:
        """A leaf span timed by the caller (no parent, no children)."""
        with self._lock:
            self.spans.append([name, start, end, None, trace, threading.get_ident()])

    def event(self, name: str, value: float, trace=None) -> None:
        if trace is None:
            trace = self.current_trace()
        with self._lock:
            self.events.append([name, trace, float(value)])

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, trace_of=None, after=None) -> None:
        """Replace ``owner.attr`` with a version that records span ``name``.

        ``trace_of(args, kwargs)`` picks the span's trace; ``after(result,
        args, kwargs)`` runs once the call returned (counts, outcomes).
        Class-, static- and instance methods and module functions are all
        handled; :meth:`restore` puts the originals back.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        function = static.__func__ if kind is not None else static
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            trace = trace_of(args, kwargs) if trace_of is not None else None
            index = recorder.begin(name, trace)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, static))

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function) with one that logs an event per call."""
        function = getattr(owner, attr)
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder.event(name, 1.0)
            return function(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, function))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def dump(self, path: str, **extra) -> None:
        """Write this process's spans and events (plus ``extra``) as JSON."""
        payload = {"pid": os.getpid(), "spans": self.spans, "events": self.events, **extra}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Aggregation (in run.py's process)
# ----------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [(s[END] - s[START]) if s[END] is not None else 0.0 for s in spans]
    for s in spans:
        parent = s[PARENT]
        if parent is not None and s[END] is not None:
            own[parent] -= s[END] - s[START]
    return own


def chrome_trace(dumps: list[dict]) -> dict:
    """Chrome trace-event JSON (``ph: "X"`` complete events, microseconds)."""
    events = []
    origin = min(
        (s[START] for d in dumps for s in d["spans"]), default=0.0
    )
    for dump in dumps:
        pid = dump["pid"]
        for index, s in enumerate(dump["spans"]):
            if s[END] is None:
                continue
            trace = s[TRACE]
            events.append({
                "name": s[NAME],
                "ph": "X",
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": pid,
                "tid": s[TID],
                "args": {
                    "id": index,
                    "parent": s[PARENT],
                    "trace": ",".join(map(str, trace)) if isinstance(trace, list) else trace,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
