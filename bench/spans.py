"""In-memory span recorder that times calls into passcheck's layers from outside.

Each wrapped function is replaced, at the module attribute the pipeline
resolves it from, by a wrapper that records a span: name, start, end,
parent span and the operation it belongs to, plus optional counters
taken from the call (for example the number of frequency points a kernel
call evaluated).  Spans stay in memory until ``write``.

A name that no longer exists is recorded in ``missing`` instead of
raising, so a benchmark run against a refactored package reports the
affected metrics as missing rather than crashing.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

NAME, START, END, PARENT, OP, COUNTS = range(6)


class SpanRecorder:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, counters]
        self.missing = []    # "module.attr" names that could not be wrapped
        self._stack = []
        self._patches = []
        self._op = -1

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    def op(self, op_id, fn, *args, **kwargs):
        """Run one benchmark operation under a root span named ``op``."""
        self._op = op_id
        span = self._open("op")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, owner, attr, name, count=None, prepare=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``prepare(args, kwargs)`` may adjust the call's arguments before it
        runs; ``count(args, kwargs, result)`` returns a dict of counters
        stored on the span.  Returns False when the attribute is missing.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(label)
            return False
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span = rec._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec._close(span)
            if count is not None:
                span[COUNTS] = count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))
        return True

    def unwrap(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def nearest(self, index, names):
        """Name of the closest strict ancestor of span ``index`` in ``names``."""
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return self.spans[parent][NAME]
            parent = self.spans[parent][PARENT]
        return None

    def write(self, path):
        """One JSON array per line: name, start, end, parent, op, counters."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
