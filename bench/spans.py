"""In-memory spans recorded around matchq's functions.

A `Tracer` replaces a function at the name its caller looks it up by (a
module attribute or a class attribute) with a wrapper that records one
span: name, start, end, parent span and the operation it belongs to, plus
an optional work count taken from the call. Spans stay in memory until
`write` dumps them. `restore` puts every original function back.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index or -1, op id, count]
        self.spans = []
        self.op = -1
        self._stack = []
        self._originals = []

    def wrap(self, owner, attr, name, count=None):
        """Record a span named `name` around every call of owner.attr."""
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if count is not None:
                span[5] = count(args, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds, count).

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread never overlap, so that is the sum of
        the children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _, _, count) in enumerate(self.spans):
            calls, incl, self_s, n = out.get(name, (0, 0.0, 0.0, 0))
            out[name] = (calls + 1, incl + end - start, self_s + end - start - child[k], n + count)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "count"], "spans": self.spans},
                fh,
            )
