"""In-memory spans recorded around the benchmark's calls into fracbern.

A span is (name, start, end, parent span index, item id).  Spans live in
a list until the run ends; `summary` folds them into self time per
module, where a module is the part of the name before the first dot.
`failures` counts the exceptions raised through spans, by type.
The untraced loop uses `NullTracer`, whose `call` adds one Python call
and nothing else.
"""

import time


class NullTracer:
    item = None

    def call(self, name, fn, *args, **kw):
        return fn(*args, **kw)


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self.failures = {}

    def call(self, name, fn, *args, **kw):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kw)
        except Exception as exc:
            # counted once, at the innermost span it leaves
            if not getattr(exc, "_traced", False):
                exc._traced = True
                key = type(exc).__name__
                self.failures[key] = self.failures.get(key, 0) + 1
            raise
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def summary(self):
        """Self seconds and span count per module."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out = {}
        for s, c in zip(self.spans, child):
            mod = s[0].split(".", 1)[0]
            tot = out.setdefault(mod, [0.0, 0])
            tot[0] += (s[2] - s[1]) - c
            tot[1] += 1
        return {k: {"self_s": v[0], "spans": v[1]} for k, v in out.items()}

    def to_json(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "item": s[4]} for s in self.spans]
