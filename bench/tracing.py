"""Timing spans recorded from outside sparseps.

A Tracer installs wrappers around named functions and methods, keeps one span
per call in memory (name, start, end, parent span, operation id and an
optional amount of work such as FLOPs or bytes) and restores the originals on
remove().  Functions are wrapped on every module that binds them, because
`from ... import` copies the reference into the caller's namespace.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, work]
        self.op = None       # id shared by the spans of one set-up or round
        self._stack = []
        self._installed = []

    def wrap(self, owner, attr, name, work=None):
        """Replace owner.attr by a timing wrapper.

        name is a string or a callable taking the call's arguments; work, when
        given, maps (args, kwargs, result) to the amount of work the call did.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    parent, tracer.op, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                span[1], span[2] = start, end
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def remove(self):
        """Put every wrapped attribute back, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path, origin):
        """One JSON array per span, times in seconds since `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent",
                                 "op", "work"]) + "\n")
            for name, start, end, parent, op, work in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9),
                                     round(end - origin, 9), parent, op,
                                     work]) + "\n")

    def summary(self, select):
        """Per span name, over the spans whose op id passes `select`: calls,
        total and self seconds, durations and work.

        Self time is a span's duration minus the durations of its children.
        Returns ({name: {...}}, {op id: seconds covered by top-level spans}).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        covered = {}
        for i, (name, start, end, parent, op, work) in enumerate(self.spans):
            if not select(op):
                continue
            if parent < 0:
                covered[op] = covered.get(op, 0.0) + (end - start)
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "durations": [],
                                            "work": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["durations"].append(end - start)
            if work is not None:
                entry["work"] += work
        return stats, covered
