"""In-memory span recorder for the traced benchmark run.

`Recorder.wrap` replaces a function at the attribute its callers look up
(a module global or a class attribute) with a wrapper that records one span
per call: a name, the span that was open when the call started, start and
end times, and one integer mark that a layer can use to count outcomes
(an update that returned its input).
Spans live in flat arrays until `write` dumps them once at the end, and
`load` reads such a dump back for `layer_totals`.

Self time is a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array

ROOT = -1

_FIELDS = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"),
           ("mark", "i"))


class Spans:
    """Parallel arrays of spans, in the order they started."""

    def __init__(self, names=()):
        self.names = list(names)
        for field, code in _FIELDS:
            setattr(self, field, array(code))

    def __len__(self) -> int:
        return len(self.start)


class Recorder(Spans):
    """Wraps functions in place and records a span per call."""

    def __init__(self):
        super().__init__()
        self._ids = {}
        self._stack = [ROOT]
        self._undo = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name: str, mark=None,
             eager: bool = False) -> None:
        """Trace calls made through `owner.attr` as spans named `name`.

        `mark(args, result)` gives the span's integer mark.  With `eager`
        the function returns an iterator that is drained inside the span,
        so the span covers the work of a generator and not only its
        creation.
        """
        fn = getattr(owner, attr)
        names, parents, starts, ends, marks = (
            self.name, self.parent, self.start, self.end, self.mark)
        stack = self._stack
        clock = time.perf_counter
        nid = self._id(name)
        call = fn
        if eager:
            def call(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            marks.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = call(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if mark is not None:
                marks[i] = mark(args, out)
            return out

        traced.__wrapped__ = fn
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        """One JSON header line, then the raw arrays in field order."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "count": len(self)}).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)


def load(path) -> Spans:
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        spans = Spans(head["names"])
        for field, _ in _FIELDS:
            getattr(spans, field).fromfile(fh, head["count"])
    return spans


def self_times(spans: Spans) -> list:
    """Per span: its duration minus the union of its children's intervals
    clipped to it.  Spans must be in start order, as recorded."""
    n = len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    covered = [0.0] * n
    reach = list(start)          # how far each span's covered part extends
    for i in range(n):
        p = parent[i]
        if p == ROOT:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_totals(spans: Spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} summed over the name's spans."""
    own = self_times(spans)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for name in spans.names}
    for i in range(len(spans)):
        row = out[spans.names[spans.name[i]]]
        row["calls"] += 1
        row["total_s"] += spans.end[i] - spans.start[i]
        row["self_s"] += own[i]
    return out
