"""Span tracer that wraps package functions from the outside.

Each wrapped name is replaced, where callers look it up, by a wrapper that
records a span (name, start, end, parent, operation id).  Calls and self
time (a span's duration minus the time its child spans cover) are
aggregated for every call; full span records are kept in memory up to a
cap and written out when the run ends.
"""

import functools
import json
import time
from contextlib import contextmanager

# A closed-loop round alone makes over half a million spans; the cap keeps
# the in-memory log and the written file small while the aggregates stay
# exact.
MAX_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.spans = []            # (id, name, start, end, parent id, op id)
        self.spans_dropped = 0
        self.absent = []           # wrap sites whose name no longer exists
        self.stats = {}            # phase -> name -> [calls, self seconds]
        self.kind_calls = {}       # phase -> (op kind, name) -> calls
        self.catalogue = {}        # every registered name, absent ones too
        self._phase = self.stats.setdefault("setup", {})
        self._kind = self.kind_calls.setdefault("setup", {})
        self._stack = []           # open spans: [id, child seconds]
        self._next_id = 0
        self._op_id = -1
        self._op_kind = None
        self._sites = []           # (owner, attribute, name)
        self._saved = []           # (owner, attribute, original)

    def site(self, owner, attr: str, name: str) -> None:
        """Register `owner.attr` to be traced as the layer metric `name`.

        A name the package no longer has is reported as absent and its
        metrics read zero, so the run still completes.
        """
        self.catalogue[name] = None
        if not hasattr(owner, attr):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._sites.append((owner, attr, name))

    def phase(self, phase: str) -> None:
        """Aggregate subsequent spans under `phase` ("setup" or "round")."""
        self._phase = self.stats.setdefault(phase, {})
        self._kind = self.kind_calls.setdefault(phase, {})

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        for owner, attr, name in self._sites:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, orig = self._saved.pop()
                setattr(owner, attr, orig)

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; children share its id."""
        self._op_id += 1
        self._op_kind = kind
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._op_kind = None

    @contextmanager
    def span(self, name: str):
        sid = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, name, start, time.perf_counter())

    def _enter(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        return sid

    def _exit(self, sid: int, name: str, start: float, end: float) -> None:
        _, child = self._stack.pop()
        dur = end - start
        entry = self._phase.get(name)
        if entry is None:
            entry = self._phase[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += dur - child
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[1] += dur
            parent = top[0]
        key = (self._op_kind, name)
        self._kind[key] = self._kind.get(key, 0) + 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent, self._op_id))
        else:
            self.spans_dropped += 1

    def _wrap(self, orig, name: str):
        perf = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = self._enter()
            start = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                self._exit(sid, name, start, perf())

        return traced

    def calls(self, phase: str, name: str) -> int:
        return self.stats.get(phase, {}).get(name, [0, 0.0])[0]

    def self_s(self, phase: str, name: str) -> float:
        return self.stats.get(phase, {}).get(name, [0, 0.0])[1]

    def write(self, path: str, header: dict, rows: list) -> None:
        """Write a header line, extra record rows, then every kept span."""
        with open(path, "w") as f:
            f.write(json.dumps(dict(header, spans_kept=len(self.spans),
                                    spans_dropped=self.spans_dropped,
                                    absent=self.absent)) + "\n")
            for row in rows:
                f.write(json.dumps(row) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                f.write(json.dumps(dict(span=sid, name=name, start=start, end=end,
                                        parent=parent, op=op)) + "\n")
