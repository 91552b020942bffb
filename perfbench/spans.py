"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, request]``: the layer boundary it
measures (``<layer>.<function>``), its interval on ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, so spans from a child interpreter line up with
the parent's), the index of the enclosing span (-1 at top level) and the
request it serves.  Calls that run many thousands of times per request
(the solver, map construction, canonical forms) are recorded as *leaves*:
their time and count are summed per name and charged to the enclosing
span's children, instead of one span per call.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """Records spans and leaf totals; restores every wrapped attribute."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.child_s: list[float] = []  # time of children, per span
        self.stack: list[int] = []
        self.request = 0
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def new_request(self) -> None:
        self.request += 1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, clock(), 0.0, parent, self.request]
        self.spans.append(rec)
        self.child_s.append(0.0)
        self.stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = clock()
            self.stack.pop()
            if parent >= 0:
                self.child_s[parent] += rec[2] - rec[1]

    def _leaf_done(self, name: str, dt: float) -> None:
        self.leaf_s[name] += dt
        self.leaf_calls[name] += 1
        if self.stack:
            self.child_s[self.stack[-1]] += dt

    # -- wrapping module attributes (traced run only) ------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a function that records a span."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        self._patch(owner, attr, traced)

    def wrap_leaf(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a function that adds to a leaf total."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            self._leaf_done(name, clock() - t0)
            if on_result is not None:
                on_result(out)
            return out

        self._patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Replace a generator function; each ``next`` becomes a span."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                self.counts[name + ".items"] += 1
                yield item

        self._patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- merging a child interpreter's trace ---------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "leaf_s": dict(self.leaf_s),
            "leaf_calls": dict(self.leaf_calls),
            "counts": dict(self.counts),
            "child_s": self.child_s,
        }

    def merge(self, data: dict) -> None:
        """Append a child's spans under the currently open span.

        The child must record every leaf inside one of its spans, so that
        its root spans account for all of its traced time.
        """
        base = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        req0 = self.request
        for (name, start, end, par, req), child in zip(data["spans"], data["child_s"]):
            self.spans.append(
                [name, start, end, parent if par < 0 else par + base, req0 + req]
            )
            self.child_s.append(child)
        self.request += max((s[4] for s in data["spans"]), default=0)
        for k, v in data["leaf_s"].items():
            self.leaf_s[k] += v
        for k, v in data["leaf_calls"].items():
            self.leaf_calls[k] += v
        for k, v in data["counts"].items():
            self.counts[k] += v
        if parent >= 0:
            self.child_s[parent] += sum(
                end - start for _, start, end, par, _ in data["spans"] if par < 0
            )

    # -- summaries ----------------------------------------------------

    def _inside(self, rec: list, ancestor: str) -> bool:
        p = rec[3]
        while p >= 0:
            if self.spans[p][0] == ancestor:
                return True
            p = self.spans[p][3]
        return False

    def busy(self, name: str) -> float:
        """Total time of the outermost spans called ``name``."""
        return sum(
            rec[2] - rec[1]
            for rec in self.spans
            if rec[0] == name and not self._inside(rec, name)
        )

    def calls(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[0] == name)

    def first(self, name: str, under: str | None = None) -> float:
        """Duration of the first span called ``name`` (inside ``under``)."""
        for rec in self.spans:
            if rec[0] == name and (under is None or self._inside(rec, under)):
                return rec[2] - rec[1]
        return 0.0

    def self_time(self, name: str) -> float:
        return sum(
            (rec[2] - rec[1]) - self.child_s[i]
            for i, rec in enumerate(self.spans)
            if rec[0] == name
        )

    def layer_self(self) -> dict[str, float]:
        """Self time per layer: span time minus time covered by children."""
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            out[rec[0].split(".", 1)[0]] += (rec[2] - rec[1]) - self.child_s[i]
        for name, t in self.leaf_s.items():
            out[name.split(".", 1)[0]] += t
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                    "leaf_s": self.leaf_s,
                    "leaf_calls": self.leaf_calls,
                    "counts": self.counts,
                },
                fh,
            )
