"""Spans recorded from outside quadzero, by wrapping module attributes.

Two kinds of wrapper:

* span wrappers record one span per call (name, start, end, parent span,
  instance id, attributes).  They wrap the coarse layer calls: bounds,
  winding numbers, sweep cells.
* hot wrappers wrap functions called up to millions of times per instance
  (q evaluations, Newton steps, Jacobians).  Keeping one span per call
  would need gigabytes, so they add their call count and time to an
  aggregate keyed by (enclosing span, enclosing hot call, name).  An
  aggregate is a child of its enclosing span, or of the enclosing hot call
  when one calls another (newton_step calls evaluate).

Self time of a span is its duration minus the time of its child spans and
of the aggregates directly under it.  Spans stay in memory until the run
ends.  Leaving the Tracer context restores every wrapped attribute.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

perf = time.perf_counter


class CaseTimeout(Exception):
    """A case went past its cap (wall clock, or Newton steps when traced)."""


class Tracer:
    def __init__(self, newton_cap=None):
        self.spans = []  # [id, parent, instance, name, t0, t1, attrs]
        self.agg = defaultdict(lambda: [0, 0.0])  # (span, hot, name) -> [calls, s]
        self.errors = defaultdict(int)  # (name, exception type) -> count
        self.newton_cap = newton_cap
        self.root_parent = None  # parent for spans opened on worker threads
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self._next_id = 0
        self._next_instance = 0

    # -- spans ----------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.hot = None
        return st

    def open(self, name: str, new_instance: bool = False, **attrs) -> list:
        """Start a span; a new instance starts when asked or with no parent."""
        st = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            parent = st[-1][0] if st else self.root_parent
            if st and not new_instance:
                instance = st[-1][2]
            else:
                instance = self._next_instance
                self._next_instance += 1
                self._local.newton_steps = 0
        span = [sid, parent, instance, name, perf(), None, attrs]
        st.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = perf()
        self._stack().pop()

    # -- wrapping -------------------------------------------------------

    def wrap(self, module, attr: str, name: str, hot: bool = False, record=None,
             new_instance: bool = False):
        """Replace module.attr with a traced wrapper until the Tracer exits.

        record(attrs, result) may copy fields of the result into the span.
        """
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        if hot:
            wrapper = self._hot_wrapper(original, name)
        else:
            wrapper = self._span_wrapper(original, name, record, new_instance)
        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)

    def _span_wrapper(self, fn, name, record, new_instance):
        def wrapper(*args, **kwargs):
            span = self.open(name, new_instance)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6]["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if record is not None:
                record(span[6], result)
            return result

        return wrapper

    def _hot_wrapper(self, fn, name):
        local, agg, errors, lock = self._local, self.agg, self.errors, self._lock
        counts_steps = name == "solver.newton_step"

        def wrapper(*args, **kwargs):
            st = local.stack
            outer = local.hot
            if counts_steps and self.newton_cap is not None:
                local.newton_steps += 1
                if local.newton_steps > self.newton_cap:
                    raise CaseTimeout(f"more than {self.newton_cap} Newton steps")
            local.hot = name
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                with lock:
                    errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                entry = agg[(st[-1][0] if st else None, outer, name)]
                entry[0] += 1
                entry[1] += perf() - t0
                local.hot = outer

        return wrapper

    def __enter__(self):
        self._stack()
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    # -- results --------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> self time in seconds."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent is not None and t1 is not None:
                child[parent] += t1 - t0
        for (sid, outer, _), (_, secs) in self.agg.items():
            if outer is None and sid is not None:
                child[sid] += secs
        return {
            s[0]: (s[5] - s[4]) - child[s[0]] for s in self.spans if s[5] is not None
        }

    def hot_self(self, name: str) -> float:
        """Self time of one hot function summed over every call, in seconds."""
        total = sum(v[1] for (_, _, n), v in self.agg.items() if n == name)
        nested = sum(v[1] for (_, outer, _), v in self.agg.items() if outer == name)
        return total - nested

    def write(self, path) -> None:
        """Spans, then aggregates, as JSON lines; times relative to the first span."""
        base = self.spans[0][4] if self.spans else 0.0
        selfs = self.self_times()
        with open(path, "w") as fh:
            for sid, parent, inst, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({
                    "span": sid, "parent": parent, "instance": inst, "name": name,
                    "start_s": t0 - base, "end_s": None if t1 is None else t1 - base,
                    "self_s": selfs.get(sid), "attrs": attrs,
                }, default=str) + "\n")
            for (sid, outer, name), (calls, secs) in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0] or -1, str(kv[0][1]), kv[0][2])
            ):
                fh.write(json.dumps({
                    "aggregate": name, "parent": sid, "inside": outer,
                    "calls": calls, "total_s": secs,
                }) + "\n")
