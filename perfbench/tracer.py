"""Outside-in span tracing: wrap a program's entry points from outside.

The benchmark does not touch ``src/``.  Instead :class:`Tracer` swaps a
timing wrapper in for a function or method *at the name its caller
looks up* (``repro.browser.bindings.parse_fragment``, not only
``repro.dom.parser.parse_fragment``), records one span per call —
``(name, start, end, parent)`` — and restores the originals afterwards.

Spans stay in memory, one list per thread, and are written out once at
the end of a run.  A span's *self time* is its duration minus the
durations of its direct children; children run on the caller's thread
and nest strictly, so they never overlap each other.  The benchmark
opens a root span around the measured call (one per phase where a
repeat has several), whose self time is the part of the wall time no
wrapped layer claims (the unattributed share).
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

_clock = time.perf_counter_ns

#: ``pre(args, kwargs) -> token`` runs before the call, outside the span.
PreHook = Callable[[tuple, dict], Any]
#: ``note(tracer, args, kwargs, result, token)`` runs after the call.
NoteHook = Callable[["Tracer", tuple, dict, Any, Any], None]


@dataclass
class LayerTimes:
    """Span totals of one traced interval, keyed by span name."""

    self_ns: Counter = field(default_factory=Counter)
    total_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def total_ms(self, name: str) -> float:
        return self.total_ns[name] / 1e6


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One span list per thread: ``[name, start_ns, end_ns, parent]``
        #: with ``parent`` an index into the same list (-1 = none).
        self._threads: list[list[list]] = []
        #: Event counts booked by note hooks (bytes hashed, steps, ...).
        self.counts: Counter = Counter()
        #: Distinct keys seen per name (for distinct-input shares).
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _state(self) -> tuple[list[list], list[int]]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append(spans)
        return spans, local.stack

    @contextmanager
    def span(self, name: str):
        spans, stack = self._state()
        record = [name, _clock(), 0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield
        finally:
            record[2] = _clock()
            stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        pre: Optional[PreHook] = None,
        note: Optional[NoteHook] = None,
    ) -> Callable:
        """A stand-in for ``fn`` that records one span per call."""
        tracer = self

        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            spans, stack = tracer._state()
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
            if note is not None:
                note(tracer, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        pre: Optional[PreHook] = None,
        note: Optional[NoteHook] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, pre=pre, note=note))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts (patches stay installed)."""
        with self._lock:
            for spans in self._threads:
                spans.clear()
        self.counts.clear()
        self.distinct.clear()

    def layer_times(self, under: Optional[str] = None) -> LayerTimes:
        """Per-name totals and self times of every finished span, or
        only of the spans whose outermost ancestor is named ``under``."""
        times = LayerTimes()
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        for spans in threads:
            child_ns = [0] * len(spans)
            roots: list[str] = []
            for name, start, end, parent in spans:
                if end and parent >= 0:
                    child_ns[parent] += end - start
                # A parent is recorded before its children.
                roots.append(roots[parent] if parent >= 0 else name)
            for index, (name, start, end, parent) in enumerate(spans):
                if not end or (under is not None and roots[index] != under):
                    continue
                duration = end - start
                times.total_ns[name] += duration
                times.self_ns[name] += duration - child_ns[index]
                times.calls[name] += 1
        return times

    def write(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        with open(path, "w", encoding="utf-8") as handle:
            for thread, spans in enumerate(threads):
                for name, start, end, parent in spans:
                    handle.write(json.dumps([thread, name, start, end, parent]) + "\n")
                    written += 1
        return written
