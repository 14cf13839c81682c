"""In-memory spans recorded around the program's layers.

The benchmark never edits the program: it wraps the functions each layer
exposes, at the names their callers actually bind (``Engine.check`` on
the class, ``ResultCache.get``, the ``ProcessPoolExecutor`` name inside
``repro.core.service`` ...), records one span per call and puts the
originals back afterwards.

A span has a name, start, end, parent span and request id.  Spans nest
per thread; a span's self time is its duration minus the time its child
spans cover.  Spans stay in memory until the run ends.

Worker processes forked from the traced process inherit the wrappers.
They cannot hand spans back, so there a finished span is folded into the
worker's metrics registry instead (``perfbench.<span>.self_ms``), which
the program already merges into the parent's snapshot.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    rid: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    #: Optional size of the work (bytes for the engine).
    size: float = 0.0

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def self_ms(self) -> float:
        return (self.end - self.start - self.child_s) * 1000.0


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    pid: int = field(default_factory=os.getpid)
    #: Request id for spans on threads that did not set their own.
    request_id: int = 0
    #: One record per ``service.batch`` (see ``traced._wrap_iter_check``).
    batches: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Optional[int]) -> None:
        """Tag this thread's next spans with ``rid`` (None: the default)."""
        self._local.rid = rid

    def begin(self, name: str, size: float = 0.0) -> Span:
        stack = self._stack()
        rid = getattr(self._local, "rid", None)
        span = Span(
            sid=next(self._ids),
            parent=stack[-1].sid if stack else 0,
            name=name,
            rid=self.request_id if rid is None else rid,
            start=time.perf_counter(),
            size=size,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start
        if os.getpid() == self.pid:
            with self._lock:
                self.spans.append(span)
            return
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.observe(f"perfbench.{span.name}.self_ms", span.self_ms)
        if span.size:
            registry.observe(f"perfbench.{span.name}.size", span.size)

    def count(self, name: str, amount: int = 1) -> None:
        if os.getpid() == self.pid:
            with self._lock:
                self.counts[name] += amount

    # -- wrapping -----------------------------------------------------------

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Rebind ``owner.attribute`` until :meth:`restore`."""
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        size: Optional[Callable[..., float]] = None,
        after: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name, size(*args, **kwargs) if size else 0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(result)
            return result

        self.patch(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back (last patch first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total_self_ms(self, name: str) -> float:
        return sum(span.self_ms for span in self.named(name))

