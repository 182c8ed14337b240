"""Outside-in span tracer: wraps module attributes, records spans in memory.

A span is (name, thread, start, end, parent). The parent is the innermost
open span of the same thread; a thread with no open span (a pool worker)
takes the innermost open span of the installing thread, so work done in a
thread pool still hangs under the stage that submitted it. Self time is
counted per thread (see Tracer.self_seconds), so overlapping workers are
never subtracted from each other.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time

MARKER = "__outside_in_original__"


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "info")

    def __init__(self, name: str, thread: int, parent: "Span | None") -> None:
        self.name = name
        self.thread = thread
        self.parent = parent
        self.info = None
        self.start = self.end = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every call into the wrapped attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # in opening order; list.append is atomic
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        try:
            parent = (stack or self._root_stack)[-1]
        except IndexError:  # the root thread may close its last span meanwhile
            parent = None
        span = Span(name, threading.get_ident(), parent)
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- patching ----------------------------------------------------------

    def install(self, module, attr: str, name: str, on_exit=None) -> None:
        """Replace module.attr with a wrapper that records a span per call.

        on_exit(span, args, kwargs, result) runs after the call returns,
        outside the span, to attach counts to it.
        """
        original = getattr(module, attr)
        if hasattr(original, MARKER):
            raise RuntimeError(f"{module.__name__}.{attr} is already wrapped")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, original)
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def bind_root(self) -> None:
        """Make the calling thread's open spans the parents of orphan spans."""
        self._root_stack = self._stack()

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    @staticmethod
    def self_seconds(spans: list[Span]) -> dict[Span, float]:
        """Span -> its own time, counted per thread.

        On the span's thread: its duration minus its children there. A span
        that hands work to other threads (a pool stage) waits meanwhile, so
        the window from the first to the last worker span is taken out too,
        and each worker thread adds its time outside spans in its own window
        (first span start to last span end, minus those spans).
        """
        own = {s: s.seconds for s in spans}
        workers: dict[Span, dict[int, list[Span]]] = {}
        for s in spans:
            if s.parent not in own:
                continue
            if s.parent.thread == s.thread:
                own[s.parent] -= s.seconds
            else:
                workers.setdefault(s.parent, {}).setdefault(s.thread, []).append(s)
        for parent, by_thread in workers.items():
            worker_spans = [s for group in by_thread.values() for s in group]
            own[parent] -= max(s.end for s in worker_spans) - min(s.start for s in worker_spans)
            for group in by_thread.values():
                window = max(s.end for s in group) - min(s.start for s in group)
                own[parent] += window - sum(s.seconds for s in group)
        return own

    @staticmethod
    def enclosing(span: Span, prefix: str) -> Span | None:
        """Nearest ancestor (causal parent chain) whose name starts with prefix."""
        parent = span.parent
        while parent is not None and not parent.name.startswith(prefix):
            parent = parent.parent
        return parent

    def dump(self, path: str) -> None:
        """Write every span as one JSON list per line: index, name, thread, start, end, parent index."""
        index = {s: i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps([i, s.name, s.thread, s.start, s.end, index.get(s.parent)]))
                f.write("\n")


def leftover_wrappers(modules) -> list[str]:
    """Names of module attributes still holding a wrapper (should be empty)."""
    leftovers = []
    for module in modules:
        for attr, value in vars(module).items():
            if hasattr(value, MARKER):
                leftovers.append(f"{module.__name__}.{attr}")
    return leftovers
