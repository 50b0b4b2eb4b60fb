"""Spans around the simulator's public entry points, from outside it.

The traced run patches a fixed list of functions at class (or module)
level, records one span per call, and puts the originals back when it
ends; no file under ``src/`` changes.  A span carries its name, start,
end, parent span and the id of the op or request the benchmark was
issuing, and the benchmark phase (set-up, measured phase, read-back)
it opened in.  Spans are aggregated per (phase, name) as they close;
raw spans are kept only for a bounded sample.  A span's self time is
its duration minus the time its child spans cover, so self times of all
spans add up to the time covered by the outermost ones.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Iterator


class SpanRecorder:
    """Collects spans.  The benchmark sets ``phase`` as it moves between
    phases and ``unit_id`` to the op or request it is issuing."""

    def __init__(self, sample_limit: int = 4096,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.sample_limit = sample_limit
        self.phase = ""
        self.unit_id: object = None
        #: (phase, name) -> [calls, total_ns, self_ns]
        self.totals: dict[tuple[str, str], list[int]] = {}
        #: (span id, parent id or 0, phase, name, start_ns, end_ns, unit id)
        self.samples: list[tuple] = []
        # Open spans, innermost last:
        # [name, start_ns, child_ns, span id, phase].
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, self.clock(), 0, self._next_id,
                            self.phase])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_ns, span_id, phase = self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            parent = outer[3]
        key = (phase, name)
        agg = self.totals.get(key)
        if agg is None:
            agg = self.totals[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        if len(self.samples) < self.sample_limit:
            self.samples.append((span_id, parent, phase, name, start, end,
                                 self.unit_id))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return span

    def self_ns(self) -> int:
        """Total self time over every span recorded."""
        return sum(agg[2] for agg in self.totals.values())


@contextlib.contextmanager
def patched(owner: Any, attr: str,
            replace: Callable[[Callable], Callable]) -> Iterator[None]:
    """Swap ``owner.attr`` (defined on ``owner`` itself: a class or a
    module) for ``replace(original)`` until the block exits.

    Class and static methods keep their descriptor type, so a patched
    ``classmethod`` still receives its class.
    """
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        new = type(raw)(replace(raw.__func__))
    else:
        new = replace(raw)
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder,
                 targets: list[tuple[str, Any, str]]) -> Iterator[SpanRecorder]:
    """Record a span around every ``(span name, owner, attribute)``."""
    with contextlib.ExitStack() as stack:
        for name, owner, attr in targets:
            stack.enter_context(patched(
                owner, attr, functools.partial(recorder.wrap, name)))
        yield recorder
