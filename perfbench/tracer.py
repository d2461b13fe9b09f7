"""Outside-in tracing: pass-through wrappers installed on module attributes.

Nothing under `src/` knows about these wrappers.  Each wrapped function
becomes a span; a span's self time is its duration minus the durations
of the wrapped calls made inside it.  Tape nodes are counted by wrapping
`Tape.record`, so a span's node count is every node recorded between
its entry and its exit (children included).

Spans are aggregated in memory per (phase, name), never stored one by
one: a traced step makes about a thousand of them.  Every wrapper is
removed on exit from `installed()`, which restores the exact objects it
replaced.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, new value) and restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def step_clock(tape_cls, stamps: list):
    """Append one `perf_counter()` reading per `Tape.backward` call.

    This is the only wrapper the untraced run installs: one timestamp per
    training step and no other work.
    """
    backward = vars(tape_cls)["backward"]

    @functools.wraps(backward)
    def stamped(*args, **kwargs):
        stamps.append(perf_counter())
        return backward(*args, **kwargs)

    with patched([(tape_cls, "backward", stamped)]):
        yield


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "nodes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.nodes = 0


class Tracer:
    """Aggregated spans and node counts, keyed by the current phase."""

    def __init__(self, targets, tape_cls):
        self.targets = targets
        self.tape_cls = tape_cls
        self.phase = "none"
        self.nodes: dict[str, int] = {}
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self._count = 0
        self._stack: list[list] = []  # [child seconds, node count at entry]

    def stat(self, phase: str, name: str) -> SpanStats:
        key = (phase, name)
        if key not in self.stats:
            self.stats[key] = SpanStats()
        return self.stats[key]

    def covered_s(self, phase: str) -> float:
        """Seconds inside at least one span: the sum of every self time."""
        return sum(s.self_s for (p, _), s in self.stats.items() if p == phase)

    def _span(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, tracer._count]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                s = tracer.stat(tracer.phase, name)
                s.calls += 1
                s.total_s += dur
                s.self_s += dur - frame[0]
                s.nodes += tracer._count - frame[1]

        return traced

    def _counting_record(self, record):
        tracer = self

        @functools.wraps(record)
        def counted(tape, node):
            tracer._count += 1
            tracer.nodes[tracer.phase] = tracer.nodes.get(tracer.phase, 0) + 1
            return record(tape, node)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target and `Tape.record` for the duration of the block."""
        repl = [(owner, attr, self._span(vars(owner)[attr], name))
                for owner, attr, name in self.targets]
        record = vars(self.tape_cls)["record"]
        repl.append((self.tape_cls, "record", self._counting_record(record)))
        with patched(repl):
            yield self
