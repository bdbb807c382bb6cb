"""Span tracing for the benchmark's traced runs, installed from outside.

The tracer replaces methods *on their classes* with timing wrappers, so every
instance built afterwards — including the bound methods an object hoists in
its constructor — goes through them.  Spans are kept in memory, one stack per
thread (the server runs simulations on a thread beside its request loop), and
are only summarised when the run ends.

Self time is a span's duration minus the time its child spans took.  A span
entered again while it is already open on the same thread (a method calling
another method of the same layer) adds its calls and self time but not its
duration to ``total``, so ``total`` never counts the same interval twice.
"""

from __future__ import annotations

import threading
import time

__all__ = ["SpanTracer", "percentile"]

_MISSING = object()


class _ThreadState:
    """One thread's open spans, span table and counters."""

    __slots__ = ("stack", "spans", "depth", "counts")

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_ns, label]``.
        self.stack: list[list] = []
        #: span -> ``[calls, total_ns, self_ns]``.
        self.spans: dict[str, list[int]] = {}
        #: span -> how many times it is open on this thread.
        self.depth: dict[str, int] = {}
        #: free-form counters maintained by hooks.
        self.counts: dict[str, float] = {}


class SpanTracer:
    """Times calls into wrapped methods and reports per-span totals.

    ``clock`` returns integer nanoseconds; tests pass a fake one to check the
    self-time arithmetic exactly.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording                                                            #
    # ------------------------------------------------------------------ #
    def state(self) -> _ThreadState:
        """The calling thread's state, created on first use."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, cls: type, attr: str, span: str, before=None, after=None) -> None:
        """Time every call of ``cls.attr`` as span ``span``.

        ``before(state, args)`` runs just before the call and
        ``after(state, args)`` just after it returns; both see the caller's
        :class:`_ThreadState` and are for counters the spans cannot give.
        Raises ``AttributeError`` when the class no longer has the method.
        """
        original = getattr(cls, attr)
        if not callable(original):
            raise TypeError(f"{cls.__name__}.{attr} is not callable")
        raw = cls.__dict__.get(attr, _MISSING)
        label = f"{cls.__name__}.{attr}"
        clock = self.clock
        state_of = self.state

        def wrapper(*args, **kwargs):
            state = state_of()
            if before is not None:
                before(state, args)
            stack = state.stack
            depth = state.depth
            frame = [0, label]
            stack.append(frame)
            opened = depth.get(span, 0)
            depth[span] = opened + 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[span] = opened
                entry = state.spans.get(span)
                if entry is None:
                    entry = state.spans[span] = [0, 0, 0]
                entry[0] += 1
                entry[2] += elapsed - frame[0]
                if not opened:
                    entry[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(state, args)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", label)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        setattr(cls, attr, wrapper)
        self._installed.append((cls, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped method back exactly as it was."""
        while self._installed:
            cls, attr, raw = self._installed.pop()
            if raw is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, raw)

    @property
    def installed(self) -> int:
        """Number of methods currently wrapped."""
        return len(self._installed)

    # ------------------------------------------------------------------ #
    # Reporting                                                            #
    # ------------------------------------------------------------------ #
    def spans(self) -> dict[str, dict[str, float]]:
        """``span -> {"calls", "total_s", "self_s"}`` summed over threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for span, (calls, total, own) in list(state.spans.items()):
                entry = merged.setdefault(span, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {
            span: {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
            for span, (calls, total, own) in merged.items()
        }

    def counts(self) -> dict[str, float]:
        """Hook counters summed over threads."""
        merged: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in list(state.counts.items()):
                merged[name] = merged.get(name, 0) + value
        return merged


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (nearest rank).

    Refuses (``ValueError``) a percentile with fewer than ten samples beyond
    it: such a tail is set by a handful of outliers and does not repeat.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(values)
    count = len(ordered)
    beyond = count * (100 - q) / 100
    if beyond < 10:
        raise ValueError(
            f"p{q:g} needs at least ten samples beyond it; "
            f"{count} samples leave {beyond:g}"
        )
    rank = max(1, -(-count * q // 100))
    return ordered[int(rank) - 1]
