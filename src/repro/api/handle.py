""":class:`RunHandle` — the asynchronous view of a submitted request.

:meth:`SimulationService.submit` returns a handle immediately; the request
runs on a background thread against the service's executor.  The handle
exposes progress (one :class:`ProgressEvent` per completed repeat, cache hits
included), cooperative cancellation, and result retrieval.

Cancellation is cooperative at repeat granularity: :meth:`RunHandle.cancel`
raises :class:`~repro.api.errors.RunCancelledError` out of the next progress
callback, which aborts the batch (the process executor cancels its
still-queued work; already-running simulations finish but are discarded).
A run cancelled while it waits for a one-job service's slot never starts.
Because each repeat's seed is derived from its identity — never from
execution order — the *events* a handle reports are the same set for any
job count, and an uncancelled handle's result is bit-identical to the
synchronous path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import RunCancelledError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .request import RunRequest
    from .results import RunResult

__all__ = ["ProgressEvent", "RunHandle"]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed simulation repeat of a submitted request.

    ``completed``/``total`` count repeats done so far; completion *order* may
    vary across backends, but the set of (label, repeat, seed) triples is
    backend-invariant.
    """

    label: str
    repeat: int
    seed: int
    completed: int
    total: int


class RunHandle:
    """Progress, cancellation and result retrieval for one submitted request.

    Instances are created by :meth:`SimulationService.submit`; the
    constructor is internal.
    """

    def __init__(
        self,
        request: "RunRequest",
        runner: "Callable[[RunHandle], RunResult]",
    ) -> None:
        self.request = request
        self._runner = runner
        self._cancel = threading.Event()
        self._lock = threading.Lock()
        self._events: list[ProgressEvent] = []
        self._result: "RunResult | None" = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-run-{request.run_label()}", daemon=True
        )

    # ------------------------------------------------------------------ #
    # Internal: driven by the service                                      #
    # ------------------------------------------------------------------ #
    def _start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        try:
            self._result = self._runner(self)
        except BaseException as exc:  # noqa: BLE001 - re-raised in result()
            self._error = exc

    def _record(self, event: ProgressEvent) -> None:
        """Record one completed repeat; raises if cancellation was requested."""
        with self._lock:
            self._events.append(event)
        self._check_cancelled()

    def _check_cancelled(self) -> None:
        if self._cancel.is_set():
            raise RunCancelledError(
                f"run {self.request.run_label()!r} cancelled via its handle"
            )

    # ------------------------------------------------------------------ #
    # Public surface                                                       #
    # ------------------------------------------------------------------ #
    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent, returns at once)."""
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancel.is_set()

    def done(self) -> bool:
        """Whether the background run has finished (any outcome)."""
        return not self._thread.is_alive()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the run finishes; ``True`` if it did within timeout."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    @property
    def cancelled(self) -> bool:
        """Whether the run ended because it was cancelled."""
        return isinstance(self._error, RunCancelledError)

    def progress(self) -> list[ProgressEvent]:
        """Snapshot of the events recorded so far (completion order)."""
        with self._lock:
            return list(self._events)

    def result(self, timeout: float | None = None) -> "RunResult":
        """The run's result; blocks until done.

        Raises :class:`RunCancelledError` if the handle was cancelled,
        ``TimeoutError`` if the run is still going after ``timeout`` seconds,
        and re-raises whatever error the run itself died on.
        """
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"run {self.request.run_label()!r} still executing")
        if self._error is not None:
            raise self._error
        assert self._result is not None  # _run set exactly one of the two
        return self._result
