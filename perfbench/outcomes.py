"""How an operation ended, and the event-budget watchdog.

Every operation the benchmark attempts ends in exactly one class:

``ok``             completed and its output passed the oracle
``typed_error``    raised one of the simulator's own error types
``untyped_error``  raised anything else (``ValueError``, ``KeyError``, ...)
``wrong_output``   completed, but the oracle rejected its output
``hang``           processed more events than its budget allows

A hang is detected by counting processed events through the kernel's
per-event tap: the budget is a fixed multiple of the events of the same
graph's unpressured, fault-free run, so a livelock ends as a counted
failure instead of stalling the benchmark.
"""

from __future__ import annotations

from collections import Counter

OK = "ok"
TYPED_ERROR = "typed_error"
UNTYPED_ERROR = "untyped_error"
WRONG_OUTPUT = "wrong_output"
HANG = "hang"
CLASSES = (OK, TYPED_ERROR, UNTYPED_ERROR, WRONG_OUTPUT, HANG)

#: Event budget = this multiple of the unpressured run's events.
HANG_MULTIPLE = 8


class EventBudgetExceeded(Exception):
    """The watchdog's verdict: the run outgrew its event budget."""

    def __init__(self, budget: int):
        super().__init__(f"event budget of {budget} exceeded")
        self.budget = budget


def classify(error: BaseException | None, output_ok: bool = True) -> str:
    """The class of one operation from what it raised and its oracle.

    ``error`` is the exception the operation raised (``None`` when it
    completed); ``output_ok`` is the oracle's verdict on a completed
    operation.  Typed errors are the simulator's own exception types,
    i.e. classes defined under the ``repro`` package.
    """
    if error is None:
        return OK if output_ok else WRONG_OUTPUT
    if isinstance(error, EventBudgetExceeded):
        return HANG
    for cls in type(error).__mro__:
        if cls.__module__.split(".")[0] == "repro":
            return TYPED_ERROR
    return UNTYPED_ERROR


class Watchdog:
    """Counts processed events and raises past ``budget``.

    Used as the simulator's ``_event_tap``; ``inner`` (a tracing tap)
    is chained after the count.
    """

    def __init__(self, budget: int, inner=None):
        if budget < 1:
            raise ValueError("event budget must be positive")
        self.budget = int(budget)
        self.processed = 0
        self.inner = inner

    def __call__(self, when, prio, event) -> None:
        self.processed += 1
        if self.processed > self.budget:
            raise EventBudgetExceeded(self.budget)
        if self.inner is not None:
            self.inner(when, prio, event)

    def attach(self, sim) -> None:
        if not hasattr(sim, "_event_tap"):
            raise RuntimeError("simulator has no per-event tap to watch")
        sim._event_tap = self


class Tally:
    """Operation outcomes of one benchmark run."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        #: Failures per ``(class, detail)``, for the report.
        self.details: Counter[tuple[str, str]] = Counter()
        #: First full message per ``(class, detail)``.
        self.messages: dict[tuple[str, str], str] = {}

    def add(self, outcome: str, n: int = 1, detail: str = "",
            message: str = "") -> None:
        if outcome not in CLASSES:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += n
        if outcome != OK:
            self.details[outcome, detail] += n
            if message:
                self.messages.setdefault((outcome, detail), message)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts[OK]

    def as_dict(self) -> dict[str, int]:
        return {cls: self.counts[cls] for cls in CLASSES}
