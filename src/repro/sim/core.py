"""The simulation event loop, events, and processes.

Semantics
---------
* A :class:`Simulator` owns virtual time (``sim.now``, in seconds) and a
  binary heap of scheduled events.
* An :class:`Event` is a one-shot handle: it is *triggered* (scheduled
  with a value or an exception) and later *processed* (its callbacks run
  at its scheduled time).
* A :class:`Process` wraps a generator.  The generator ``yield``\\ s
  events; when a yielded event is processed the generator is resumed
  with the event's value (or the exception is thrown into it).  A
  process is itself an event that triggers when the generator returns.

Determinism: events scheduled for the same time are processed in
``(priority, insertion sequence)`` order, so a run is a pure function of
its inputs.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator
from typing import Any, Callable

from repro.sim.errors import DeadlockError, Interrupt, SimulationError

# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()

_INF = float("inf")

#: Priority for normal events.
NORMAL = 1
#: Priority for urgent events (processed before normal ones at equal time).
URGENT = 0

class Event:
    """A one-shot occurrence processes can wait on.

    An event moves through three states: *pending* (just created),
    *triggered* (value or exception set, queued on the simulator heap),
    and *processed* (callbacks executed).  Waiting on an already
    processed event resumes the waiter immediately (at the current time).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok = True
        self._processed = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event carries a value rather than an exception."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event with ``value`` after ``delay`` sim-seconds."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay`` seconds."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._value = exc
        self._ok = False
        self.sim._schedule(self, delay)
        return self

    # -- kernel hooks ------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called exactly once by the event loop."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:  # type: ignore[union-attr]
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Attach ``cb``; runs immediately if the event was processed."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Process(Event):
    """An event that drives a generator of events.

    The wrapped generator advances whenever its currently awaited event
    is processed.  When the generator returns, the process event
    succeeds with the generator's return value; if the generator raises,
    the process fails with that exception (which propagates to waiters
    or, if nobody waits, aborts the simulation).
    """

    __slots__ = ("_gen", "_waiting_on", "_started")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not isinstance(gen, Generator):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        # Bootstrap: resume the generator as soon as the loop starts.
        # (``_waiting_on`` tracks the event whose fire may resume us;
        # ``_resume`` ignores fires from any other event, which is what
        # makes ``interrupt`` O(1) — see below.)
        start = Event(sim, "start")
        self._waiting_on: Event | None = start
        self._started = False
        start.add_callback(self._resume)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        (the event may still fire later — its value is then dropped for
        this waiter).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        # O(1) detach: instead of scanning the target's callback list,
        # just forget it — when the stale event eventually fires,
        # ``_resume`` sees it is no longer ``_waiting_on`` and drops the
        # value.  (With many waiters on one event — failure races — the
        # old ``list.remove`` made preemption storms O(waiters²).)
        # A process that has not started yet must keep its bootstrap
        # resume: the generator has to reach its first yield before the
        # Interrupt can be thrown into it.
        if self._started:
            self._waiting_on = None
        kick = Event(self.sim, f"interrupt:{self.name}")
        kick.add_callback(lambda ev: self._advance(throw=Interrupt(cause)))
        kick.succeed()

    # -- generator driving -------------------------------------------------
    def _resume(self, ev: Event) -> None:
        if ev is not self._waiting_on:
            return  # detached by interrupt (or a stale wake); drop it
        self._waiting_on = None
        # Direct slot reads: ``ev`` is being processed, so it is
        # necessarily triggered — the property guards would only burn
        # time on the hottest path in the kernel.
        if ev._ok:
            self._advance(send=ev._value)
        else:
            self._advance(throw=ev._value)

    def _advance(self, send: Any = None, throw: BaseException | None = None) -> None:
        while True:
            if self._value is not _PENDING:  # interrupted after completion
                return
            self._started = True
            try:
                if throw is not None:
                    nxt = self._gen.throw(throw)
                else:
                    nxt = self._gen.send(send)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                if not self.callbacks:
                    # Nobody is waiting: crash the simulation loudly
                    # instead of silently swallowing the error.
                    self.sim._crash = exc
                self.fail(exc)
                return

            if not isinstance(nxt, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded {nxt!r}; processes must yield Events"
                )
                self._gen.close()
                self.fail(err)
                if not self.callbacks:
                    self.sim._crash = err
                return
            if nxt.sim is not self.sim:
                raise SimulationError(
                    "yielded event belongs to a different simulator"
                )
            # Inlined add_callback (one call frame per yield saved).
            callbacks = nxt.callbacks
            if callbacks is None:
                # Already-processed event: resume in place.  Looping here
                # (a trampoline) instead of recursing through _resume
                # keeps the stack flat — a generator yielding N completed
                # events (e.g. shutdown sweeping hundreds of node gates)
                # would otherwise nest ~2N frames and overflow at scale.
                if nxt._ok:
                    send, throw = nxt._value, None
                else:
                    send, throw = None, nxt._value
                continue
            self._waiting_on = nxt
            callbacks.append(self._resume)
            return


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Events are processed in ``(time, priority, seq)`` order.  Besides
    a binary heap, the queue has a FIFO lane for events scheduled *now*
    at NORMAL priority — the overwhelmingly common case — which are
    appended/popped in O(1) instead of O(log n); because ``seq`` is
    globally monotone, the lane is already sorted by ``(time, seq)`` and
    a single tuple comparison merges it exactly against the heap.  The
    committed golden digests (``tests/property/test_golden_digests.py``)
    pin the resulting event order.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Fast lane: ``(time, seq, event)`` for immediate NORMAL events.
        self._fast: deque[tuple[float, int, Event]] = deque()
        self._seq = 0
        self._crash: BaseException | None = None
        self._processes: list[Process] = []
        self._compact_at = 64
        #: Optional test hook: called with ``(time, priority, event)``
        #: for every processed event (the digest tests' tap).
        self._event_tap: Callable[[float, int, Event], None] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- construction helpers ----------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def process(self, gen: Generator, name: str = "") -> Process:
        proc = Process(self, gen, name)
        # Amortized compaction keeps ``_processes`` proportional to the
        # number of *live* processes (deadlock reporting only needs
        # those) instead of retaining every process ever created —
        # multi-job/overload runs used to leak all of them.
        if len(self._processes) >= self._compact_at:
            self._processes = [p for p in self._processes if p.is_alive]
            self._compact_at = max(64, 2 * len(self._processes))
        self._processes.append(proc)
        return proc

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            raise ValueError(f"non-finite delay {delay!r}")
        ev = Event(self, "timeout")
        # Inlined succeed() + _schedule() — this is the kernel's hottest
        # constructor, so skip the already-triggered check and the extra
        # call frames.
        ev._value = value
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._fast.append((self._now, seq, ev))
        else:
            heapq.heappush(self._heap, (self._now + delay, NORMAL, seq, ev))
        return ev

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay != 0.0 and not 0.0 < delay < _INF:
            # One chained comparison rejects negative, NaN, and ±inf —
            # a NaN delay used to slip past ``delay < 0`` and silently
            # corrupt the heap invariant.
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0 and priority == NORMAL:
            self._fast.append((self._now, seq, event))
        else:
            heapq.heappush(self._heap, (self._now + delay, priority, seq, event))

    # -- main loop -------------------------------------------------------------
    def run(
        self,
        until: "float | Event | None" = None,
        check_deadlock: bool = False,
    ) -> Any:
        """Run until the heap drains, time ``until`` passes, or event fires.

        Returns the event's value when ``until`` is an event, else the
        final simulation time.
        """
        stop_at: float | None = None
        stop_ev: Event | None = None
        if isinstance(until, Event):
            stop_ev = until
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError("until is in the past")

        heap = self._heap
        fast = self._fast
        heappop = heapq.heappop
        while fast or heap:
            if stop_ev is not None and stop_ev._processed:
                break
            # Peek the earliest entry across both lanes (the fast lane
            # holds NORMAL-priority events and is sorted by (time, seq)).
            take_fast = False
            if fast:
                when, fseq, event = fast[0]
                if heap and heap[0] < (when, NORMAL, fseq):
                    when = heap[0][0]
                    prio = heap[0][1]
                else:
                    take_fast = True
                    prio = NORMAL
            else:
                when = heap[0][0]
                prio = heap[0][1]
            if stop_at is not None and when > stop_at:
                self._now = stop_at
                return self._now
            if take_fast:
                fast.popleft()
            else:
                event = heappop(heap)[3]
            self._now = when
            if self._event_tap is not None:
                self._event_tap(when, prio, event)
            # Inlined Event._process() — one call frame per event saved.
            event._processed = True
            callbacks = event.callbacks
            event.callbacks = None
            for cb in callbacks:  # type: ignore[union-attr]
                cb(event)
            if self._crash is not None:
                crash, self._crash = self._crash, None
                raise crash

        if stop_ev is not None:
            if not stop_ev.triggered:
                # Heap drained but the awaited event never fired: nothing
                # can ever trigger it now, so this is always a deadlock.
                raise DeadlockError(self._live_process_names())
            if not stop_ev.ok:
                raise stop_ev.value
            return stop_ev.value

        if check_deadlock:
            live = self._live_process_names()
            if live:
                raise DeadlockError(live)
        if stop_at is not None and self._now < stop_at:
            # The heap drained before the horizon: idle time still
            # passes, so the clock advances to exactly ``until``.
            self._now = stop_at
        return self._now

    def _live_process_names(self) -> list[str]:
        return [p.name for p in self._processes if p.is_alive]
