"""Host-time spans around calls into the simulator's layers.

A :class:`SpanRecorder` keeps a stack of open spans.  Closing a span
adds its duration to its boundary's inclusive time and its duration
minus its children's durations (its *self time*) to its layer.  Nested
spans of the same layer are fine: each level only keeps what its
children did not cover, so the layer total never double counts.

Generator functions (``Network.transfer``, the ``EventSystem``
operations, every process body) are traced per resume: the span opens
when the generator is resumed and closes when it yields again, so the
time a process spends suspended in the simulator is never charged to
it.  Creating the generator is not a span.

:func:`install` patches the public boundaries listed in
:data:`BOUNDARIES` on their classes (and wraps every process body
through ``Simulator.process`` plus every plain event callback through
the kernel's per-event tap), and returns a function that restores the
originals.  Nothing here changes what the simulation does: wrappers
forward arguments, results, sends, throws and closes unchanged and add
no events, so a traced run processes the identical event stream.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from collections.abc import Generator

#: Layer of a module, by longest dotted prefix.  Code outside every
#: prefix (the runtimes' own process bodies, cluster nodes, observer
#: hooks, the benchmark's kernels) is charged to ``rt``.
MODULE_LAYERS: dict[str, str] = {
    "repro.sim": "sim",
    "repro.cluster.network": "net",
    "repro.mpi": "mpi",
    "repro.core.events": "events",
    "repro.core.scheduler": "heft",
    "repro.core.datamanager": "dm",
    "repro.core.tiering": "dm",
    "repro.core.memory": "dm",
    "repro.core.faults": "ft",
    "repro.core.faultmodel": "ft",
    "repro.core.headlog": "log",
    "repro.core.shard": "shard",
    "repro.core.gossip": "shard",
    "repro.jobs": "jobs",
    "repro.omp": "build",
    "repro.taskbench": "build",
}

#: Every layer a profile reports, in table order.
LAYERS = ("sim", "net", "mpi", "events", "heft", "dm", "ft", "log",
          "shard", "jobs", "build", "rt")

#: ``(module, class, attribute, layer)`` of each timed public function.
#: Generator functions are detected at install time and traced per
#: resume.
BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sim.core", "Simulator", "run", "sim"),
    ("repro.cluster.network", "Network", "transfer", "net"),
    ("repro.cluster.network", "Network", "transfer_time", "net"),
    ("repro.mpi.comm", "Rank", "isend", "mpi"),
    ("repro.mpi.comm", "Rank", "irecv", "mpi"),
    ("repro.mpi.matchtable", "MatchStore", "put", "mpi"),
    ("repro.mpi.matchtable", "MatchStore", "get_match", "mpi"),
    ("repro.core.events", "EventSystem", "submit", "events"),
    ("repro.core.events", "EventSystem", "retrieve", "events"),
    ("repro.core.events", "EventSystem", "exchange", "events"),
    ("repro.core.events", "EventSystem", "execute", "events"),
    ("repro.core.events", "EventSystem", "alloc", "events"),
    ("repro.core.events", "EventSystem", "delete", "events"),
    ("repro.core.events", "EventSystem", "broadcast", "events"),
    ("repro.core.scheduler.heft", "HeftScheduler", "schedule", "heft"),
    ("repro.core.datamanager", "DataManager", "plan_enter_data", "dm"),
    ("repro.core.datamanager", "DataManager", "plan_for_task", "dm"),
    ("repro.core.datamanager", "DataManager", "plan_exit_data", "dm"),
    ("repro.core.datamanager", "DataManager", "plan_evictions", "dm"),
    ("repro.core.datamanager", "DataManager", "commit_enter_data", "dm"),
    ("repro.core.datamanager", "DataManager", "commit_alloc", "dm"),
    ("repro.core.datamanager", "DataManager", "commit_move", "dm"),
    ("repro.core.datamanager", "DataManager", "commit_task_done", "dm"),
    ("repro.core.datamanager", "DataManager", "commit_evict", "dm"),
    ("repro.core.datamanager", "DataManager", "commit_restore", "dm"),
    ("repro.core.datamanager", "DataManager", "commit_exit_data", "dm"),
    ("repro.core.tiering", "MemoryDirector", "plan", "dm"),
    ("repro.core.headlog", "HeadLog", "append", "log"),
    ("repro.core.headlog", "Replicator", "flush", "log"),
    ("repro.core.shard.directory", "ShardDirectory", "owner_of", "shard"),
    ("repro.core.shard.directory", "ShardDirectory", "subgraph", "shard"),
    ("repro.core.shard.directory", "ShardDirectory", "lease_needs", "shard"),
    ("repro.jobs.manager", "JobManager", "run", "jobs"),
    ("repro.core.runtime", "OMPCRuntime", "launch", "rt"),
    ("repro.core.faults", "FaultTolerantRuntime", "launch", "ft"),
    ("repro.omp.api", "OmpProgram", "target", "build"),
    ("repro.cluster.machine", "Cluster", "__init__", "build"),
    ("repro.core.runtime", "OMPCRuntime", "__init__", "build"),
    ("repro.core.faults", "FaultTolerantRuntime", "__init__", "build"),
)

#: Work read from a boundary's arguments: boundary -> (key, measure).
#: ``HeftScheduler.schedule(graph, cluster)`` schedules ``len(graph)``
#: tasks per call.
AMOUNTS = {
    "HeftScheduler.schedule": ("heft.tasks", lambda args: len(args[1])),
}

#: Calls that are counted only: the kernel's hottest constructors and
#: the graph builder's edges.
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.core", "Simulator", "process"),
    ("repro.sim.core", "Simulator", "timeout"),
    ("repro.sim.core", "Simulator", "event"),
    ("repro.omp.taskgraph", "TaskGraph", "add_edge"),
)


def layer_of_module(module: str | None) -> str:
    """The layer a module's code is charged to."""
    if not module:
        return "rt"
    best, layer = -1, "rt"
    for prefix, name in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best:
            best, layer = len(prefix), name
    return layer


class SpanRecorder:
    """Span stack plus per-layer self time and per-boundary totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Open spans: ``[layer, boundary, start, child_time]``.
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        #: Completed spans per layer and per boundary.
        self.spans: Counter[str] = Counter()
        #: Calls per boundary (a generator counts once, at creation).
        self.calls: Counter[str] = Counter()
        #: Work measured from boundary arguments (see :data:`AMOUNTS`).
        self.amounts: Counter[str] = Counter()

    @property
    def depth(self) -> int:
        return len(self._stack)

    def open(self, layer: str, boundary: str) -> None:
        self._stack.append([layer, boundary, self.clock(), 0.0])

    def close(self) -> None:
        layer, boundary, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        self.inclusive_s[boundary] += duration
        self.spans[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def call(self, layer: str, boundary: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span."""
        self.open(layer, boundary)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def trace_generator(self, layer: str, boundary: str,
                        gen: Generator) -> Generator:
        """Wrap ``gen`` so that each resume is one span.

        Values, sends, throws, closes and the return value pass through
        unchanged; the wrapper keeps the inner generator's name, which
        the simulator uses to name a process.
        """
        wrapped = self._resumes(layer, boundary, gen)
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    def _resumes(self, layer: str, boundary: str, gen: Generator):
        send = None
        throw = None
        while True:
            self.open(layer, boundary)
            try:
                if throw is not None:
                    exc, throw = throw, None
                    value = gen.throw(exc)
                else:
                    value = gen.send(send)
            except StopIteration as stop:
                self.close()
                return stop.value
            except BaseException:
                self.close()
                raise
            self.close()
            try:
                send = yield value
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # Interrupt and friends
                send, throw = None, exc

    def profile(self) -> dict[str, float]:
        """Self time per layer, every layer present."""
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}


_RESUMES_CODE = SpanRecorder._resumes.__code__


def _is_traced(gen) -> bool:
    return getattr(gen, "gi_code", None) is _RESUMES_CODE


def _generator_layer(gen) -> str:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return "rt"
    return layer_of_module(frame.f_globals.get("__name__"))


def _callback_function(cb):
    """The plain function behind a bound method or partial."""
    func = getattr(cb, "__func__", cb)
    if isinstance(func, functools.partial):
        func = getattr(func.func, "__func__", func.func)
    return func


def _wrap_call(rec: SpanRecorder, layer: str, boundary: str, original):
    key, measure = AMOUNTS.get(boundary, (None, None))

    @functools.wraps(original)
    def traced(*args, **kwargs):
        rec.calls[boundary] += 1
        if measure is not None:
            rec.amounts[key] += measure(args)
        rec.open(layer, boundary)
        try:
            return original(*args, **kwargs)
        finally:
            rec.close()
    return traced


def _wrap_gen(rec: SpanRecorder, layer: str, boundary: str, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        rec.calls[boundary] += 1
        return rec.trace_generator(layer, boundary,
                                   original(*args, **kwargs))
    return traced


def _wrap_count(rec: SpanRecorder, boundary: str, original):
    @functools.wraps(original)
    def counted(*args, **kwargs):
        rec.calls[boundary] += 1
        return original(*args, **kwargs)
    return counted


def _wrap_process(rec: SpanRecorder, original):
    """``Simulator.process``: count it and trace the body's resumes,
    charged to the layer of the module that defines the body."""
    @functools.wraps(original)
    def process(self, gen, name=""):
        rec.calls["Simulator.process"] += 1
        if isinstance(gen, Generator) and not _is_traced(gen):
            layer = _generator_layer(gen)
            gen = rec.trace_generator(layer, f"process:{layer}", gen)
        return original(self, gen, name)
    return process


def event_tap(rec: SpanRecorder):
    """A kernel event tap charging plain callbacks to their layers.

    Process resumes are already traced through their bodies, and
    kernel-internal callbacks stay in the ``sim`` span; every other
    callback (flow-engine timers, resource grants, ...) gets a span of
    its defining module's layer.  The tap's own work is a ``bench``
    span, so tracing cost is not charged to the kernel.
    """
    cache: dict[object, tuple[str, str]] = {}

    def wrap(cb):
        func = _callback_function(cb)
        key = getattr(func, "__code__", None) or type(func)
        hit = cache.get(key)
        if hit is None:
            layer = layer_of_module(getattr(func, "__module__", None))
            hit = (layer, f"callback:{layer}")
            cache[key] = hit
        layer, boundary = hit
        if layer == "sim":
            return cb

        def traced(event, cb=cb):
            rec.open(layer, boundary)
            try:
                cb(event)
            finally:
                rec.close()
        return traced

    def tap(when, prio, event):
        callbacks = event.callbacks
        if callbacks:
            rec.open("bench", "tap")
            event.callbacks = [wrap(cb) for cb in callbacks]
            rec.close()
    return tap


def install(rec: SpanRecorder):
    """Patch every boundary to record into ``rec``; returns ``restore``."""
    saved: list[tuple[type, str, object]] = []

    def patch(cls, attr, new):
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    for module, cls_name, attr, layer in BOUNDARIES:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        boundary = f"{cls_name}.{attr}"
        if inspect.isgeneratorfunction(original):
            patch(cls, attr, _wrap_gen(rec, layer, boundary, original))
        else:
            patch(cls, attr, _wrap_call(rec, layer, boundary, original))
    for module, cls_name, attr in COUNTED:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        if attr == "process":
            patch(cls, attr, _wrap_process(rec, original))
        else:
            patch(cls, attr, _wrap_count(rec, f"{cls_name}.{attr}",
                                         original))

    def restore() -> None:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
        saved.clear()
    return restore
