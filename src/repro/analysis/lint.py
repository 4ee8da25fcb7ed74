"""Static linting of an :class:`~repro.omp.api.OmpProgram`.

Runs before any simulation — pure inspection of the declared tasks and
the derived dependence graph.  Rules:

``duplicate-dep`` (WARNING)
    One task lists the same buffer more than once in its ``depend``
    clause; redundant items obscure intent and can hide typos.
``conflicting-dep`` (ERROR)
    One task lists a buffer as both ``in`` and ``out`` — OpenMP
    semantics for that is ``inout``, and splitting it produces
    surprising edge construction.  (``OmpProgram.validate()`` rejects
    this outright; the lint reports it without raising.)
``unmatched-exit`` (WARNING)
    ``target exit data`` on a buffer no earlier ``target enter data``
    mapped *and* no earlier target task wrote — the release has nothing
    on any device to release.  (A pure-``out`` producer materializes
    the device copy implicitly, like ``map(alloc)``, so exiting a
    device-written buffer is the normal retrieve idiom.)
``unreachable-task`` (WARNING)
    In a program with observable sinks (``exit data`` or classical
    host tasks), a task from which no sink is reachable: its results
    can never be observed by the host.  Programs with no sinks at all
    (pure timing benchmarks) skip this rule.
``over-serialization`` (INFO)
    A declared dependence edge whose endpoint tasks have no actual
    access conflict (their :attr:`~repro.omp.task.Task.accesses`
    footprints are disjoint or read-only-shared) — the clause
    serializes tasks that could run concurrently (cf. "Detrimental
    task execution patterns", Tuft et al. 2024).  Only fires when a
    task declares an explicit actual-access footprint.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Severity
from repro.omp.task import DepType, Task, TaskKind


def _conflicts(a: Task, b: Task) -> bool:
    """Do the tasks' *actual* footprints conflict on any buffer?"""
    a_reads = {d.buffer.buffer_id for d in a.accesses_or_deps
               if d.type.reads}
    a_writes = {d.buffer.buffer_id for d in a.accesses_or_deps
                if d.type.writes}
    b_reads = {d.buffer.buffer_id for d in b.accesses_or_deps
               if d.type.reads}
    b_writes = {d.buffer.buffer_id for d in b.accesses_or_deps
                if d.type.writes}
    return bool(
        (a_writes & (b_reads | b_writes)) or (b_writes & a_reads)
    )


def lint_program(program) -> list[Finding]:
    """Run every static rule; returns the findings (never raises)."""
    findings: list[Finding] = []
    tasks = list(program.graph.tasks())

    # -- per-task clause rules -------------------------------------------
    for task in tasks:
        seen: dict[int, list[DepType]] = {}
        for dep in task.deps:
            seen.setdefault(dep.buffer.buffer_id, []).append(dep.type)
        for buffer_id, types in seen.items():
            buf = next(d.buffer for d in task.deps
                       if d.buffer.buffer_id == buffer_id)
            if DepType.IN in types and DepType.OUT in types:
                findings.append(Finding(
                    rule="conflicting-dep",
                    severity=Severity.ERROR,
                    message=(
                        f"task {task.name} lists {buf.name} as both "
                        "depend(in) and depend(out); use depend(inout)"
                    ),
                    analyzer="lint",
                    tasks=(task.name,),
                    buffer=buf.name,
                ))
            elif len(types) > 1:
                findings.append(Finding(
                    rule="duplicate-dep",
                    severity=Severity.WARNING,
                    message=(
                        f"task {task.name} lists {buf.name} "
                        f"{len(types)} times in its depend clause"
                    ),
                    analyzer="lint",
                    tasks=(task.name,),
                    buffer=buf.name,
                ))

    # -- enter/exit pairing ----------------------------------------------
    mapped: set[int] = set()
    for task in tasks:  # program order == task_id order
        if task.kind == TaskKind.TARGET_ENTER_DATA:
            mapped.update(b.buffer_id for b in task.buffers)
        elif task.kind == TaskKind.TARGET:
            # A device-side writer creates the device copy implicitly
            # (pure-out allocation) — exiting it later is legitimate.
            mapped.update(b.buffer_id for b in task.writes)
        elif task.kind == TaskKind.TARGET_EXIT_DATA:
            for buf in task.buffers:
                if buf.buffer_id not in mapped:
                    findings.append(Finding(
                        rule="unmatched-exit",
                        severity=Severity.WARNING,
                        message=(
                            f"task {task.name} exits {buf.name}, which "
                            "no earlier target enter data mapped and no "
                            "earlier target task wrote"
                        ),
                        analyzer="lint",
                        tasks=(task.name,),
                        buffer=buf.name,
                    ))

    # -- reachability to observable sinks ---------------------------------
    sinks = [
        t for t in tasks
        if t.kind in (TaskKind.TARGET_EXIT_DATA, TaskKind.CLASSICAL)
    ]
    if sinks:
        observable: set[int] = set()
        for sink in sinks:
            if sink.task_id not in observable:
                observable.add(sink.task_id)
                observable.update(program.graph.ancestors(sink))
        for task in tasks:
            if task.task_id not in observable:
                findings.append(Finding(
                    rule="unreachable-task",
                    severity=Severity.WARNING,
                    message=(
                        f"task {task.name} reaches no exit-data or "
                        "classical sink; its results are never observed"
                    ),
                    analyzer="lint",
                    tasks=(task.name,),
                ))

    # -- over-serialization (perf lint) -----------------------------------
    for pred, succ in program.graph.edges():
        if not pred.accesses and not succ.accesses:
            continue  # declared footprint == actual footprint: no signal
        if not _conflicts(pred, succ):
            findings.append(Finding(
                rule="over-serialization",
                severity=Severity.INFO,
                message=(
                    f"declared dependence {pred.name} → {succ.name} "
                    "orders tasks whose actual accesses never conflict"
                ),
                analyzer="lint",
                tasks=(pred.name, succ.name),
            ))
    return findings
