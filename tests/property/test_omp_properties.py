"""Property-based tests for dependence analysis and task graphs."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.omp import Buffer, DependenceAnalyzer, OmpProgram, TaskGraph
from repro.omp.task import Dep, DepType, Task, TaskKind

from tests.property.nx_oracle import nx_oracle

# A program is a list of tasks; each task is a list of (buffer_index,
# dep_type) clause items over a small pool of buffers.
dep_types = st.sampled_from([DepType.IN, DepType.OUT, DepType.INOUT])
clause = st.tuples(st.integers(min_value=0, max_value=4), dep_types)
program_strategy = st.lists(
    st.lists(clause, min_size=1, max_size=4), min_size=1, max_size=25
)


def build(program_clauses):
    buffers = [Buffer(100, name=f"b{i}") for i in range(5)]
    analyzer = DependenceAnalyzer()
    graph = TaskGraph()
    tasks = []
    for task_id, clauses in enumerate(program_clauses):
        deps = tuple(Dep(buffers[bi], dt) for bi, dt in clauses)
        task = Task(task_id=task_id, kind=TaskKind.TARGET, deps=deps)
        tasks.append(task)
        graph.add_task(task)
        for pred, succ in analyzer.edges_for(task):
            graph.add_edge(pred, succ)
    return buffers, tasks, graph


@given(program_strategy)
@settings(deadline=None, max_examples=60)
def test_dependence_graph_is_acyclic(program_clauses):
    _, _, graph = build(program_clauses)
    graph.validate()  # raises on a cycle


@given(program_strategy)
@settings(deadline=None, max_examples=60)
def test_edges_point_forward_in_program_order(program_clauses):
    _, _, graph = build(program_clauses)
    for pred, succ in graph.edges():
        assert pred.task_id < succ.task_id


@given(program_strategy)
@settings(deadline=None, max_examples=60)
def test_conflicting_accesses_are_ordered(program_clauses):
    """Any two tasks where at least one writes a shared buffer must be
    connected by a directed path (the fundamental OpenMP guarantee)."""
    _, tasks, graph = build(program_clauses)
    g = nx_oracle(graph)
    closure = nx.transitive_closure_dag(g)
    for i, earlier in enumerate(tasks):
        for later in tasks[i + 1:]:
            conflict = False
            for b in earlier.touched:
                t1 = earlier.dep_type_for(b)
                t2 = later.dep_type_for(b)
                if t1 is None or t2 is None:
                    continue
                if t1.writes or t2.writes:
                    conflict = True
                    break
            if conflict:
                assert closure.has_edge(earlier.task_id, later.task_id), (
                    f"{earlier.name} and {later.name} conflict but are "
                    "unordered"
                )


@given(program_strategy)
@settings(deadline=None, max_examples=60)
def test_readers_between_writes_not_serialized(program_clauses):
    """Two pure readers of the same buffer (with no write in between)
    must NOT have a direct edge (reads may run concurrently)."""
    _, tasks, graph = build(program_clauses)
    g = nx_oracle(graph)
    # Track, per buffer, groups of consecutive readers.
    last_writer: dict[int, int] = {}
    readers_since: dict[int, list[int]] = {}
    for task in tasks:
        for dep in task.deps:
            bid = dep.buffer.buffer_id
            if dep.type == DepType.IN and task.dep_type_for(dep.buffer) == DepType.IN:
                for other in readers_since.get(bid, []):
                    # No direct edge caused *by this buffer alone* —
                    # there may still be an edge via a different buffer,
                    # so only assert when the tasks share just this one.
                    shared = {
                        b.buffer_id for b in task.touched
                    } & {
                        b.buffer_id
                        for b in tasks[other].touched
                    }
                    if shared == {bid}:
                        assert not g.has_edge(other, task.task_id)
                readers_since.setdefault(bid, []).append(task.task_id)
        for dep in task.deps:
            if dep.type.writes:
                readers_since[dep.buffer.buffer_id] = []


@given(program_strategy)
@settings(deadline=None, max_examples=40)
def test_topological_order_respects_edges(program_clauses):
    _, _, graph = build(program_clauses)
    order = {t.task_id: i for i, t in enumerate(graph.topological_order())}
    for pred, succ in graph.edges():
        assert order[pred.task_id] < order[succ.task_id]


@given(program_strategy)
@settings(deadline=None, max_examples=30)
def test_host_runtime_executes_every_task_once(program_clauses):
    from repro.omp.host import HostRuntime

    prog = OmpProgram()
    buffers = [prog.buffer(8, name=f"b{i}") for i in range(5)]
    counts = {}
    for task_id, clauses in enumerate(program_clauses):
        # validate() rejects in+out on one buffer (the legal spelling is
        # inout), so coalesce the random clauses per buffer first.
        per_buf: dict[int, DepType] = {}
        for bi, dt in clauses:
            prev = per_buf.get(bi)
            per_buf[bi] = dt if prev is None or prev == dt else DepType.INOUT
        deps = [Dep(buffers[bi], dt) for bi, dt in per_buf.items()]

        def body(*args, tid=task_id):
            counts[tid] = counts.get(tid, 0) + 1

        prog.target(fn=body, depend=deps, cost=0.001)
    result = HostRuntime(num_threads=3).run(prog)
    assert result.num_tasks == len(program_clauses)
    assert all(counts.get(tid, 0) == 1 for tid in range(len(program_clauses)))
