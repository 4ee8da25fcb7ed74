"""Property-based tests for the vector-clock race detector.

The detector is driven directly (no simulator): seeded random task
graphs are replayed serially in program order — a valid topological
order, since dependence edges always point forward — feeding
``task_begin`` / ``kernel`` / ``task_end`` exactly like the runtime
does.  Two properties pin down soundness and precision:

* a program whose ``depend`` clauses are complete produces **zero**
  race findings (no false positives);
* dropping any one dependence edge is detected **exactly** when the
  graph no longer orders a conflicting pair — the reported (pair,
  buffer) set equals the ground truth computed from the transitive
  closure (no false positives *and* no false negatives).
"""

from types import SimpleNamespace

import networkx as nx
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import RaceDetector
from repro.omp import DependenceAnalyzer, TaskGraph
from repro.omp.task import Buffer, Dep, DepType, Task, TaskKind

from tests.property.nx_oracle import nx_oracle

dep_types = st.sampled_from([DepType.IN, DepType.OUT, DepType.INOUT])
clause = st.tuples(st.integers(min_value=0, max_value=3), dep_types)
program_strategy = st.lists(
    st.lists(clause, min_size=1, max_size=3, unique_by=lambda c: c[0]),
    min_size=2,
    max_size=12,
)


def build_tasks(program_clauses):
    buffers = [Buffer(100, name=f"b{i}") for i in range(4)]
    tasks = []
    for task_id, clauses in enumerate(program_clauses):
        deps = tuple(Dep(buffers[bi], dt) for bi, dt in clauses)
        tasks.append(Task(task_id=task_id, kind=TaskKind.TARGET, deps=deps))
    return buffers, tasks


def assemble(tasks, drop_edge=None):
    """Build the graph from the dependence analyzer, optionally
    omitting one edge (a forgotten ``depend`` clause)."""
    analyzer = DependenceAnalyzer()
    graph = TaskGraph()
    for task in tasks:
        graph.add_task(task)
        for pred, succ in analyzer.edges_for(task):
            if drop_edge == (pred.task_id, succ.task_id):
                continue
            graph.add_edge(pred, succ)
    return graph


def replay(graph):
    detector = RaceDetector()
    detector.program_begin(SimpleNamespace(name="prop", graph=graph))
    for task in sorted(graph.tasks(), key=lambda t: t.task_id):
        detector.task_begin(task)
        detector.kernel(task, 1, detector.ctx_token(task))
        detector.task_end(task)
    return detector.finalize()


def conflicting_pairs(tasks):
    """Ground truth: (earlier, later, buffer) triples where the actual
    footprints conflict (shared buffer, at least one write)."""
    triples = []
    for i, a in enumerate(tasks):
        for b in tasks[i + 1:]:
            for buf in a.touched:
                t1 = a.dep_type_for(buf)
                t2 = b.dep_type_for(buf)
                if t1 is None or t2 is None:
                    continue
                if t1.writes or t2.writes:
                    triples.append((a, b, buf))
    return triples


@given(program_strategy)
@settings(deadline=None, max_examples=60)
def test_complete_dependences_never_race(program_clauses):
    _, tasks = build_tasks(program_clauses)
    findings = replay(assemble(tasks))
    assert [f for f in findings if f.rule == "missing-dep-race"] == []


@given(program_strategy, st.data())
@settings(deadline=None, max_examples=60)
def test_dropped_edge_detected_iff_pair_left_unordered(
    program_clauses, data
):
    _, tasks = build_tasks(program_clauses)
    edges = sorted(
        {(p.task_id, s.task_id) for p, s in assemble(tasks).edges()}
    )
    assume(edges)
    dropped = data.draw(st.sampled_from(edges), label="dropped edge")

    graph = assemble(tasks, drop_edge=dropped)
    closure = nx.transitive_closure_dag(nx_oracle(graph))

    expected = {
        (frozenset((a.name, b.name)), buf.name)
        for a, b, buf in conflicting_pairs(tasks)
        if not closure.has_edge(a.task_id, b.task_id)
    }
    actual = {
        (frozenset(f.tasks), f.buffer)
        for f in replay(graph)
        if f.rule == "missing-dep-race"
    }
    assert actual == expected
