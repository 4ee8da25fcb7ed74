"""TaskGraph and the MPI wait-for cycle search against networkx.

networkx is a test-only dependency: these tests use it as the oracle
for the orders :class:`~repro.omp.TaskGraph` promises (insertion-ordered
nodes and edges, sorted neighbours, smallest-id-first topological
order) and for the MPI checker's simple-cycle enumeration.
"""

from __future__ import annotations

import ast
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mpicheck import _simple_cycles
from repro.omp import Task, TaskGraph, TaskKind


@st.composite
def dags(draw):
    """Task ids in a random insertion order and forward edges (in id
    order) in a random order, duplicates included."""
    n = draw(st.integers(min_value=1, max_value=16))
    ids = draw(st.permutations(range(100, 100 + n)))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: p[0] < p[1]
    )
    edges = draw(st.lists(pairs, max_size=40)) if n > 1 else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    return ids, edges


def build(ids, edges):
    graph, oracle = TaskGraph(), nx.DiGraph()
    tasks = {tid: Task(task_id=tid, kind=TaskKind.TARGET) for tid in ids}
    for tid in ids:
        graph.add_task(tasks[tid])
        oracle.add_node(tid)
    for u, v in edges:
        graph.add_edge(tasks[u], tasks[v])
        oracle.add_edge(u, v)
    return graph, oracle, tasks


def ids_of(tasks) -> list[int]:
    return [t.task_id for t in tasks]


@given(dags())
@settings(deadline=None, max_examples=150)
def test_graph_matches_networkx(dag):
    graph, oracle, tasks = build(*dag)
    assert ids_of(graph.tasks()) == list(oracle.nodes())
    assert [(u.task_id, v.task_id) for u, v in graph.edges()] == list(
        oracle.edges()
    )
    assert graph.num_edges == oracle.number_of_edges()
    for tid, task in tasks.items():
        assert ids_of(graph.predecessors(task)) == sorted(
            oracle.predecessors(tid))
        assert ids_of(graph.successors(task)) == sorted(oracle.successors(tid))
        assert graph.in_degree(task) == oracle.in_degree(tid)
        assert graph.ancestors(task) == nx.ancestors(oracle, tid)
    assert ids_of(graph.topological_order()) == list(
        nx.lexicographical_topological_sort(oracle)
    )
    assert ids_of(graph.roots()) == [
        tid for tid in oracle.nodes() if oracle.in_degree(tid) == 0
    ]
    graph.validate()


@given(dags(), st.data())
@settings(deadline=None, max_examples=100)
def test_cycles_are_rejected(dag, data):
    ids, edges = dag
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges), label="closed edge")
    graph, oracle, tasks = build(ids, edges + [(v, u)])
    assert not nx.is_directed_acyclic_graph(oracle)
    with pytest.raises(ValueError, match="task graph has a cycle") as err:
        graph.validate()
    with pytest.raises(ValueError, match="task graph has a cycle"):
        graph.topological_order()
    # The reported cycle is a real closed walk over graph edges.
    cycle = ast.literal_eval(str(err.value).split(": ", 1)[1])
    assert all(oracle.has_edge(a, b) for a, b in cycle)
    assert all(cycle[i][1] == cycle[(i + 1) % len(cycle)][0]
               for i in range(len(cycle)))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                max_size=14))
@settings(deadline=None, max_examples=200)
def test_simple_cycles_match_networkx(edges):
    oracle = nx.DiGraph(edges)

    def rotated(cycle):
        i = cycle.index(min(cycle))
        return cycle[i:] + cycle[:i]

    assert _simple_cycles(set(edges)) == sorted(
        rotated(c) for c in nx.simple_cycles(oracle)
    )


@pytest.mark.parametrize("runtime", ["OMPCRuntime", "FaultTolerantRuntime"])
def test_launch_never_imports_networkx(runtime):
    code = (
        "import sys\n"
        f"from repro.core import OMPCConfig, {runtime} as Runtime\n"
        "from repro.cluster import ClusterSpec\n"
        "from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec\n"
        "from repro.taskbench.bench import build_omp_program\n"
        "spec = TaskBenchSpec.with_ccr(8, 2, Pattern.STENCIL_1D,\n"
        "    KernelSpec.paper_50ms(), 1.0, 100e9 / 8.0)\n"
        "Runtime(ClusterSpec(num_nodes=4), OMPCConfig(analysis=True))"
        ".run(build_omp_program(spec))\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
