"""networkx as a test-only oracle for :class:`repro.omp.TaskGraph`."""

from __future__ import annotations

import networkx as nx

from repro.omp import TaskGraph


def nx_oracle(graph: TaskGraph) -> nx.DiGraph:
    """A networkx copy of ``graph``: every task id, then every edge."""
    g = nx.DiGraph()
    g.add_nodes_from(t.task_id for t in graph.tasks())
    g.add_edges_from((u.task_id, v.task_id) for u, v in graph.edges())
    return g
