"""The task dependency graph consumed by schedulers and runtimes."""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.omp.task import Task


class TaskGraph:
    """A DAG of :class:`Task` nodes with dependence edges.

    Nodes are task ids; the graph is two insertion-ordered adjacency
    dicts (``id -> {neighbour id: None}``), so nodes, successors and
    edges iterate in insertion order and a duplicate edge is a no-op.
    """

    def __init__(self):
        self._tasks: dict[int, Task] = {}
        self._succ: dict[int, dict[int, None]] = {}
        self._pred: dict[int, dict[int, None]] = {}

    # -- construction ----------------------------------------------------
    def add_task(self, task: Task) -> None:
        tid = task.task_id
        if tid in self._tasks:
            raise ValueError(f"duplicate task id {tid}")
        self._tasks[tid] = task
        self._succ[tid] = {}
        self._pred[tid] = {}

    def add_edge(self, pred: Task, succ: Task) -> None:
        u, v = pred.task_id, succ.task_id
        if u not in self._tasks or v not in self._tasks:
            raise ValueError("both endpoints must be added before the edge")
        if u == v:
            raise ValueError("self-dependence is not allowed")
        self._succ[u][v] = None  # a duplicate keeps its first position
        self._pred[v][u] = None

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task: Task) -> bool:
        return task.task_id in self._tasks

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def task(self, task_id: int) -> Task:
        return self._tasks[task_id]

    def tasks(self) -> Iterator[Task]:
        """Tasks in insertion (program) order."""
        return iter(self._tasks.values())

    def predecessors(self, task: Task) -> list[Task]:
        return [self._tasks[t] for t in sorted(self._pred[task.task_id])]

    def successors(self, task: Task) -> list[Task]:
        return [self._tasks[t] for t in sorted(self._succ[task.task_id])]

    def in_degree(self, task: Task) -> int:
        return len(self._pred[task.task_id])

    def roots(self) -> list[Task]:
        return [t for t in self.tasks() if self.in_degree(t) == 0]

    def ancestors(self, task: Task) -> set[int]:
        """Ids of every task with a path to ``task`` (itself excluded)."""
        seen: set[int] = set()
        stack = [task.task_id]
        while stack:
            for tid in self._pred[stack.pop()]:
                if tid not in seen:
                    seen.add(tid)
                    stack.append(tid)
        return seen

    def validate(self) -> None:
        """Raise if the graph has a cycle (dependences must form a DAG)."""
        self.topological_order()

    def topological_order(self) -> list[Task]:
        """Deterministic topological order (ties broken by task id): a
        heap-based Kahn sort, smallest ready id first."""
        indeg = {tid: len(p) for tid, p in self._pred.items()}
        ready = [tid for tid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[Task] = []
        while ready:
            tid = heapq.heappop(ready)
            order.append(self._tasks[tid])
            for nxt in self._succ[tid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) < len(indeg):
            # Every task left over waits on another left-over one, so a
            # walk over left-over predecessors must revisit a task.
            path = [min(t for t, d in indeg.items() if d)]
            while path.count(path[-1]) < 2:
                path.append(min(p for p in self._pred[path[-1]] if indeg[p]))
            loop = path[path.index(path[-1]):][::-1]
            raise ValueError(
                f"task graph has a cycle: {list(zip(loop, loop[1:]))}"
            )
        return order

    def critical_path_cost(self) -> float:
        """Length of the longest compute-cost path (zero-cost comms)."""
        best: dict[int, float] = {}
        for task in self.topological_order():
            best[task.task_id] = task.cost + max(
                (best[p] for p in self._pred[task.task_id]), default=0.0)
        return max(best.values(), default=0.0)

    def total_cost(self) -> float:
        return sum(t.cost for t in self.tasks())

    def edges(self) -> Iterable[tuple[Task, Task]]:
        """Edges node by node, each node's successors in insertion order."""
        tasks = self._tasks
        for u, out in self._succ.items():
            for v in out:
                yield tasks[u], tasks[v]
