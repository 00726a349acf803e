"""Deadlock handling: wait-for graphs and timeout policies.

The paper (Section VII) notes its model adds no deadlock conditions
beyond 2PL and that "classical approaches as timeout or wait for graphs
techniques can be used".  Both are implemented here and benchmarked
against each other in ``benchmarks/test_ablation_deadlock.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable


class VictimPolicy(enum.Enum):
    """How to pick the victim of a detected deadlock cycle."""

    #: Abort the youngest transaction (largest start timestamp) — cheap to
    #: redo, the classic choice.
    YOUNGEST = "youngest"
    #: Abort the oldest transaction.
    OLDEST = "oldest"
    #: Abort the transaction holding the fewest locks (least work lost).
    FEWEST_LOCKS = "fewest_locks"


class WaitForGraph:
    """A directed graph of ``waiter -> holder`` edges with cycle detection.

    Edges are maintained incrementally by the transactional layer, with
    their reverse in ``_preds``.  The graph also keeps ``_clean``: nodes
    proven to reach no cycle.  The set is closed under reachability —
    every target of a clean node is clean — so edge removals keep it
    valid, and an edge inserted from a clean node voids only that node
    and its clean ancestors.  A search skips clean nodes and files every
    node it finishes as clean, so a check costs what changed since the
    last one rather than O(V + E), and finds the same first cycle a
    fresh sorted DFS would: a clean node reaches neither the search path
    nor a cycle.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        #: holder -> the waiters with an edge into it (mirrors _edges).
        self._preds: dict[str, set[str]] = {}
        #: node -> its targets as a sorted tuple (the DFS visit order);
        #: filled lazily, dropped whenever the node's edge set changes.
        self._sorted: dict[str, tuple[str, ...]] = {}
        #: nodes proven to reach no cycle, closed under successors.
        self._clean: set[str] = set()

    # -- edge maintenance ----------------------------------------------------

    def add_waits(self, waiter: str, holders: Iterable[str]) -> None:
        targets = {h for h in holders if h != waiter}
        current = self._edges.get(waiter)
        if current is not None:
            targets -= current
        if not targets:
            return
        if current is None:
            self._edges[waiter] = targets
        else:
            current |= targets
        self._link(waiter, targets)

    def replace_waits(self, waiter: str, holders: Iterable[str]) -> None:
        """Set ``waiter``'s outgoing edges to exactly ``holders`` (minus
        any self-loop)."""
        targets = {h for h in holders if h != waiter}
        current = self._edges.get(waiter, set())
        if current == targets:
            return
        self._unlink(waiter, current - targets)
        if targets:
            self._edges[waiter] = targets
        else:
            del self._edges[waiter]
        self._sorted.pop(waiter, None)
        self._link(waiter, targets - current)

    def clear_waits(self, waiter: str) -> None:
        """Remove all outgoing edges of ``waiter`` (it stopped waiting)."""
        self._unlink(waiter, self._edges.pop(waiter, ()))
        self._sorted.pop(waiter, None)

    def remove_node(self, node: str) -> None:
        """Remove a transaction entirely (commit/abort); O(degree)."""
        self.clear_waits(node)
        for waiter in self._preds.pop(node, ()):
            targets = self._edges[waiter]
            targets.discard(node)
            if not targets:
                del self._edges[waiter]
            self._sorted.pop(waiter, None)
        self._clean.discard(node)

    def _link(self, waiter: str, targets: set[str]) -> None:
        """Record fresh edges ``waiter -> targets`` (already in _edges)."""
        if not targets:
            return
        preds = self._preds
        for target in targets:
            waiters = preds.get(target)
            if waiters is None:
                preds[target] = {waiter}
            else:
                waiters.add(waiter)
        self._sorted.pop(waiter, None)
        clean = self._clean
        if waiter in clean:
            # the new edges may lead to a cycle: void the waiter and
            # every clean node that reaches it.  Clean ancestors are
            # reached through clean nodes only (closure), so the walk
            # never leaves the clean set.
            clean.discard(waiter)
            stack = [waiter]
            while stack:
                voided = clean.intersection(preds.get(stack.pop(), ()))
                if voided:
                    clean -= voided
                    stack.extend(voided)

    def _unlink(self, waiter: str, targets: Iterable[str]) -> None:
        """Drop the reverse entries of removed edges ``waiter -> targets``."""
        preds = self._preds
        for target in targets:
            waiters = preds[target]
            waiters.discard(waiter)
            if not waiters:
                del preds[target]

    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple((src, dst)
                     for src, targets in self._edges.items()
                     for dst in sorted(targets))

    def waits_of(self, waiter: str) -> frozenset[str]:
        return frozenset(self._edges.get(waiter, ()))

    # -- cycle detection -----------------------------------------------------

    def find_cycle(self, start: str | None = None) -> tuple[str, ...] | None:
        """Return one cycle as a node tuple, or None.

        If ``start`` is given only cycles reachable from it are searched
        (sufficient after adding edges from ``start``); otherwise the whole
        graph is scanned.
        """
        roots = [start] if start is not None else sorted(self._edges)
        for root in roots:
            cycle = self._cycle_from(root)
            if cycle is not None:
                return cycle
        return None

    def _adjacency(self, node: str) -> tuple[str, ...]:
        """Sorted targets of ``node`` (the deterministic DFS order)."""
        adj = self._sorted.get(node)
        if adj is None:
            adj = tuple(sorted(self._edges.get(node, ())))
            self._sorted[node] = adj
        return adj

    def _cycle_from(self, root: str) -> tuple[str, ...] | None:
        # Iterative DFS with an explicit path stack; clean nodes play
        # the part of the finished colour and outlive the search.
        clean = self._clean
        if root in clean:
            return None
        path: list[str] = [root]
        on_path: set[str] = {root}
        stack: list[Iterable[str]] = [iter(self._adjacency(root))]
        while stack:
            for child in stack[-1]:
                if child in clean:
                    continue
                if child in on_path:
                    # found a cycle: slice the path from child onwards
                    return tuple(path[path.index(child):])
                path.append(child)
                on_path.add(child)
                stack.append(iter(self._adjacency(child)))
                break
            else:
                stack.pop()
                node = path.pop()
                on_path.discard(node)
                clean.add(node)
        return None


@dataclass
class DeadlockResolution:
    """Outcome of a detection pass: the victim and the cycle it broke."""

    victim: str
    cycle: tuple[str, ...]


class DeadlockDetector:
    """Combines a :class:`WaitForGraph` with a victim-selection policy."""

    def __init__(self, policy: VictimPolicy = VictimPolicy.YOUNGEST,
                 start_time_of: Callable[[str], float] | None = None,
                 lock_count_of: Callable[[str], int] | None = None) -> None:
        self.graph = WaitForGraph()
        self.policy = policy
        self._start_time_of = start_time_of or (lambda txn: 0.0)
        self._lock_count_of = lock_count_of or (lambda txn: 0)
        self.detections = 0

    def on_wait(self, waiter: str,
                holders: Iterable[str]) -> DeadlockResolution | None:
        """Record a wait edge and check for a cycle through ``waiter``."""
        self.graph.add_waits(waiter, holders)
        return self._detect(waiter)

    def refresh_wait(self, waiter: str,
                     holders: Iterable[str]) -> DeadlockResolution | None:
        """Replace ``waiter``'s edges and re-check — the re-police path.

        When one unlock forces a sweep over many untouched waiters, each
        is still in the graph's clean set and its search returns at once.
        """
        self.graph.replace_waits(waiter, holders)
        return self._detect(waiter)

    def _detect(self, waiter: str) -> DeadlockResolution | None:
        cycle = self.graph.find_cycle(start=waiter)
        if cycle is None:
            return None
        self.detections += 1
        victim = self._choose_victim(cycle)
        return DeadlockResolution(victim=victim, cycle=cycle)

    def on_stop_waiting(self, waiter: str) -> None:
        self.graph.clear_waits(waiter)

    def on_finished(self, txn_id: str) -> None:
        self.graph.remove_node(txn_id)

    def _choose_victim(self, cycle: tuple[str, ...]) -> str:
        if self.policy is VictimPolicy.YOUNGEST:
            return max(cycle, key=lambda t: (self._start_time_of(t), t))
        if self.policy is VictimPolicy.OLDEST:
            return min(cycle, key=lambda t: (self._start_time_of(t), t))
        return min(cycle, key=lambda t: (self._lock_count_of(t), t))


class TimeoutPolicy:
    """Deadlock handling by lock-wait timeout.

    A transaction waiting longer than ``timeout`` simulated seconds is
    aborted.  Cheap (no graph) but aborts innocents under contention;
    the ablation bench quantifies the difference.
    """

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        #: txn id -> virtual time the wait started
        self._wait_started: dict[str, float] = {}

    def on_wait(self, txn_id: str, now: float) -> None:
        self._wait_started.setdefault(txn_id, now)

    def on_stop_waiting(self, txn_id: str) -> None:
        self._wait_started.pop(txn_id, None)

    def expired(self, now: float) -> tuple[str, ...]:
        """Transactions whose wait exceeded the timeout at time ``now``."""
        return tuple(sorted(
            txn for txn, started in self._wait_started.items()
            if now - started >= self.timeout))

    def deadline_of(self, txn_id: str) -> float | None:
        started = self._wait_started.get(txn_id)
        return None if started is None else started + self.timeout
