"""Property tests: WaitForGraph vs networkx on random graphs."""

import networkx as nx
from hypothesis import given, strategies as st

from repro.ldbs.deadlock import DeadlockDetector, WaitForGraph

nodes = st.integers(0, 7).map(lambda n: f"T{n}")
edges = st.lists(st.tuples(nodes, nodes), min_size=0, max_size=25)


def build_both(edge_list):
    graph = WaitForGraph()
    reference = nx.DiGraph()
    reference.add_nodes_from(f"T{n}" for n in range(8))
    for src, dst in edge_list:
        if src != dst:
            graph.add_waits(src, [dst])
            reference.add_edge(src, dst)
    return graph, reference


class TestAgainstNetworkx:
    @given(edges)
    def test_cycle_existence_matches(self, edge_list):
        graph, reference = build_both(edge_list)
        ours = graph.find_cycle() is not None
        theirs = not nx.is_directed_acyclic_graph(reference)
        assert ours == theirs

    @given(edges)
    def test_reported_cycle_is_a_real_cycle(self, edge_list):
        graph, reference = build_both(edge_list)
        cycle = graph.find_cycle()
        if cycle is None:
            return
        assert len(cycle) >= 2
        # every consecutive pair (wrapping) is an edge of the graph
        for index, node in enumerate(cycle):
            successor = cycle[(index + 1) % len(cycle)]
            assert reference.has_edge(node, successor), \
                f"{node} -> {successor} not an edge"

    @given(edges, nodes)
    def test_start_scoped_search_sound(self, edge_list, start):
        """A cycle reported from `start` must be reachable from it."""
        graph, reference = build_both(edge_list)
        cycle = graph.find_cycle(start=start)
        if cycle is None:
            return
        reachable = nx.descendants(reference, start) | {start}
        assert set(cycle) <= reachable

    @given(edges)
    def test_remove_node_equivalent(self, edge_list):
        graph, reference = build_both(edge_list)
        graph.remove_node("T0")
        reference.remove_node("T0")
        ours = graph.find_cycle() is not None
        theirs = not nx.is_directed_acyclic_graph(reference)
        assert ours == theirs


def reference_cycle(edges, start):
    """The detector's search without memory: a fresh sorted DFS per root."""
    roots = [start] if start is not None else sorted(edges)
    for root in roots:
        path, on_path, done = [root], {root}, set()
        stack = [iter(sorted(edges.get(root, ())))]
        while stack:
            for child in stack[-1]:
                if child in on_path:
                    return tuple(path[path.index(child):])
                if child in done:
                    continue
                path.append(child)
                on_path.add(child)
                stack.append(iter(sorted(edges.get(child, ()))))
                break
            else:
                stack.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
    return None


holder_lists = st.lists(nodes, max_size=4)
operations = st.lists(st.one_of(
    st.tuples(st.just("add"), nodes, holder_lists),
    st.tuples(st.just("replace"), nodes, holder_lists),
    st.tuples(st.just("clear"), nodes),
    st.tuples(st.just("remove"), nodes),
    st.tuples(st.just("find"), st.one_of(st.none(), nodes)),
), max_size=60)


class TestCleanSet:
    """The graph-level clean set must never change a search's answer."""

    @staticmethod
    def apply(graph, model, op):
        kind, node = op[0], op[1]
        if kind == "add":
            graph.add_waits(node, op[2])
            model.setdefault(node, set()).update(
                h for h in op[2] if h != node)
        elif kind == "replace":
            graph.replace_waits(node, op[2])
            model[node] = {h for h in op[2] if h != node}
        elif kind == "clear":
            graph.clear_waits(node)
            model.pop(node, None)
        else:
            graph.remove_node(node)
            model.pop(node, None)
            for targets in model.values():
                targets.discard(node)
        for waiter in [w for w, targets in model.items() if not targets]:
            del model[waiter]

    @staticmethod
    def check_invariants(graph, model):
        assert graph._edges == model
        # _preds mirrors _edges, with no empty entries
        forward = {(w, t) for w, targets in graph._edges.items()
                   for t in targets}
        backward = {(w, t) for t, waiters in graph._preds.items()
                    for w in waiters}
        assert forward == backward
        assert all(graph._preds.values())
        # closed under successors
        for node in graph._clean:
            assert graph._edges.get(node, set()) <= graph._clean, node
        # every clean node reaches no cycle
        reference = nx.DiGraph()
        reference.add_edges_from(forward)
        on_cycle = {n for component in
                    nx.strongly_connected_components(reference)
                    if len(component) > 1 for n in component}
        for node in graph._clean:
            if node in reference:
                reachable = nx.descendants(reference, node) | {node}
                assert not reachable & on_cycle, node

    @given(operations)
    def test_search_matches_fresh_sorted_dfs(self, ops):
        graph, model = WaitForGraph(), {}
        for op in ops:
            if op[0] == "find":
                expected = reference_cycle(model, op[1])
                assert graph.find_cycle(start=op[1]) == expected
            else:
                self.apply(graph, model, op)
            self.check_invariants(graph, model)

    @given(operations, nodes)
    def test_repeated_search_is_stable(self, ops, start):
        """A second search, now served from the clean set, agrees."""
        graph, model = WaitForGraph(), {}
        for op in ops:
            if op[0] != "find":
                self.apply(graph, model, op)
            graph.find_cycle(start=start)
        expected = reference_cycle(model, start)
        assert graph.find_cycle(start=start) == expected
        assert graph.find_cycle(start=start) == expected
        assert graph.find_cycle() == reference_cycle(model, None)
        self.check_invariants(graph, model)


detector_ops = st.lists(st.one_of(
    st.tuples(st.just("wait"), nodes, holder_lists),
    st.tuples(st.just("refresh"), nodes, holder_lists),
    st.tuples(st.just("stop"), nodes),
    st.tuples(st.just("finish"), nodes),
), max_size=60)


class TestRefreshSkip:
    """``DeadlockDetector.refresh_wait`` skips the search when the edge
    set is unchanged; with every insertion searched and every victim
    removed, no cycle is left for that search to find."""

    @staticmethod
    def resolve(detector, waiter, resolution):
        # the admission layer's loop: remove each victim, re-search
        # from the waiter until it rests or is itself the victim.
        while resolution is not None:
            detector.on_finished(resolution.victim)
            if resolution.victim == waiter:
                return
            resolution = detector.on_wait(waiter, ())

    @given(detector_ops)
    def test_unchanged_refresh_never_finds_a_cycle(self, ops):
        detector = DeadlockDetector()
        graph = detector.graph
        for op in ops:
            kind, node = op[0], op[1]
            if kind == "wait":
                self.resolve(detector, node, detector.on_wait(node, op[2]))
            elif kind == "refresh":
                before = graph.waits_of(node)
                resolution = detector.refresh_wait(node, op[2])
                if graph.waits_of(node) == before:
                    assert resolution is None
                    assert reference_cycle(graph._edges, node) is None
                self.resolve(detector, node, resolution)
            elif kind == "stop":
                detector.on_stop_waiting(node)
            else:
                detector.on_finished(node)
            reference = nx.DiGraph()
            reference.add_edges_from(graph.edges())
            assert nx.is_directed_acyclic_graph(reference)
