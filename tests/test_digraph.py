"""Unit tests for the port-labelled graph data structure."""

from __future__ import annotations

import pytest

from oracles import from_networkx, to_networkx
from repro.graphs.digraph import Arc, PortLabeledGraph
from repro.graphs import generators


class TestConstruction:
    def test_empty_graph(self):
        g = PortLabeledGraph(0)
        assert g.n == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_single_vertex(self):
        g = PortLabeledGraph(1)
        assert g.n == 1
        assert g.degree(0) == 0

    def test_add_edge_creates_symmetric_arcs(self):
        g = PortLabeledGraph(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        assert g.num_edges == 2

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            PortLabeledGraph(-1)

    def test_self_loop_rejected(self):
        g = PortLabeledGraph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        g = PortLabeledGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edge(1, 0)

    def test_out_of_range_vertex_rejected(self):
        g = PortLabeledGraph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 2)

    def test_add_vertex_extends_graph(self):
        g = PortLabeledGraph(2, [(0, 1)])
        new = g.add_vertex()
        assert new == 2
        assert g.n == 3
        g.add_edge(1, new)
        assert g.has_edge(1, 2)

    def test_len_matches_n(self):
        g = PortLabeledGraph(5)
        assert len(g) == 5


class TestPortLabelling:
    def test_insertion_order_ports(self):
        g = PortLabeledGraph(4)
        g.add_edge(0, 2)
        g.add_edge(0, 1)
        g.add_edge(0, 3)
        assert g.port(0, 2) == 1
        assert g.port(0, 1) == 2
        assert g.port(0, 3) == 3

    def test_ports_are_one_to_degree(self):
        g = generators.random_connected_graph(12, extra_edge_prob=0.3, seed=1)
        for v in g.vertices():
            assert g.ports(v) == list(range(1, g.degree(v) + 1))

    def test_neighbor_at_port_roundtrip(self):
        g = generators.petersen_graph()
        for v in g.vertices():
            for u in g.neighbors(v):
                assert g.neighbor_at_port(v, g.port(v, u)) == u

    def test_missing_arc_raises_keyerror(self):
        g = PortLabeledGraph(3, [(0, 1)])
        with pytest.raises(KeyError):
            g.port(0, 2)
        with pytest.raises(KeyError):
            g.neighbor_at_port(0, 5)

    def test_set_port_labeling(self):
        g = PortLabeledGraph(3, [(0, 1), (0, 2)])
        g.set_port_labeling(0, {1: 2, 2: 1})
        assert g.port(0, 1) == 2
        assert g.port(0, 2) == 1

    def test_set_port_labeling_rejects_bad_mapping(self):
        g = PortLabeledGraph(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            g.set_port_labeling(0, {1: 1})  # missing neighbour
        with pytest.raises(ValueError):
            g.set_port_labeling(0, {1: 1, 2: 3})  # port out of range
        with pytest.raises(ValueError):
            g.set_port_labeling(0, {1: 1, 2: 1})  # not a bijection

    def test_relabel_ports_permutation(self):
        g = PortLabeledGraph(4, [(0, 1), (0, 2), (0, 3)])
        g.relabel_ports(0, {1: 3, 2: 1, 3: 2})
        assert g.neighbor_at_port(0, 3) == 1
        assert g.neighbor_at_port(0, 1) == 2
        assert g.neighbor_at_port(0, 2) == 3

    def test_relabel_ports_rejects_non_permutation(self):
        g = PortLabeledGraph(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            g.relabel_ports(0, {1: 1, 2: 3})

    def test_sort_ports_by_neighbor(self):
        g = PortLabeledGraph(4)
        g.add_edge(0, 3)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.sort_ports_by_neighbor()
        assert g.port(0, 1) == 1
        assert g.port(0, 2) == 2
        assert g.port(0, 3) == 3

    def test_check_port_consistency_passes_on_generators(self):
        for g in [generators.petersen_graph(), generators.hypercube(3), generators.grid_2d(3, 3)]:
            g.check_port_consistency()


class TestAccessors:
    def test_degrees_and_max_degree(self):
        g = generators.star_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))
        assert g.max_degree() == 5
        assert g.degrees() == [5, 1, 1, 1, 1, 1]

    def test_neighbors_in_port_order(self):
        g = PortLabeledGraph(4)
        g.add_edge(0, 3)
        g.add_edge(0, 1)
        assert g.neighbors(0) == [3, 1]

    def test_edges_iteration_unique(self):
        g = generators.complete_graph(5)
        edges = list(g.edges())
        assert len(edges) == 10
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == 10

    def test_arcs_count_twice_edges(self):
        g = generators.cycle_graph(6)
        arcs = list(g.arcs())
        assert len(arcs) == 2 * g.num_edges
        assert all(isinstance(a, Arc) for a in arcs)

    def test_out_arcs_sorted_by_port(self):
        g = generators.complete_graph(4)
        for v in g.vertices():
            ports = [a.port for a in g.out_arcs(v)]
            assert ports == sorted(ports)


class TestCopyEqualityConversion:
    def test_copy_is_independent(self):
        g = generators.cycle_graph(5)
        h = g.copy()
        assert g == h
        h.add_vertex()
        assert g.n == 5 and h.n == 6

    def test_equality_considers_port_labels(self):
        g = PortLabeledGraph(3, [(0, 1), (0, 2)])
        h = PortLabeledGraph(3, [(0, 1), (0, 2)])
        assert g == h
        h.set_port_labeling(0, {1: 2, 2: 1})
        assert g != h

    def test_hash_consistent_with_equality(self):
        g = generators.cycle_graph(4)
        h = generators.cycle_graph(4)
        assert hash(g) == hash(h)

    def test_networkx_roundtrip(self):
        g = generators.petersen_graph()
        nx_graph = to_networkx(g)
        back = from_networkx(nx_graph)
        assert back.n == g.n
        assert sorted(back.edges()) == sorted(g.edges())

    def test_from_networkx_skips_self_loops(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(3))
        nxg.add_edge(0, 0)
        nxg.add_edge(0, 1)
        g = from_networkx(nxg)
        assert g.num_edges == 1

    def test_arc_reversed_endpoints(self):
        arc = Arc(2, 5, 1)
        assert arc.reversed_endpoints() == (5, 2)


def _csr(g):
    """``(indptr, indices)`` of ``g`` rebuilt from its port maps, as lists."""
    indptr, indices = [0], []
    for u in g.vertices():
        indices.extend(g.neighbors(u))
        indptr.append(len(indices))
    return indptr, indices


#: Every mutator, applied to the graph built by ``_labelled``.
_MUTATIONS = {
    "add_edge": lambda g: g.add_edge(1, 4),
    "remove_edge": lambda g: g.remove_edge(0, 1),
    "add_vertex": lambda g: g.add_vertex(),
    "set_port_labeling": lambda g: g.set_port_labeling(0, {1: 1, 2: 2, 3: 3}),
    "relabel_ports": lambda g: g.relabel_ports(0, {1: 2, 2: 1, 3: 3}),
    "sort_ports_by_neighbor": lambda g: g.sort_ports_by_neighbor(),
}


def _labelled():
    # Insertion order leaves vertex 0 with the non-canonical ports 3, 1, 2.
    return PortLabeledGraph(5, [(0, 3), (0, 1), (0, 2), (1, 2), (3, 4)])


class TestAdjacencySharing:
    def test_copy_returns_the_same_read_only_arrays(self):
        g = _labelled()
        arrays = g.adjacency_arrays()
        h = g.copy()
        assert h.adjacency_arrays() is arrays
        assert all(a.flags.writeable is False for a in arrays)
        with pytest.raises(ValueError):
            h.adjacency_arrays()[1][0] = 0
        # A copy of a graph that never built them builds them once, for both.
        fresh = _labelled()
        assert fresh.copy().adjacency_arrays() is fresh.adjacency_arrays()

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_mutating_a_copy_rebuilds_only_its_arrays(self, mutation):
        g = _labelled()
        source = g.adjacency_arrays()
        before = [a.tobytes() for a in source]
        h = g.copy()
        _MUTATIONS[mutation](h)
        indptr, indices = h.adjacency_arrays()
        assert indptr is not source[0] and indices is not source[1]
        assert (indptr.tolist(), indices.tolist()) == _csr(h)
        assert not indptr.flags.writeable and not indices.flags.writeable
        assert g.adjacency_arrays() is source
        assert [a.tobytes() for a in source] == before
        assert (source[0].tolist(), source[1].tolist()) == _csr(g)

    def test_pickling_drops_the_shared_arrays(self):
        import pickle

        g = _labelled()
        h = g.copy()
        clone = pickle.loads(pickle.dumps(h))
        assert clone._adj_arrays is None
        indptr, indices = clone.adjacency_arrays()
        assert (indptr.tolist(), indices.tolist()) == _csr(g)
        assert indices is not g.adjacency_arrays()[1]
