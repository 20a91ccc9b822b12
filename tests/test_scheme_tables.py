"""Array-held scheme tables against their per-node dict oracles.

:class:`repro.routing.interval.IntervalRoutingFunction` holds interval
routing as a label-ordered port matrix plus the cyclic runs of its rows,
and :class:`repro.routing.landmark.LandmarkRoutingFunction` holds the
Cowen tables as arrays with one stored-port row list per vertex.  The
oracles of ``tests/oracles.py`` build the same tables the way the seed did,
one (node, port) or one row at a time into dicts: :class:`IntervalTables`
and :class:`LandmarkTables`.  Every view, every pair's ``P`` answer, the
lowered ``next_node`` bytes and the program memory profile must agree, on
the small and medium registries and on the n = 256 grid of the cold-large
benchmark workload.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import connected_graphs, profile_settings
from oracles import IntervalTables, LandmarkTables, scanned_cyclic_runs
from repro.graphs import generators
from repro.memory.requirement import program_memory_profile
from repro.routing.interval import IntervalRoutingScheme, cyclic_intervals_of_set
from repro.routing.landmark import CowenLandmarkScheme, RewritingLandmarkRoutingFunction
from repro.routing.model import DELIVER
from repro.routing.program import MISDELIVER, NextHopProgram, lower_next_hop, transition_dtype
from repro.sim.registry import graph_families, scheme_registry

SIZES = ("small", "medium", "n256")
#: A program's memory profile is a function of its bytes, which every size
#: compares; profiling costs ~0.4 s per n = 256 program, so only the
#: registries profile both sides.
PROFILED = ("small", "medium")
LANDMARK_SCHEMES = ("landmark-sqrt", "landmark-rewriting", "spanner3-landmark")


@functools.lru_cache(maxsize=None)
def _families(size):
    if size != "n256":
        return graph_families(size, seed=0)
    return {
        "hypercube": generators.hypercube(8),
        "torus": generators.torus_2d(16, 16),
        "random-sparse": generators.random_connected_graph(256, extra_edge_prob=0.01, seed=1),
    }


def _oracle_program(graph, port_of):
    """Next-hop program of the ports ``port_of(x, dest)`` of ``graph``, pair by pair."""
    n = graph.n
    next_node = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for dest in range(n):
            port = port_of(x, dest)
            if port == DELIVER:
                next_node[x, dest] = dest if x == dest else MISDELIVER
            else:
                next_node[x, dest] = graph.neighbor_at_port(x, port)
    return NextHopProgram(next_node=next_node.astype(transition_dtype(n)))


def _assert_same_program(graph, program, expected, profile):
    assert program.next_node.tobytes() == expected.next_node.tobytes()
    if profile:
        got, want = program_memory_profile(program, graph), program_memory_profile(expected, graph)
        assert got.bits_per_node.tolist() == want.bits_per_node.tolist()
        assert got.coder_per_node == want.coder_per_node


def _check_interval(graph, scheme, profile=True):
    rf = scheme.build(graph.copy())
    oracle = IntervalTables.build(graph.copy(), scheme)
    n = graph.n
    for x in range(n):
        assert list(rf.intervals_at(x).items()) == list(oracle.intervals_at(x).items())
        assert rf.num_intervals(x) == oracle.num_intervals(x)
        assert rf.local_encoding_bits(x) == oracle.local_encoding_bits(x)
    assert rf.max_intervals_per_arc() == oracle.max_intervals_per_arc()
    label_of = [rf.label_of(v) for v in range(n)]
    assert label_of == [oracle.label_of[v] for v in range(n)]
    ports = [[rf.port(x, label_of[d]) for d in range(n)] for x in range(n)]
    assert ports == [[oracle.port(x, label_of[d]) for d in range(n)] for x in range(n)]
    expected = _oracle_program(graph, lambda x, d: oracle.port(x, label_of[d]))
    _assert_same_program(graph, lower_next_hop(rf), expected, profile)


def _bare_port(rf, node, dest):
    """``P`` on a bare label; ``None`` where the rewriting invariant breaks."""
    try:
        return rf.port(node, dest)
    except ValueError as error:
        assert "invariant broken" in str(error)
        return None


def _check_landmark(graph, rf, profile=True):
    inner = getattr(rf, "inner", rf)
    tables = LandmarkTables(inner)
    n = graph.n
    sizes = inner.table_sizes()
    for u in range(n):
        assert inner.cluster(u) == set(tables.cluster_ports[u])
        entries = tables.table_entries(u)
        assert list(inner.table_entries(u).items()) == list(entries.items())
        assert sizes[u] == len(entries)
    addresses = [inner.address(v) for v in range(n)]
    assert [(a.dest, a.landmark, a.port_at_landmark) for a in addresses] == [
        tables.addresses[v] for v in range(n)
    ]
    for x in range(n):
        assert [inner.port(x, a) for a in addresses] == [
            tables.port(x, *tables.addresses[d]) for d in range(n)
        ]
    if isinstance(inner, RewritingLandmarkRoutingFunction):
        for x in range(n):
            assert [inner.next_header(x, a) == d for d, a in enumerate(addresses)] == [
                tables.rewrites(x, d, a.landmark) for d, a in enumerate(addresses)
            ]
            assert [_bare_port(inner, x, d) for d in range(n)] == [
                tables.bare_port(x, d) for d in range(n)
            ]
        return
    # Spanner arcs are network arcs: the spanner's next nodes are the network's.
    expected = _oracle_program(inner.graph, lambda x, d: tables.port(x, *tables.addresses[d]))
    _assert_same_program(graph, lower_next_hop(rf), expected, profile)


@pytest.mark.parametrize("size", SIZES)
def test_interval_build_matches_the_dict_oracle(size):
    scheme = scheme_registry(seed=0)["interval"]
    for graph in _families(size).values():
        _check_interval(graph, scheme, profile=size in PROFILED)


@pytest.mark.parametrize("tie_break", ["lowest_neighbor", "highest_port"])
def test_interval_tie_breaks_match_the_dict_oracle(small_corpus, tie_break):
    scheme = IntervalRoutingScheme(root=3, tie_break=tie_break)
    for graph in small_corpus.values():
        _check_interval(graph, scheme)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", LANDMARK_SCHEMES)
def test_landmark_tables_match_the_dict_oracle(size, name):
    scheme = scheme_registry(seed=1)[name]
    for graph in _families(size).values():
        _check_landmark(graph, scheme.build(graph.copy()), profile=size in PROFILED)


@profile_settings(base_examples=20)
@given(graph=connected_graphs(min_n=2, max_n=24), root=st.integers(0, 23), seed=st.integers(0, 99))
def test_array_tables_equal_dict_tables_on_random_graphs(graph, root, seed):
    _check_interval(graph, IntervalRoutingScheme(root=root % graph.n))
    for rewriting in (False, True):
        scheme = CowenLandmarkScheme(seed=seed, rewriting=rewriting)
        _check_landmark(graph, scheme.build(graph.copy()))
    in_set = np.random.default_rng(seed).random(graph.n) < 0.5
    labels = np.flatnonzero(in_set).tolist()
    assert cyclic_intervals_of_set(labels, graph.n) == scanned_cyclic_runs(in_set)
