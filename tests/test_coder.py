"""The closed-form table-coder lengths against the bit-writing oracle coders.

:func:`repro.memory.coder.table_coder_bits` scores the raw, interval and
default-port coders of every router without writing a bit; the encoders
and decoders of ``tests/oracles.py`` write and read the actual bit
strings.  Every closed-form length must be the length of an oracle
encoding that its decoder inverts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import profile_settings
from oracles import (
    TABLE_CODER_ORACLES,
    DefaultPortCoder,
    IntervalTableCoder,
    RawTableCoder,
    best_coding,
)
from repro.graphs import generators
from repro.memory.coder import TABLE_CODERS, table_coder_bits
from repro.memory.encoding import fixed_width
from repro.routing.model import DELIVER
from repro.routing.tables import ShortestPathTableScheme, shortest_path_ports

_SETTINGS = profile_settings(60)


def _local_map_of(graph, node):
    rf = ShortestPathTableScheme().build(graph)
    return rf.local_map(node), graph.degree(node), graph.n


def _port_matrix(graph):
    """The shortest-path table port matrix of ``graph`` and its degrees."""
    return shortest_path_ports(graph), np.array(graph.degrees())


def _assert_matches_oracle(ports, degrees):
    """Every closed-form length is an oracle payload length its decoder inverts."""
    n = ports.shape[1]
    bits = table_coder_bits(ports, degrees)
    assert bits.shape == (len(TABLE_CODERS), ports.shape[0])
    assert tuple(coder.name for coder in TABLE_CODER_ORACLES) == TABLE_CODERS
    for x in range(ports.shape[0]):
        local = {d: int(p) for d, p in enumerate(ports[x].tolist()) if d != x}
        degree = int(degrees[x])
        for row, coder in enumerate(TABLE_CODER_ORACLES):
            result = coder.encode(x, n, degree, local)
            assert bits[row, x] == result.bits == len(result.payload)
            assert coder.decode(x, n, degree, result.payload) == local
        best = best_coding(x, n, degree, local)
        assert TABLE_CODERS[int(bits[:, x].argmin())] == best.coder
        assert bits[:, x].min() == best.bits


@st.composite
def port_matrices(draw):
    """Valid ``(ports, degrees)``: ``DELIVER`` on the diagonal, ports in ``1..deg``.

    Some rows route every destination through one port, and degree-1
    routers (zero-width ports) come up whenever a degree of 1 is drawn.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    top = max(n - 1, 1)
    degrees = [0] if n == 1 else draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    ports = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        if n == 1:
            continue
        if draw(st.booleans()):
            row = [draw(st.integers(1, degrees[x]))] * n
        else:
            row = draw(st.lists(st.integers(1, degrees[x]), min_size=n, max_size=n))
        ports[x] = row
        ports[x, x] = DELIVER
    return ports, np.array(degrees, dtype=np.int64)


#: Every router of this n = 3 matrix ties raw-table and default-port at 2 bits.
_TIE = (np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), np.array([2, 2, 2]))


@_SETTINGS
@given(port_matrices())
@example((np.array([[0]]), np.array([0])))
@example((np.array([[0, 1], [1, 0]]), np.array([1, 1])))
@example(_TIE)
def test_closed_form_lengths_are_decodable_oracle_lengths(case):
    _assert_matches_oracle(*case)


def test_exact_tie_names_the_first_coder():
    bits = table_coder_bits(*_TIE)
    assert (bits[0] == bits[2]).all() and (bits[1] > bits[0]).all()
    assert [TABLE_CODERS[i] for i in bits.argmin(axis=0)] == ["raw-table"] * 3
    local_maps = [{d: 1 for d in range(3) if d != x} for x in range(3)]
    assert {best_coding(x, 3, 2, m).coder for x, m in enumerate(local_maps)} == {"raw-table"}


@pytest.mark.parametrize(
    "graph",
    [
        generators.path_graph(20),
        generators.grid_2d(4, 4),
        generators.star_graph(9),
        generators.complete_graph(6),
        generators.random_connected_graph(24, extra_edge_prob=0.2, seed=3),
    ],
    ids=["path", "grid", "star", "complete", "random"],
)
def test_closed_form_matches_oracle_on_shortest_path_tables(graph):
    _assert_matches_oracle(*_port_matrix(graph))


@pytest.mark.parametrize(
    "ports, degrees",
    [
        (np.array([[0, 1, 5], [1, 0, 1], [1, 1, 0]]), np.array([1, 1, 1])),
        (np.array([[0, 1, -1], [1, 0, 1], [1, 1, 0]]), np.array([1, 1, 1])),
        (np.array([[0, 0, 1], [1, 0, 1], [1, 1, 0]]), np.array([1, 1, 1])),
        (np.array([[1, 1, 1], [1, 0, 1], [1, 1, 0]]), np.array([1, 1, 1])),
    ],
    ids=["port-above-degree", "negative-port", "two-deliver", "no-deliver"],
)
def test_invalid_rows_rejected(ports, degrees):
    with pytest.raises(ValueError):
        table_coder_bits(ports, degrees)


class TestRawTableCoder:
    def test_roundtrip_on_random_graph(self, small_random_graph):
        coder = RawTableCoder()
        for node in small_random_graph.vertices():
            local, degree, n = _local_map_of(small_random_graph, node)
            result = coder.encode(node, n, degree, local)
            assert coder.decode(node, n, degree, result.payload) == local

    def test_size_formula(self):
        g = generators.complete_graph(9)
        local, degree, n = _local_map_of(g, 0)
        result = RawTableCoder().encode(0, n, degree, local)
        assert result.bits == (n - 1) * fixed_width(degree - 1)
        assert table_coder_bits(*_port_matrix(g))[0, 0] == result.bits

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            RawTableCoder().encode(0, 3, 1, {1: 1, 2: 5})


class TestIntervalTableCoder:
    def test_roundtrip(self, grid_4x4):
        coder = IntervalTableCoder()
        for node in grid_4x4.vertices():
            local, degree, n = _local_map_of(grid_4x4, node)
            result = coder.encode(node, n, degree, local)
            assert coder.decode(node, n, degree, result.payload) == local

    def test_compresses_path_graph_tables(self):
        # On a path every vertex routes "left of me" through one arc and
        # "right of me" through the other: two intervals total.
        bits = table_coder_bits(*_port_matrix(generators.path_graph(32)))
        assert bits[1, 15] < bits[0, 15]

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            IntervalTableCoder().encode(0, 3, 1, {1: 1, 2: 2})


class TestDefaultPortCoder:
    def test_roundtrip(self, small_random_graph):
        coder = DefaultPortCoder()
        for node in small_random_graph.vertices():
            local, degree, n = _local_map_of(small_random_graph, node)
            result = coder.encode(node, n, degree, local)
            assert coder.decode(node, n, degree, result.payload) == local

    def test_tiny_on_leaf_of_star(self):
        g = generators.star_graph(64)
        bits = table_coder_bits(*_port_matrix(g))
        # A leaf routes everything through its single arc: no exceptions.
        assert bits[2, 5] <= fixed_width(g.degree(5) - 1) + 3

    def test_handles_all_exceptions_case(self):
        g = generators.complete_graph(6)
        local, degree, n = _local_map_of(g, 0)
        coder = DefaultPortCoder()
        result = coder.encode(0, n, degree, local)
        assert coder.decode(0, n, degree, result.payload) == local

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            DefaultPortCoder().encode(0, 3, 1, {1: 0, 2: 1})
