"""Differential tests of the level-synchronous header-state lowering.

:func:`repro.routing.program.lower_header_state` closes the reachable
``(node, header)`` states one level at a time, over the class-owned
``header_transitions()`` step or, for a class without one, a per-state
adapter.  Both paths are pinned against the per-state FIFO loop
:func:`conftest.lower_header_state_per_state`: equal ``to_bytes``,
fingerprint and debug ``headers`` on the registry cells and on hypothesis
graphs, and the same exception (type and message, hence the same first
failing state) for invalid ports, broken rewriting invariants and the
``max_states`` cap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import _corpus, connected_graphs, lower_header_state_per_state, profile_settings
from oracles import unique_number_new_keys
from repro.graphs import generators
from repro.routing.ecube import MaskECubeRoutingFunction, MaskECubeRoutingScheme
from repro.routing.hierarchical import (
    HierarchicalSpannerScheme,
    RewritingHierarchicalSpannerRoutingFunction,
)
from repro.routing.landmark import CowenLandmarkScheme, RewritingLandmarkRoutingFunction
from repro.routing.model import DELIVER, RoutingFunction
from repro.routing.program import HeaderStateExplosionError, lower_header_state, number_new_keys
from repro.sim.registry import scheme_registry

_SETTINGS = profile_settings(25)

#: Registry schemes whose live functions lower through ``header_transitions``.
REWRITING_SCHEMES = ("ecube-mask", "landmark-rewriting", "spanner3-rewriting")


def _outcome(lower, rf, **kwargs):
    """What a lowering produces: the program's bytes, fingerprint and
    headers, or the type and message of the error it raises."""
    try:
        program = lower(rf, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return program.to_bytes(), program.fingerprint(), program.headers


def _assert_matches_oracle(rf, **kwargs):
    outcome = _outcome(lower_header_state, rf, **kwargs)
    assert outcome == _outcome(lower_header_state_per_state, rf, **kwargs)
    return outcome


def _overriding(rf, method):
    """``rf`` re-classed under a subclass whose ``method`` delegates to the parent."""
    base = type(rf)

    def delegate(self, *args):
        return getattr(base, method)(self, *args)

    rf.__class__ = type("_Delegating", (base,), {method: delegate})
    return rf


def _rewriting_landmark(graph, seed=3, clusters=None, ports=None):
    """A rewriting landmark function, optionally rebuilt over edited tables."""
    rf = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph)
    return RewritingLandmarkRoutingFunction(
        graph,
        rf.landmarks,
        rf._ports if ports is None else ports,
        rf._clusters if clusters is None else clusters,
        rf._nearest,
    )


# ----------------------------------------------------------------------
# hook path == per-state oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", ["small", "medium"])
@pytest.mark.parametrize("scheme_name", REWRITING_SCHEMES)
def test_hook_lowering_matches_oracle_on_registry(size, scheme_name):
    scheme = scheme_registry(seed=3)[scheme_name]
    for family, graph in _corpus(size).items():
        try:
            rf = scheme.build(graph.copy())
        except ValueError:
            continue  # inapplicable cell
        assert rf.header_transitions() is not None, (scheme_name, family)
        outcome = _assert_matches_oracle(rf)
        assert isinstance(outcome[0], bytes), (scheme_name, family, outcome)


@_SETTINGS
@given(graph=connected_graphs(max_n=20), seed=st.integers(min_value=0, max_value=50))
def test_rewriting_landmark_matches_oracle_on_hypothesis_graphs(graph, seed):
    rf = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph)
    _assert_matches_oracle(rf)


@_SETTINGS
@given(
    graph=connected_graphs(max_n=20),
    stretch=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_rewriting_spanner_matches_oracle_on_hypothesis_graphs(graph, stretch, seed):
    rf = HierarchicalSpannerScheme(spanner_stretch=stretch, seed=seed, rewriting=True).build(graph)
    _assert_matches_oracle(rf)


@_SETTINGS
@given(dim=st.integers(min_value=0, max_value=6))
def test_mask_ecube_matches_oracle_on_hypercubes(dim):
    rf = MaskECubeRoutingScheme().build(generators.hypercube(dim))
    _assert_matches_oracle(rf)


@_SETTINGS
@given(
    size=st.integers(min_value=1, max_value=40),
    known=st.lists(st.integers(min_value=0, max_value=39), max_size=20),
    levels=st.lists(
        st.lists(st.integers(min_value=0, max_value=39), max_size=60), min_size=1, max_size=4
    ),
)
def test_sort_free_discovery_races_the_unique_numbering(size, known, levels):
    # Level after level against one table, as the closure calls it: keys
    # already known (some numbered before the first level), repeats inside
    # a level, keys repeated across levels and empty levels.
    fresh_table = np.full(size, -1, dtype=np.int64)
    known = sorted({k % size for k in known})
    fresh_table[known] = np.arange(len(known))
    oracle_table = fresh_table.copy()
    count = len(known)
    for level in levels:
        keys = np.array([k % size for k in level], dtype=np.int64)
        ids, new_keys = number_new_keys(fresh_table, keys, count)
        want_ids, want_new = unique_number_new_keys(oracle_table, keys, count)
        assert ids.tobytes() == want_ids.tobytes()
        assert new_keys.tobytes() == want_new.tobytes()
        assert fresh_table.tobytes() == oracle_table.tobytes()
        count += new_keys.size


# ----------------------------------------------------------------------
# per-state adapter path == per-state oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme_name, method",
    [
        ("ecube-mask", "port"),
        ("ecube-mask", "next_header"),
        ("ecube-mask", "initial_header"),
        ("landmark-rewriting", "port"),
        ("landmark-rewriting", "next_header"),
        ("landmark-rewriting", "initial_header"),
        ("landmark-rewriting", "address"),
        ("spanner3-rewriting", "port"),
        ("spanner3-rewriting", "next_header"),
        ("spanner3-rewriting", "address"),
    ],
)
def test_override_takes_the_adapter_to_the_same_program(scheme_name, method):
    graph = _corpus("medium")["hypercube" if scheme_name == "ecube-mask" else "grid"]
    scheme = scheme_registry(seed=3)[scheme_name]
    hooked = lower_header_state(scheme.build(graph.copy()))
    overridden = _overriding(scheme.build(graph.copy()), method)
    assert overridden.header_transitions() is None
    outcome = _assert_matches_oracle(overridden)
    assert outcome == (hooked.to_bytes(), hooked.fingerprint(), hooked.headers)


def test_spanner_over_a_hookless_inner_function_takes_the_adapter():
    graph = _corpus("medium")["torus"].copy()
    rf = HierarchicalSpannerScheme(seed=3, rewriting=True).build(graph)
    _overriding(rf.inner, "next_header")
    assert isinstance(rf, RewritingHierarchicalSpannerRoutingFunction)
    assert rf.header_transitions() is None
    _assert_matches_oracle(rf)


# ----------------------------------------------------------------------
# error parity: same exception, same first failing state
# ----------------------------------------------------------------------
def _corrupt_port(rf_graph):
    """Landmark port matrix with one stored entry pointing past the degree."""
    rf = _rewriting_landmark(rf_graph.copy())
    ports = rf._ports.copy()
    x = int(np.argmax(rf._clusters.any(axis=1)))
    dest = int(np.flatnonzero(rf._clusters[x])[0])
    ports[x, dest] = rf_graph.degree(x) + 1
    return ports


@pytest.mark.parametrize("hooked", [True, False], ids=["hook", "adapter"])
def test_invalid_port_raises_like_the_oracle(hooked):
    graph = _corpus("medium")["grid"].copy()
    rf = _rewriting_landmark(graph, ports=_corrupt_port(graph))
    if not hooked:
        _overriding(rf, "port")
    assert (rf.header_transitions() is not None) == hooked
    error, message = _assert_matches_oracle(rf)
    assert error is ValueError and "invalid port" in message


def test_invalid_spanner_port_raises_like_the_oracle():
    # The composition looks up the neighbour behind the inner function's
    # spanner port before translating it; a port past the spanner degree
    # raises the graph's own KeyError there.
    graph = _corpus("medium")["grid"].copy()
    rf = HierarchicalSpannerScheme(seed=3, rewriting=True).build(graph)
    rf._inner = _rewriting_landmark(rf.spanner, ports=_corrupt_port(rf.spanner))
    assert rf.header_transitions() is not None
    error, message = _assert_matches_oracle(rf)
    assert error is KeyError and "has no port" in message


@pytest.mark.parametrize("hooked", [True, False], ids=["hook", "adapter"])
def test_mask_ecube_off_the_hypercube_raises_like_the_oracle(hooked):
    # On a path the masks name ports the low-degree endpoints lack.
    rf = MaskECubeRoutingFunction(generators.path_graph(6), 3)
    if not hooked:
        _overriding(rf, "next_header")
    error, message = _assert_matches_oracle(rf)
    assert error is ValueError and "invalid port" in message


@pytest.mark.parametrize("hooked", [True, False], ids=["hook", "adapter"])
@pytest.mark.parametrize("family", ["grid", "petersen", "random-sparse"])
def test_broken_invariant_raises_like_the_oracle(family, hooked):
    # Flip every cluster bit in turn; a flip that lets a bare label reach a
    # node without a stored port must raise the same invariant error at
    # the same first state, and every other flip must lower identically.
    graph = _corpus("small")[family].copy()
    clusters = _rewriting_landmark(graph.copy())._clusters
    broken = 0
    for u, v in zip(*np.nonzero(~np.eye(graph.n, dtype=bool))):
        edited = clusters.copy()
        edited[u, v] = not edited[u, v]
        rf = _rewriting_landmark(graph.copy(), clusters=edited)
        if not hooked:
            _overriding(rf, "next_header")
        outcome = _assert_matches_oracle(rf)
        if outcome[0] is ValueError:
            assert "rewriting-landmark invariant broken" in outcome[1]
            broken += 1
    assert broken > 0


def test_broken_inner_invariant_raises_like_the_oracle_through_the_spanner():
    graph = _corpus("small")["grid"].copy()
    rf = HierarchicalSpannerScheme(spanner_stretch=1.0, seed=3, rewriting=True).build(graph)
    inner = rf.inner
    broken = 0
    for u, v in zip(*np.nonzero(~np.eye(graph.n, dtype=bool))):
        edited = inner._clusters.copy()
        edited[u, v] = not edited[u, v]
        rf._inner = _rewriting_landmark(rf.spanner, clusters=edited)
        outcome = _assert_matches_oracle(rf)
        broken += outcome[0] is ValueError
    assert broken > 0


@pytest.mark.parametrize("scheme_name", REWRITING_SCHEMES)
def test_state_cap_raises_like_the_oracle_at_every_cap(scheme_name):
    graph = _corpus("small")["hypercube"].copy()
    rf = scheme_registry(seed=3)[scheme_name].build(graph)
    num_states = lower_header_state(rf).num_states
    for cap in range(graph.n * (graph.n - 1) - 2, num_states + 2):
        outcome = _assert_matches_oracle(rf, max_states=cap)
        assert (outcome[0] is HeaderStateExplosionError) == (cap < num_states), cap


def test_state_cap_competes_with_an_invalid_port_in_id_order():
    # Below the cap the invalid port raises; at caps the states before it
    # already overflow, the cap raises first — whichever state comes first.
    graph = _corpus("small")["grid"].copy()
    rf = _rewriting_landmark(graph, ports=_corrupt_port(graph))
    seen = set()
    for cap in range(graph.n * (graph.n - 1), 4 * graph.n * graph.n):
        seen.add(_assert_matches_oracle(rf, max_states=cap)[0])
    assert seen == {HeaderStateExplosionError, ValueError}


class _UnboundedCounter(RoutingFunction):
    """Broken ``can_vectorize`` promise: a hop counter on a livelocking route."""

    can_vectorize = True

    def initial_header(self, source, dest):
        return (dest, 0)

    def port(self, node, header):
        dest, _ = header
        if node == dest:
            return DELIVER
        return self._graph.port(node, 1 if node == 0 else 0)

    def next_header(self, node, header):
        dest, hops = header
        return (dest, hops + 1)


@pytest.mark.parametrize("cap", [None, 5, 12, 13, 40])
def test_unbounded_counter_explodes_like_the_oracle(cap):
    rf = _UnboundedCounter(generators.complete_graph(4))
    error, message = _assert_matches_oracle(rf, max_states=cap)
    assert error is HeaderStateExplosionError and "can_vectorize" in message
