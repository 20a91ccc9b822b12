"""Shared fixtures for the test suite.

The *graph corpus* fixtures expose one seeded, connected instance of every
generator family in :mod:`repro.graphs.generators`, built once per session
through :func:`repro.sim.registry.graph_families` (the same registry the
conformance suite uses).  Tests receive fresh :meth:`~repro.graphs.digraph.PortLabeledGraph.copy`
instances because several schemes relabel ports in place.

* ``small_corpus_graph`` / ``medium_corpus_graph`` — parametrized over the
  family names: a test taking one of these runs once per family.
* ``small_corpus`` / ``medium_corpus`` — the full ``name -> graph`` mapping
  for tests that need to iterate or pick specific families.

Hypothesis-driven suites share two things from here:

* **Profiles** — ``REPRO_HYP_PROFILE=ci|dev`` selects the registered
  hypothesis profile: ``ci`` (the default) keeps PR runs at each suite's
  baseline example count, ``dev`` multiplies it for the deep nightly runs
  of the bench-trajectory workflow.  Suites build their settings through
  :func:`profile_settings` so one knob governs churn, fault, and
  conformance property tests alike.
* **Strategies** — :func:`connected_graphs` (seeded random connected
  instances) and :func:`churn_traces` (seeded, connectivity-preserving
  :class:`~repro.sim.churn.ChurnTrace` sequences).  Both are built from
  drawn integers only, so hypothesis shrinks them toward small graphs,
  short traces, and low seeds.

:func:`build_next_hop_matrix` is the slow reference oracle of
:func:`repro.routing.tables.shortest_path_ports`: the per-entry Python loop
over every (node, destination, neighbour) triple the library once built
its tables with.

The fate oracles of the compiled executors live here too:
:func:`functional_hops` (the backwards peel that computed per-state stop
hops before the pointer-doubling resolver) and the four per-step dense
loops :func:`execute_dense` / :func:`execute_masked_dense` dispatch to —
every in-flight message advances one hop per step, exactly as the engine
once executed programs.  The header-state loops take their step budget
from the peel, never from the resolver they are an oracle of.
``tests/test_execution.py`` pins the resolver-backed executors against
them.

:func:`scipy_distances` is the distance oracle of the bit-parallel BFS
:func:`repro.graphs.shortest_paths.bfs_rows`: scipy's unweighted
shortest paths over the same CSR arrays, the path the library computed
distances with before scipy left its runtime dependencies.

:func:`walk_loads` is the per-hop frontier walk of the flow engine, the
vectorised oracle of :func:`repro.analysis.flow.route_demand`'s subtree
sums: ``tests/test_flow.py`` asserts byte-equal loads for next-hop,
header-state and fault-masked programs.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest

from repro.graphs import generators
from repro.sim.registry import family_names, graph_families

try:
    from hypothesis import HealthCheck, settings
    from hypothesis import strategies as st

    _HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the test env ships hypothesis
    _HAS_HYPOTHESIS = False

#: Example-count multiplier per profile: ``ci`` is the PR-latency budget,
#: ``dev`` the nightly deep run (bench-trajectory workflow).
_PROFILE_SCALE = {"ci": 1, "dev": 8}

if _HAS_HYPOTHESIS:
    for _name in _PROFILE_SCALE:
        settings.register_profile(
            _name,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
    _PROFILE = os.environ.get("REPRO_HYP_PROFILE", "ci")
    if _PROFILE not in _PROFILE_SCALE:
        raise ValueError(
            f"REPRO_HYP_PROFILE={_PROFILE!r}: expected one of {sorted(_PROFILE_SCALE)}"
        )
    settings.load_profile(_PROFILE)


def profile_settings(base_examples: int):
    """Suite-level hypothesis settings scaled by the loaded profile.

    ``base_examples`` is the suite's PR-CI example budget; the ``dev``
    profile multiplies it so `REPRO_HYP_PROFILE=dev pytest` runs the same
    properties deep without any per-suite edits.
    """
    return settings(
        max_examples=base_examples * _PROFILE_SCALE[_PROFILE],
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


if _HAS_HYPOTHESIS:

    @st.composite
    def connected_graphs(draw, min_n=4, max_n=16, max_extra=0.35):
        """Seeded random connected instances, shrinking toward small ones."""
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        extra = draw(st.floats(min_value=0.0, max_value=max_extra))
        seed = draw(st.integers(min_value=0, max_value=10**6))
        return generators.random_connected_graph(n, extra_edge_prob=extra, seed=seed)

    @st.composite
    def churn_traces(draw, min_n=4, max_n=14, max_steps=4, max_flips=2):
        """Seeded, connectivity-preserving churn traces over random graphs.

        Everything is derived from drawn integers (graph size and seed,
        step count, flips per step, trace seed), so shrinking walks toward
        the smallest trace that still falsifies — and every snapshot is
        connected by :func:`repro.sim.churn.random_churn_trace`'s
        construction, which the churn suite re-asserts as a property.
        """
        from repro.sim.churn import random_churn_trace

        graph = draw(connected_graphs(min_n=min_n, max_n=max_n))
        steps = draw(st.integers(min_value=1, max_value=max_steps))
        flips = draw(st.integers(min_value=1, max_value=max_flips))
        trace_seed = draw(st.integers(min_value=0, max_value=10**6))
        p_add = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
        return random_churn_trace(
            graph, steps=steps, flips_per_step=flips, seed=trace_seed, p_add=p_add
        )


def scipy_distances(indptr, indices, n, sources=None):
    """scipy's BFS distances over a CSR adjacency, in the kernel's layout.

    ``(n, n)`` for all sources, ``(len(sources), n)`` rows otherwise; int64
    with ``-1`` for unreachable pairs.
    """
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix

    if n == 0:
        return np.zeros((0, 0) if sources is None else (len(sources), 0), dtype=np.int64)
    adjacency = csr_matrix(
        (np.ones(len(indices), dtype=np.int8), np.asarray(indices), np.asarray(indptr)),
        shape=(n, n),
    )
    if sources is None:
        raw = csgraph.shortest_path(adjacency, method="D", unweighted=True, directed=False)
    elif len(sources) == 0:
        return np.zeros((0, n), dtype=np.int64)
    else:
        raw = np.atleast_2d(
            csgraph.dijkstra(adjacency, unweighted=True, indices=np.asarray(sources))
        )
    return np.where(np.isfinite(raw), raw, -1).astype(np.int64)


def build_next_hop_matrix(graph, tie_break="lowest_port", dist=None):
    """Next-hop matrix ``next_hop[x, dest]`` of one shortest-path routing.

    ``next_hop[x, x] = x``; entries for unreachable destinations are ``-1``.
    Among the neighbours of ``x`` on a shortest path to ``dest``, picks the
    one with the lowest port, highest port or lowest label, one
    ``graph.port`` call at a time.
    """
    from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix

    n = graph.n
    next_hop = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(next_hop, np.arange(n))
    if dist is None:
        dist = distance_matrix(graph)
    for dest in range(n):
        dist_to_dest = dist[:, dest]
        for x in range(n):
            if x == dest or dist_to_dest[x] == UNREACHABLE:
                continue
            best_neighbor, best_key = -1, None
            for v in graph.neighbors(x):
                if dist_to_dest[v] != dist_to_dest[x] - 1:
                    continue
                if tie_break == "lowest_neighbor":
                    key = v
                elif tie_break == "lowest_port":
                    key = graph.port(x, v)
                elif tie_break == "highest_port":
                    key = -graph.port(x, v)
                else:
                    raise ValueError(f"unknown tie break rule {tie_break!r}")
                if best_key is None or key < best_key:
                    best_key, best_neighbor = key, v
            next_hop[x, dest] = best_neighbor
    return next_hop


@functools.lru_cache(maxsize=None)
def _corpus(size):
    """Lazily built session-wide corpus; fixtures hand out copies.

    Built on first use rather than at conftest import so that collecting or
    running tests that never touch the corpus pays nothing for it.
    """
    return graph_families(size, seed=101)


@pytest.fixture(params=sorted(family_names()))
def small_corpus_graph(request):
    """A fresh copy of the small (n <= ~16) instance of one generator family."""
    return _corpus("small")[request.param].copy()


@pytest.fixture(params=sorted(family_names()))
def medium_corpus_graph(request):
    """A fresh copy of the medium (n <= ~40) instance of one generator family."""
    return _corpus("medium")[request.param].copy()


@pytest.fixture
def small_corpus():
    """The full small corpus as a ``family name -> fresh copy`` mapping."""
    return {name: graph.copy() for name, graph in _corpus("small").items()}


@pytest.fixture
def medium_corpus():
    """The full medium corpus as a ``family name -> fresh copy`` mapping."""
    return {name: graph.copy() for name, graph in _corpus("medium").items()}


@pytest.fixture
def petersen():
    """The Petersen graph (10 vertices, 15 edges)."""
    return generators.petersen_graph()


@pytest.fixture
def small_random_graph():
    """A small random connected graph with a fixed seed."""
    return generators.random_connected_graph(18, extra_edge_prob=0.15, seed=42)


@pytest.fixture
def small_tree():
    """A small random tree with a fixed seed."""
    return generators.random_tree(15, seed=7)


@pytest.fixture
def grid_4x4():
    """A 4x4 grid."""
    return generators.grid_2d(4, 4)


@pytest.fixture
def hypercube_3():
    """The 3-dimensional hypercube with its canonical port labelling."""
    return generators.hypercube(3)


@pytest.fixture
def cycle_8():
    """The 8-cycle used by the ring-routing stretch tests."""
    return generators.cycle_graph(8)


def lower_header_state_per_state(rf, max_states=None):
    """Header-state program of ``rf``, one ``P``/``H``/intern call per state.

    The FIFO worklist :func:`repro.routing.program.lower_header_state` once
    ran: initial states interned in ``(dest, src)`` order, then every state
    in id order pays one ``P`` and (when it moves) one ``H`` call, interning
    its successor.  The first failing state raises, in id order.
    """
    from repro.routing.model import DELIVER
    from repro.routing.program import (
        HeaderStateExplosionError,
        HeaderStateProgram,
        transition_dtype,
    )

    graph = rf.graph
    n = graph.n
    if max_states is None:
        max_states = 1024 + 64 * n * n

    state_id = {}
    nodes = []
    headers = []

    def intern(node, header):
        key = (node, header)
        sid = state_id.get(key)
        if sid is None:
            sid = len(nodes)
            if sid >= max_states:
                raise HeaderStateExplosionError(
                    f"{type(rf).__name__} reached {max_states} (node, header) states "
                    f"on a {n}-vertex graph; its can_vectorize promise of a finite "
                    "header alphabet looks broken — execute it as a GenericProgram"
                )
            state_id[key] = sid
            nodes.append(node)
            headers.append(header)
        return sid

    initial = np.full((n, n), -1, dtype=np.int64)
    for dest in range(n):
        for src in range(n):
            if src != dest:
                initial[src, dest] = intern(src, rf.initial_header(src, dest))

    succ = []
    deliver = []
    idx = 0
    while idx < len(nodes):  # intern() appends newly discovered states
        node, header = nodes[idx], headers[idx]
        port = rf.port(node, header)
        if port == DELIVER:
            succ.append(idx)
            deliver.append(True)
        else:
            try:
                nxt = graph.neighbor_at_port(node, port)
            except KeyError as exc:
                raise ValueError(
                    f"routing function used invalid port {port} at vertex {node} "
                    f"(degree {graph.degree(node)})"
                ) from exc
            succ.append(intern(nxt, rf.next_header(node, header)))
            deliver.append(False)
        idx += 1

    sdt = transition_dtype(len(nodes))
    return HeaderStateProgram(
        succ=np.asarray(succ, dtype=sdt),
        deliver=np.asarray(deliver, dtype=bool),
        node_of=np.asarray(nodes, dtype=transition_dtype(n)),
        initial=initial.astype(sdt),
        headers=tuple(headers),
    )


# ----------------------------------------------------------------------
# per-step reference oracles of the compiled executors
# ----------------------------------------------------------------------
def functional_hops(succ, stopping):
    """Hops from each state of a functional graph to a stopping state.

    The backwards peel: stopping states get ``0``, then every round assigns
    ``hops[succ] + 1`` to the states whose successor was resolved in the
    previous round.  ``-1`` marks states that never stop.  A ``DROPPED``
    successor self-loops its state (the walk ends off-program), so unless
    that state is itself stopping it reports ``-1``.
    """
    from repro.routing.program import DROPPED, NO_ROUTE

    succ = np.asarray(succ).astype(np.int64)
    stopping = np.asarray(stopping, dtype=bool)
    dropped = succ == DROPPED
    succ = np.where(dropped, np.arange(succ.shape[0]), succ)
    hops = np.where(stopping, 0, NO_ROUTE)
    while True:
        downstream = hops[succ]
        newly = (hops < 0) & (downstream >= 0)
        if not newly.any():
            return hops
        hops[newly] = downstream[newly] + 1


def _offdiag(n):
    return ~np.eye(n, dtype=bool)


def _fates(alive, delivered, misdelivered, dropped, lengths, steps):
    """An oracle's stop matrices as ``(outcome, hops, steps)``.

    ``outcome`` holds the verdict codes of
    :class:`repro.routing.verify.VerificationReport`: simulated pairs in no
    stop matrix walked forever, and the diagonal and every pair with a dead
    endpoint are infeasible.  ``hops`` is ``lengths``: the walked hops of
    every stopped pair, ``-1`` elsewhere but on the alive diagonal.
    """
    from repro.routing.verify import (
        VERDICT_DELIVERED,
        VERDICT_DROPPED,
        VERDICT_INFEASIBLE,
        VERDICT_LIVELOCKED,
        VERDICT_MISDELIVERED,
    )

    n = alive.shape[0]
    universe = _offdiag(n) & alive[:, None] & alive[None, :]
    outcome = np.full((n, n), VERDICT_INFEASIBLE, dtype=np.int8)
    outcome[universe] = VERDICT_LIVELOCKED
    outcome[delivered & universe] = VERDICT_DELIVERED
    outcome[dropped] = VERDICT_DROPPED
    outcome[misdelivered] = VERDICT_MISDELIVERED
    return outcome, lengths, steps


def _next_hop_dense(program):
    """Per-step next-hop loop: ``n`` steps, a livelock never retires."""
    from repro.routing.program import MISDELIVER, NO_ROUTE

    n = program.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    alive = np.ones(n, dtype=bool)
    if n < 2:
        return _fates(alive, delivered, misdelivered, misdelivered, lengths, 0)
    next_node = program.next_node.astype(np.int64)
    # A non-absorbing destination forwards messages past itself.
    absorbing = next_node[np.arange(n), np.arange(n)] == np.arange(n)
    src, dst = np.nonzero(_offdiag(n))
    cur = src.copy()
    steps = 0
    while cur.size and steps < n:
        steps += 1
        cur = next_node[cur, dst]
        lost = cur == MISDELIVER
        if lost.any():
            misdelivered[src[lost], dst[lost]] = True
            keep = ~lost
            src, dst, cur = src[keep], dst[keep], cur[keep]
        lengths[src, dst] += 1
        home = (cur == dst) & absorbing[dst]
        if home.any():
            delivered[src[home], dst[home]] = True
            keep = ~home
            src, dst, cur = src[keep], dst[keep], cur[keep]
    lengths[src, dst] = NO_ROUTE  # survivors of the budget livelock
    return _fates(alive, delivered, misdelivered, np.zeros_like(delivered), lengths, steps)


def _header_state_budget(program, cur):
    """Largest finite peeled stop distance of the initial states, plus one."""
    from repro.routing.program import DROPPED

    if not cur.size:
        return 0
    stopping = program.deliver | (program.succ == DROPPED)
    pending = functional_hops(program.succ, stopping)[cur]
    finite = pending[pending >= 0]
    return int(finite.max()) + 1 if finite.size else 0


def _header_state_dense(program):
    """Per-step header-state loop, budgeted by the peel."""
    from repro.routing.program import NO_ROUTE

    n = program.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    alive = np.ones(n, dtype=bool)
    if n < 2:
        return _fates(alive, delivered, misdelivered, misdelivered, lengths, 0)
    src, dst = np.nonzero(_offdiag(n))
    cur = program.initial[src, dst].astype(np.int64)
    budget = _header_state_budget(program, cur)
    steps = 0
    while cur.size and steps < budget:
        steps += 1
        stopping = program.deliver[cur]
        if stopping.any():
            at_node = program.node_of[cur[stopping]]
            s_stop, d_stop = src[stopping], dst[stopping]
            home = at_node == d_stop
            delivered[s_stop[home], d_stop[home]] = True
            misdelivered[s_stop[~home], d_stop[~home]] = True
            keep = ~stopping
            src, dst, cur = src[keep], dst[keep], cur[keep]
            if not cur.size:
                break
        lengths[src, dst] += 1
        cur = program.succ[cur].astype(np.int64)
    lengths[src, dst] = NO_ROUTE  # survivors of the budget livelock
    return _fates(alive, delivered, misdelivered, np.zeros_like(delivered), lengths, steps)


def _masked_frames(n, alive):
    """Empty masked-execution matrices plus the alive pair universe ``(src, dst)``."""
    from repro.routing.program import NO_ROUTE

    lengths = np.full((n, n), NO_ROUTE, dtype=np.int64)
    delivered = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(delivered, alive)
    np.fill_diagonal(lengths, np.where(alive, 0, NO_ROUTE))
    misdelivered = np.zeros((n, n), dtype=bool)
    dropped = np.zeros((n, n), dtype=bool)
    universe = _offdiag(n) & alive[:, None] & alive[None, :]
    src, dst = np.nonzero(universe)
    lengths[src, dst] = 0
    return lengths, delivered, misdelivered, dropped, src, dst


def _next_hop_masked_dense(program, alive):
    """Per-step masked next-hop loop: stops are detected before the hop."""
    from repro.routing.program import DROPPED, MISDELIVER, NO_ROUTE

    n = program.n
    lengths, delivered, misdelivered, dropped, src, dst = _masked_frames(n, alive)
    next_node = program.next_node.astype(np.int64)
    absorbing = next_node[np.arange(n), np.arange(n)] == np.arange(n)
    cur = src.copy()
    steps = 0
    while cur.size and steps < n:
        steps += 1
        nxt = next_node[cur, dst]
        stopped = (nxt == DROPPED) | (nxt == MISDELIVER)
        if stopped.any():
            was_dropped = nxt == DROPPED
            dropped[src[was_dropped], dst[was_dropped]] = True
            was_mis = nxt == MISDELIVER
            misdelivered[src[was_mis], dst[was_mis]] = True
            keep = ~stopped
            src, dst, nxt = src[keep], dst[keep], nxt[keep]
            if not nxt.size:
                break
        cur = nxt
        lengths[src, dst] += 1
        home = (cur == dst) & absorbing[dst]
        if home.any():
            delivered[src[home], dst[home]] = True
            keep = ~home
            src, dst, cur = src[keep], dst[keep], cur[keep]
    lengths[src, dst] = NO_ROUTE  # survivors of the budget livelock
    return _fates(alive, delivered, misdelivered, dropped, lengths, steps)


def _header_state_masked_dense(program, alive):
    """Per-step masked header-state loop: deliver, then a DROPPED successor."""
    from repro.routing.program import DROPPED, NO_ROUTE

    n = program.n
    lengths, delivered, misdelivered, dropped, src, dst = _masked_frames(n, alive)
    succ, deliver, node_of = program.succ, program.deliver, program.node_of
    cur = program.initial[src, dst].astype(np.int64)
    budget = _header_state_budget(program, cur)
    steps = 0
    while cur.size and steps < budget:
        steps += 1
        stopping = deliver[cur]
        if stopping.any():
            at_node = node_of[cur[stopping]]
            s_stop, d_stop = src[stopping], dst[stopping]
            home = at_node == d_stop
            delivered[s_stop[home], d_stop[home]] = True
            misdelivered[s_stop[~home], d_stop[~home]] = True
            keep = ~stopping
            src, dst, cur = src[keep], dst[keep], cur[keep]
            if not cur.size:
                break
        nxt = succ[cur].astype(np.int64)
        blocked = nxt == DROPPED
        if blocked.any():
            dropped[src[blocked], dst[blocked]] = True
            keep = ~blocked
            src, dst, nxt = src[keep], dst[keep], nxt[keep]
            if not nxt.size:
                break
        cur = nxt
        lengths[src, dst] += 1
    lengths[src, dst] = NO_ROUTE  # survivors of the budget livelock
    return _fates(alive, delivered, misdelivered, dropped, lengths, steps)


def execute_dense(program):
    """Per-step reference of :func:`repro.sim.engine.execute_program`.

    Returns ``(outcome, hops, steps)``: the fates its report must hold.
    """
    from repro.routing.program import NextHopProgram

    if isinstance(program, NextHopProgram):
        return _next_hop_dense(program)
    return _header_state_dense(program)


def execute_masked_dense(program, alive=None):
    """Per-step reference of :func:`repro.sim.engine.execute_masked_program`.

    Returns ``(outcome, hops, steps)``: the fates its report must hold.
    """
    from repro.routing.program import NextHopProgram

    alive = np.ones(program.n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    if isinstance(program, NextHopProgram):
        return _next_hop_masked_dense(program, alive)
    return _header_state_masked_dense(program, alive)


# ----------------------------------------------------------------------
# per-hop reference oracle of the flow accumulator
# ----------------------------------------------------------------------
def _next_hop_walk_steps(program, pairs, hop_budget):
    """Yield ``(frontier positions, arc codes, head nodes)`` per hop.

    The frontier only ever holds delivered pairs with remaining budget,
    so every gathered transition is a real node — no sentinel handling.
    """
    n = program.n
    cur = (pairs // n).astype(np.int64)
    dst = (pairs % n).astype(np.int64)
    remaining = hop_budget.copy()
    idx = np.arange(pairs.size, dtype=np.int64)
    while idx.size:
        nxt = program.next_node[cur, dst].astype(np.int64)
        yield idx, cur * n + nxt, nxt
        remaining -= 1
        keep = remaining > 0
        idx = idx[keep]
        cur = nxt[keep]
        dst = dst[keep]
        remaining = remaining[keep]


def _header_state_walk_steps(program, pairs, hop_budget):
    """The header-state twin of :func:`_next_hop_walk_steps` (state frontier)."""
    n = program.n
    node_of = program.node_of.astype(np.int64)
    src = (pairs // n).astype(np.int64)
    dst = (pairs % n).astype(np.int64)
    cur = program.initial[src, dst].astype(np.int64)
    remaining = hop_budget.copy()
    idx = np.arange(pairs.size, dtype=np.int64)
    while idx.size:
        nxt = program.succ[cur].astype(np.int64)
        yield idx, node_of[cur] * n + node_of[nxt], node_of[nxt]
        remaining -= 1
        keep = remaining > 0
        idx = idx[keep]
        cur = nxt[keep]
        remaining = remaining[keep]


def walk_loads(program, demand, report):
    """Per-hop frontier walk: the vectorised oracle of ``route_demand``'s loads.

    Walks every delivered pair of ``report`` one hop per round (one gather
    per surviving pair per hop) for its proven ``report.hops[s, d]`` hops,
    scattering its demand onto every traversed arc and node, then replays
    the same walk to record each pair's bottleneck (max arc load en route)
    once the loads are complete.  Returns ``(edge_load, node_load,
    path_max_load)`` shaped like :class:`repro.analysis.flow.FlowResult`'s.
    This is the accumulator the library used for header-state programs and
    fault-masked views before the subtree sums covered every state graph.
    """
    from repro.routing.program import NextHopProgram
    from repro.routing.verify import VERDICT_DELIVERED

    steps = _next_hop_walk_steps if isinstance(program, NextHopProgram) else _header_state_walk_steps
    n = program.n
    delivered = report.outcome == VERDICT_DELIVERED
    edge_load = np.zeros(n * n, dtype=np.float64)
    node_load = np.zeros(n, dtype=np.float64)
    path_max = np.zeros(n * n, dtype=np.float64)
    pairs = np.flatnonzero(delivered.ravel())
    if pairs.size:
        weights = np.asarray(demand, dtype=np.float64).ravel()[pairs]
        budget = report.hops.ravel()[pairs].astype(np.int64)
        np.add.at(node_load, pairs // n, weights)  # the origination visit
        for idx, arc, heads in steps(program, pairs, budget):
            np.add.at(edge_load, arc, weights[idx])
            np.add.at(node_load, heads, weights[idx])
        bneck = np.zeros(pairs.size, dtype=np.float64)
        for idx, arc, _ in steps(program, pairs, budget):
            bneck[idx] = np.maximum(bneck[idx], edge_load[arc])
        path_max[pairs] = bneck
    return edge_load.reshape(n, n), node_load, path_max.reshape(n, n)
