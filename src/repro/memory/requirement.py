"""Per-router and per-network memory profiles.

``memory_profile`` measures, for a concrete routing function, the number of
bits of the best available decodable encoding of every router's local
routing behaviour — the computable upper-bound proxy for the paper's
``MEM_G(R, x)``.  The profile's ``local`` (max over routers) and ``global``
(sum over routers) fields correspond to the paper's ``MEM_local`` and
``MEM_global`` for the given routing function.

Every candidate encoding is scored in closed form for all routers at once,
and each router keeps the smallest (the first listed on a tie):

* the scheme's parametric description, when the function exposes one
  (e-cube, the modular complete-graph rule);
* the scheme's own encoding (``local_encoding_bits``, interval routing);
* sorted ``(target, port)`` entry lists for labeled landmark-style
  functions (``table_sizes``); their address overhead is reported
  separately by :func:`address_bits` because the paper's model charges
  headers to the messages, not to the routers;
* the three table coders of :mod:`repro.memory.coder` for functions with a
  ``dest -> port`` local map, over the first-hop port matrix of the
  compiled program — the artifact the simulator executes.

No bit string is written: the encoders and decoders that make these
lengths decodable live in ``tests/oracles.py``, which the tests race
against this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.coder import TABLE_CODERS, table_coder_bits
from repro.memory.encoding import elias_gamma_lengths, fixed_width, fixed_widths
from repro.routing.model import DELIVER, RoutingFunction
from repro.routing.program import (
    MISDELIVER,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    compile_or_interpret,
    transition_dtype,
)

__all__ = [
    "MemoryProfile",
    "memory_profile",
    "address_bits",
    "program_artifact_bits",
    "program_memory_profile",
]


@dataclass(frozen=True)
class MemoryProfile:
    """Memory requirement of a routing function, per router and aggregated.

    Attributes
    ----------
    bits_per_node:
        ``bits_per_node[x]`` = size in bits of the chosen encoding of the
        local routing function of ``x``.
    coder_per_node:
        Name of the coder achieving that size at each node.
    """

    bits_per_node: np.ndarray
    coder_per_node: Tuple[str, ...]

    @property
    def local(self) -> int:
        """``MEM_local``: the maximum over routers."""
        return int(self.bits_per_node.max()) if self.bits_per_node.size else 0

    @property
    def global_(self) -> int:
        """``MEM_global``: the sum over routers."""
        return int(self.bits_per_node.sum())

    @property
    def mean(self) -> float:
        """Average bits per router."""
        return float(self.bits_per_node.mean()) if self.bits_per_node.size else 0.0

    def top_nodes(self, count: int = 5) -> List[Tuple[int, int]]:
        """The ``count`` most memory-hungry routers as ``(node, bits)`` pairs."""
        order = np.argsort(-self.bits_per_node)
        return [(int(i), int(self.bits_per_node[i])) for i in order[:count]]


def _best(names: Sequence[str], bits: np.ndarray) -> MemoryProfile:
    """Per router, the smallest of the candidate rows ``bits`` (first on a tie)."""
    best = bits.argmin(axis=0)
    return MemoryProfile(
        bits_per_node=bits[best, np.arange(bits.shape[1])],
        coder_per_node=tuple(names[i] for i in best.tolist()),
    )


def _first_hop_ports(program: RoutingProgram, graph) -> np.ndarray:
    """The ``(n, n)`` port matrix of the first hop of every pair of ``program``.

    ``ports[x, dest]`` is the port a message from ``x`` to ``dest`` leaves
    through (``next_node`` of a next-hop program, ``node_of[succ[initial]]``
    of a header-state one), with :data:`~repro.routing.model.DELIVER` on the
    diagonal.  Raises :class:`ValueError` when a pair is misdelivered at its
    source or its first hop is not an arc (a fault-masked drop included):
    such a router has no table row to encode.  A generic program carries no
    artifact and raises :class:`TypeError`.
    """
    n = graph.n
    own = np.eye(n, dtype=bool)
    if isinstance(program, NextHopProgram):
        next_node = program.next_node
    elif isinstance(program, HeaderStateProgram):
        next_node = np.zeros((n, n), dtype=np.int64)
        first = program.initial[~own]
        succ = program.succ[first]
        hop = np.where(succ < 0, succ, program.node_of[np.maximum(succ, 0)])
        next_node[~own] = np.where(program.deliver[first], MISDELIVER, hop)
    elif isinstance(program, GenericProgram):
        raise TypeError(
            "a generic program is an opt-out marker with no compiled artifact "
            "to measure; profile the routing function itself"
        )
    else:
        raise TypeError(f"not a RoutingProgram: {type(program).__name__}")
    indptr, indices = graph.adjacency_arrays()
    port_of = np.zeros((n, n), dtype=transition_dtype(n))
    rows = np.repeat(np.arange(n), np.diff(indptr))
    port_of[rows, indices] = np.arange(indices.size) - indptr[rows] + 1
    hop = np.where(own, np.arange(n)[:, None], next_node)
    ports = port_of[np.arange(n)[:, None], np.where(hop < 0, 0, hop)]
    broken = ~own & ((hop < 0) | (ports == DELIVER))
    if broken.any():
        x, dest = (int(i[0]) for i in np.nonzero(broken))
        what = "a misdelivery" if hop[x, dest] == MISDELIVER else "a first hop off the graph"
        raise ValueError(
            f"{program.kind} program records {what} at node {x} for destination "
            f"{dest}; the artifact has no table row to encode"
        )
    return ports


def memory_profile(rf: RoutingFunction, program: Optional[RoutingProgram] = None) -> MemoryProfile:
    """Memory profile of ``rf`` over every router of its graph.

    The table coders read the first hops of ``program``, the compiled
    :class:`~repro.routing.program.RoutingProgram` of ``rf`` when the
    caller already lowered it (the compile-once grid drivers do), else of
    :func:`~repro.routing.program.compile_or_interpret`'s result.  Labeled
    schemes keep their own storage model (entry lists plus addresses):
    their program is an execution artifact, not what their routers store.
    Raises :class:`TypeError` when ``rf`` exposes no encoding at all.
    """
    graph = rf.graph
    n = graph.n
    degrees = np.diff(graph.adjacency_arrays()[0])
    names: List[str] = []
    rows: List[np.ndarray] = []

    describe = getattr(rf, "parametric_description_bits", None)
    if describe is not None:
        names.append("parametric")
        rows.append(np.full(n, int(describe()), dtype=np.int64))

    scheme_encoding = getattr(rf, "local_encoding_bits", None)
    if callable(scheme_encoding):
        names.append("scheme-encoding")
        rows.append(np.array([int(scheme_encoding(x)) for x in range(n)], dtype=np.int64))

    table_sizes = getattr(rf, "table_sizes", None)
    if callable(table_sizes):
        # A sorted (target, port) pair list behind a fixed-width count.
        sizes = table_sizes()
        names.append("entry-list")
        rows.append(
            fixed_width(max(n, 1))
            + sizes * (fixed_width(max(n - 1, 0)) + fixed_widths(degrees - 1))
        )

    if callable(getattr(rf, "local_map", None)):
        compiled = compile_or_interpret(rf) if program is None else program
        ports = _first_hop_ports(compiled, graph)
        names.extend(TABLE_CODERS)
        rows.extend(table_coder_bits(ports, degrees))

    if not rows:
        raise TypeError(
            f"cannot measure memory of {type(rf).__name__}: it exposes neither a local map, "
            "a table_sizes method, nor a parametric description"
        )
    return _best(names, np.stack(rows))


def program_artifact_bits(program: RoutingProgram) -> int:
    """Total size in bits of the serialized program artifact.

    The whole-network counterpart of the per-router measurements: the
    number of bits the compile-once pipeline actually caches and ships for
    this ``(scheme, graph)`` cell.
    """
    return 8 * len(program.to_bytes())


def program_memory_profile(program: RoutingProgram, graph) -> MemoryProfile:
    """Per-router memory of the compiled artifact itself.

    Scores, for every router, a decodable encoding of that router's slice
    of the program — the executable counterpart of
    :func:`memory_profile`'s scheme-level storage measurement:

    * next-hop programs: the node's ``dest -> port`` row through the table
      coders, exactly the universal-routing-table quantity of Table 1;
    * header-state programs: the node's transition entries — an
      Elias-gamma state count, one deliver flag per state, then the output
      port and the successor state id of every forwarding state, all
      fixed-width: ``γ(states + 1) + states + forwarding * (w_p + w_s)``
      with ``w_s`` the width of a state id.

    A fault-masked view has no table row or state slice for its dropped
    transitions and raises :class:`ValueError`; generic programs carry no
    artifact to measure and raise :class:`TypeError`.
    """
    n = graph.n
    degrees = np.diff(graph.adjacency_arrays()[0])
    if isinstance(program, HeaderStateProgram):
        if (program.succ < 0).any():
            raise ValueError(
                "header-state program has dropped successors (a fault-masked view); "
                "the artifact has no state slice to encode"
            )
        node_of = np.asarray(program.node_of, dtype=np.int64)
        states = np.bincount(node_of, minlength=n)
        forwarding = np.bincount(node_of[~program.deliver], minlength=n)
        state_width = fixed_width(max(program.num_states - 1, 0))
        bits = elias_gamma_lengths(states + 1) + states
        bits += forwarding * (fixed_widths(degrees - 1) + state_width)
        return MemoryProfile(bits_per_node=bits, coder_per_node=("program-states",) * n)
    return _best(TABLE_CODERS, table_coder_bits(_first_hop_ports(program, graph), degrees))


def address_bits(rf: RoutingFunction) -> int:
    """Size in bits of the largest destination address used by a labeled scheme.

    Destination-based schemes address destinations by their ``ceil(log2 n)``
    bit label; landmark-style schemes add the landmark label and the port at
    the landmark.  Reported separately from the router memory because the
    paper's model allows headers of unbounded size.
    """
    graph = rf.graph
    n = graph.n
    label_width = fixed_width(max(n - 1, 0))
    get_address = getattr(rf, "address", None)
    if not callable(get_address):
        return label_width
    port_width = fixed_width(max(graph.max_degree() - 1, 0))
    worst = label_width
    for dest in range(n):
        addr = get_address(dest)
        if hasattr(addr, "dest") and hasattr(addr, "landmark"):
            worst = max(worst, 2 * label_width + port_width)
        else:
            worst = max(worst, label_width)
    return worst
