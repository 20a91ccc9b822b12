"""E-cube (dimension-order) routing on hypercubes.

Section 1 of the paper quotes ``MEM_local(H, 1) = O(log n)`` for the
hypercube ``H`` of order ``n``: with the natural port labelling (port ``k``
leads to the neighbour differing in bit ``k-1``), the local routing function
of a vertex ``x`` is "XOR the destination with my own label and take the
lowest set bit", which only requires storing the ``log2 n``-bit label of
``x``.  This module provides that scheme both as a routing function (for the
stretch/validity tests) and as a parametric description (for the memory
measurements of experiment E7).
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.properties import is_hypercube
from repro.routing.model import (
    BaseRoutingScheme,
    DELIVER,
    DestinationBasedRoutingFunction,
    HeaderTransitions,
)

__all__ = [
    "ECubeRoutingFunction",
    "ECubeRoutingScheme",
    "MaskECubeRoutingFunction",
    "MaskECubeRoutingScheme",
]


class ECubeRoutingFunction(DestinationBasedRoutingFunction):
    """Dimension-order routing on a hypercube with the canonical port labelling.

    The graph must be the output of
    :func:`repro.graphs.generators.hypercube` (vertex labels are coordinate
    words, port ``k`` flips bit ``k-1``); :class:`ECubeRoutingScheme.build`
    verifies this.
    """

    def __init__(self, graph: PortLabeledGraph, dimension: int) -> None:
        super().__init__(graph)
        self._dimension = dimension

    @property
    def dimension(self) -> int:
        """Hypercube dimension."""
        return self._dimension

    def port_to(self, node: int, dest: int) -> int:
        diff = node ^ dest
        if diff == 0:
            raise ValueError("port_to requires dest != node")
        lowest_bit = (diff & -diff).bit_length() - 1
        return lowest_bit + 1

    def parametric_description_bits(self) -> int:
        """Bits needed to describe the local function: the node label plus O(1).

        This is the quantity behind the ``O(log n)`` entry of Table 1: the
        program "flip the lowest differing bit" is the same at every node and
        only the node's own label varies.
        """
        return max(self._dimension, 1)


class MaskECubeRoutingFunction(ECubeRoutingFunction):
    """Dimension-order routing whose header is the *remaining coordinate mask*.

    The classical wormhole-router formulation of e-cube routing: the source
    attaches ``I(u, v) = u XOR v`` (the set of dimensions still to correct)
    and every hop clears the bit it just corrected — ``P(x, h)`` forwards
    through the lowest set bit of ``h`` and ``H(x, h)`` removes that bit;
    delivery happens when the mask reaches zero.  The invariant
    ``h = x XOR v`` makes the routes (and hence stretch and memory profile)
    identical to :class:`ECubeRoutingFunction`, but the header is genuinely
    *rewritten* at every hop, which makes this the canonical finite-header
    rewriting scheme for the header-compiled simulator path: the reachable
    header alphabet is the set of coordinate masks, so overriding
    ``initial_header``/``next_header`` drops the class off the next-hop
    lowering and ``program_kind()`` resolves to ``"header-state"`` (the
    inherited ``can_vectorize = True`` promise of a finite alphabet).
    """

    def initial_header(self, source: int, dest: int) -> int:
        return source ^ dest

    def port(self, node: int, header: Hashable) -> int:
        mask = int(header)  # type: ignore[call-overload]
        if mask == 0:
            return DELIVER
        return (mask & -mask).bit_length()  # 1 + index of the lowest set bit

    def next_header(self, node: int, header: Hashable) -> int:
        mask = int(header)  # type: ignore[call-overload]
        return mask & (mask - 1)  # clear the bit corrected by this hop

    def header_transitions(self) -> Optional[HeaderTransitions]:
        """Header id = mask, ``initial = x ^ y``; every mask's port and
        successor are tabulated once."""
        cls = type(self)
        if (
            cls.port is not MaskECubeRoutingFunction.port
            or cls.next_header is not MaskECubeRoutingFunction.next_header
            or cls.initial_header is not MaskECubeRoutingFunction.initial_header
        ):
            return None
        n = self._graph.n
        # Every x ^ y fits in the bit length of n - 1.
        masks = np.arange(1 << (n - 1).bit_length() if n > 1 else n)
        # frexp(2**k) has exponent k + 1: the port of the lowest set bit
        # (mask 0 has exponent 0, i.e. DELIVER).
        port_of = np.frexp(masks & -masks)[1].astype(masks.dtype)
        next_of = masks & (masks - 1)

        def step(nodes: np.ndarray, header_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return port_of[header_ids], next_of[header_ids]

        vertices = np.arange(n)
        initial = vertices[:, None] ^ vertices[None, :]
        return HeaderTransitions(tuple(masks.tolist()), initial, step)


class ECubeRoutingScheme(BaseRoutingScheme):
    """Partial scheme applying to hypercubes with the canonical port labelling."""

    name = "ecube"
    stretch_guarantee = 1.0
    _function_class = ECubeRoutingFunction

    def build(self, graph: PortLabeledGraph) -> ECubeRoutingFunction:
        """Build e-cube routing; raises if the graph is not a canonically labelled hypercube."""
        n = graph.n
        if n == 0 or n & (n - 1):
            raise ValueError("e-cube routing requires 2**d vertices")
        dimension = n.bit_length() - 1
        if not is_hypercube(graph):
            raise ValueError("e-cube routing requires a hypercube")
        # Check the canonical labelling: port k of u must lead to u ^ (1 << (k-1)).
        _, neighbors = graph.adjacency_arrays()
        vertices = np.arange(n)[:, None]
        canonical = vertices ^ (1 << np.arange(dimension))[None, :]
        if not np.array_equal(neighbors.reshape(n, dimension), canonical):
            raise ValueError(
                "e-cube routing requires the canonical hypercube port labelling; "
                "use repro.graphs.generators.hypercube()"
            )
        return self._function_class(graph, dimension)


class MaskECubeRoutingScheme(ECubeRoutingScheme):
    """E-cube routing in its header-rewriting (remaining-mask) formulation."""

    name = "ecube-mask"
    stretch_guarantee = 1.0
    _function_class = MaskECubeRoutingFunction
