"""The ``R = (I, H, P)`` routing-function model of the paper.

Definitions (Section 1 of the paper):

* ``I(u, v)`` — *initialization*: the header attached by the source ``u`` to
  a message destined to ``v``.
* ``P(x, h)`` — *port*: the local output port through which a node ``x``
  forwards a message with header ``h``; the reserved value :data:`DELIVER`
  (we use ``0``, ports being ``1..deg(x)``) means the message has arrived.
* ``H(x, h)`` — *header rewriting*: the header attached to the message when
  it leaves ``x``.

For any distinct ``u, v`` the induced sequence of nodes must be a path from
``u`` to ``v`` in the graph.  The *memory requirement* ``MEM_G(R, x)`` is the
size of the smallest program computing ``I(x, ·)``, ``H(x, ·)`` and
``P(x, ·)`` — the Kolmogorov complexity of the local routing behaviour.  The
:mod:`repro.memory` package provides concrete (upper-bound) encodings for the
routing functions defined here.

Most classical schemes are *destination based*: the header is simply the
destination label and is never rewritten.  Those are modelled by
:class:`DestinationBasedRoutingFunction`, whose local behaviour at ``x`` is
entirely described by the map ``dest -> port``.  Labeled (name-dependent)
schemes such as landmark routing attach richer addresses; they derive from
:class:`LabeledRoutingFunction`.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Hashable,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.graphs.digraph import PortLabeledGraph

if TYPE_CHECKING:  # circular at runtime: program.py imports this module
    from repro.routing.program import RoutingProgram

__all__ = [
    "DELIVER",
    "HeaderTransitions",
    "RoutingFunction",
    "DestinationBasedRoutingFunction",
    "TableRoutingFunction",
    "LabeledRoutingFunction",
    "BaseRoutingScheme",
    "RoutingScheme",
    "SchemeInapplicableError",
]

#: Reserved port value meaning "deliver the message here".
DELIVER = 0

#: Port-matrix value of a :class:`TableRoutingFunction` entry its tables lack.
_NO_ENTRY = -1


class SchemeInapplicableError(ValueError):
    """A partial scheme declined a graph outside its class (``build`` raised).

    Grid drivers (:mod:`repro.analysis.table1`, :mod:`repro.sim.conformance`,
    :mod:`repro.analysis.runner`) wrap the :class:`ValueError` a partial
    scheme raises from ``build`` in this subclass so they can *skip* the
    cell, while the simulator's own :class:`ValueError` diagnostics (lost
    pairs, invalid ports) keep propagating as the bugs they are.
    """


class HeaderTransitions(NamedTuple):
    """Vectorised ``(I, H, P)`` over a finite header alphabet.

    What :meth:`RoutingFunction.header_transitions` returns for
    :func:`repro.routing.program.lower_header_state`.  Headers are named by
    their index in ``alphabet``:

    * ``initial[src, dest]`` is the id of ``I(src, dest)`` (the diagonal is
      never read);
    * ``step(nodes, header_ids)`` returns ``(ports, next_header_ids)``, the
      ``P`` and ``H`` answers of every ``(node, header)`` state it is given.
      The next header of a delivering state is never read.  A state the
      function cannot route raises the error ``P`` or ``H`` would raise, for
      the first such state in input order.
    """

    alphabet: Sequence[Hashable]
    initial: np.ndarray
    step: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


class RoutingFunction(abc.ABC):
    """Abstract routing function ``R = (I, H, P)`` on a fixed graph."""

    #: Capability flag of the header-compiled simulator path
    #: (:func:`repro.routing.program.lower_header_state`).  ``True`` promises
    #: that headers are hashable and that the set of ``(node, header)``
    #: states reachable from the initial headers is finite and small
    #: (roughly ``O(n^2)``), so the simulator may enumerate the header
    #: alphabet once and compile ``(node, header) -> (port, next header)``
    #: into integer state-transition arrays.  The abstract base is
    #: conservative (``False``): an arbitrary ``H`` may grow headers without
    #: bound (hop counters, appended traces), which would make the
    #: enumeration diverge.  The library subclasses below opt in — their
    #: headers are destination labels, addresses or interval labels, all
    #: drawn from finite alphabets — and rewriting subclasses whose header
    #: evolution stays within a finite alphabet (remaining e-cube masks,
    #: two-phase landmark tags) inherit the opt-in.
    can_vectorize: ClassVar[bool] = False

    def __init__(self, graph: PortLabeledGraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> PortLabeledGraph:
        """The graph this routing function is defined on."""
        return self._graph

    # ------------------------------------------------------------------
    # lowering to the compiled-program IR (repro.routing.program)
    # ------------------------------------------------------------------
    def program_kind(self) -> str:
        """Which :mod:`repro.routing.program` kind this function lowers to.

        The lowering decision is owned by the routing classes, not sniffed
        by the simulator: each class checks only its *own* contract.  The
        abstract base never claims the next-hop form (an arbitrary ``H``
        may rewrite headers); it offers the header-state machine when the
        class declares ``can_vectorize`` (a finite, enumerable
        ``(node, header)`` alphabet) and the generic opt-out otherwise.
        Subclasses refine this: the destination-based/labeled/interval
        bases return ``"next-hop"`` exactly when their header-constant
        contract is intact (neither ``next_header`` nor their own
        ``initial_header`` is overridden), and the header-rewriting
        formulations inherit the header-state answer from here.
        """
        if self.can_vectorize:
            return "header-state"
        return "generic"

    def compile_program(self) -> "RoutingProgram":
        """Lower this routing function to its :class:`~repro.routing.program.RoutingProgram`.

        Dispatches on :meth:`program_kind` (see
        :func:`repro.routing.program.lower`).
        """
        from repro.routing.program import lower

        return lower(self)

    def next_node_matrix(self) -> Optional[np.ndarray]:
        """Vectorised next-node matrix of the next-hop lowering, if the class has one.

        ``None`` (the default, also once a subclass overrides ``port`` or the
        address it reads) makes :func:`repro.routing.program.lower_next_hop`
        evaluate ``P`` per pair.
        """
        return None

    def header_transitions(self) -> Optional[HeaderTransitions]:
        """Vectorised header transitions of the header-state lowering, if any.

        ``None`` (the default, also once a subclass overrides a method the
        transitions read) makes :func:`repro.routing.program.lower_header_state`
        call ``I`` once per pair and ``P``/``H`` once per state instead.
        """
        return None

    @abc.abstractmethod
    def initial_header(self, source: int, dest: int) -> Hashable:
        """``I(source, dest)`` — header attached by the source."""

    @abc.abstractmethod
    def port(self, node: int, header: Hashable) -> int:
        """``P(node, header)`` — output port used at ``node``, or :data:`DELIVER`."""

    def next_header(self, node: int, header: Hashable) -> Hashable:
        """``H(node, header)`` — header after traversing ``node``.

        The default implementation leaves the header unchanged, which is what
        every destination-based scheme does.
        """
        return header

    # ------------------------------------------------------------------
    def local_decision(self, node: int, source: int, dest: int) -> int:
        """First output port used at ``node`` were it the source of a message to ``dest``.

        Convenience used by the matrix-of-constraints machinery, which only
        ever inspects ``P(a, I(a, b))``.
        """
        if node != source:
            raise ValueError("local_decision is defined at the source only")
        return self.port(node, self.initial_header(source, dest))


class DestinationBasedRoutingFunction(RoutingFunction):
    """Routing function whose header is the destination label, never rewritten.

    Sub-classes implement :meth:`port_to` (``node, dest -> port``).  The local
    routing function of a node ``x`` is exactly the finite map
    ``{dest: port_to(x, dest)}``, exposed by :meth:`local_map` for the memory
    encoders.
    """

    #: Headers are destination labels (or finite derivatives thereof in
    #: rewriting subclasses): the header-compiled simulator path applies.
    can_vectorize: ClassVar[bool] = True

    def program_kind(self) -> str:
        """Next-hop form iff the header-constant contract is intact.

        A subclass that overrides ``next_header`` or ``initial_header``
        (say, to embed source-dependent hints) has broken the
        "header == destination, never rewritten" contract this base class
        establishes; it falls through to the base resolution (header-state
        via ``can_vectorize``, or generic) rather than being silently
        compiled against a fabricated source.
        """
        cls = type(self)
        if (
            cls.next_header is RoutingFunction.next_header
            and cls.initial_header is DestinationBasedRoutingFunction.initial_header
        ):
            return "next-hop"
        return super().program_kind()

    def initial_header(self, source: int, dest: int) -> int:
        return dest

    def port(self, node: int, header: Hashable) -> int:
        dest = int(header)  # type: ignore[arg-type]
        if dest == node:
            return DELIVER
        return self.port_to(node, dest)

    @abc.abstractmethod
    def port_to(self, node: int, dest: int) -> int:
        """Output port used at ``node`` for a message destined to ``dest != node``."""

    def local_map(self, node: int) -> Dict[int, int]:
        """The map ``dest -> port`` describing the local routing function of ``node``."""
        return {
            dest: self.port_to(node, dest)
            for dest in self._graph.vertices()
            if dest != node
        }


class TableRoutingFunction(DestinationBasedRoutingFunction):
    """Destination-based routing function backed by explicit per-node tables.

    Parameters
    ----------
    graph:
        The underlying graph.
    tables:
        ``tables[x][dest]`` is the output port used at ``x`` for destination
        ``dest``; every node must have an entry for every other vertex.
        Either per-node dicts or an ``(n, n)`` port matrix (the output of
        :func:`repro.routing.tables.shortest_path_ports`), held as a port
        matrix; :meth:`local_map` dicts are built only when asked for.
    validate:
        When true (default), table completeness and port validity are checked
        eagerly.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        tables: Union[Mapping[int, Mapping[int, int]], np.ndarray],
        validate: bool = True,
    ) -> None:
        super().__init__(graph)
        if isinstance(tables, np.ndarray):
            self._ports = tables
        else:
            n = graph.n
            self._ports = np.full((n, n), _NO_ENTRY, dtype=np.int64)
            for x, table in tables.items():
                self._ports[int(x), list(table)] = list(table.values())
        if validate:
            self._next_nodes()

    def port_to(self, node: int, dest: int) -> int:
        return int(self._ports[node, dest])

    def local_map(self, node: int) -> Dict[int, int]:
        row = self._ports[node].tolist()
        return {d: p for d, p in enumerate(row) if d != node and p != _NO_ENTRY}

    def table(self, node: int) -> Dict[int, int]:
        """Alias of :meth:`local_map` matching the routing-table vocabulary."""
        return self.local_map(node)

    def next_node_matrix(self) -> Optional[np.ndarray]:
        """The neighbour behind every table port, read off the port matrix."""
        cls = type(self)
        if cls.port is not DestinationBasedRoutingFunction.port or (
            cls.port_to is not TableRoutingFunction.port_to
        ):
            return None
        return self._next_nodes()

    def _next_nodes(self) -> np.ndarray:
        """Next-node matrix of the tables; a malformed row (possible with
        ``validate=False``) raises a :class:`ValueError` naming it.
        """
        from repro.routing.program import next_nodes_of_ports

        n = self._graph.n
        diag = np.diag(self._ports)
        entries = (self._ports != _NO_ENTRY).sum(axis=1) - (diag != _NO_ENTRY)
        malformed = np.flatnonzero((diag > DELIVER) | (entries != n - 1))
        if malformed.size:
            x = int(malformed[0])
            if diag[x] > DELIVER:
                raise ValueError(f"routing table of vertex {x} contains a self-entry")
            raise ValueError(
                f"routing table of vertex {x} has {entries[x]} entries, "
                f"expected {n - 1} (one per other vertex)"
            )
        ports = self._ports.copy()
        np.fill_diagonal(ports, DELIVER)
        return next_nodes_of_ports(self._graph, ports)


class LabeledRoutingFunction(RoutingFunction):
    """Base class for labeled (name-dependent) schemes.

    The scheme assigns each destination an *address* (:meth:`address`)
    containing routing hints; the initial header of a message is the address
    of the destination.  The paper's model fixes node labels to ``1..n`` but
    its Table 1 explicitly covers referenced schemes with ``O(log^2 n)``-bit
    vertex labels; we keep the address size as a separately reported
    quantity (see :func:`repro.memory.requirement.address_bits`).
    """

    #: Headers are per-destination addresses (finitely many), so the
    #: header-compiled simulator path applies.
    can_vectorize: ClassVar[bool] = True

    def program_kind(self) -> str:
        """Next-hop form iff the fixed-address contract is intact.

        Labeled headers are per-destination addresses: header-constant
        unless a subclass rewrites them (``next_header``) or derives the
        initial header from more than the destination
        (``initial_header``); those subclasses fall through to the base
        resolution.
        """
        cls = type(self)
        if (
            cls.next_header is RoutingFunction.next_header
            and cls.initial_header is LabeledRoutingFunction.initial_header
        ):
            return "next-hop"
        return super().program_kind()

    @abc.abstractmethod
    def address(self, dest: int) -> Hashable:
        """Address (routing label) of ``dest``."""

    def initial_header(self, source: int, dest: int) -> Hashable:
        return self.address(dest)


class BaseRoutingScheme:
    """Concrete base of the library's routing schemes: owns the lowering.

    Gives every scheme the ``compile_program(graph)`` entry point of the
    compile-once pipeline: build the routing function on a copy of the
    graph (some schemes relabel ports in place) and lower it to its
    :class:`~repro.routing.program.RoutingProgram`.  Subclasses implement
    ``build`` and expose ``name`` / ``stretch_guarantee`` as before.
    """

    name: str = "routing-scheme"

    def build(self, graph: PortLabeledGraph) -> RoutingFunction:
        """Return a routing function for ``graph`` (subclass responsibility)."""
        raise NotImplementedError

    def compile_program(self, graph: PortLabeledGraph) -> "RoutingProgram":
        """Lower this scheme on ``graph`` to a serializable routing program.

        A ``build`` refusal on an inapplicable graph is re-raised as
        :class:`SchemeInapplicableError` (see
        :func:`repro.routing.program.compile_scheme_program`).
        """
        from repro.routing.program import compile_scheme_program

        return compile_scheme_program(self, graph)


@runtime_checkable
class RoutingScheme(Protocol):
    """A universal routing scheme: a callable producing a routing function for any graph.

    Concrete schemes additionally expose a ``name`` attribute and may expose
    a ``stretch_guarantee`` attribute giving the worst-case stretch they are
    designed for (``None`` meaning shortest paths).  Library schemes derive
    from :class:`BaseRoutingScheme` and also offer ``compile_program(graph)``
    — build-then-lower to a :class:`~repro.routing.program.RoutingProgram`.
    """

    name: str

    def build(self, graph: PortLabeledGraph) -> RoutingFunction:
        """Return a routing function for ``graph``."""
        ...
