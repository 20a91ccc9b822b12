"""Coders for local routing functions.

A coder turns the local routing behaviour of a router into a decodable bit
string; its length is an *upper bound* on the memory requirement
``MEM_G(R, x)`` of the paper.  Different coders capture different entries of
Table 1:

* :class:`RawTableCoder` — one fixed-width port per destination:
  ``(n - 1) * ceil(log2 deg(x))`` bits, the classical routing-table size.
* :class:`IntervalTableCoder` — groups destinations routed through the same
  port into cyclic intervals (the interval routing representation);
  ``O(k * deg(x) * log n)`` bits for ``k`` intervals per arc, which collapses
  to ``O(deg(x) log n)`` on trees/outerplanar/unit circular-arc graphs.
* :class:`DefaultPortCoder` — stores the most frequent port plus the list of
  exceptions; captures schemes where almost all destinations leave through
  one arc (paths, stars, the padded path of Theorem 1's graph).
* :class:`ParametricCoder` — for closed-form schemes (e-cube on hypercubes,
  the modular labelling of ``K_n``) whose local behaviour is a fixed program
  plus the node's own label.

Every coder implements ``encode``/``decode``; the test-suite round-trips them
so that reported bit counts always correspond to genuinely decodable
descriptions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.memory.encoding import BitReader, BitWriter, fixed_width
from repro.routing.interval import cyclic_intervals_of_set

__all__ = [
    "CoderResult",
    "LocalMapCoder",
    "RawTableCoder",
    "IntervalTableCoder",
    "DefaultPortCoder",
    "ParametricCoder",
    "best_coding",
]


@dataclass(frozen=True)
class CoderResult:
    """Outcome of encoding one router's local routing function.

    Attributes
    ----------
    coder:
        Name of the coder that produced the bits.
    bits:
        Length of the encoding in bits.
    payload:
        The actual bit string (as a list of 0/1), so tests can decode it.
    """

    coder: str
    bits: int
    payload: List[int]


class LocalMapCoder(abc.ABC):
    """Coder for a destination-based local map ``dest -> port``.

    The map's keys are every vertex except the router itself; ``n`` is the
    number of vertices of the network and ``degree`` the router's degree.
    These two integers (plus the router's label) are considered globally
    known ``O(log n)``-bit context, as in the paper's accounting.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, node: int, n: int, degree: int, local_map: Mapping[int, int]) -> CoderResult:
        """Encode the local map of ``node``."""

    @abc.abstractmethod
    def decode(self, node: int, n: int, degree: int, payload: List[int]) -> Dict[int, int]:
        """Decode a payload back into the local map."""


class RawTableCoder(LocalMapCoder):
    """Fixed-width table: ``ceil(log2 degree)`` bits per destination.

    Ports are ``1..degree``; each entry stores ``port - 1`` on
    ``fixed_width(degree - 1)`` bits, scanning destinations in increasing
    label order and skipping the router itself.
    """

    name = "raw-table"

    def encode(self, node: int, n: int, degree: int, local_map: Mapping[int, int]) -> CoderResult:
        width = fixed_width(max(degree - 1, 0))
        writer = BitWriter()
        for dest in range(n):
            if dest == node:
                continue
            port = local_map[dest]
            if not 1 <= port <= degree:
                raise ValueError(f"invalid port {port} at node {node} (degree {degree})")
            writer.write_uint(port - 1, width)
        return CoderResult(self.name, writer.bit_length, writer.to_bits())

    def decode(self, node: int, n: int, degree: int, payload: List[int]) -> Dict[int, int]:
        width = fixed_width(max(degree - 1, 0))
        reader = BitReader(payload)
        out: Dict[int, int] = {}
        for dest in range(n):
            if dest == node:
                continue
            out[dest] = reader.read_uint(width) + 1
        return out


class IntervalTableCoder(LocalMapCoder):
    """Interval-compressed table.

    For each port ``p`` (in increasing order) the coder stores the number of
    cyclic intervals of the destination set routed through ``p`` (Elias
    gamma, shifted by one so zero intervals is representable) followed by the
    interval endpoints on ``ceil(log2 n)`` bits each.  Decoding rebuilds the
    full map.  On a tree labelled by DFS numbers this is the
    ``O(deg log n)``-bit representation of Section 1.

    The coder assumes the destination *labels* are the vertex labels
    themselves; schemes that relabel vertices should encode their own
    labelling's local map (see
    :meth:`repro.routing.interval.IntervalRoutingFunction.local_map`).
    """

    name = "interval-table"

    def encode(self, node: int, n: int, degree: int, local_map: Mapping[int, int]) -> CoderResult:
        label_width = fixed_width(max(n - 1, 0))
        by_port: Dict[int, List[int]] = {}
        for dest, port in local_map.items():
            if not 1 <= port <= degree:
                raise ValueError(f"invalid port {port} at node {node} (degree {degree})")
            by_port.setdefault(port, []).append(dest)
        writer = BitWriter()
        for port in range(1, degree + 1):
            labels = by_port.get(port, [])
            intervals = cyclic_intervals_of_set(labels, n) if labels else []
            writer.write_elias_gamma(len(intervals) + 1)
            for lo, hi in intervals:
                writer.write_uint(lo, label_width)
                writer.write_uint(hi, label_width)
        return CoderResult(self.name, writer.bit_length, writer.to_bits())

    def decode(self, node: int, n: int, degree: int, payload: List[int]) -> Dict[int, int]:
        label_width = fixed_width(max(n - 1, 0))
        reader = BitReader(payload)
        out: Dict[int, int] = {}
        for port in range(1, degree + 1):
            count = reader.read_elias_gamma() - 1
            for _ in range(count):
                lo = reader.read_uint(label_width)
                hi = reader.read_uint(label_width)
                length = (hi - lo) % n + 1
                for k in range(length):
                    dest = (lo + k) % n
                    out[dest] = port
        out.pop(node, None)
        return out


class DefaultPortCoder(LocalMapCoder):
    """Default port + exception list.

    Stores the most frequent port, the number of exceptions, then each
    exception as ``(destination, port)`` on ``ceil(log2 n) + ceil(log2 deg)``
    bits.  Collapses to ``O(log n)`` bits on routers all of whose traffic
    leaves through one arc (e.g. the vertices of the padded path in the
    Theorem 1 construction).
    """

    name = "default-port"

    def encode(self, node: int, n: int, degree: int, local_map: Mapping[int, int]) -> CoderResult:
        port_width = fixed_width(max(degree - 1, 0))
        label_width = fixed_width(max(n - 1, 0))
        counts: Dict[int, int] = {}
        for port in local_map.values():
            if not 1 <= port <= degree:
                raise ValueError(f"invalid port {port} at node {node} (degree {degree})")
            counts[port] = counts.get(port, 0) + 1
        default_port = max(counts, key=lambda p: (counts[p], -p)) if counts else 1
        exceptions = [(dest, port) for dest, port in sorted(local_map.items()) if port != default_port]
        writer = BitWriter()
        writer.write_uint(default_port - 1, port_width)
        writer.write_elias_gamma(len(exceptions) + 1)
        for dest, port in exceptions:
            writer.write_uint(dest, label_width)
            writer.write_uint(port - 1, port_width)
        return CoderResult(self.name, writer.bit_length, writer.to_bits())

    def decode(self, node: int, n: int, degree: int, payload: List[int]) -> Dict[int, int]:
        port_width = fixed_width(max(degree - 1, 0))
        label_width = fixed_width(max(n - 1, 0))
        reader = BitReader(payload)
        default_port = reader.read_uint(port_width) + 1
        num_exceptions = reader.read_elias_gamma() - 1
        out = {dest: default_port for dest in range(n) if dest != node}
        for _ in range(num_exceptions):
            dest = reader.read_uint(label_width)
            port = reader.read_uint(port_width) + 1
            out[dest] = port
        return out


class ParametricCoder:
    """Coder for closed-form local routing functions.

    Schemes whose routing functions expose ``parametric_description_bits()``
    (e-cube on hypercubes, the modular complete-graph rule) are describable
    by a constant program plus the node's own label; this coder simply
    reports that size.  It does not implement ``decode`` because the
    "payload" is the node label itself.
    """

    name = "parametric"

    def encode_function(self, routing_function, node: int) -> Optional[CoderResult]:
        """Return the parametric size for ``node`` or ``None`` if unsupported."""
        describe = getattr(routing_function, "parametric_description_bits", None)
        if describe is None:
            return None
        bits = int(describe())
        return CoderResult(self.name, bits, [])


def best_coding(
    node: int,
    n: int,
    degree: int,
    local_map: Mapping[int, int],
    coders: Optional[Sequence[LocalMapCoder]] = None,
) -> CoderResult:
    """Smallest encoding of a local map among the given coders.

    Defaults to raw, interval and default-port coders; the minimum over
    decodable encodings is the library's computable proxy for
    ``MEM_G(R, x)``.
    """
    if coders is None:
        coders = (RawTableCoder(), IntervalTableCoder(), DefaultPortCoder())
    results = [coder.encode(node, n, degree, local_map) for coder in coders]
    if not results:
        raise ValueError("at least one coder is required")
    return min(results, key=lambda r: r.bits)
