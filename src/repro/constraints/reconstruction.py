"""The executable reconstruction argument behind Theorem 1.

The information-theoretic core of the proof is: *given only*

* the local routing functions of the constrained vertices ``A`` (whatever
  routing function ``R`` of stretch below 2 was installed on the network),
* the list of labels of the target vertices ``B``
  (``log2 C(n, q) + O(log n)`` bits), and
* an ``O(log n)``-bit procedure computing canonical representatives,

one can rebuild the canonical representative of the matrix of constraints
``M`` of the network — because every near-shortest routing function *must*
leave ``a_i`` through the port ``m_ij`` when asked to reach ``b_j``, so
querying each constrained router on each target label reads the matrix off
(up to the vertex/port relabellings that the canonical form quotients out).

Hence ``sum_{a in A} MEM(R, a) >= log2|M^d_{p,q}| - log2 C(n,q) - O(log n)``.

This module performs the reconstruction *for real*: :func:`encode_witness`
serialises the target-label list and the port answers of the constrained
routers into a bit string (whose length the tests compare against the bound
accounting), and :func:`reconstruct_matrix` / :func:`decode_witness` rebuild
the canonical matrix from it and from nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.constraints.builder import ConstraintGraph
from repro.constraints.matrix import EXACT_LIMIT, ConstraintMatrix, canonical_form_greedy
from repro.memory.encoding import BitReader, BitWriter, fixed_width
from repro.routing.model import RoutingFunction
from repro.sim.engine import simulate_all_pairs

__all__ = [
    "ReconstructionWitness",
    "query_constrained_ports",
    "reconstruct_matrix",
    "encode_witness",
    "decode_witness",
    "verify_reconstruction",
]


@dataclass(frozen=True)
class ReconstructionWitness:
    """Everything the decoder is given: target labels and queried ports.

    ``ports[i][j]`` is the output port used by constrained vertex ``i`` (in
    the order of ``constrained``) when routing to target ``targets[j]``.
    """

    n: int
    constrained: Tuple[int, ...]
    targets: Tuple[int, ...]
    ports: Tuple[Tuple[int, ...], ...]


def query_constrained_ports(
    rf: RoutingFunction,
    constrained: Sequence[int],
    targets: Sequence[int],
) -> ReconstructionWitness:
    """Query every constrained router on every target label.

    Only the *first* forwarding decision ``P(a, I(a, b))`` is recorded — the
    quantity Definition 1 constrains.  This is the role the routers' local
    memory plays in the proof.
    """
    ports: List[Tuple[int, ...]] = []
    for a in constrained:
        row: List[int] = []
        for b in targets:
            header = rf.initial_header(a, b)
            row.append(rf.port(a, header))
        ports.append(tuple(row))
    return ReconstructionWitness(
        n=rf.graph.n,
        constrained=tuple(constrained),
        targets=tuple(targets),
        ports=tuple(ports),
    )


def reconstruct_matrix(witness: ReconstructionWitness) -> ConstraintMatrix:
    """Rebuild the canonical constraint matrix from the witness alone.

    The raw port answers form a matrix equivalent (in the Definition 2
    sense) to the network's matrix of constraints — the routing function's
    own vertex and port relabellings are exactly the operations the
    equivalence quotients out — so canonicalising recovers the canonical
    representative of ``M``.

    Within :data:`~repro.constraints.matrix.EXACT_LIMIT` the representative
    is the exact canonical form; beyond it, the fast greedy
    canonicalisation; :func:`verify_reconstruction` applies the same choice
    to the reference matrix.
    """
    return _representative(ConstraintMatrix.from_entries(witness.ports))


def _representative(matrix: ConstraintMatrix) -> ConstraintMatrix:
    """Exact canonical form within ``EXACT_LIMIT``, greedy beyond it."""
    if max(matrix.shape) <= EXACT_LIMIT:
        return matrix.canonical()
    return ConstraintMatrix.from_entries(canonical_form_greedy(matrix.to_array()))


def encode_witness(witness: ReconstructionWitness) -> List[int]:
    """Serialise a witness into bits.

    Layout: ``q`` target labels on ``ceil(log2 n)`` bits each (the
    ``log2 C(n, q) + O(log n)``-bit component, encoded the simple way), then
    the ``p * q`` port answers, each on ``ceil(log2 n)`` bits (a port never
    exceeds the degree, which is below ``n``).  The header (``n``, ``p``,
    ``q`` and the constrained labels) corresponds to the ``O(log n)``-bit
    context of the accounting and is encoded too so the stream is fully
    self-contained.
    """
    n = witness.n
    width = max(fixed_width(max(n - 1, 1)), 1)
    writer = BitWriter()
    writer.write_elias_gamma(n)
    writer.write_elias_gamma(len(witness.constrained) + 1)
    writer.write_elias_gamma(len(witness.targets) + 1)
    for a in witness.constrained:
        writer.write_uint(a, width)
    for b in witness.targets:
        writer.write_uint(b, width)
    for row in witness.ports:
        for port in row:
            writer.write_uint(port, width)
    return writer.to_bits()


def decode_witness(bits: List[int]) -> ReconstructionWitness:
    """Inverse of :func:`encode_witness`."""
    reader = BitReader(bits)
    n = reader.read_elias_gamma()
    p = reader.read_elias_gamma() - 1
    q = reader.read_elias_gamma() - 1
    width = max(fixed_width(max(n - 1, 1)), 1)
    constrained = tuple(reader.read_uint(width) for _ in range(p))
    targets = tuple(reader.read_uint(width) for _ in range(q))
    ports = tuple(tuple(reader.read_uint(width) for _ in range(q)) for _ in range(p))
    return ReconstructionWitness(n=n, constrained=constrained, targets=targets, ports=ports)


def verify_reconstruction(
    cg: ConstraintGraph,
    rf: RoutingFunction,
    check_route_validity: bool = False,
) -> bool:
    """End-to-end check of the reconstruction argument on a concrete instance.

    Queries the constrained routers of the routing function ``rf`` (which
    must live on ``cg.graph`` and have stretch below 2), serialises and
    deserialises the witness, reconstructs the canonical matrix and compares
    it with the canonical form of ``cg.matrix``.

    With ``check_route_validity`` every ordered pair is also simulated
    (:func:`repro.sim.engine.simulate_all_pairs`) and each constrained-to-target
    message must be delivered: a misdelivering or livelocking scheme makes
    the check return ``False``, never raise.
    """
    if rf.graph is not cg.graph and rf.graph != cg.graph:
        raise ValueError("the routing function must be defined on the constraint graph")
    witness = query_constrained_ports(rf, cg.constrained, cg.targets)
    round_tripped = decode_witness(encode_witness(witness))
    if round_tripped != witness:
        return False
    if check_route_validity:
        delivered = simulate_all_pairs(rf).delivered
        if not delivered[np.ix_(cg.constrained, cg.targets)].all():
            return False
    reconstructed = reconstruct_matrix(round_tripped)
    return reconstructed.entries == _representative(cg.matrix).entries
