"""Routing model and universal routing schemes.

The paper models a *routing function* on a graph ``G`` as a triple
``R = (I, H, P)`` of initialization, header and port functions: to send a
message from ``u`` to ``v``, the source computes the initial header
``h_1 = I(u, v)``; a node ``x`` holding a message with header ``h`` forwards
it through output port ``P(x, h)`` with the new header ``H(x, h)``; delivery
happens at the node where ``P`` returns the reserved value ``DELIVER`` (the
paper writes ``P(u_k, h_k) = ⊥``).

A *routing scheme* is a function that returns a routing function for any
network; it is *universal* when it applies to all networks.  This subpackage
implements the model (:mod:`repro.routing.model`) and the concrete
universal schemes used to regenerate Table 1:

* :mod:`repro.routing.tables` — shortest-path routing tables, the
  ``O(n log n)``-bits-per-router upper bound that Theorem 1 proves optimal
  for every stretch below 2.
* :mod:`repro.routing.interval` — (k-)interval routing, including the
  1-interval scheme on trees that yields ``O(d log n)`` bits.
* :mod:`repro.routing.ecube` — dimension-order routing on hypercubes
  (``O(log n)`` bits).
* :mod:`repro.routing.complete` — the complete-graph example: ``O(log n)``
  bits under a good port labelling, ``Θ(n log n)`` under an adversarial one.
* :mod:`repro.routing.spanner` — greedy multiplicative spanners, the
  substrate of the large-stretch schemes.
* :mod:`repro.routing.landmark` — a Cowen-style landmark scheme
  (stretch ≤ 3) trading memory for stretch.
* :mod:`repro.routing.hierarchical` — spanner+landmark composition covering
  the large-stretch rows of Table 1.
* :mod:`repro.routing.program` — the compiled-program IR every scheme
  lowers to (``rf.compile_program()``): serializable next-hop /
  header-state / generic artifacts executed by :mod:`repro.sim.engine` and
  cached across processes by :mod:`repro.analysis.runner`.
"""

from repro.routing.model import (
    DELIVER,
    BaseRoutingScheme,
    DestinationBasedRoutingFunction,
    HeaderTransitions,
    LabeledRoutingFunction,
    RoutingFunction,
    RoutingScheme,
    SchemeInapplicableError,
    TableRoutingFunction,
)
from repro.routing.program import (
    GenericProgram,
    HeaderStateExplosionError,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    compile_or_interpret,
    compile_scheme_program,
    program_from_bytes,
)
from repro.routing.verify import (
    ProgramVerificationError,
    VerificationReport,
    verify_program,
    verify_structure,
)
from repro.routing.tables import ShortestPathTableScheme, shortest_path_ports
from repro.routing.interval import (
    IntervalRoutingFunction,
    IntervalRoutingScheme,
    TreeIntervalRoutingScheme,
    cyclic_intervals_of_set,
)
from repro.routing.ecube import (
    ECubeRoutingFunction,
    ECubeRoutingScheme,
    MaskECubeRoutingFunction,
    MaskECubeRoutingScheme,
)
from repro.routing.complete import (
    AdversarialCompleteGraphScheme,
    ModularCompleteGraphScheme,
)
from repro.routing.spanner import greedy_spanner, spanner_stretch
from repro.routing.landmark import (
    CowenLandmarkScheme,
    LandmarkRoutingFunction,
    RewritingLandmarkRoutingFunction,
)
from repro.routing.hierarchical import (
    HierarchicalSpannerScheme,
    RewritingHierarchicalSpannerRoutingFunction,
)

__all__ = [
    "DELIVER",
    "HeaderTransitions",
    "RoutingFunction",
    "DestinationBasedRoutingFunction",
    "LabeledRoutingFunction",
    "TableRoutingFunction",
    "BaseRoutingScheme",
    "RoutingScheme",
    "SchemeInapplicableError",
    "RoutingProgram",
    "NextHopProgram",
    "HeaderStateProgram",
    "GenericProgram",
    "HeaderStateExplosionError",
    "compile_or_interpret",
    "compile_scheme_program",
    "program_from_bytes",
    "ProgramVerificationError",
    "VerificationReport",
    "verify_program",
    "verify_structure",
    "ShortestPathTableScheme",
    "shortest_path_ports",
    "IntervalRoutingFunction",
    "IntervalRoutingScheme",
    "TreeIntervalRoutingScheme",
    "cyclic_intervals_of_set",
    "ECubeRoutingFunction",
    "ECubeRoutingScheme",
    "MaskECubeRoutingFunction",
    "MaskECubeRoutingScheme",
    "ModularCompleteGraphScheme",
    "AdversarialCompleteGraphScheme",
    "greedy_spanner",
    "spanner_stretch",
    "CowenLandmarkScheme",
    "LandmarkRoutingFunction",
    "RewritingLandmarkRoutingFunction",
    "HierarchicalSpannerScheme",
    "RewritingHierarchicalSpannerRoutingFunction",
]
