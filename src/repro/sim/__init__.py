"""Batched routing simulation and cross-checked conformance reporting.

The paper evaluates a routing function ``R = (I, H, P)`` pair by pair; the
seed reproduction did the same, capping experiment grids at toy sizes.  This
package turns the scheme zoo of :mod:`repro.routing` into a measurable
system built around a **compile-once pipeline**:

* :mod:`repro.routing.program` — every scheme lowers itself
  (``rf.compile_program()``) to a serializable
  :class:`~repro.routing.program.RoutingProgram`: a next-hop matrix for
  header-constant schemes, interned ``(node, header)`` state-transition
  arrays for finite-header rewriting schemes, or an explicit generic
  opt-out marker.  Programs round-trip through ``to_bytes``/
  :func:`~repro.routing.program.program_from_bytes` and carry a stable
  content fingerprint, so the sharded runner caches them on disk and ships
  them to workers as bytes.

* :mod:`repro.sim.engine` — a thin executor over programs that answers
  for **all n(n-1) ordered pairs at once**: both compiled kinds
  (``"compiled"`` next-hop, ``"header-compiled"`` header-state) resolve
  every pair's fate in closed form through
  :func:`repro.routing.verify.resolve_fates`, and ``"generic"`` programs
  run the package's one per-message interpreter,
  :func:`~repro.sim.engine.interpret`, with or without a fault scenario.
  Either way the answer is one
  :class:`~repro.routing.verify.VerificationReport` per execution, which
  :class:`~repro.sim.engine.SimulationResult` and
  :class:`~repro.sim.faults.FaultSimulationResult` wrap.  Livelock detection is exact on both compiled kinds
  (functional-graph arguments) and budget-based (a fixed ``4 * n`` steps)
  on the generic path.  Every executor compiles a live routing function
  through the one compile-or-interpret step,
  :func:`repro.routing.program.compile_or_interpret`.

* :mod:`repro.sim.registry` — seeded instances of every graph-generator
  family and every implemented routing scheme, the executable domain of the
  paper's "for every universal scheme on every network" quantifiers — plus
  seeded k-failure scenario generators for the resilience workload.

* :mod:`repro.sim.faults` — vectorized fault injection on compiled
  programs: a :class:`~repro.sim.faults.FaultSet` masks a program's
  transition arrays (no recompilation) and the masked executor classifies
  every feasible pair as delivered / dropped-at-fault / livelocked /
  misdelivered, with stretch inflation measured against shortest paths
  recomputed on the surviving graph.

* :mod:`repro.sim.churn` — seeded dynamic-topology traces
  (:class:`~repro.sim.churn.ChurnTrace`): connectivity-preserving edge
  add/remove snapshot sequences (random valid flips and LEO-grid-style
  periodic seam rotation) whose compiled programs are *maintained*
  incrementally by :func:`~repro.routing.program.apply_delta` — per-update
  work scaling with the size of the change, not the network — with the
  recompile-differential harness in ``tests/test_churn.py`` pinning
  patched == recompiled byte-for-byte.

* :mod:`repro.sim.conformance` — :class:`~repro.sim.conformance.ConformanceReport`
  verifies one (scheme, family) cell end to end: all pairs delivered, exact
  stretch within the scheme's guarantee (and exactly 1 for shortest-path
  schemes — the regime Theorem 1 proves expensive), measured encoded memory
  under the universal routing-table bound, and the Table 1 stretch regime
  the measurement lands in with its closed-form bound curves from
  :mod:`repro.memory.bounds` evaluated at the measured ``n``;
  :meth:`repro.analysis.runner.ShardedRunner.conformance_suite` runs the
  whole registry grid.

The seed's per-pair router lives in ``tests/oracles.py`` as the
differential-testing oracle; ``tests/test_sim_conformance.py`` and
``tests/test_program_ir.py`` pin batched == per-pair (and compiled program
== generic interpreter == per-pair) across the registries.

Program-kind eligibility is declared by the routing classes themselves —
use ``rf.program_kind()`` / the ``can_vectorize`` class attribute; the
engine exports no capability sniffers.
"""

from repro.routing.program import (
    DeltaResult,
    GenericProgram,
    HeaderStateExplosionError,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    apply_delta,
    program_from_bytes,
)
from repro.sim.churn import (
    ChurnStep,
    ChurnTrace,
    churn_scenarios,
    leo_grid_trace,
    random_churn_trace,
)
from repro.sim.engine import (
    MISDELIVER,
    SimulationResult,
    execute_masked_program,
    execute_program,
    interpret,
    simulate_all_pairs,
    simulated_stretch_factor,
)
from repro.sim.faults import (
    FaultSet,
    FaultSimulationResult,
    apply_faults,
    random_fault_set,
    simulate_with_faults,
    surviving_distance_matrix,
    surviving_graph,
)
from repro.sim.conformance import (
    ConformanceReport,
    conformance_report,
    format_conformance,
)
from repro.sim.registry import (
    connected_instance,
    fault_scenarios,
    graph_families,
    scheme_registry,
)

__all__ = [
    "MISDELIVER",
    "ChurnStep",
    "ChurnTrace",
    "DeltaResult",
    "FaultSet",
    "FaultSimulationResult",
    "GenericProgram",
    "HeaderStateExplosionError",
    "HeaderStateProgram",
    "NextHopProgram",
    "RoutingProgram",
    "SimulationResult",
    "apply_delta",
    "apply_faults",
    "churn_scenarios",
    "execute_masked_program",
    "execute_program",
    "interpret",
    "leo_grid_trace",
    "program_from_bytes",
    "random_churn_trace",
    "random_fault_set",
    "simulate_all_pairs",
    "simulate_with_faults",
    "simulated_stretch_factor",
    "surviving_distance_matrix",
    "surviving_graph",
    "ConformanceReport",
    "conformance_report",
    "format_conformance",
    "connected_instance",
    "fault_scenarios",
    "graph_families",
    "scheme_registry",
]
