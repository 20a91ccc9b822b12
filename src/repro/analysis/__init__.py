"""Experiment drivers shared by the benchmarks and the examples.

* :mod:`repro.analysis.table1` — measures the memory/stretch behaviour of the
  implemented universal schemes on graph families and lays the results out
  against the closed-form bounds of Table 1 (experiment E1).
* :mod:`repro.analysis.experiments` — the runners for the remaining
  experiments (Figure 1, Equation 2, Lemmas 1–2, Theorem 1, the special
  graph families and the stretch/memory trade-off), each returning plain
  data structures that the benchmark harness prints and EXPERIMENTS.md
  records.
* :mod:`repro.analysis.runner` — the sharded, cached experiment runner:
  fans the scheme x family x size grids over a process pool with an
  on-disk cache keyed by graph and scheme-config fingerprints, making
  re-runs and benchmark sweeps incremental.  Every sweep is a
  :class:`ShardedRunner` method (``ShardedRunner(processes=1)`` runs it
  serially in memory); the workload modules below supply its cell bodies
  and aggregators.
* :mod:`repro.analysis.resilience` — the fault-injection workload: seeded
  k-failure scenarios over the registry, one cached compile per cell and
  one mask per scenario; :func:`survival_curves` aggregates the rows of
  ``ShardedRunner.resilience_sweep`` into per-scheme survival and
  stretch-degradation curves.
* :mod:`repro.analysis.churn` — the incremental-delta workload behind
  ``ShardedRunner.churn_sweep``; :func:`~repro.analysis.churn.churn_summary`
  aggregates its per-step rows.
* :mod:`repro.analysis.flow` — the traffic workload: seeded demand
  matrices (uniform / Zipf / gravity, weighted pair counts) routed through
  compiled programs as vectorised subtree sums, producing per-edge and
  per-node load, maximum congestion, and capacity-constrained throughput.
"""

from repro.analysis.table1 import (
    SchemeMeasurement,
    Table1Row,
    group_measurements,
    measure_scheme,
    format_table1,
)
from repro.analysis.runner import (
    ExperimentCache,
    ShardStats,
    ShardedRunner,
    measure_cell,
    scheme_fingerprint,
)
from repro.analysis.resilience import (
    ResilienceCellResult,
    ResilienceCurve,
    format_resilience,
    survival_curves,
)
from repro.analysis.flow import (
    DemandMatrix,
    FlowCellResult,
    FlowResult,
    demand_matrix,
    demand_models,
    format_flow,
    gravity_demand,
    route_demand,
    uniform_demand,
    zipf_demand,
)
from repro.analysis.experiments import (
    eq2_enumeration_experiment,
    figure1_experiment,
    lemma1_experiment,
    lemma2_experiment,
    special_graphs_experiment,
    stretch_tradeoff_experiment,
    theorem1_experiment,
)

__all__ = [
    "SchemeMeasurement",
    "Table1Row",
    "group_measurements",
    "measure_scheme",
    "format_table1",
    "ExperimentCache",
    "ShardStats",
    "ShardedRunner",
    "measure_cell",
    "scheme_fingerprint",
    "ResilienceCellResult",
    "ResilienceCurve",
    "format_resilience",
    "survival_curves",
    "DemandMatrix",
    "FlowCellResult",
    "FlowResult",
    "demand_matrix",
    "demand_models",
    "format_flow",
    "gravity_demand",
    "route_demand",
    "uniform_demand",
    "zipf_demand",
    "figure1_experiment",
    "eq2_enumeration_experiment",
    "lemma1_experiment",
    "lemma2_experiment",
    "theorem1_experiment",
    "special_graphs_experiment",
    "stretch_tradeoff_experiment",
]
