"""The paper's primary contribution: constraint matrices, constraint graphs, Theorem 1.

* :mod:`repro.constraints.matrix` — generalized matrices of constraints,
  their equivalence relation and canonical representatives (Section 2).
* :mod:`repro.constraints.enumeration` — exhaustive enumeration of
  ``M^d_{p,q}`` and the Lemma 1 counting bound.
* :mod:`repro.constraints.builder` — the Lemma 2 three-level graphs of
  constraints (Section 3).
* :mod:`repro.constraints.verifier` — checking that a matrix really is a
  matrix of constraints of a graph at a given stretch (Definition 1 made
  operational).
* :mod:`repro.constraints.petersen` — the Figure 1 instance on the Petersen
  graph.
* :mod:`repro.constraints.lower_bound` — Theorem 1's parameters, worst-case
  networks and finite-``n`` bound accounting (Section 4).
* :mod:`repro.constraints.reconstruction` — the executable
  encode/decode reconstruction argument underlying the bound.
"""

from repro.constraints.matrix import (
    ConstraintMatrix,
    are_equivalent,
    canonical_form,
    canonical_form_greedy,
    matrix_index,
    row_normal_form,
)
from repro.constraints.enumeration import (
    count_equivalence_classes,
    enumerate_canonical_matrices,
    iter_canonical_matrices,
    lemma1_lower_bound,
    lemma1_lower_bound_log2,
    lemma1_simplified_log2,
    normalized_rows,
)
from repro.constraints.builder import ConstraintGraph, build_constraint_graph, lemma2_order_bound
from repro.constraints.verifier import (
    VerificationReport,
    extract_constraint_matrix,
    forced_first_arcs,
    verify_constraint_matrix,
)
from repro.constraints.petersen import PetersenFigure, petersen_constraint_matrix
from repro.constraints.lower_bound import (
    Theorem1Bound,
    Theorem1Parameters,
    routers_below_threshold_limit,
    theorem1_bound,
    theorem1_parameters,
    worst_case_network,
)
from repro.constraints.reconstruction import (
    ReconstructionWitness,
    decode_witness,
    encode_witness,
    query_constrained_ports,
    reconstruct_matrix,
    verify_reconstruction,
)

__all__ = [
    "ConstraintMatrix",
    "row_normal_form",
    "matrix_index",
    "canonical_form",
    "canonical_form_greedy",
    "are_equivalent",
    "normalized_rows",
    "iter_canonical_matrices",
    "enumerate_canonical_matrices",
    "count_equivalence_classes",
    "lemma1_lower_bound",
    "lemma1_lower_bound_log2",
    "lemma1_simplified_log2",
    "ConstraintGraph",
    "build_constraint_graph",
    "lemma2_order_bound",
    "VerificationReport",
    "forced_first_arcs",
    "verify_constraint_matrix",
    "extract_constraint_matrix",
    "PetersenFigure",
    "petersen_constraint_matrix",
    "Theorem1Parameters",
    "Theorem1Bound",
    "theorem1_parameters",
    "theorem1_bound",
    "routers_below_threshold_limit",
    "worst_case_network",
    "ReconstructionWitness",
    "query_constrained_ports",
    "reconstruct_matrix",
    "encode_witness",
    "decode_witness",
    "verify_reconstruction",
]
