"""Memory-requirement measurement.

The paper defines ``MEM_G(R, x)`` as the Kolmogorov complexity of the local
routing behaviour of ``R`` at the router ``x`` — an uncomputable quantity
that the paper itself only ever manipulates through

* concrete *encodings* of local routing functions (upper bounds), and
* counting arguments over families of routing problems (lower bounds,
  Lemma 1 / Theorem 1).

This package implements the first half: closed-form lengths of concrete
encodings — routing-table coders (:mod:`repro.memory.coder`) ranging from
the naive fixed-width table to interval- and default-port-compressed forms,
scored for every router at once from a compiled program's first-hop port
matrix; per-router and per-graph memory profiles
(:mod:`repro.memory.requirement`); width helpers and a bit writer/reader
(:mod:`repro.memory.encoding`); and the closed-form bound formulas used to
regenerate Table 1 (:mod:`repro.memory.bounds`).  The encoders and
decoders that make every length decodable live in ``tests/oracles.py``.
The counting lower bounds live with the rest of the paper's machinery in
:mod:`repro.constraints`.
"""

from repro.memory.encoding import (
    elias_gamma_length,
    fixed_width,
    log2_binomial,
    log2_factorial,
)
from repro.memory.coder import TABLE_CODERS, table_coder_bits
from repro.memory.requirement import (
    MemoryProfile,
    address_bits,
    memory_profile,
    program_artifact_bits,
    program_memory_profile,
)
from repro.memory import bounds

__all__ = [
    "elias_gamma_length",
    "fixed_width",
    "log2_binomial",
    "log2_factorial",
    "TABLE_CODERS",
    "table_coder_bits",
    "MemoryProfile",
    "memory_profile",
    "address_bits",
    "program_artifact_bits",
    "program_memory_profile",
    "bounds",
]
