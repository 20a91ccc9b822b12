"""Theorem 1: the local memory lower bound for stretch factors below 2.

Statement.  For any stretch ``s < 2``, any constant ``0 < eps < 1`` and any
large enough ``n``, there is an ``n``-node network on which **every** routing
function of stretch below 2 forces ``Theta(n^eps)`` routers to use
``Omega(n^{1-eps} log n)`` memory bits each.

Proof shape (Section 4), which this module makes executable:

1. choose ``p = floor(n^eps)`` constrained vertices, ``q`` targets and an
   alphabet size ``d`` such that the Lemma 2 graph fits in ``n`` vertices
   (``p (d + 1) + q <= n``); pad with a path to reach exactly ``n``;
2. by Lemma 1 some matrix ``M in M^d_{p,q}`` needs at least
   ``log2 |M^d_{p,q}|`` bits to be described;
3. from the local routing functions of the constrained vertices (queried on
   the labels of the targets) plus the list of target labels
   (``log2 C(n, q)`` bits) and an ``O(log n)``-bit canonicalisation
   procedure, one can rebuild the canonical representative of ``M``
   (:mod:`repro.constraints.reconstruction` performs this reconstruction on
   real routing functions); therefore

   .. math::

       \\sum_{a \\in A} MEM_G(R, a) \\;\\ge\\; \\log_2 |M^d_{p,q}|
            - \\log_2 \\binom{n}{q} - O(\\log n).

4. dividing by ``p`` gives the average per-router bound; a subset argument
   (apply step 3 to the rows of any subset ``T`` of ``A``) shows that all
   but ``O(1)`` of the ``p`` routers must individually hold a constant
   fraction of the average, which is ``Omega(n^{1-eps} log n)``.

The functions below compute the exact finite-``n`` value of each of these
quantities so the benchmark (experiment E6) can print paper-bound versus
measured-encoding numbers for concrete ``n`` and ``eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.constraints.builder import ConstraintGraph, build_constraint_graph, lemma2_order_bound
from repro.constraints.enumeration import lemma1_lower_bound_log2
from repro.constraints.matrix import ConstraintMatrix
from repro.memory.encoding import log2_binomial

__all__ = [
    "Theorem1Parameters",
    "Theorem1Bound",
    "theorem1_parameters",
    "theorem1_bound",
    "worst_case_network",
    "routers_below_threshold_limit",
]

#: Number of ``O(log n)`` overhead terms charged by the accounting: the
#: canonicalisation procedure, and the encodings of ``p``, ``q`` and ``d``.
_LOG_OVERHEAD_TERMS = 4


@dataclass(frozen=True)
class Theorem1Parameters:
    """The ``(p, q, d)`` parameters of the Theorem 1 construction for given ``n, eps``."""

    n: int
    eps: float
    p: int
    q: int
    d: int

    @property
    def construction_order(self) -> int:
        """Order of the unpadded Lemma 2 graph: at most ``p (d + 1) + q``."""
        return lemma2_order_bound(self.p, self.q, self.d)


@dataclass(frozen=True)
class Theorem1Bound:
    """The finite-``n`` memory bounds produced by the Theorem 1 accounting (in bits)."""

    parameters: Theorem1Parameters
    matrix_information_bits: float
    target_list_bits: float
    overhead_bits: float
    total_constrained_bits: float
    per_router_bits: float
    asymptotic_per_router_bits: float

    @property
    def is_meaningful(self) -> bool:
        """Whether the finite-``n`` bound is non-trivial (positive)."""
        return self.total_constrained_bits > 0


def theorem1_parameters(n: int, eps: float) -> Theorem1Parameters:
    """The paper's parameter choice, adapted to exact finite ``n``.

    ``p = floor(n^eps)`` constrained vertices; the middle level gets roughly
    two thirds of the remaining vertices (``d = floor(2n / (3p)) - 1``, at
    least 1) and the targets the rest, capped at ``n/3``
    (``q = min(n - p(d+1), floor(n/3))``).  This keeps the Lemma 2 order
    within ``n`` while making ``d`` and ``q`` both ``Theta(n^{1-eps})`` for
    fixed ``eps``, which is what the theorem's per-router bound needs.
    Requires ``n >= 9`` and ``0 < eps < 1``.
    """
    if n < 9:
        raise ValueError("the construction needs n >= 9")
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    p = max(int(math.floor(n ** eps)), 1)
    d = max((2 * n) // (3 * p) - 1, 1)
    q = max(min(n - p * (d + 1), n // 3), 1)
    # The theorem is stated "for n large enough"; at small n with eps close
    # to 1 the nominal parameters may overshoot the order bound, in which
    # case they are shrunk (q, then d, then p) until the Lemma 2 graph fits.
    while lemma2_order_bound(p, q, d) > n and q > 1:
        q -= 1
    while lemma2_order_bound(p, q, d) > n and d > 1:
        d -= 1
    while lemma2_order_bound(p, q, d) > n and p > 1:
        p -= 1
    if lemma2_order_bound(p, q, d) > n:
        raise ValueError(f"no valid (p, q, d) for n={n}, eps={eps}")
    return Theorem1Parameters(n=n, eps=eps, p=p, q=q, d=d)


def theorem1_bound(n: int, eps: float) -> Theorem1Bound:
    """Exact finite-``n`` evaluation of the Theorem 1 accounting.

    ``total_constrained_bits`` is the lower bound on
    ``sum_{a in A} MEM_G(R, a)`` valid for every routing function ``R`` of
    stretch below 2 on the worst-case ``n``-node network;
    ``per_router_bits`` divides it by ``p``;
    ``asymptotic_per_router_bits`` is the leading term
    ``n^{1-eps} log2 n`` quoted in the theorem statement.
    """
    params = theorem1_parameters(n, eps)
    matrix_bits = lemma1_lower_bound_log2(params.p, params.q, params.d)
    target_bits = log2_binomial(n, params.q)
    overhead = _LOG_OVERHEAD_TERMS * math.log2(max(n, 2))
    total = max(matrix_bits - target_bits - overhead, 0.0)
    per_router = total / params.p if params.p else 0.0
    asymptotic = (n ** (1.0 - eps)) * math.log2(max(n, 2))
    return Theorem1Bound(
        parameters=params,
        matrix_information_bits=matrix_bits,
        target_list_bits=target_bits,
        overhead_bits=overhead,
        total_constrained_bits=total,
        per_router_bits=per_router,
        asymptotic_per_router_bits=asymptotic,
    )


def routers_below_threshold_limit(n: int, eps: float, threshold_fraction: float = 0.5) -> int:
    """Upper bound on how many constrained routers can have small memory.

    Applying the step-3 accounting to any subset ``T`` of the constrained
    vertices (the submatrix of their rows is itself a hard instance of
    ``M^d_{|T|,q}``) shows that the number of routers whose memory is below
    ``threshold_fraction`` times the per-row information content
    ``(q log d - d log d - log p)`` is bounded by

    .. math::

        |T| \\;\\le\\; \\frac{\\log_2\\binom{n}{q} + q \\log_2 q + O(\\log n)}
                         {(1 - f)\\,(q \\log_2 d - d \\log_2 d) }

    (0 when the denominator is not positive).  For the paper's parameters
    this is ``O(1)``: all but a constant number of the ``Theta(n^eps)``
    constrained routers must exceed the threshold.
    """
    params = theorem1_parameters(n, eps)
    q, d, p = params.q, params.d, params.p
    if d < 2:
        return p
    per_row_info = q * math.log2(d) - d * math.log2(d) - math.log2(max(p, 2))
    if per_row_info <= 0:
        return p
    slack = (1.0 - threshold_fraction) * per_row_info
    if slack <= 0:
        return p
    numerator = (
        log2_binomial(n, q)
        + q * math.log2(max(q, 2))
        + _LOG_OVERHEAD_TERMS * math.log2(max(n, 2))
    )
    return min(p, int(math.ceil(numerator / slack)))


def worst_case_network(
    n: int,
    eps: float,
    seed: Optional[int] = None,
    matrix: Optional[ConstraintMatrix] = None,
) -> ConstraintGraph:
    """Build an ``n``-node instance of the Theorem 1 worst-case network.

    The hard instance of the proof is the (unknown, maximally incompressible)
    matrix of ``M^d_{p,q}``; for experimentation any matrix exhibits the
    structure, and a uniformly random one is information-theoretically close
    to the worst case with overwhelming probability.  Pass ``matrix`` to pin
    a specific one (its shape must match the Theorem 1 parameters).

    Returns the padded :class:`~repro.constraints.builder.ConstraintGraph`
    of exactly ``n`` vertices.
    """
    params = theorem1_parameters(n, eps)
    if matrix is None:
        matrix = ConstraintMatrix.random(params.p, params.q, params.d, seed=seed)
    else:
        if matrix.shape != (params.p, params.q):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match the Theorem 1 parameters "
                f"({params.p}, {params.q})"
            )
        if matrix.max_entry > params.d:
            raise ValueError("matrix entries exceed the Theorem 1 alphabet size")
    return build_constraint_graph(matrix, pad_to_order=n)
