"""Closed-form lengths of the routing-table coders.

A coder turns the local routing behaviour of a router into a decodable bit
string; its length is an *upper bound* on the memory requirement
``MEM_G(R, x)`` of the paper.  Three table coders capture different entries
of Table 1:

* ``raw-table`` — one fixed-width port per destination:
  ``(n - 1) * ceil(log2 deg(x))`` bits, the classical routing-table size.
* ``interval-table`` — per port, an Elias-gamma interval count and the
  endpoints of the cyclic intervals of destinations routed through it
  (the interval routing representation); ``O(k * deg(x) * log n)`` bits
  for ``k`` intervals per arc, which collapses to ``O(deg(x) log n)`` on
  trees/outerplanar/unit circular-arc graphs.
* ``default-port`` — the most frequent port plus the list of exceptions;
  captures schemes where almost all destinations leave through one arc
  (paths, stars, the padded path of Theorem 1's graph).

Each length is closed-form in counts that one pass over a first-hop port
matrix yields, so :func:`table_coder_bits` scores every router at once and
no bit string is ever written.  The bit-writing encoders and their
decoders live in ``tests/oracles.py``; the tests check that every length
here is the length of an encoding its decoder inverts.
"""

from __future__ import annotations

import numpy as np

from repro.memory.encoding import elias_gamma_lengths, fixed_width, fixed_widths
from repro.routing.interval import cyclic_runs
from repro.routing.model import DELIVER

__all__ = ["TABLE_CODERS", "table_coder_bits"]

#: Names of the rows of :func:`table_coder_bits`, in tie-breaking order.
TABLE_CODERS = ("raw-table", "interval-table", "default-port")


def table_coder_bits(ports: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Lengths of the three table coders for every router, as a ``(3, k)`` array.

    ``ports[i]`` is router ``i``'s first-hop port towards each of ``n``
    destinations, in the order the interval coder scans them (vertex or
    label order), with :data:`~repro.routing.model.DELIVER` at the router's
    own entry; ``degrees[i]`` is its degree.  Rows follow
    :data:`TABLE_CODERS`.  With ``w_p = fixed_width(deg - 1)``,
    ``w_l = fixed_width(n - 1)`` and ``γ(v) = 2 floor(log2 v) + 1``:

    * raw: ``(n - 1) * w_p``;
    * interval: ``Σ_port γ(runs + 1) + 2 * runs * w_l``, where ``runs`` is
      the number of maximal cyclic runs of that port along the row;
    * default port: ``w_p + γ(exc + 1) + exc * (w_l + w_p)``, where ``exc``
      is ``n - 1`` minus the largest per-port count.

    Raises :class:`ValueError` unless every row holds exactly one
    ``DELIVER`` and ports in ``1..degree`` everywhere else.
    """
    ports = np.asarray(ports)
    degrees = np.asarray(degrees, dtype=np.int64)
    k, n = ports.shape
    own = ports == DELIVER
    invalid = ~own & ((ports < 1) | (ports > degrees[:, None]))
    if invalid.any():
        x, col = (int(i[0]) for i in np.nonzero(invalid))
        raise ValueError(f"invalid port {int(ports[x, col])} at router {x} (degree {degrees[x]})")
    entries = own.sum(axis=1)
    if (entries != 1).any():
        x = int(np.flatnonzero(entries != 1)[0])
        raise ValueError(f"router {x} has {entries[x]} DELIVER entries, expected 1")
    width = int(degrees.max(initial=0)) + 1
    port_width = fixed_widths(degrees - 1)
    label_width = fixed_width(max(n - 1, 0))

    row, lo, _ = cyclic_runs(ports)
    run_port = ports[row, lo].astype(np.int64)
    keep = run_port != DELIVER
    runs = np.bincount(row[keep] * width + run_port[keep], minlength=k * width)
    runs = runs.reshape(k, width)[:, 1:]
    on_router = np.arange(1, width) <= degrees[:, None]
    interval = np.where(on_router, elias_gamma_lengths(runs + 1), 0).sum(axis=1)
    interval += 2 * label_width * runs.sum(axis=1)

    codes = np.arange(k)[:, None] * width + ports.astype(np.int64)
    counts = np.bincount(codes[~own], minlength=k * width).reshape(k, width)
    exceptions = n - 1 - counts.max(axis=1, initial=0)
    default = port_width + elias_gamma_lengths(exceptions + 1)
    default += exceptions * (label_width + port_width)

    raw = (n - 1) * port_width
    return np.stack([raw, interval, default]).astype(np.int64)
