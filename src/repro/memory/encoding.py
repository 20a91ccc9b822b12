"""Bit-level encoding primitives.

All memory measurements in this reproduction are expressed in *bits* of a
concrete, decodable encoding — the computable stand-in for the Kolmogorov
complexity used by the paper (see DESIGN.md, "Substitutions").  The
routing-table and program-slice lengths of :mod:`repro.memory.coder` and
:mod:`repro.memory.requirement` are closed-form, built from the width
helpers here (:func:`fixed_width`, :func:`elias_gamma_length` and their
array forms); the encoders and decoders the tests check those lengths
against live in ``tests/oracles.py``.  A :class:`BitWriter` /
:class:`BitReader` pair writes and reads real bit strings (the Lemma 1
witnesses of :mod:`repro.constraints.reconstruction`, and the oracles),
and ``log2 n!`` / ``log2 C(n, k)`` serve the bound formulas.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

__all__ = [
    "BitWriter",
    "BitReader",
    "fixed_width",
    "fixed_widths",
    "elias_gamma_length",
    "elias_gamma_lengths",
    "log2_factorial",
    "log2_binomial",
]


def fixed_width(max_value: int) -> int:
    """Number of bits needed to store any integer in ``0 .. max_value``.

    ``fixed_width(0) == 0`` (a value that can only be 0 needs no bits).
    """
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    if max_value == 0:
        return 0
    return max_value.bit_length()


def elias_gamma_length(value: int) -> int:
    """Length in bits of the Elias-gamma code of a positive integer."""
    if value < 1:
        raise ValueError("Elias gamma encodes positive integers only")
    return 2 * (value.bit_length() - 1) + 1


def fixed_widths(max_values: np.ndarray) -> np.ndarray:
    """:func:`fixed_width` of every entry; negative entries count as 0."""
    return np.frexp(np.maximum(max_values, 0).astype(np.float64))[1].astype(np.int64)


def elias_gamma_lengths(values: np.ndarray) -> np.ndarray:
    """:func:`elias_gamma_length` of every entry (all entries positive)."""
    return 2 * fixed_widths(values) - 1


def log2_factorial(n: int) -> float:
    """``log2(n!)`` computed via :func:`math.lgamma` (exact enough for bounds)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n < 2:
        return 0.0
    return math.lgamma(n + 1) / math.log(2)


def log2_binomial(n: int, k: int) -> float:
    """``log2 C(n, k)``; 0 when ``k`` is out of range."""
    if k < 0 or k > n:
        return 0.0
    return log2_factorial(n) - log2_factorial(k) - log2_factorial(n - k)


class BitWriter:
    """Append-only bit buffer.

    Bits are appended most-significant-first within each field, so that the
    matching :class:`BitReader` calls mirror the write calls exactly.
    """

    def __init__(self) -> None:
        self._bits: List[int] = []

    def __len__(self) -> int:
        return len(self._bits)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._bits)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self._bits.append(bit)

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as an unsigned integer on exactly ``width`` bits."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def write_elias_gamma(self, value: int) -> None:
        """Append the Elias-gamma code of a positive integer."""
        if value < 1:
            raise ValueError("Elias gamma encodes positive integers only")
        width = value.bit_length()
        for _ in range(width - 1):
            self._bits.append(0)
        self.write_uint(value, width)

    def to_bits(self) -> List[int]:
        """A copy of the bit buffer."""
        return list(self._bits)

    def to_bytes(self) -> bytes:
        """The buffer packed into bytes (zero-padded at the end)."""
        out = bytearray()
        for i in range(0, len(self._bits), 8):
            chunk = self._bits[i : i + 8]
            byte = 0
            for j, bit in enumerate(chunk):
                byte |= bit << (7 - j)
            out.append(byte)
        return bytes(out)


class BitReader:
    """Sequential reader over a bit list produced by :class:`BitWriter`."""

    def __init__(self, bits: List[int]) -> None:
        self._bits = list(bits)
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        """Read one bit; raises :class:`EOFError` when exhausted."""
        if self._pos >= len(self._bits):
            raise EOFError("bit stream exhausted")
        bit = self._bits[self._pos]
        self._pos += 1
        return bit

    def read_uint(self, width: int) -> int:
        """Read an unsigned integer of exactly ``width`` bits."""
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_elias_gamma(self) -> int:
        """Read an Elias-gamma coded positive integer."""
        zeros = 0
        while True:
            bit = self.read_bit()
            if bit == 1:
                break
            zeros += 1
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read_bit()
        return value
