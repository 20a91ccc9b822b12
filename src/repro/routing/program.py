"""Compiled routing programs — the serializable IR every scheme lowers to.

The paper's model ``R = (I, H, P)`` is *pure local data*: per-node maps from
headers to output ports and rewritten headers.  A :class:`RoutingProgram` is
that data made explicit — a compiled, self-contained artifact that a thin
engine (:mod:`repro.sim.engine`) can execute without ever calling back into
the scheme that produced it.  Three program kinds cover the three execution
shapes the simulator historically special-cased:

* :class:`NextHopProgram` (``kind = "next-hop"``) — header-constant schemes
  (the header is a function of the destination alone, never rewritten)
  lower to a dense ``next_node[x, dest]`` matrix: the whole routing function
  is one ``(n, n)`` integer array.
* :class:`HeaderStateProgram` (``kind = "header-state"``) — finite-header
  *rewriting* schemes lower to interned ``(node, header)`` states with
  functional transition arrays ``succ``/``deliver``/``node_of`` and the
  ``initial`` state of every pair.
* :class:`GenericProgram` (``kind = "generic"``) — the explicit opt-out
  marker for schemes whose header evolution is unbounded (or undeclared):
  execution requires the live routing function, and the program records
  only that fact (plus ``n``).

A program stores its routing function and nothing derived from it: every
fate question (delivery, hop counts, livelocks) is answered on demand by
:func:`resolve_functional`.  Every program serializes to one stable binary
form (:meth:`RoutingProgram.to_bytes` / :func:`program_from_bytes`) and
carries a content :meth:`~RoutingProgram.fingerprint`
(sha256 of the bytes) that is independent of process, hash seed and
platform — the property :class:`repro.analysis.runner.ExperimentCache`
relies on to cache compiled programs on disk and ship them across shard
workers as bytes.  The artifact's size in bits is directly measurable
(:func:`repro.memory.requirement.program_memory_profile` scores every
node's slice in closed form, from one pass over the transition arrays;
the matching decoders live in ``tests/oracles.py``), which is what ties
the paper's ``MEM_G(R, x)`` to the compiled form.

Lowering is *owned by the routing classes*: every
:class:`~repro.routing.model.RoutingFunction` declares its own
:meth:`~repro.routing.model.RoutingFunction.program_kind` and lowers itself
via :meth:`~repro.routing.model.RoutingFunction.compile_program`, which
dispatches to :func:`lower_next_hop` / :func:`lower_header_state` here.
The engine performs no capability sniffing of its own.
"""

from __future__ import annotations

import errno
import hashlib
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, bfs_rows, distance_matrix
from repro.routing.model import (
    DELIVER,
    DestinationBasedRoutingFunction,
    HeaderTransitions,
    RoutingFunction,
    RoutingScheme,
    SchemeInapplicableError,
)

__all__ = [
    "DELTA_PATCHED",
    "DELTA_RECOMPILED",
    "DELTA_UNCHANGED",
    "DROPPED",
    "KIND_GENERIC",
    "KIND_HEADER_STATE",
    "KIND_NEXT_HOP",
    "MISDELIVER",
    "NO_ROUTE",
    "DeltaResult",
    "GenericProgram",
    "HeaderStateExplosionError",
    "HeaderStateProgram",
    "NextHopProgram",
    "RoutingProgram",
    "apply_delta",
    "compile_or_interpret",
    "compile_scheme_program",
    "incremental_distance_matrix",
    "load_program",
    "lower",
    "lower_header_state",
    "lower_next_hop",
    "next_nodes_of_ports",
    "number_new_keys",
    "program_from_bytes",
    "resolve_functional",
    "save_program",
    "transition_dtype",
    "write_atomic",
]

# ----------------------------------------------------------------------
# canonical negative sentinels of the compiled-program IR
# ----------------------------------------------------------------------
# Every sentinel the IR and its executors/analyses use lives here, each
# with exactly one meaning; ``transition_dtype`` keeps all of them
# representable at every array width, so no layer ever remaps them.  The
# repo lint (``tools/repro_lint.py``) pins call sites to these names — a
# raw ``-2``/``-3`` literal in :mod:`repro.sim` / :mod:`repro.routing` is
# a lint error.

#: Sentinel in a compiled next-hop matrix: the local function returns
#: :data:`~repro.routing.model.DELIVER` at a node that is not the
#: destination, so the message stops there (misdelivery).
MISDELIVER = -2

#: Sentinel in a *masked* transition array (``NextHopProgram.next_node``
#: entries, ``HeaderStateProgram.succ`` entries): the hop this transition
#: would take crosses a failed edge or enters a failed node, so a message
#: attempting it is dropped at the fault instead of moving.  Produced by
#: :func:`repro.sim.faults.apply_faults` through the :meth:`with_next_node`
#: / :meth:`with_transitions` view API; only the masked executor of
#: :mod:`repro.sim.engine` accepts it — the plain executor refuses it
#: because an unmasked lowering never emits it.
DROPPED = -3

#: The ``-1`` "no route / never stops" marker shared by every hop-count
#: array of the IR and its executors: the per-state hops of
#: :func:`resolve_functional` (the walk provably cycles),
#: ``HeaderStateProgram.initial``'s diagonal (no message is sent to
#: oneself), the per-pair hops of
#: :class:`repro.routing.verify.VerificationReport` (livelocked and
#: infeasible pairs), and the length matrix of
#: :class:`repro.sim.engine.SimulationResult` (undelivered pairs).
#: Distinct from the graph layer's
#: :data:`repro.graphs.shortest_paths.UNREACHABLE` (same value, different
#: axis: that one marks *distances* on disconnected pairs).
NO_ROUTE = -1

#: Program kinds (also the value of ``RoutingFunction.program_kind()``).
KIND_NEXT_HOP = "next-hop"
KIND_HEADER_STATE = "header-state"
KIND_GENERIC = "generic"

#: Serialization magic + format version.  Bump the version on any change to
#: the byte layout; :func:`program_from_bytes` refuses every other version,
#: so a cached artifact can never be silently misinterpreted (a store
#: degrades such an object to a recompile).  The format writes aligned
#: ``.npy``-style sections in canonical domain-sized dtypes, which
#: deserialize as **zero-copy views** over the source buffer (an ``mmap``
#: through :func:`load_program`).  A blob holds the program's transitions
#: and nothing derived from them.
_MAGIC = b"RPRG"
_FORMAT_VERSION = 3

#: Section payloads start on 64-byte boundaries (counted from the blob
#: start) so zero-copy views are cache-line / SIMD aligned when the blob
#: itself is page-aligned, as an mmap always is.
_SECTION_ALIGN = 64

#: Section dtype codes.  Explicitly little-endian specs: the on-disk layout is
#: platform independent, and big-endian hosts fall back to a byteswapping
#: copy on load (numpy handles this through the explicit dtype).
_DTYPE_CODES = {np.dtype("|b1"): 1, np.dtype("<i2"): 2, np.dtype("<i4"): 3, np.dtype("<i8"): 4}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}

_KIND_CODES = {KIND_NEXT_HOP: 1, KIND_HEADER_STATE: 2, KIND_GENERIC: 3}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def transition_dtype(num_values: int) -> np.dtype:
    """Smallest *signed* dtype holding ids ``0 .. num_values - 1``.

    The dtype policy of compiled programs: node and state ids are stored in
    the narrowest of ``int16``/``int32``/``int64`` that fits the domain.
    Signed on purpose — the :data:`MISDELIVER` (-2) and :data:`DROPPED`
    (-3) sentinels (and the ``-1`` diagonal of ``initial``) stay
    representable verbatim at every width, so no executor or analysis
    ever needs sentinel remapping: ``== DROPPED`` comparisons behave
    identically on an int16 and an int64 program.  The int16 floor caps
    addressable domains at 32767 ids, far above the n >= 4096 target.
    """
    # The width ladder itself is the one place the fixed widths are
    # the point.  # repro-lint: allow-dtype
    if num_values - 1 <= np.iinfo(np.int16).max:  # repro-lint: allow-dtype
        return np.dtype(np.int16)  # repro-lint: allow-dtype
    if num_values - 1 <= np.iinfo(np.int32).max:  # repro-lint: allow-dtype
        return np.dtype(np.int32)  # repro-lint: allow-dtype
    return np.dtype(np.int64)


class HeaderStateExplosionError(ValueError):
    """The reachable ``(node, header)`` state set exceeded the safety cap.

    Raised by :func:`lower_header_state` when a scheme declaring
    ``can_vectorize = True`` turns out to generate more states than the cap
    allows — i.e. the finite-alphabet promise is (close to) broken.
    :func:`compile_or_interpret`, the step every executor and the runner
    compile through, turns it into the :class:`GenericProgram` opt-out; a
    direct :func:`lower_header_state` call propagates it.
    """


# ----------------------------------------------------------------------
# binary array framing (shared by to_bytes / program_from_bytes)
# ----------------------------------------------------------------------
def _pack_section(parts: List[bytes], offset: int, array: np.ndarray, dtype: np.dtype) -> int:
    """Append one section: dtype (u8) | ndim (u8) | dims (u64 LE each) |
    zero padding to the next 64-byte boundary | raw C-order payload.

    ``offset`` is the running byte offset of the whole blob (the alignment
    is absolute, so a deserializer mapping the file sees aligned payloads);
    returns the offset after this section.
    """
    data = np.ascontiguousarray(array, dtype=dtype)
    head = struct.pack("<BB", _DTYPE_CODES[np.dtype(dtype)], data.ndim)
    head += struct.pack(f"<{data.ndim}Q", *data.shape)
    parts.append(head)
    offset += len(head)
    pad = -offset % _SECTION_ALIGN
    parts.append(b"\0" * pad)
    offset += pad
    payload = data.tobytes()
    parts.append(payload)
    return offset + len(payload)


def _unpack_section(blob: Any, offset: int) -> Tuple[np.ndarray, int]:
    """Read one section as a zero-copy (read-only) view over ``blob``."""
    code, ndim = struct.unpack_from("<BB", blob, offset)
    dtype = _CODE_DTYPES.get(code)
    if dtype is None:
        raise ValueError(f"unknown RoutingProgram section dtype code {code}")
    offset += 2
    shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
    offset += 8 * ndim
    offset += -offset % _SECTION_ALIGN
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    # Pre-check the remaining bytes: frombuffer's own "buffer is smaller
    # than requested size" names neither the section nor the shortfall.
    needed = count * dtype.itemsize
    available = len(blob) - offset
    if available < needed:
        raise ValueError(
            f"truncated RoutingProgram payload: section of shape {shape} "
            f"({dtype}) needs {needed} bytes at offset {offset}, only "
            f"{max(available, 0)} remain"
        )
    array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return array.reshape(shape), offset + needed


def _header(kind: str) -> bytes:
    return _MAGIC + struct.pack("<BB", _FORMAT_VERSION, _KIND_CODES[kind])


# ----------------------------------------------------------------------
# the program kinds
# ----------------------------------------------------------------------
class RoutingProgram:
    """Base class of compiled routing programs (see the module docstring).

    Concrete kinds expose ``kind`` (one of :data:`KIND_NEXT_HOP`,
    :data:`KIND_HEADER_STATE`, :data:`KIND_GENERIC`), the vertex count
    ``n``, stable binary serialization and a content fingerprint.
    """

    kind: str = "?"

    @property
    def n(self) -> int:
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Hex sha256 of the serialized program — process/hash-seed independent.

        The encoding's array dtypes are canonicalized from the domain sizes
        at encode time, so a program built with wider (say int64) arrays
        fingerprints identically to the same program freshly compiled
        (domain-sized arrays).
        """
        return hashlib.sha256(self.to_bytes()).hexdigest()


@dataclass(frozen=True, eq=False)
class NextHopProgram(RoutingProgram):
    """Compiled header-constant routing: a dense ``dest -> next node`` matrix.

    ``next_node[x, dest]`` is the node a message at ``x`` destined to
    ``dest`` moves to; :data:`MISDELIVER` marks a wrong-node delivery and a
    diagonal entry ``next_node[d, d] != d`` records a broken scheme that
    forwards past its own destination (the executor lets such messages pass
    through, exactly like the per-message interpreter).
    """

    kind = KIND_NEXT_HOP

    next_node: np.ndarray

    @property
    def n(self) -> int:
        return int(self.next_node.shape[0])

    def to_bytes(self) -> bytes:
        head = _header(self.kind)
        parts = [head]
        _pack_section(parts, len(head), self.next_node, transition_dtype(self.n))
        return b"".join(parts)

    def with_next_node(self, next_node: np.ndarray) -> "NextHopProgram":
        """A new program sharing this one's shape but different transitions.

        The mutation/view entry point of the fault-injection machinery
        (:func:`repro.sim.faults.apply_faults`): masking replaces blocked
        entries with :data:`DROPPED` *without recompiling* the scheme.  The
        replacement matrix must keep the ``(n, n)`` shape — a masked view
        is still a program over the same vertex set.  The stored dtype is
        this program's own (domain-sized, see :func:`transition_dtype`);
        sentinels are negative and fit every width.
        """
        next_node = np.ascontiguousarray(next_node, dtype=self.next_node.dtype)
        if next_node.shape != self.next_node.shape:
            raise ValueError(
                f"replacement next-hop matrix has shape {next_node.shape}, "
                f"expected {self.next_node.shape}"
            )
        return NextHopProgram(next_node=next_node)


@dataclass(frozen=True, eq=False)
class HeaderStateProgram(RoutingProgram):
    """Compiled finite-header state machine of a routing function.

    States are the reachable ``(node, header)`` pairs; the transition
    relation is functional (each non-delivering state has exactly one
    successor), which is what makes the exact fate analysis of
    :func:`resolve_functional` possible.  Only the transitions are stored:
    hop counts and livelocks are derived on demand, never cached here.

    Attributes
    ----------
    succ:
        ``succ[s]`` is the state the message enters after the hop taken in
        state ``s``; delivering states are self-loops.
    deliver:
        ``deliver[s]`` is whether ``P`` returns ``DELIVER`` in state ``s``
        (at :attr:`node_of` ``[s]`` — which need not be the destination).
    node_of:
        The node component of each state.
    initial:
        ``initial[x, y]`` is the state id of ``(x, I(x, y))``; the diagonal
        is ``-1`` (no message is sent to oneself).
    headers:
        The header component of each state.  Debug metadata only: it is
        *not* serialized (headers are arbitrary hashables), so a program
        deserialized from bytes carries ``headers = None`` and executes
        identically.
    """

    kind = KIND_HEADER_STATE

    succ: np.ndarray
    deliver: np.ndarray
    node_of: np.ndarray
    initial: np.ndarray
    headers: Optional[Tuple[Hashable, ...]] = None

    @property
    def n(self) -> int:
        return int(self.initial.shape[0])

    @property
    def num_states(self) -> int:
        """Number of reachable ``(node, header)`` states."""
        return int(self.succ.shape[0])

    def to_bytes(self) -> bytes:
        # Canonical dtypes are recomputed from the domain sizes here, not
        # taken from the in-memory arrays: a program built with int64
        # arrays encodes byte-identically to a fresh compile.
        sdt = transition_dtype(self.num_states)
        ndt = transition_dtype(self.n)
        head = _header(self.kind)
        parts = [head]
        offset = len(head)
        for array, dtype in (
            (self.succ, sdt),
            (self.deliver, np.dtype(bool)),
            (self.node_of, ndt),
            (self.initial, sdt),
        ):
            offset = _pack_section(parts, offset, array, dtype)
        return b"".join(parts)

    def with_transitions(
        self,
        succ: Optional[np.ndarray] = None,
        deliver: Optional[np.ndarray] = None,
    ) -> "HeaderStateProgram":
        """A new program over the same state alphabet with edited transitions.

        The mutation/view entry point of the fault-injection machinery:
        :func:`repro.sim.faults.apply_faults` rewrites blocked successors to
        :data:`DROPPED` here instead of re-enumerating the header alphabet.
        State identity (``node_of``, ``initial``, debug ``headers``) is
        shared — a view edits behaviour, not the alphabet.
        """
        new_succ = (
            self.succ
            if succ is None
            else np.ascontiguousarray(succ, dtype=self.succ.dtype)
        )
        new_deliver = (
            self.deliver if deliver is None else np.ascontiguousarray(deliver, dtype=bool)
        )
        if new_succ.shape != self.succ.shape or new_deliver.shape != self.deliver.shape:
            raise ValueError(
                "replacement transition arrays must keep the state-alphabet "
                f"size {self.succ.shape[0]}"
            )
        return HeaderStateProgram(
            succ=new_succ,
            deliver=new_deliver,
            node_of=self.node_of,
            initial=self.initial,
            headers=self.headers,
        )


@dataclass(frozen=True, eq=False)
class GenericProgram(RoutingProgram):
    """Explicit opt-out marker: this scheme is interpreted, not compiled.

    Executing it requires the live :class:`~repro.routing.model.RoutingFunction`
    (the engine's batched per-message interpreter); the program exists so
    the compile-once pipeline has a uniform artifact to cache and ship for
    *every* scheme, including the ones that decline compilation.
    """

    kind = KIND_GENERIC

    num_vertices: int

    @property
    def n(self) -> int:
        return int(self.num_vertices)

    def to_bytes(self) -> bytes:
        return _header(self.kind) + struct.pack("<Q", self.num_vertices)


def program_from_bytes(blob: Union[bytes, bytearray, memoryview]) -> RoutingProgram:
    """Deserialize a program produced by :meth:`RoutingProgram.to_bytes`.

    Accepts any buffer (``bytes``, a ``memoryview`` over an ``mmap``, …).
    Arrays deserialize as **zero-copy read-only views** over the buffer —
    nothing but the few header bytes is touched, so loading an mmapped
    artifact is O(1) and pages fault in lazily as the engine gathers.
    Raises :class:`ValueError` on bad magic, any format version other
    than the current one, or truncated payloads — a cached artifact is either read back exactly or rejected
    loudly (callers degrade to recompilation).
    """
    if bytes(blob[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a serialized RoutingProgram (bad magic)")
    try:
        version, code = struct.unpack_from("<BB", blob, len(_MAGIC))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported RoutingProgram format version {version}")
        kind = _CODE_KINDS.get(code)
        offset = len(_MAGIC) + 2
        if kind == KIND_GENERIC:
            (n,) = struct.unpack_from("<Q", blob, offset)
            return GenericProgram(num_vertices=int(n))
        if kind == KIND_NEXT_HOP:
            next_node, offset = _unpack_section(blob, offset)
            return NextHopProgram(next_node=next_node)
        if kind == KIND_HEADER_STATE:
            succ, offset = _unpack_section(blob, offset)
            deliver, offset = _unpack_section(blob, offset)
            node_of, offset = _unpack_section(blob, offset)
            initial, offset = _unpack_section(blob, offset)
            return HeaderStateProgram(
                succ=succ, deliver=deliver, node_of=node_of, initial=initial
            )
    except struct.error as exc:
        raise ValueError(f"truncated RoutingProgram payload: {exc}") from exc
    raise ValueError(f"unknown RoutingProgram kind code {code}")


def write_atomic(path: Union[str, os.PathLike[str]], blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically: a temp file, then ``os.replace``.

    The one writer of program files (:func:`save_program` and
    :meth:`repro.store.ProgramStore.put`), so a concurrent
    :func:`load_program` never observes a half-written artifact.  The
    temp file sits beside ``path``; a missing directory is created on the
    ``FileNotFoundError`` of the first open and the open retried once.  A
    failing write raises and leaves neither the temp file nor ``path``.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        try:
            view = memoryview(blob)
            while view:
                written = os.write(fd, view)
                if written <= 0:
                    raise OSError(errno.EIO, "program write made no progress", tmp)
                view = view[written:]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_program(program: RoutingProgram, path: Union[str, Path]) -> Path:
    """Write ``program`` to ``path`` in the (mmap-able) program format.

    The write is atomic (:func:`write_atomic`: temp file + ``os.replace``
    in the same directory), so a concurrent :func:`load_program` never
    observes a half-written artifact — the contract the sharded runner's
    program store relies on.
    """
    write_atomic(path, program.to_bytes())
    return Path(path)


def load_program(
    path: Union[str, Path], expected_fingerprint: Optional[str] = None
) -> RoutingProgram:
    """Load a saved program as zero-copy views over an ``mmap`` of ``path``.

    O(1) regardless of program size: only the header bytes are read
    eagerly; transition arrays are read-only views whose pages fault in on
    first access (and are shared between worker processes mapping the same
    file).  The mapping stays alive as long as any array referencing it
    does.  Raises :class:`OSError` when the file is unreadable and
    :class:`ValueError` when its content is not a valid program (including
    the empty file an interrupted writer can never leave behind, thanks to
    the atomic :func:`save_program` — but a foreign truncated file is still
    rejected loudly).

    ``expected_fingerprint`` makes the load *store-aware*: a
    content-addressed store names each object file by the program's own
    :meth:`~RoutingProgram.fingerprint`, so passing the address re-hashes
    the decoded content and raises :class:`ValueError` on a mismatch —
    bytes flipped *within* valid framing fail the load instead of
    masquerading as the addressed program (the integrity half of
    :meth:`repro.store.ProgramStore.get`'s ``verify=True`` gate; the
    static-soundness half is :func:`repro.routing.verify.verify_program`).
    """
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file cannot be mapped
            raise ValueError(f"not a serialized RoutingProgram: {path} is empty") from exc
    program = program_from_bytes(memoryview(mapped))
    if expected_fingerprint is not None:
        actual = program.fingerprint()
        if actual != expected_fingerprint:
            raise ValueError(
                f"content-address mismatch for {path}: expected "
                f"{expected_fingerprint[:12]}..., decoded {actual[:12]}..."
            )
    return program


def resolve_functional(
    succ: np.ndarray, terminal: np.ndarray, limit: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Where, and after how many transitions, every walk of a functional graph stops.

    The one functional-graph primitive of the IR: the executors, the
    static verifier and the flow accumulator all answer their fate
    questions through it.  ``succ`` maps each state to
    its unique successor; ``terminal`` marks the states where a walk stops
    (their own successor is ignored).  A :data:`DROPPED` successor on a
    non-terminal state ends the walk off-program: that state never stops.
    ``limit`` bounds the length of any stopping walk (default: the state
    count — a longer walk revisits a state and therefore cycles).

    Returns ``(target, hops)``: for a state whose walk stops, the terminal
    it stops at and the exact number of transitions to get there (``0`` at
    a terminal); for a state whose walk provably cycles, ``hops`` is
    :data:`NO_ROUTE` and ``target`` some non-terminal state.  Both come
    back in a domain-sized dtype (``int32`` until the state count or the
    walk bound needs more).

    Pointer doubling: every round composes each state's pointer with
    itself, keeping the invariant *"``steps[s]`` is the exact distance from
    ``s`` to ``target[s]``"*.  Terminals carry ``(self, 0)``, which makes
    every round idempotent on resolved states, so the rounds run over the
    full state vector — two ``np.take`` gathers each, no compaction and no
    scatter — for ``O(states · log(limit))`` work with an early exit once
    every walk has stopped.  Set-up is one pass per array: the stops are
    written through their flat indices, the off-program fix runs only when
    a negative successor survives them, and the first early-exit check
    comes after the first round (a round on an input whose every walk
    stops within a hop leaves it as it is).
    """
    num_states = succ.shape[0]
    if limit is None:
        limit = num_states
    # int32 state ids halve the gather traffic of the hot loop; resolved
    # steps are bounded by limit and an unresolved state's accumulator by
    # 2 * limit, so the 2**30 guard keeps even the transient values exact.
    compute_dtype = (
        np.int32  # repro-lint: allow-dtype
        if num_states <= 2**30 and limit <= 2**30
        else np.int64
    )
    terminal = np.asarray(terminal, dtype=bool)
    stops = np.flatnonzero(terminal)
    target = succ.astype(compute_dtype, copy=True)
    target[stops] = stops
    if num_states and target.min() < 0:
        off_program = np.flatnonzero(target < 0)
        target[off_program] = off_program
    steps = np.ones(num_states, dtype=compute_dtype)
    steps[stops] = 0
    resolved = None
    span = 1
    rounds = 0
    while span <= limit:
        steps += np.take(steps, target)
        target = np.take(target, target)
        span *= 2
        rounds += 1
        # The resolved gather exists only to exit early; every other round
        # (and on the provable-cycle bound) keeps it exact where it
        # matters while halving the bookkeeping gathers.
        if rounds % 2 == 1 or span > limit:
            resolved = np.take(terminal, target)
            if resolved.all():
                break
    if resolved is None:  # limit < 1: no round ran
        resolved = np.take(terminal, target)
    hops = np.where(resolved, steps, steps.dtype.type(NO_ROUTE))
    return target, hops


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def lower(rf: RoutingFunction) -> RoutingProgram:
    """Lower ``rf`` to the program kind it declares via ``program_kind()``.

    This is the dispatcher behind
    :meth:`repro.routing.model.RoutingFunction.compile_program`.  A
    header-state lowering whose ``can_vectorize`` promise breaks raises
    :class:`HeaderStateExplosionError` at the default state cap;
    :func:`compile_or_interpret` turns it into the :class:`GenericProgram`
    opt-out.  A caller choosing its own cap calls
    :func:`lower_header_state` directly.
    """
    kind = rf.program_kind()
    if kind == KIND_NEXT_HOP:
        return lower_next_hop(rf)
    if kind == KIND_HEADER_STATE:
        return lower_header_state(rf)
    if kind == KIND_GENERIC:
        return GenericProgram(num_vertices=rf.graph.n)
    raise ValueError(f"{type(rf).__name__}.program_kind() returned unknown kind {kind!r}")


def compile_or_interpret(rf: RoutingFunction) -> RoutingProgram:
    """The program ``rf`` executes as: compiled, or interpreted when it must be.

    ``rf.compile_program()``, except that a header-state enumeration whose
    ``can_vectorize`` promise breaks yields the :class:`GenericProgram`
    opt-out instead of :class:`HeaderStateExplosionError` — the one place
    the explosion is caught.  A generic program runs through the
    per-message interpreter of :mod:`repro.sim.engine`, which needs the
    live ``rf`` alongside it.
    """
    try:
        return rf.compile_program()
    except HeaderStateExplosionError:
        return GenericProgram(num_vertices=rf.graph.n)


def compile_scheme_program(scheme: RoutingScheme, graph: PortLabeledGraph) -> RoutingProgram:
    """Build ``scheme`` on a copy of ``graph`` and lower the result.

    The scheme-level entry point of the compile-once pipeline: the graph is
    copied because some schemes (the complete-graph labellings) relabel
    ports in place.  A ``build`` refusal is re-raised as
    :class:`~repro.routing.model.SchemeInapplicableError` so grid drivers
    can skip the cell without masking lowering diagnostics.
    """
    try:
        rf = scheme.build(graph.copy())
    except ValueError as exc:
        raise SchemeInapplicableError(str(exc)) from exc
    return rf.compile_program()


def next_nodes_of_ports(graph: PortLabeledGraph, ports: np.ndarray) -> np.ndarray:
    """Next-node matrix of an ``(n, n)`` matrix of ``P`` answers.

    ``next_node[x, dest]`` is the neighbour of ``x`` behind port
    ``ports[x, dest]``; :data:`~repro.routing.model.DELIVER` maps to ``x``
    itself on the diagonal and to :data:`MISDELIVER` anywhere else.  Raises
    :class:`ValueError` on the first (row-major) port outside
    ``1..deg(x)``, like the per-pair lowering.
    """
    indptr, indices = graph.adjacency_arrays()
    degrees = np.diff(indptr)
    deliver = ports == DELIVER
    invalid = ~deliver & ((ports < 1) | (ports > degrees[:, None]))
    if invalid.any():
        x, dest = (int(i[0]) for i in np.nonzero(invalid))
        raise ValueError(
            f"routing function used invalid port {int(ports[x, dest])} at vertex {x} "
            f"(degree {degrees[x]})"
        )
    slots = np.where(deliver, 0, indptr[:-1, None] + ports - 1)
    next_node = np.where(deliver, MISDELIVER, indices[slots] if indices.size else 0)
    at_dest = np.nonzero(np.diag(deliver))[0]
    next_node[at_dest, at_dest] = at_dest
    return next_node


def lower_next_hop(rf: RoutingFunction) -> NextHopProgram:
    """Compile a header-constant routing function into a next-hop program.

    Returns the ``(n, n)`` domain-dtype matrix ``next_node`` (see
    :func:`transition_dtype`) with
    ``next_node[x, dest]`` the node the message moves to, or
    :data:`MISDELIVER` when the local function delivers at the wrong node.
    A diagonal entry ``next_node[dest, dest] = dest`` means the scheme
    delivers at the destination (every correct scheme); a broken scheme
    that keeps forwarding there has the onward neighbour recorded instead,
    so the simulated message passes through exactly as the per-message
    interpreter would.  Raises :class:`ValueError` on invalid ports, like
    that interpreter (but eagerly, for every pair at once).

    The routing class supplies the matrix when it has a vectorised form
    (:meth:`~repro.routing.model.RoutingFunction.next_node_matrix`);
    otherwise ``P`` is evaluated once per pair.
    """
    graph = rf.graph
    n = graph.n
    matrix = rf.next_node_matrix()
    if matrix is None:
        # Skipping P at the destination is only sound when the base
        # destination-based implementation (which hard-codes DELIVER there)
        # is in force; a subclass overriding port() gets evaluated at its
        # own destination so a broken forward-past-dest decision surfaces
        # exactly as in the per-message interpreter.
        delivers_at_dest = type(rf).port is DestinationBasedRoutingFunction.port
        ports = np.zeros((n, n), dtype=np.int64)
        for dest in range(n):
            header = rf.initial_header((dest + 1) % n, dest)
            for x in range(n):
                if x != dest or not delivers_at_dest:
                    ports[x, dest] = rf.port(x, header)
        matrix = next_nodes_of_ports(graph, ports)
    return NextHopProgram(next_node=matrix.astype(transition_dtype(n)))


def _per_state_transitions(rf: RoutingFunction) -> HeaderTransitions:
    """Header transitions of a class without a vectorised form.

    ``I`` is evaluated once per pair, and ``step`` calls ``P`` once per
    state it is handed, then ``H`` when the port is valid; headers are
    interned as they are met, so the alphabet grows while the closure runs.
    """
    graph = rf.graph
    n = graph.n
    alphabet: List[Hashable] = []
    header_id: Dict[Hashable, int] = {}

    def intern(header: Hashable) -> int:
        hid = header_id.get(header)
        if hid is None:
            hid = header_id[header] = len(alphabet)
            alphabet.append(header)
        return hid

    initial = np.zeros((n, n), dtype=np.int64)
    for dest in range(n):
        for src in range(n):
            if src != dest:
                initial[src, dest] = intern(rf.initial_header(src, dest))
    degrees = graph.degrees()

    def step(nodes: np.ndarray, header_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        ports: List[int] = []
        next_ids: List[int] = []
        for node, hid in zip(nodes.tolist(), header_ids.tolist()):
            header = alphabet[hid]
            port = rf.port(node, header)
            ports.append(port)
            moves = port != DELIVER and 1 <= port <= degrees[node]
            next_ids.append(intern(rf.next_header(node, header)) if moves else hid)
        return np.asarray(ports, dtype=np.int64), np.asarray(next_ids, dtype=np.int64)

    return HeaderTransitions(alphabet, initial, step)


def _step_until_error(
    step: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    nodes: np.ndarray,
    header_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[Exception]]:
    """``step`` over the states before the first one it cannot route, and that state's error.

    ``step`` raises for the first failing state of its input, so the
    failing state is found by bisecting over prefixes (error path only).
    """
    try:
        ports, next_ids = step(nodes, header_ids)
        return ports, next_ids, None
    except Exception as exc:  # the state's own error, re-raised by the caller
        error = exc
    lo, hi = 0, nodes.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            step(nodes[: mid + 1], header_ids[: mid + 1])
        except Exception:
            hi = mid
        else:
            lo = mid + 1
    ports, next_ids = step(nodes[:lo], header_ids[:lo])
    return ports, next_ids, error


def number_new_keys(
    state_of: np.ndarray, keys: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """State ids of ``keys`` and the keys it numbered, in id order.

    ``state_of`` is the dense int64 key table of a header-state closure
    (``-1``: not yet discovered) and must cover every key.  Each key not in
    it yet becomes a state numbered from ``count`` in first-occurrence
    order — the numbering a FIFO worklist interning keys one by one would
    give — and is recorded in ``state_of`` in place.  The table itself
    ranks the fresh keys: each fresh key's slot is parked above every
    position, ``np.minimum.at`` leaves its first position there, and the
    positions that kept their own slot are exactly the first occurrences,
    already in order.  No sort.
    """
    ids = state_of[keys]
    fresh = np.flatnonzero(ids < 0)
    fresh_keys = keys[fresh]
    position = np.arange(fresh.size, dtype=np.int64)
    state_of[fresh_keys] = fresh.size
    np.minimum.at(state_of, fresh_keys, position)
    new_keys = fresh_keys[state_of[fresh_keys] == position]
    state_of[new_keys] = count + np.arange(new_keys.size, dtype=np.int64)
    ids[fresh] = state_of[fresh_keys]
    return ids, new_keys


def lower_header_state(
    rf: RoutingFunction, max_states: Optional[int] = None
) -> HeaderStateProgram:
    """Enumerate the reachable header alphabet and compile transition arrays.

    Starting from the ``n * (n - 1)`` initial states ``(x, I(x, y))`` in
    ``(y, x)`` order, the closure under
    ``(node, h) -> (neighbour at P(node, h), H(node, h))`` is explored one
    level at a time: each level's states go through one vectorised step,
    and its new successors are numbered in first-occurrence order
    (:func:`number_new_keys`, one ``np.minimum.at`` per level over the
    dense key table).  This is exactly the numbering of a FIFO
    worklist that interns states one by one.  The step comes from the
    class (:meth:`~repro.routing.model.RoutingFunction.header_transitions`)
    or, for a class without one, from an adapter calling ``I``/``P``/``H``
    once per pair or state.

    ``max_states`` caps the exploration (default ``1024 + 64 * n^2``)
    against schemes whose ``can_vectorize`` promise is broken — exceeding
    it raises :class:`HeaderStateExplosionError`.  An invalid port raises
    :class:`ValueError`, and a state the class cannot route raises its own
    error; of these, the first failing state in id order decides.
    """
    graph = rf.graph
    n = graph.n
    if max_states is None:
        max_states = 1024 + 64 * n * n
    transitions = rf.header_transitions()
    if transitions is None:
        transitions = _per_state_transitions(rf)
    alphabet, initial_ids, step = transitions
    indptr, indices = graph.adjacency_arrays()
    degrees = np.diff(indptr)

    def explosion() -> HeaderStateExplosionError:
        return HeaderStateExplosionError(
            f"{type(rf).__name__} reached {max_states} (node, header) states "
            f"on a {n}-vertex graph; its can_vectorize promise of a finite "
            "header alphabet looks broken — execute it as a GenericProgram"
        )

    # State (node, header id) has key ``header_id * n + node``; ``state_of``
    # maps keys to state ids (-1: not yet discovered) and grows with the
    # alphabet, which the per-state adapter extends as it meets headers.
    state_of = np.full(n * len(alphabet), -1, dtype=np.int64)

    def discover(keys: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
        nonlocal state_of
        if keys.size and keys.max() >= state_of.size:
            grown = np.full(max(2 * state_of.size, int(keys.max()) + 1), -1, dtype=np.int64)
            grown[: state_of.size] = state_of
            state_of = grown
        return number_new_keys(state_of, keys, count)

    off = ~np.eye(n, dtype=bool)
    # (dest, src) order: row dest of the transposed header ids, column src.
    initial_keys = (np.asarray(initial_ids, dtype=np.int64).T * n + np.arange(n))[off]
    initial_states, level = discover(initial_keys, 0)
    if level.size > max_states:
        raise explosion()
    initial = np.full((n, n), NO_ROUTE, dtype=np.int64)
    initial.T[off] = initial_states

    node_parts: List[np.ndarray] = []
    header_parts: List[np.ndarray] = []
    succ_parts: List[np.ndarray] = []
    deliver_parts: List[np.ndarray] = []
    count = level.size
    while level.size:
        nodes = level % n
        header_ids = level // n
        ports, next_ids, error = _step_until_error(step, nodes, header_ids)
        ports = np.asarray(ports, dtype=np.int64)
        deliver = ports == DELIVER
        invalid = ~deliver & ((ports < 1) | (ports > degrees[nodes[: ports.size]]))
        stop = int(np.argmax(invalid)) if invalid.any() else ports.size
        moving = np.flatnonzero(~deliver[:stop])
        succ_nodes = indices[indptr[nodes[moving]] + ports[moving] - 1]
        succ_keys = np.asarray(next_ids, dtype=np.int64)[moving] * n + succ_nodes
        succ_ids, new_level = discover(succ_keys, count)
        if count + new_level.size > max_states:
            # The states before the first failing one already overflow.
            raise explosion()
        if stop < ports.size:
            node = int(nodes[stop])
            raise ValueError(
                f"routing function used invalid port {int(ports[stop])} at vertex {node} "
                f"(degree {graph.degree(node)})"
            )
        if error is not None:
            raise error
        succ = np.arange(count - level.size, count)
        succ[moving] = succ_ids
        node_parts.append(nodes)
        header_parts.append(header_ids)
        succ_parts.append(succ)
        deliver_parts.append(deliver)
        count += new_level.size
        level = new_level

    sdt = transition_dtype(count)
    empty = np.zeros(0, dtype=np.int64)
    succ_arr = np.concatenate([empty, *succ_parts]).astype(sdt)
    deliver_arr = np.concatenate([empty.astype(bool), *deliver_parts])
    node_arr = np.concatenate([empty, *node_parts]).astype(transition_dtype(n))
    header_arr = np.concatenate([empty, *header_parts])

    return HeaderStateProgram(
        succ=succ_arr,
        deliver=deliver_arr,
        node_of=node_arr,
        initial=initial.astype(sdt),
        headers=tuple([alphabet[h] for h in header_arr.tolist()]),
    )


# ----------------------------------------------------------------------
# incremental deltas (dynamic topologies / churn workload)
# ----------------------------------------------------------------------

#: :attr:`DeltaResult.mode` values.  ``unchanged`` — the two snapshots are
#: identical (same edges *and* port labellings) and the input program is
#: returned as-is; ``patched`` — only the dirty ``(node, dest)`` entries
#: were recomputed; ``recompiled`` — the delta fell back to a full
#: :func:`compile_scheme_program` (non-incremental scheme/program kind, a
#: vertex-count change, or a dirty set above :data:`DIRTY_THRESHOLD`).
DELTA_UNCHANGED = "unchanged"
DELTA_PATCHED = "patched"
DELTA_RECOMPILED = "recompiled"

#: Fraction of the off-diagonal entries above which a delta's dirty set
#: falls back to a full recompile instead of a patch.
DIRTY_THRESHOLD = 0.5


@dataclass(frozen=True, eq=False)
class DeltaResult:
    """Outcome of :func:`apply_delta`: the updated program plus accounting.

    Attributes
    ----------
    program:
        The program valid for ``graph_after`` — patched in place of the
        dirty entries or freshly recompiled, but in either case
        fingerprint/dtype/byte-layout identical to
        ``compile_scheme_program(scheme, graph_after)``.
    mode:
        One of :data:`DELTA_UNCHANGED` / :data:`DELTA_PATCHED` /
        :data:`DELTA_RECOMPILED`.
    dirty_entries:
        Number of off-diagonal ``(node, dest)`` entries invalidated by the
        topology change (0 for ``unchanged``; the full off-diagonal count
        for ``recompiled`` fallbacks triggered by the threshold is *not*
        substituted — the field always reports the measured dirty set, or
        ``-1`` when the fallback fired before one was measured).
    dirty_destinations:
        Number of destinations with at least one dirty entry — the
        affected-destination frontier the invalidation propagated from.
    reconverge_rounds:
        Vectorised relaxation sweeps until the incremental distance update
        reached its fixpoint (0 when no edges were added or the fallback
        fired) — the "steps to reconvergence" of the routing state.
    recomputed_columns:
        Destination columns whose distances were rebuilt by a targeted BFS
        because a removal left an endpoint with no shortest-path parent
        towards them (see :func:`incremental_distance_matrix`).
    n:
        Vertex count of the snapshots.
    dist_after:
        The incrementally maintained distance matrix of ``graph_after``
        (``None`` on non-incremental paths) — chained deltas pass it back
        as the next call's ``dist_before`` so a whole churn trace pays for
        one full distance matrix at most.
    """

    program: RoutingProgram
    mode: str
    dirty_entries: int
    dirty_destinations: int
    reconverge_rounds: int
    recomputed_columns: int
    n: int
    dist_after: Optional[np.ndarray] = None

    @property
    def dirty_fraction(self) -> float:
        """Dirty share of the ``n * (n - 1)`` off-diagonal entries."""
        total = self.n * (self.n - 1)
        if total <= 0 or self.dirty_entries < 0:
            return 0.0
        return self.dirty_entries / total


#: Relaxation sentinel standing in for "unreachable": larger than any
#: real distance (paths have < 2^40 hops) yet far from int64 overflow
#: when two of them and a hop are summed.
_DIST_INF = np.int64(1) << 40


def incremental_distance_matrix(
    graph_after: PortLabeledGraph,
    dist_before: np.ndarray,
    added: List[Tuple[int, int]],
    removed: List[Tuple[int, int]],
) -> Tuple[np.ndarray, int, int]:
    """Distances of ``graph_after`` maintained incrementally from a snapshot.

    ``dist_before`` is the all-pairs matrix of the *previous* snapshot;
    ``added``/``removed`` are the undirected edge diffs taking it to
    ``graph_after``.  Returns ``(dist_after, reconverge_rounds,
    recomputed_columns)``.

    The update is exact and change-proportional in the common churn regime:

    * **Removals** invalidate only the destination columns ``t`` where an
      endpoint ``a`` of a removed edge lost a shortest-path parent edge
      towards ``t`` (``d(a, t) == d(b, t) + 1``) *and* has no neighbour at
      ``d(a, t) - 1`` left in ``graph_after``; those columns are rebuilt by
      one :func:`~repro.graphs.shortest_paths.bfs_rows` call from them on
      ``graph_after``.  In every other column
      each vertex keeps a neighbour at its old distance minus one, so the
      old distances are realised by paths of ``graph_after``; removals
      never shorten a path, so the additions' relaxation below makes the
      column exact.  A single-edge flip on a hypercube rebuilds 2
      columns (the looser ``|d(u, t) - d(v, t)| == 1`` frontier is every
      column of a bipartite graph).
    * **Additions** then run a vectorised relaxation ``d(x, y) <- min(d(x,
      y), d(x, u) + 1 + d(v, y))`` over the added edges to a fixpoint; the
      sweep count is the steps-to-reconvergence metric (a shortest path
      uses each added edge at most once, so it converges in at most
      ``len(added)`` sweeps).
    """
    n = graph_after.n
    d = np.array(dist_before, dtype=np.int64, copy=True)
    recomputed = 0
    if removed:
        indptr, indices = graph_after.adjacency_arrays()
        affected = np.zeros(n, dtype=bool)
        for u, v in removed:
            for a, b in ((u, v), (v, u)):
                lost = (d[a] == d[b] + 1) & (d[b] != UNREACHABLE)
                if lost.any():
                    nbrs = indices[indptr[a] : indptr[a + 1]]
                    affected |= lost & ~(d[nbrs] == d[a] - 1).any(axis=0)
        sources = np.nonzero(affected)[0]
        if sources.size:
            cols = bfs_rows(indptr, indices, n, sources=sources)
            d[:, sources] = cols.T
            d[sources, :] = cols
            recomputed = int(sources.size)
    rounds = 0
    if added:
        work = np.where(d == UNREACHABLE, _DIST_INF, d)
        while True:
            progressed = False
            for u, v in added:
                for a, b in ((u, v), (v, u)):
                    cand = work[:, a, None] + 1 + work[None, b, :]
                    better = cand < work
                    if better.any():
                        progressed = True
                        work[better] = cand[better]
            if not progressed:
                break
            rounds += 1
        d = np.where(work >= _DIST_INF, np.int64(UNREACHABLE), work)
    return d, rounds, recomputed


def _edge_codes(graph: PortLabeledGraph) -> np.ndarray:
    """Sorted ``u * n + v`` codes of the undirected edges ``u < v``."""
    indptr, indices = graph.adjacency_arrays()
    tails = np.repeat(np.arange(graph.n), np.diff(indptr))
    keep = tails < indices
    return np.sort(tails[keep] * graph.n + indices[keep])


def _port_dirty_vertices(
    graph_before: PortLabeledGraph, graph_after: PortLabeledGraph
) -> np.ndarray:
    """Boolean mask of the vertices whose port labelling differs between snapshots.

    Computed by direct per-vertex comparison rather than from the edge
    diff: robust to any relabelling convention (a churn mutation shifts
    ports only at the touched endpoints, but an adversarial caller may
    relabel anywhere, and a relabel changes every tie-break at that
    vertex).  Ports are ``1 .. deg``, so a vertex's CSR row (neighbours in
    port order) is its whole labelling.
    """
    before_ptr, before_idx = graph_before.adjacency_arrays()
    after_ptr, after_idx = graph_after.adjacency_arrays()
    degrees = np.diff(before_ptr)
    dirty = degrees != np.diff(after_ptr)
    owner = np.repeat(np.arange(graph_before.n), degrees)
    kept = np.flatnonzero(~dirty[owner])
    shift = (after_ptr[:-1] - before_ptr[:-1])[owner[kept]]
    dirty[owner[kept[before_idx[kept] != after_idx[kept + shift]]]] = True
    return dirty


def _assert_patched_sound(patched: "NextHopProgram", dist_after: np.ndarray) -> None:
    """Statically prove a delta-patched table program correct (or raise).

    The soundness contract of a shortest-path table program over
    ``graph_after``: every off-diagonal pair delivers in exactly the true
    distance.  Proven in two steps, with no recompile, no simulation and
    no fate resolution:

    * :func:`~repro.routing.verify.verify_structure` — its range checks
      and its semantic issues (a non-absorbing destination, say) raise;
    * one vectorised **one-hop descent** check over the ``n * n`` entries:
      every off-diagonal ``(x, d)`` holds a node ``v`` with
      ``dist_after[v, d] == dist_after[x, d] - 1``.

    By induction on the distance, every walk then takes only
    shortest-path hops and delivers at the absorbing destination after
    exactly ``dist_after`` hops.  A violation raises
    :class:`~repro.routing.verify.ProgramVerificationError` naming the
    first offending pair.  Deferred import: :mod:`repro.routing.verify`
    imports this module.
    """
    from repro.routing.verify import ProgramVerificationError, verify_structure

    n = patched.n
    issues = verify_structure(patched)
    if issues:
        raise ProgramVerificationError(
            "delta-patched program failed the static soundness proof: "
            + "; ".join(issues)
        )
    nxt = patched.next_node
    dests = np.arange(n)
    # dist_after[v, d] of every entry's successor v, one flat gather (in
    # place: at n = 1024 each temporary is an 8 MB array).
    flat = nxt.astype(np.intp)
    np.maximum(flat, 0, out=flat)
    flat *= n
    flat += dests
    after_hop = np.take(dist_after, flat)
    after_hop += 1
    ok = (after_hop == dist_after) & (nxt >= 0)
    ok[dests, dests] = True
    if not ok.all():
        xs, ds = np.nonzero(~ok)
        x, d = int(xs[0]), int(ds[0])
        v = int(nxt[x, d])
        if v < 0:
            hop = "MISDELIVER" if v == MISDELIVER else "DROPPED"
            detail = f"next_node[{x}, {d}] is {hop}"
        else:
            detail = (
                f"the hop {x} -> {v} leaves distance {int(dist_after[x, d])} "
                f"for {int(dist_after[v, d])}"
            )
        raise ProgramVerificationError(
            f"delta-patched program failed the static soundness proof: pair "
            f"{x} -> {d}: {detail} (a shortest-path table program must move "
            f"every pair one hop closer to its destination)"
        )


def apply_delta(
    program: RoutingProgram,
    graph_before: PortLabeledGraph,
    graph_after: PortLabeledGraph,
    scheme: RoutingScheme,
    *,
    dist_before: Optional[np.ndarray] = None,
    static_check: bool = False,
) -> DeltaResult:
    """Update a compiled program across a topology change without recompiling.

    ``program`` must be ``compile_scheme_program(scheme, graph_before)``.
    Returns a :class:`DeltaResult` whose program
    is **indistinguishable from a fresh compile at** ``graph_after`` —
    same arrays, same domain dtypes, same byte layout, same
    :meth:`~RoutingProgram.fingerprint` (the differential contract
    ``tests/test_churn.py`` pins across the registry grid).

    Deltas compose with the fault model without a flag of their own:
    ``apply_faults(apply_delta(P, ...).program, graph_after, faults)``
    equals ``apply_faults(compile_scheme_program(scheme, graph_after),
    graph_after, faults)``, also when ``P`` is itself a masked program.
    Masking is value-based and idempotent: an entry equal to a fresh
    compile's masks identically, a ``DROPPED`` entry stays ``DROPPED``,
    and every patched entry is a fresh compile's.

    The incremental fast path covers shortest-path table schemes lowered
    to :class:`NextHopProgram` (every tie-break rule).  The dirty set is
    the union of

    * all entries of vertices whose **port labelling** changed (an
      edge insertion/removal shifts ports at its endpoints, and ports are
      tie-break keys), and
    * entries ``(x, dest)`` where the **distance** to ``dest`` changed at
      ``x`` or at any neighbour of ``x`` — the affected-destination
      frontier propagated one hop (the next-hop choice reads exactly those
      distances).

    Only dirty entries are recomputed, by the very primitive a fresh build
    uses (:func:`repro.routing.tables.shortest_path_ports` with the dirty
    coordinates); distances themselves are maintained by
    :func:`incremental_distance_matrix`.  Everything else — other schemes,
    header-state/generic programs, vertex-count changes, dirty sets above
    :data:`DIRTY_THRESHOLD` (a fraction of the off-diagonal entries), or a
    disconnecting change — falls back to a full recompile with identical
    semantics (a disconnected ``graph_after`` raises
    :class:`~repro.routing.model.SchemeInapplicableError` exactly like
    ``scheme.build``).

    ``static_check=True`` proves the *patched* program sound before
    returning it, without a byte-comparison against a throwaway recompile
    and without resolving a single fate: a shortest-path table program
    must deliver every pair in exactly ``dist_after`` hops (tables can
    neither misdeliver nor livelock).  The proof is
    :func:`~repro.routing.verify.verify_structure` plus a one-hop descent
    check over the ``n * n`` entries (every off-diagonal entry moves one
    hop closer to its destination), which implies that contract by
    induction on the distance; a masked ``program`` fails it, so prove
    the unmasked chain and mask afterwards.  A violation
    raises :class:`~repro.routing.verify.ProgramVerificationError` naming
    the first offending pair; the recompile/unchanged paths return fresh or
    untouched compiles and are not re-proven.
    """
    from repro.routing.tables import ShortestPathTableScheme, shortest_path_ports

    if graph_before.n != program.n:
        raise ValueError(
            f"program was compiled for n={program.n} but graph_before has "
            f"n={graph_before.n}"
        )

    def _recompiled() -> DeltaResult:
        return DeltaResult(
            program=compile_scheme_program(scheme, graph_after),
            mode=DELTA_RECOMPILED,
            dirty_entries=-1,
            dirty_destinations=-1,
            reconverge_rounds=0,
            recomputed_columns=0,
            n=graph_after.n,
        )

    if graph_before == graph_after:
        return DeltaResult(
            program=program,
            mode=DELTA_UNCHANGED,
            dirty_entries=0,
            dirty_destinations=0,
            reconverge_rounds=0,
            recomputed_columns=0,
            n=graph_after.n,
        )

    if (
        graph_before.n != graph_after.n
        or not isinstance(scheme, ShortestPathTableScheme)
        or not isinstance(program, NextHopProgram)
    ):
        return _recompiled()

    n = graph_after.n
    before, after = _edge_codes(graph_before), _edge_codes(graph_after)
    added = [divmod(int(c), n) for c in after[~np.isin(after, before, assume_unique=True)]]
    removed = [divmod(int(c), n) for c in before[~np.isin(before, after, assume_unique=True)]]

    if dist_before is None:
        dist_before = distance_matrix(graph_before)
    dist_after, rounds, recomputed = incremental_distance_matrix(
        graph_after, dist_before, added, removed
    )
    if n > 1 and (dist_after == UNREACHABLE).any():
        # The change disconnected the graph: a fresh build would refuse, and
        # the delta must be indistinguishable from it.
        return _recompiled()

    changed = dist_after != dist_before
    dirty = np.array(changed)
    indptr, indices = graph_after.adjacency_arrays()
    if changed.any():
        # One-hop propagation: x's choice for dest reads the distances of
        # its neighbours, so a change at v invalidates every neighbour of v.
        # The OR over neighbours runs on the changed columns only, bit-packed.
        cols = np.flatnonzero(changed.any(axis=0))
        rows = np.flatnonzero(np.diff(indptr))
        packed = np.packbits(changed[:, cols], axis=1, bitorder="little")
        reached = np.bitwise_or.reduceat(packed[indices], indptr[rows], axis=0)
        unpacked = np.unpackbits(reached, axis=1, count=cols.size, bitorder="little")
        dirty[np.ix_(rows, cols)] |= unpacked.view(bool)
    dirty[_port_dirty_vertices(graph_before, graph_after)] = True
    np.fill_diagonal(dirty, False)

    dirty_entries = int(dirty.sum())
    total = n * (n - 1)
    if total and dirty_entries > DIRTY_THRESHOLD * total:
        return _recompiled()
    dirty_destinations = int(dirty.any(axis=0).sum())

    xs, dests = np.nonzero(dirty)
    ports = shortest_path_ports(graph_after, scheme.tie_break, dist_after, dirty=(xs, dests))
    next_node = np.array(program.next_node, copy=True)  # mmap views are read-only
    next_node[xs, dests] = indices[indptr[xs] + ports - 1]

    patched = program.with_next_node(next_node)
    if static_check:
        _assert_patched_sound(patched, dist_after)
    return DeltaResult(
        program=patched,
        mode=DELTA_PATCHED,
        dirty_entries=dirty_entries,
        dirty_destinations=dirty_destinations,
        reconverge_rounds=rounds,
        recomputed_columns=recomputed,
        n=n,
        dist_after=dist_after,
    )
