#!/usr/bin/env python3
"""Project-specific AST lint for the routing/sim core.

Fifteen rules guard invariants that generic linters cannot see, all scoped
to the modules where the invariant lives:

REP001  Raw ``-2`` / ``-3`` integer literals anywhere in ``repro.sim`` or
        ``repro.routing``.  Those values are the :data:`MISDELIVER` /
        :data:`DROPPED` transition sentinels of
        :mod:`repro.routing.program`; an inline literal silently
        duplicates the protocol and breaks the moment a sentinel is
        renumbered.  The definition site itself (``MISDELIVER = -2``,
        ``DROPPED = -3`` in ``program.py``) is exempt; anything else
        needs ``# repro-lint: allow-sentinel`` with a reason.

REP002  Bare narrow integer dtype literals (``np.int8`` / ``np.int16`` /
        ``np.int32``) in the modules that build or decode transition
        arrays or narrow their inputs (``routing/program.py``,
        ``routing/tables.py``, ``sim/engine.py``, ``sim/faults.py``).
        Widths must come from the domain —
        :func:`repro.routing.program.transition_dtype` for transition
        arrays, ``np.min_scalar_type`` of the extreme value for narrow
        distance and port copies — so an array's width tracks what it
        holds; a hard-coded width either wastes memory or overflows.
        Escape with ``# repro-lint: allow-dtype`` where a fixed width is
        the point (the ``transition_dtype`` ladder itself, the fate
        resolver's int32 state ids, the engine's int8 verdict codes).

REP003  Nondeterminism in the compile/verify modules
        (``routing/program.py``, ``routing/verify.py``): ``import
        random``, any ``np.random.*`` sampler, or ``default_rng()``
        called without a seed.  Compilation and verification must be
        bit-reproducible functions of their inputs — cache keys,
        fingerprints, and the static soundness proofs all assume it.
        There is no escape comment for this rule on purpose.

REP004  Python-level loops over per-pair arrays, and ``np.<ufunc>.at``
        scatters, in the flow module (``analysis/flow.py``).  The whole point of the demand-matrix
        representation is that "millions of messages" stays a float
        array; a ``for`` loop (or comprehension) whose iterable names a
        pair/demand/load array — directly, through ``.tolist()`` /
        ``.ravel()`` / ``.flatten()`` / ``.flat`` / ``np.nditer``, or
        inside ``zip()`` / ``enumerate()`` — materialises per-pair
        Python objects and demotes the vectorised accumulators to
        interpreter speed.  Layer loops (``range(...)``) and generator
        pipelines (calls to ordinary functions) stay legal.  Escape with
        ``# repro-lint: allow-pair-loop`` and a reason.  Any ``while``
        loop in the module is flagged too: it is the shape of a per-hop
        frontier walk (advance every in-flight pair until none is left),
        which the subtree-sum accumulator replaced — every functional
        state graph has exact depths, so the module's loops are bounded
        ``range`` loops over depth layers.  The escape comment does not
        apply to ``while`` loops; the walk lives on as a test oracle
        (``tests/conftest.py``), outside the rule's scope.  Unbuffered
        ufunc scatters (``np.add.at``, ``np.maximum.at``, any
        ``np.<ufunc>.at``) are flagged too, also without an escape: the
        accumulator pushes each depth layer with one ``np.bincount`` over
        a contiguous slice of layer-local successor ranks, which is exact
        on integer demand and several times cheaper than an ``.at``
        scatter through a gather.

REP005  Bare ``print`` calls in the CLI package (``repro/cli``).  The
        ``repro`` command's stdout is a machine-readable JSONL stream —
        one JSON object per cell, nothing else — and every write must go
        through :func:`repro.cli._output.emit` so a stray diagnostic
        line can never corrupt a consumer's parse.  Escape with
        ``# repro-lint: allow-print`` and a reason.

REP006  Process pools outside the sweep dispatcher.  Anywhere under
        ``src/repro`` only ``analysis/runner.py`` may import
        ``concurrent.futures`` or ``multiprocessing``: every grid sweep
        goes through :meth:`repro.analysis.runner.ShardedRunner.stream`,
        so failure isolation, timings and ordering live in one place
        instead of a second hand-rolled pool.  There is no escape
        comment: a new pool belongs in the dispatcher.

REP007  Any ``scipy`` import anywhere under ``src/repro``.  Distances
        come from the bit-parallel BFS of
        :func:`repro.graphs.shortest_paths.bfs_rows`, and scipy is a test
        and benchmark extra, not a runtime dependency: an import would
        fail on a plain install, and importing ``scipy.sparse`` costs a
        quarter second and ~30 MB of resident memory per process.  There
        is no escape comment; oracles that need scipy live in ``tests/``.

REP008  Any function parameter named ``method`` anywhere under
        ``src/repro``.  Which implementation answers a question is the
        code's choice, not the caller's: the package ships one fast path
        per question, and the slow second answer it is checked against
        lives in ``tests/oracles.py``.  A ``method=`` switch is how a
        second answer creeps back into the runtime package.  There is no
        escape comment.

REP009  ``HeaderStateExplosionError`` caught anywhere under ``src/repro``
        but ``routing/program.py``.  Whether a routing function runs
        compiled or interpreted is decided in one place,
        :func:`repro.routing.program.compile_or_interpret`; a second
        ``try: rf.compile_program() / except HeaderStateExplosionError``
        is a second compile-or-interpret step that can drift from the
        first.  There is no escape comment.

REP010  Any ``networkx`` import anywhere under ``src/repro``.  Regular
        graphs come from the in-tree pairing-model sampler of
        :func:`repro.graphs.generators.random_regular_graph` and hypercube
        recognition from the labelling certificate of
        :func:`repro.graphs.properties.is_hypercube`; networkx is a test
        extra, not a runtime dependency, and importing it costs ~0.15 s
        and ~14 MB of resident memory per process.  There is no escape
        comment; networkx-backed oracles live in ``tests/oracles.py``.

REP011  ``BitWriter`` / ``BitReader`` anywhere under ``src/repro`` but
        ``memory/encoding.py`` (their definition) and
        ``constraints/reconstruction.py`` (the Lemma 1 witnesses, real
        bit strings).  Every memory length the package reports is
        closed-form (:mod:`repro.memory.coder`,
        :mod:`repro.memory.requirement`); a bit writer elsewhere is a
        second, per-bit answer to a question the closed form answers, and
        the encoders that check those lengths live in
        ``tests/oracles.py``.  There is no escape comment.

REP012  Any ``pickle`` / ``shelve`` import anywhere under ``src/repro``.
        What the package persists is either a content-addressed program
        object or a typed JSON manifest record of
        :class:`repro.store.ProgramStore`, both covered by its ``gc``,
        schema rule and ``degraded`` counter; a pickle beside them is a
        second, unrecorded store that executes whatever a shared cache
        directory holds.  Process-pool payloads still pickle implicitly,
        which imports nothing.  There is no escape comment.

REP013  Any ``ShardedRunner(...)`` construction under ``src/repro`` but
        ``repro/cli``.  Each sweep's parameters and defaults live in its
        spec builder, and ``ShardedRunner``'s sweep methods forward to
        it; a module-level driver that builds its own serial runner is a
        second surface restating those defaults.  Library callers pass
        a runner in, or build ``ShardedRunner(processes=1)`` themselves.
        There is no escape comment.

REP014  ``from repro... import _name`` anywhere under ``src/repro``.  A
        private name (a kernel, an interpreter, a helper) stays behind the
        module that owns it: a second module importing it is how a
        private kernel gains callers its owner cannot see and a copied
        helper grows beside it.  Give the name a public spelling, or
        move the caller into the owning module.  There is no escape
        comment.

REP015  Any ``repro.sim``, ``repro.analysis``, ``repro.store`` or
        ``repro.cli`` import under ``src/repro/graphs`` and
        ``src/repro/routing``, ``TYPE_CHECKING`` blocks and function-local
        imports included.  Graphs and routing programs are the layers the
        simulator, the sweeps, the store and the CLI consume; an upward
        import is a question the consumer answers (masking a patched
        program, say) leaking into the compiler, behind a deferred import
        that hides the cycle.  Compose the two calls at the caller
        instead.  There is no escape comment.
REP016  Any ``ctypes`` import under ``src/repro`` but
        ``analysis/runner.py``.  The one foreign call the package makes
        is the sweep heap policy's glibc ``mallopt``, applied where a
        sweep process starts; allocator knobs set anywhere else would be
        a second, unmeasured memory policy, and ``ctypes`` is also how
        a compiled kernel path would slip in beside the numpy one.
        There is no escape comment.

Pure stdlib (``ast`` + ``tokenize``): runs anywhere CPython runs, no
installs.  Exit status 1 when any finding is emitted, 0 on a clean tree.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, NamedTuple, Sequence, Set

#: Repo root (this file lives in ``tools/``).
ROOT = Path(__file__).resolve().parent.parent

#: REP001 scope: every module of the sim + routing core.
SENTINEL_SCOPE = ("src/repro/sim", "src/repro/routing")

#: Names whose top-level definition is the one legitimate raw literal.
SENTINEL_NAMES = {"MISDELIVER": -2, "DROPPED": -3}

#: REP002 scope: modules that construct or decode transition arrays, or
#: narrow distances and ports to their domain.
DTYPE_SCOPE = (
    "src/repro/routing/program.py",
    "src/repro/routing/tables.py",
    "src/repro/sim/engine.py",
    "src/repro/sim/faults.py",
)

#: Narrow widths that must come from the domain in that scope.
NARROW_DTYPES = {"int8", "int16", "int32"}

#: REP003 scope: modules whose output must be a pure function of input.
DETERMINISM_SCOPE = (
    "src/repro/routing/program.py",
    "src/repro/routing/verify.py",
)

#: REP004 scope: the flow accumulators must never loop over pairs.
FLOW_SCOPE = ("src/repro/analysis/flow.py",)

#: REP005 scope: all CLI output must flow through the JSONL writer.
CLI_SCOPE = ("src/repro/cli",)

#: REP006 scope: the whole runtime package, and the one module in it
#: allowed to own a process pool.
POOL_SCOPE = ("src/repro",)
POOL_OWNER = "src/repro/analysis/runner.py"
POOL_MODULES = ("concurrent.futures", "multiprocessing")

#: REP007 scope: the whole runtime package.
SCIPY_SCOPE = ("src/repro",)

#: REP010 scope: the whole runtime package.
NETWORKX_SCOPE = ("src/repro",)

#: REP012 scope: the whole runtime package, and the modules it rejects.
PICKLE_SCOPE = ("src/repro",)
PICKLE_MODULES = ("pickle", "shelve")

#: REP013 scope, and the package in it allowed to construct a runner.
RUNNER_SCOPE = ("src/repro",)
RUNNER_OWNER = "src/repro/cli"

#: REP014 scope: the whole runtime package.
PRIVATE_SCOPE = ("src/repro",)

#: REP015 scope, and the consumer packages it may not import.
LAYER_SCOPE = ("src/repro/graphs", "src/repro/routing")
CONSUMER_MODULES = ("repro.sim", "repro.analysis", "repro.store", "repro.cli")

#: REP016 scope, and the one module in it allowed to import ctypes.
CTYPES_SCOPE = ("src/repro",)
CTYPES_OWNER = "src/repro/analysis/runner.py"
#: REP008 scope: the whole runtime package.
METHOD_SCOPE = ("src/repro",)

#: REP009 scope, and the one module in it allowed to catch the explosion.
EXPLOSION_SCOPE = ("src/repro",)
EXPLOSION_OWNER = "src/repro/routing/program.py"
EXPLOSION_ERROR = "HeaderStateExplosionError"

#: REP011 scope, and the modules in it allowed to write or read bits.
BITS_SCOPE = ("src/repro",)
BITS_OWNERS = ("src/repro/memory/encoding.py", "src/repro/constraints/reconstruction.py")
BITS_NAMES = {"BitWriter", "BitReader"}

#: Identifier substrings that mark a per-pair/per-arc array in that scope.
PAIR_MARKERS = (
    "pair",
    "demand",
    "load",
    "weight",
    "src",
    "dst",
    "arc",
    "code",
    "state",
)


class Finding(NamedTuple):
    path: Path
    line: int
    code: str
    message: str

    def render(self) -> str:
        try:
            rel = self.path.relative_to(ROOT)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: {self.code} {self.message}"


def _escaped_lines(source: str, marker: str) -> Set[int]:
    """Line numbers carrying a ``# repro-lint: <marker>`` escape comment.

    Escapes are read from the token stream, not the raw text, so the
    marker appearing inside a string literal does not disable the rule.
    """
    lines: Set[int] = set()
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__)
        for tok in tokens:
            if tok.type == tokenize.COMMENT and f"repro-lint: {marker}" in tok.string:
                lines.add(tok.start[0])
    except tokenize.TokenError:
        pass
    return lines


def _is_neg_literal(node: ast.AST, values: Sequence[int]) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) is int
        and node.operand.value in values
    )


def _sentinel_definition_targets(tree: ast.Module) -> Set[int]:
    """Ids of the value nodes in ``MISDELIVER = -2`` / ``DROPPED = -3``.

    Only module-level single-target assignments to the canonical names
    count as the definition site.
    """
    exempt: Set[int] = set()
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id in SENTINEL_NAMES
            and _is_neg_literal(stmt.value, (-SENTINEL_NAMES[stmt.targets[0].id],))
        ):
            exempt.add(id(stmt.value))
    return exempt


def check_sentinels(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP001: raw -2/-3 literals outside the sentinel definitions."""
    escaped = _escaped_lines(source, "allow-sentinel")
    exempt = _sentinel_definition_targets(tree)
    for node in ast.walk(tree):
        if not _is_neg_literal(node, (2, 3)):
            continue
        if id(node) in exempt or node.lineno in escaped:
            continue
        value = -node.operand.value  # type: ignore[attr-defined]
        name = "MISDELIVER" if value == -2 else "DROPPED"
        yield Finding(
            path,
            node.lineno,
            "REP001",
            f"raw {value} literal: use repro.routing.program.{name} "
            "(or '# repro-lint: allow-sentinel' with a reason)",
        )


def check_dtypes(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP002: bare np.int8/np.int16/np.int32 where a domain width is required."""
    escaped = _escaped_lines(source, "allow-dtype")
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Attribute)
            and node.attr in NARROW_DTYPES
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            continue
        if node.lineno in escaped:
            continue
        yield Finding(
            path,
            node.lineno,
            "REP002",
            f"bare np.{node.attr} in a narrow-array module: size the dtype "
            "from its domain, transition_dtype(num_values) or "
            "np.min_scalar_type(extreme) "
            "(or '# repro-lint: allow-dtype' where a fixed width is the point)",
        )


def check_determinism(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP003: nondeterminism sources in compile/verify modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield Finding(
                        path,
                        node.lineno,
                        "REP003",
                        "stdlib random imported in a compile/verify module: "
                        "these must be deterministic functions of their inputs",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield Finding(
                    path,
                    node.lineno,
                    "REP003",
                    "stdlib random imported in a compile/verify module: "
                    "these must be deterministic functions of their inputs",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            # np.random.<sampler>(...) — module-level samplers draw from
            # global state; default_rng(seed) is the one sanctioned entry
            # and only with an explicit seed.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
            ):
                if func.attr != "default_rng":
                    yield Finding(
                        path,
                        node.lineno,
                        "REP003",
                        f"np.random.{func.attr}() draws from global state in a "
                        "compile/verify module",
                    )
                elif not node.args and not node.keywords:
                    yield Finding(
                        path,
                        node.lineno,
                        "REP003",
                        "default_rng() without a seed in a compile/verify module: "
                        "pass an explicit seed",
                    )
            elif (
                isinstance(func, ast.Name)
                and func.id == "default_rng"
                and not node.args
                and not node.keywords
            ):
                yield Finding(
                    path,
                    node.lineno,
                    "REP003",
                    "default_rng() without a seed in a compile/verify module: "
                    "pass an explicit seed",
                )


def _marker_name(node: ast.AST) -> str | None:
    """The identifier when ``node`` names a per-pair array, else ``None``.

    ALL_CAPS identifiers are exempt: module constants (``DEMAND_MODELS``)
    are small registries, never per-pair runtime data.
    """
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    if name.isupper():
        return None
    lowered = name.lower()
    if any(marker in lowered for marker in PAIR_MARKERS):
        return name
    return None


def _pair_iterable(node: ast.AST) -> str | None:
    """The offending expression when ``node`` iterates a per-pair array.

    Catches the array itself, python-materialising views of it
    (``.tolist()`` / ``.ravel()`` / ``.flatten()`` / ``.flat`` /
    ``np.nditer``), and ``zip()`` / ``enumerate()`` wrapping any of
    those.  ``range(...)``, ``.items()``, and calls to ordinary
    functions are not flagged — layer loops and generator pipelines are
    how the module is *supposed* to iterate.
    """
    name = _marker_name(node)
    if name is not None:
        return name
    if isinstance(node, ast.Attribute) and node.attr == "flat":
        inner = _marker_name(node.value)
        if inner is not None:
            return f"{inner}.flat"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "tolist",
            "ravel",
            "flatten",
        ):
            inner = _marker_name(func.value)
            if inner is not None:
                return f"{inner}.{func.attr}()"
        if isinstance(func, ast.Name) and func.id in ("zip", "enumerate"):
            for arg in node.args:
                inner = _pair_iterable(arg)
                if inner is not None:
                    return inner
        if isinstance(func, ast.Attribute) and func.attr == "nditer":
            for arg in node.args:
                inner = _marker_name(arg)
                if inner is not None:
                    return f"nditer({inner})"
    return None


def _ufunc_at_name(node: ast.AST) -> str | None:
    """The ufunc's name when ``node`` calls ``np.<ufunc>.at``, else ``None``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    func = node.func
    if (
        func.attr == "at"
        and isinstance(func.value, ast.Attribute)
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in ("np", "numpy")
    ):
        return func.value.attr
    return None


def check_pair_loops(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP004: per-pair loops, per-hop ``while`` walkers and ``.at`` scatters in the flow module."""
    escaped = _escaped_lines(source, "allow-pair-loop")
    loops: List[tuple] = []
    for node in ast.walk(tree):
        ufunc = _ufunc_at_name(node)
        if ufunc is not None:
            yield Finding(
                path,
                node.lineno,
                "REP004",
                f"np.{ufunc}.at scatter in the flow module: push each depth "
                "layer with one np.bincount over its contiguous slice of "
                "layer-local successor ranks instead",
            )
        elif isinstance(node, ast.While):
            yield Finding(
                path,
                node.lineno,
                "REP004",
                "while loop in the flow module: a per-hop walker — layer the "
                "states by their resolved depth and accumulate subtree sums "
                "over range() layers instead",
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            loops.append((node.lineno, node.iter))
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                loops.append((node.lineno, gen.iter))
    for lineno, iter_node in sorted(loops, key=lambda item: item[0]):
        if lineno in escaped:
            continue
        name = _pair_iterable(iter_node)
        if name is not None:
            yield Finding(
                path,
                lineno,
                "REP004",
                f"python loop over per-pair array {name!r}: accumulate with "
                "a vectorised np.bincount instead "
                "(or '# repro-lint: allow-pair-loop' with a reason)",
            )


def check_cli_prints(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP005: bare ``print`` calls in the CLI package."""
    escaped = _escaped_lines(source, "allow-print")
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            continue
        if node.lineno in escaped:
            continue
        yield Finding(
            path,
            node.lineno,
            "REP005",
            "bare print() in the CLI package: stdout is a JSONL stream — "
            "write through repro.cli._output.emit "
            "(or '# repro-lint: allow-print' with a reason)",
        )


def _is_module(name: str, modules: Sequence[str]) -> bool:
    return any(name == mod or name.startswith(mod + ".") for mod in modules)


def _imported_names(tree: ast.Module) -> Iterator[tuple]:
    """``(node, names)`` for every absolute import in the module, nested too.

    ``from a import b`` names both ``a`` and ``a.b``, so a rule on the
    module ``a.b`` also catches ``from a import b``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node, [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]


def check_pool_imports(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP006: process-pool imports outside the sweep dispatcher."""
    for node, names in _imported_names(tree):
        for name in names:
            if _is_module(name, POOL_MODULES):
                yield Finding(
                    path,
                    node.lineno,
                    "REP006",
                    f"{name} imported outside analysis/runner.py: run grid "
                    "cells through ShardedRunner.stream, the one dispatcher",
                )
                break


def _imports_of(tree: ast.Module, module: str) -> Iterator[ast.stmt]:
    """Every import statement that names ``module`` or one of its submodules."""
    for node, names in _imported_names(tree):
        if any(_is_module(name, (module,)) for name in names):
            yield node


def check_scipy_imports(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP007: scipy imports in the runtime package."""
    for node in _imports_of(tree, "scipy"):
        yield Finding(
            path,
            node.lineno,
            "REP007",
            "scipy imported under src/repro: it is not a runtime dependency; "
            "use repro.graphs.shortest_paths.bfs_rows (scipy oracles belong in tests/)",
        )


def check_networkx_imports(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP010: networkx imports in the runtime package."""
    for node in _imports_of(tree, "networkx"):
        yield Finding(
            path,
            node.lineno,
            "REP010",
            "networkx imported under src/repro: it is not a runtime dependency; "
            "use the in-tree graph code (networkx oracles belong in tests/oracles.py)",
        )


def check_pickle_imports(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP012: pickle/shelve imports in the runtime package."""
    for node, names in _imported_names(tree):
        if any(_is_module(name, PICKLE_MODULES) for name in names):
            yield Finding(
                path,
                node.lineno,
                "REP012",
                "pickle/shelve imported under src/repro: persist through "
                "repro.store.ProgramStore (program objects or typed row records)",
            )


def check_runner_constructions(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP013: ``ShardedRunner(...)`` built outside the CLI package."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "ShardedRunner":
            yield Finding(
                path,
                node.lineno,
                "REP013",
                "ShardedRunner constructed outside repro/cli: take a runner from "
                "the caller instead of wrapping its sweep methods in a serial driver",
            )


def check_private_imports(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP014: private names imported from another ``repro`` module."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module and not node.level):
            continue
        if not _is_module(node.module, ("repro",)):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield Finding(
                    path,
                    node.lineno,
                    "REP014",
                    f"private name {name} imported from {node.module}: give it a "
                    "public name, or move the caller into its owning module",
                )


def check_layer_imports(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP015: graphs/routing importing a package that consumes them."""
    for node, names in _imported_names(tree):
        name = next((name for name in names if _is_module(name, CONSUMER_MODULES)), None)
        if name is not None:
            yield Finding(
                path,
                node.lineno,
                "REP015",
                f"{name} imported under graphs/ or routing/: those layers are "
                "consumed by sim, analysis, store and cli, never the reverse; "
                "compose the calls at the caller",
            )


def check_ctypes_imports(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP016: ctypes imports outside the sweep heap policy."""
    for node in _imports_of(tree, "ctypes"):
        yield Finding(
            path,
            node.lineno,
            "REP016",
            "ctypes imported outside analysis/runner.py: the sweep heap policy "
            "is the package's one foreign call",
        )


def check_method_parameters(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP008: function parameters named ``method`` in the runtime package."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        for param in params:
            if param is not None and param.arg == "method":
                yield Finding(
                    path,
                    param.lineno,
                    "REP008",
                    "parameter named 'method': the code picks the implementation, "
                    "not the caller — keep one fast path here and put the slow "
                    "answer in tests/oracles.py",
                )


def _caught_names(handler: ast.ExceptHandler) -> Iterator[str]:
    """Names of the exception classes an ``except`` clause catches."""
    if handler.type is None:
        return
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for node in types:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def check_explosion_catches(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP009: HeaderStateExplosionError caught outside routing/program.py."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and EXPLOSION_ERROR in _caught_names(node):
            yield Finding(
                path,
                node.lineno,
                "REP009",
                f"{EXPLOSION_ERROR} caught outside routing/program.py: compile "
                "through repro.routing.program.compile_or_interpret, the one "
                "compile-or-interpret step",
            )


def check_bit_writers(path: Path, tree: ast.Module, source: str) -> Iterator[Finding]:
    """REP011: BitWriter/BitReader outside the encoding module and the witnesses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in names:
            if name in BITS_NAMES:
                yield Finding(
                    path,
                    node.lineno,
                    "REP011",
                    f"{name} used outside memory/encoding.py and "
                    "constraints/reconstruction.py: memory lengths are closed-form "
                    "(repro.memory.coder); bit-writing encoders belong in tests/oracles.py",
                )


def _in_scope(path: Path, scope: Sequence[str], root: Path) -> bool:
    try:
        rel = path.relative_to(root).as_posix()
    except ValueError:
        # Explicit CLI operand outside the repo (tests, editor buffers):
        # match on the trailing src/repro/... components instead.
        rel = path.as_posix()
    hay = "/" + rel
    return any(hay.endswith("/" + entry) or f"/{entry}/" in hay for entry in scope)


def lint_file(path: Path, root: Path = ROOT) -> List[Finding]:
    """All findings for one file (empty when the file is out of scope)."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, "REP000", f"syntax error: {exc.msg}")]
    findings: List[Finding] = []
    if _in_scope(path, SENTINEL_SCOPE, root):
        findings.extend(check_sentinels(path, tree, source))
    if _in_scope(path, DTYPE_SCOPE, root):
        findings.extend(check_dtypes(path, tree, source))
    if _in_scope(path, DETERMINISM_SCOPE, root):
        findings.extend(check_determinism(path, tree, source))
    if _in_scope(path, FLOW_SCOPE, root):
        findings.extend(check_pair_loops(path, tree, source))
    if _in_scope(path, CLI_SCOPE, root):
        findings.extend(check_cli_prints(path, tree, source))
    if _in_scope(path, POOL_SCOPE, root) and not _in_scope(path, (POOL_OWNER,), root):
        findings.extend(check_pool_imports(path, tree, source))
    if _in_scope(path, SCIPY_SCOPE, root):
        findings.extend(check_scipy_imports(path, tree, source))
    if _in_scope(path, NETWORKX_SCOPE, root):
        findings.extend(check_networkx_imports(path, tree, source))
    if _in_scope(path, PICKLE_SCOPE, root):
        findings.extend(check_pickle_imports(path, tree, source))
    if _in_scope(path, RUNNER_SCOPE, root) and not _in_scope(path, (RUNNER_OWNER,), root):
        findings.extend(check_runner_constructions(path, tree, source))
    if _in_scope(path, PRIVATE_SCOPE, root):
        findings.extend(check_private_imports(path, tree, source))
    if _in_scope(path, LAYER_SCOPE, root):
        findings.extend(check_layer_imports(path, tree, source))
    if _in_scope(path, CTYPES_SCOPE, root) and not _in_scope(path, (CTYPES_OWNER,), root):
        findings.extend(check_ctypes_imports(path, tree, source))
    if _in_scope(path, METHOD_SCOPE, root):
        findings.extend(check_method_parameters(path, tree, source))
    if _in_scope(path, EXPLOSION_SCOPE, root) and not _in_scope(path, (EXPLOSION_OWNER,), root):
        findings.extend(check_explosion_catches(path, tree, source))
    if _in_scope(path, BITS_SCOPE, root) and not _in_scope(path, BITS_OWNERS, root):
        findings.extend(check_bit_writers(path, tree, source))
    return findings


def lint_tree(root: Path = ROOT) -> List[Finding]:
    """Lint every scoped python file under ``root``."""
    findings: List[Finding] = []
    seen: Set[Path] = set()
    for scope in (
        SENTINEL_SCOPE,
        DTYPE_SCOPE,
        DETERMINISM_SCOPE,
        FLOW_SCOPE,
        CLI_SCOPE,
        POOL_SCOPE,
        SCIPY_SCOPE,
        NETWORKX_SCOPE,
        PICKLE_SCOPE,
        RUNNER_SCOPE,
        PRIVATE_SCOPE,
        LAYER_SCOPE,
        CTYPES_SCOPE,
        METHOD_SCOPE,
        EXPLOSION_SCOPE,
        BITS_SCOPE,
    ):
        for entry in scope:
            target = root / entry
            paths = sorted(target.rglob("*.py")) if target.is_dir() else [target]
            for path in paths:
                if path in seen or not path.exists():
                    continue
                seen.add(path)
                findings.extend(lint_file(path, root))
    findings.sort(key=lambda f: (str(f.path), f.line, f.code))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args:
        findings = []
        for arg in args:
            findings.extend(lint_file(Path(arg).resolve()))
    else:
        findings = lint_tree()
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)")
        return 1
    print("repro-lint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
