"""The three benchmark workloads: inputs, set-up and one pass each.

Everything here is a pure function of the ``--seed`` argument, so the
parent (which builds the reference and checks rows) and every pass child
(which runs the pipeline) derive byte-identical inputs independently.

* ``cold-medium`` - one ``repro sweep --registry medium --jobs 1`` into an
  empty store (300 cells, 20 families x 15 schemes, n ~ 9-40).
* ``cold-large`` - the n = 256 grid (3 families x 6 schemes) compiled into
  an empty store through ``ShardedRunner.program_sweep``, then routed with
  ``flow_sweep(models=("uniform",))``.
* ``warm-large`` - the same grid from a pre-compiled store copy: verify,
  flow (three demand models), resilience with uniform flow, and churn over
  the table schemes with static delta proofs.

A pass is a list of *units*, each a few seconds long, so the drift probe
can be sampled around every one of them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

WORKLOADS = ("cold-medium", "cold-large", "warm-large")

#: Scheme columns of the n = 256 grid.
LARGE_SCHEMES = (
    "tables-lowest-port",
    "tables-highest-port",
    "landmark-sqrt",
    "landmark-rewriting",
    "interval",
    "spanner3-landmark",
)

#: One seeded edge-failure draw of k = 2 per family keeps resilience (whose
#: cost is dominated by exact stretch comparisons) near half a warm pass.
FAULT_EDGE_KS = (2,)
FAULT_NODE_KS: Tuple[int, ...] = ()
FAULT_PER_K = 1
CHURN_STEPS = 4
WARM_FLOW_MODELS = ("uniform", "zipf", "gravity")


def large_families(seed: int) -> Dict[str, object]:
    """Hypercube d=8, 16x16 torus and a seeded sparse random graph (n = 256)."""
    from repro.graphs import generators

    return {
        "hypercube": generators.hypercube(8),
        "torus": generators.torus_2d(16, 16),
        "random-sparse": generators.random_connected_graph(
            256, extra_edge_prob=0.01, seed=seed
        ),
    }


def large_schemes(seed: int) -> Dict[str, object]:
    from repro.sim.registry import scheme_registry

    registry = scheme_registry(seed=seed)
    return {name: registry[name] for name in LARGE_SCHEMES}


def table_schemes(schemes: Dict[str, object]) -> Dict[str, object]:
    return {name: s for name, s in schemes.items() if name.startswith("tables-")}


def medium_grid(seed: int) -> Tuple[Dict[str, object], Dict[str, object]]:
    """The ``repro sweep --registry medium`` grid, resolved like the CLI does."""
    from repro.sim.registry import resolve_families, resolve_schemes

    return resolve_schemes(None, seed=seed), resolve_families(None, size="medium", seed=seed)


def grid(workload: str, seed: int) -> Tuple[Dict[str, object], Dict[str, object]]:
    """``(schemes, families)`` of a workload."""
    if workload == "cold-medium":
        return medium_grid(seed)
    return large_schemes(seed), large_families(seed)


def warm_inputs(seed: int, families: Dict[str, object]):
    """Fault scenarios and churn traces of the warm pass, per family."""
    from repro.sim.churn import churn_scenarios
    from repro.sim.registry import fault_scenarios

    scenarios = {
        name: fault_scenarios(
            graph,
            seed=seed,
            edge_ks=FAULT_EDGE_KS,
            node_ks=FAULT_NODE_KS,
            per_k=FAULT_PER_K,
        )
        for name, graph in families.items()
    }
    traces = {
        name: churn_scenarios(graph, seed=seed, steps=CHURN_STEPS)
        for name, graph in families.items()
    }
    return scenarios, traces


# ---------------------------------------------------------------------------
# pass bodies: each returns a list of (label, thunk); a thunk returns
# (rows, stats) where rows is a list of JSON-able dicts and stats a dict of
# runner counters.
Unit = Tuple[str, Callable[[], Tuple[List[dict], dict]]]


def _stats_dict(stats, results, skipped) -> dict:
    return {
        "cells": len(results) + len(skipped),
        "skipped": len(skipped),
        "compile_hits": stats.compile_hits,
        "compile_misses": stats.compile_misses,
        "degraded": stats.degraded,
    }


def _rows(kind: str, results) -> List[dict]:
    import dataclasses

    return [dict(dataclasses.asdict(r), _sweep=kind) for r in results]


def _skips(kind: str, skipped) -> List[dict]:
    return [
        {"_sweep": kind, "event": "skip", "scheme": scheme, "family": family}
        for scheme, family in skipped
    ]


def cold_medium_units(seed: int, store: str, rows_path: str) -> List[Unit]:
    def sweep():
        import contextlib
        import json

        from repro.cli.main import main

        argv = [
            "sweep", "--registry", "medium", "--jobs", "1",
            "--store", store, "--seed", str(seed),
        ]
        with open(rows_path, "w") as out, contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"repro sweep exited {code}")
        with open(rows_path) as fh:
            rows = [json.loads(line) for line in fh]
        summary = rows.pop()
        if summary.get("event") != "summary":
            raise RuntimeError("repro sweep wrote no summary row")
        stats = {
            "cells": summary["cells"] + summary["skipped"],
            "skipped": summary["skipped"],
            "compile_hits": summary["compile_hits"],
            "compile_misses": summary["compile_misses"],
            "degraded": summary["degraded"],
            "cli_rows": summary["cells"],
        }
        return rows, stats

    return [("sweep", sweep)]


def cold_large_units(seed: int, store: str) -> List[Unit]:
    from repro.analysis.runner import ShardedRunner

    schemes, families = large_schemes(seed), large_families(seed)
    runner = ShardedRunner(store, processes=1)
    units: List[Unit] = []
    for name, graph in families.items():
        fam = {name: graph}

        def unit(fam=fam):
            programs, skipped, stats = runner.program_sweep(schemes=schemes, families=fam)
            flows, fskipped, fstats = runner.flow_sweep(
                schemes=schemes, families=fam, models=("uniform",), demand_seed=seed
            )
            counters = _stats_dict(stats, programs, skipped)
            for key, value in _stats_dict(fstats, flows, fskipped).items():
                counters[key] += value
            rows = (
                _rows("program", programs) + _skips("program", skipped)
                + _rows("flow", flows) + _skips("flow", fskipped)
            )
            return rows, counters

        units.append((f"compile+flow:{name}", unit))
    return units


def warm_large_units(seed: int, store: str) -> List[Unit]:
    from repro.analysis.runner import ShardedRunner

    schemes, families = large_schemes(seed), large_families(seed)
    scenarios, traces = warm_inputs(seed, families)
    runner = ShardedRunner(store, processes=1)

    def verify():
        results, skipped, stats = runner.verify_sweep(schemes=schemes, families=families)
        return _rows("verify", results) + _skips("verify", skipped), _stats_dict(stats, results, skipped)

    def flow():
        cells, skipped, stats = runner.flow_sweep(
            schemes=schemes, families=families, models=WARM_FLOW_MODELS, demand_seed=seed
        )
        return _rows("flow", cells) + _skips("flow", skipped), _stats_dict(stats, cells, skipped)

    def resilience():
        cells, skipped, stats = runner.resilience_sweep(
            schemes=schemes,
            families=families,
            scenarios=scenarios,
            flow="uniform",
            demand_seed=seed,
        )
        return (
            _rows("resilience", cells) + _skips("resilience", skipped),
            _stats_dict(stats, cells, skipped),
        )

    def churn():
        cells, skipped, stats = runner.churn_sweep(
            schemes=table_schemes(schemes),
            families=families,
            traces=traces,
            verify="static",
        )
        return _rows("churn", cells) + _skips("churn", skipped), _stats_dict(stats, cells, skipped)

    return [("verify", verify), ("flow", flow), ("resilience", resilience), ("churn", churn)]


def warm_setup_units(seed: int, store: str) -> List[Unit]:
    """Compile the grid and prime every artifact a warm pass reads.

    Programs come from ``program_sweep``; the flow and resilience priming
    sweeps leave the distance matrices (intact and surviving graphs) in the
    store.  Churn is not primed, so every pass writes its patched programs.
    """
    from repro.analysis.runner import ShardedRunner

    schemes, families = large_schemes(seed), large_families(seed)
    scenarios, _ = warm_inputs(seed, families)
    runner = ShardedRunner(store, processes=1)
    units: List[Unit] = []
    for name, graph in families.items():
        fam = {name: graph}

        def unit(fam=fam, name=name):
            runner.program_sweep(schemes=schemes, families=fam)
            runner.flow_sweep(
                schemes=schemes, families=fam, models=WARM_FLOW_MODELS, demand_seed=seed
            )
            runner.resilience_sweep(
                schemes=schemes,
                families=fam,
                scenarios={name: scenarios[name]},
                flow="uniform",
                demand_seed=seed,
            )
            return [], {}

        units.append((f"setup:{name}", unit))
    return units


def pass_units(workload: str, seed: int, store: str, rows_path: str) -> List[Unit]:
    if workload == "cold-medium":
        return cold_medium_units(seed, store, rows_path)
    if workload == "cold-large":
        return cold_large_units(seed, store)
    if workload == "warm-large":
        return warm_large_units(seed, store)
    if workload == "warm-large-setup":
        return warm_setup_units(seed, store)
    raise ValueError(f"unknown workload {workload!r}")
