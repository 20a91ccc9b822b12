"""Independent reference and the checks every pass's outputs must pass.

The reference never touches a compiled program: it builds each cell's live
routing function and routes messages one at a time through the scheme's
own ``initial_header``/``port``/``next_header``:

* ``cold-medium`` - every cell, all pairs, through the repo's per-message
  interpreter (``simulate_all_pairs`` with a ``GenericProgram``);
* the n = 256 grid - a seeded sample of ordered pairs per cell through the
  same per-message loop, written out here so it can run on a subset;
* churned snapshots of the shortest-path table schemes - BFS distances
  from scipy, since a shortest-path table must route at exactly distance.

The checks then compare a pass's rows and the programs in its store with
the reference.  A cell fails when any of its rows or programs disagree.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Ordered pairs sampled per n = 256 cell.
SAMPLE_PAIRS = 256
#: Row fields that are wall-clock measurements, not outputs.
TIMING_FIELDS = ("delta_seconds", "recompile_seconds", "speedup")

Cell = Tuple[str, str]  # (scheme label, family name)


def interpret(rf, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Route each ``(source, dest)`` pair message by message.

    Returns ``(delivered, hops)``; ``hops`` is -1 for undelivered pairs.
    The hop budget is the generic interpreter's ``4 * n``.
    """
    graph = rf.graph
    budget = 4 * graph.n
    delivered = np.zeros(len(pairs), dtype=bool)
    hops = np.full(len(pairs), -1, dtype=np.int64)
    for i, (source, dest) in enumerate(pairs.tolist()):
        node, header = source, rf.initial_header(source, dest)
        for step in range(budget):
            port = rf.port(node, header)
            if port == 0:
                if node == dest:
                    delivered[i] = True
                    hops[i] = step
                break
            header, node = rf.next_header(node, header), graph.neighbor_at_port(node, port)
    return delivered, hops


def sample_pairs(n: int, seed: int, salt: int) -> np.ndarray:
    rng = np.random.default_rng([seed, salt])
    src = rng.integers(0, n, size=SAMPLE_PAIRS)
    dst = (src + rng.integers(1, n, size=SAMPLE_PAIRS)) % n
    return np.stack([src, dst], axis=1)


class Reference:
    """Per-cell expected outcomes of one workload at one seed."""

    def __init__(self, workload: str, seed: int) -> None:
        import workloads
        from repro.routing.model import DELIVER

        if DELIVER != 0:
            raise RuntimeError("reference interpreter assumes DELIVER == 0")
        self.workload = workload
        self.seed = seed
        self.schemes, self.families = workloads.grid(workload, seed)
        #: cell -> None (inapplicable) or dict(pairs, delivered, hops[, n, steps, all])
        self.cells: Dict[Cell, Optional[dict]] = {}
        full = workload == "cold-medium"
        for salt, (family, graph) in enumerate(self.families.items()):
            for label, scheme in self.schemes.items():
                try:
                    rf = scheme.build(graph.copy())
                except ValueError:
                    self.cells[(label, family)] = None
                    continue
                self.cells[(label, family)] = (
                    self._all_pairs(rf) if full else self._sampled(rf, salt)
                )

    @staticmethod
    def _all_pairs(rf) -> dict:
        from repro.routing.program import GenericProgram
        from repro.sim.engine import simulate_all_pairs

        n = rf.graph.n
        result = simulate_all_pairs(rf, program=GenericProgram(num_vertices=n))
        return {
            "n": n,
            "all_delivered": bool(result.all_delivered),
            "steps": int(result.steps),
            "delivered": result.delivered.copy(),
            "hops": result.lengths.copy(),
        }

    def _sampled(self, rf, salt: int) -> dict:
        pairs = sample_pairs(rf.graph.n, self.seed, salt)
        delivered, hops = interpret(rf, pairs)
        return {"n": rf.graph.n, "pairs": pairs, "delivered": delivered, "hops": hops}


# ---------------------------------------------------------------------------
def canonical_rows(rows: List[dict]) -> List[str]:
    """Rows as sorted-key JSON with the timing fields left out."""
    out = []
    for row in rows:
        kept = {k: v for k, v in row.items() if k not in TIMING_FIELDS}
        out.append(json.dumps(kept, sort_keys=True))
    return out


def store_bindings(store: str) -> Dict[str, Optional[str]]:
    """Latest ``key -> object id`` of a store (verdicts map to None)."""
    from repro.store import ProgramStore

    return {rec.key: rec.object_id for rec in ProgramStore(store).records()}


def _program_of(store, graph, scheme):
    """The compiled program a pass stored for ``(graph, scheme)``, or None."""
    from repro.analysis.runner import scheme_fingerprint
    from repro.routing.program import load_program

    graph_fp, scheme_fp = graph.fingerprint(), scheme_fingerprint(scheme)
    for rec in store.records():
        if rec.graph == graph_fp and rec.scheme == scheme_fp and rec.object_id:
            return load_program(store.object_path(rec.object_id))
    return None


class Checker:
    """Checks the passes of one run; counts attempted and failed cells."""

    def __init__(self, reference: Reference) -> None:
        self.ref = reference
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.first_rows: Optional[List[str]] = None
        self.first_bindings: Optional[Dict[str, Optional[str]]] = None
        #: cell -> outcome of the stored program (filled on the first pass)
        self.executed: Dict[Cell, dict] = {}

    def _fail(self, bad: set, cell: Cell, why: str) -> None:
        if cell not in bad and len(self.messages) < 20:
            self.messages.append(f"{cell[0]} x {cell[1]}: {why}")
        bad.add(cell)

    def check_pass(self, rows: List[dict], store: str) -> None:
        bad: set = set()
        cells = list(self.ref.cells)
        if self.first_rows is None:
            self._check_programs(store, bad)
        self._check_rows(rows, bad)
        canon = canonical_rows(rows)
        bindings = store_bindings(store)
        if self.first_rows is None:
            self.first_rows, self.first_bindings = canon, bindings
        else:
            if canon != self.first_rows:
                for cell in cells:
                    self._fail(bad, cell, "rows differ from the first pass")
            if bindings != self.first_bindings:
                for cell in cells:
                    self._fail(bad, cell, "program fingerprints differ from the first pass")
        self.attempted += len(cells)
        self.failed += len(bad)

    # -- stored programs vs reference (first pass) ---------------------------
    def _check_programs(self, store_dir: str, bad: set) -> None:
        from repro.routing.program import GenericProgram
        from repro.sim.engine import execute_program
        from repro.store import ProgramStore

        store = ProgramStore(store_dir)
        for (label, family), expect in self.ref.cells.items():
            cell = (label, family)
            if expect is None:
                continue
            program = _program_of(store, self.ref.families[family], self.ref.schemes[label])
            if program is None:
                self._fail(bad, cell, "no program in the store")
                continue
            if isinstance(program, GenericProgram):
                self.executed[cell] = {"generic": True}
                continue
            result = execute_program(program)
            lengths, delivered = result.lengths, result.delivered
            if "pairs" in expect:
                src, dst = expect["pairs"][:, 0], expect["pairs"][:, 1]
                got_d, got_h = delivered[src, dst], np.where(
                    delivered[src, dst], lengths[src, dst], -1
                )
            else:
                got_d, got_h = delivered, np.where(delivered, lengths, -1)
            want_h = np.where(expect["delivered"], expect["hops"], -1)
            if not (np.array_equal(got_d, expect["delivered"]) and np.array_equal(got_h, want_h)):
                self._fail(bad, cell, "stored program routes differently from the reference")
            off = ~np.eye(program.n, dtype=bool)
            self.executed[cell] = {
                "generic": False,
                "all_delivered": bool(result.all_delivered),
                "steps": int(result.steps),
                "delivered": int(delivered[off].sum()),
                "max_hops": int(lengths[delivered & off].max(initial=0)),
                "mean_hops": float(lengths[off].mean()) if delivered[off].all() else None,
            }
        if self.ref.workload == "warm-large":
            self._check_churned(store, bad)

    def _check_churned(self, store, bad: set) -> None:
        """Every churned snapshot's table program routes at exact distance."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        import workloads
        from repro.analysis.runner import scheme_fingerprint
        from repro.routing.program import load_program
        from repro.sim.engine import execute_program

        _, traces = workloads.warm_inputs(self.ref.seed, self.ref.families)
        by_binding = {(rec.graph, rec.scheme): rec for rec in store.records()}
        for family, family_traces in traces.items():
            for label, scheme in workloads.table_schemes(self.ref.schemes).items():
                cell, scheme_fp = (label, family), scheme_fingerprint(scheme)
                for _, trace in family_traces:
                    for _, step in trace.transitions():
                        graph = step.graph
                        rec = by_binding.get((graph.fingerprint(), scheme_fp))
                        if rec is None or rec.object_id is None:
                            self._fail(bad, cell, "churned program missing from the store")
                            continue
                        edges = np.array(sorted(graph.edges()), dtype=np.int64)
                        adj = csr_matrix(
                            (np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                            shape=(graph.n, graph.n),
                        )
                        dist = shortest_path(adj, unweighted=True, directed=False)
                        result = execute_program(load_program(store.object_path(rec.object_id)))
                        if not (result.all_delivered and np.array_equal(result.lengths, dist)):
                            self._fail(bad, cell, "churned table is not shortest-path")

    # -- rows vs reference and stored programs ---------------------------------
    def _check_rows(self, rows: List[dict], bad: set) -> None:
        by_cell: Dict[Cell, List[dict]] = {}
        for row in rows:
            by_cell.setdefault((row["scheme"], row["family"]), []).append(row)
        for cell, expect in self.ref.cells.items():
            got = by_cell.get(cell, [])
            if expect is None:
                if not got or any(r.get("event") != "skip" for r in got):
                    self._fail(bad, cell, "inapplicable pair was not reported as a skip")
                continue
            if not got or any(r.get("event") == "skip" for r in got):
                self._fail(bad, cell, "applicable pair was skipped")
                continue
            for row in got:
                why = self._row_problem(cell, expect, row)
                if why:
                    self._fail(bad, cell, why)

    def _row_problem(self, cell: Cell, expect: dict, row: dict) -> Optional[str]:
        if row["n"] != expect["n"]:
            return "wrong n"
        sweep = row.get("_sweep", "sweep")
        done = self.executed.get(cell)
        if done is None:
            return "no stored program to compare with"
        if sweep == "sweep":  # CLI rows, compared with the full reference
            if row["all_delivered"] != expect["all_delivered"]:
                return "all_delivered differs from the reference"
            # The interpreter counts one more step than the compiled
            # executors (the delivery decision at the head node), so steps
            # are compared with the stored program's execution, which was
            # itself matched pair by pair against the reference.
            steps = expect["steps"] if done["generic"] else done["steps"]
            if row["steps"] != steps:
                return "steps differ from the stored program's execution"
            return None
        if done["generic"]:
            return None
        if sweep == "program":
            if (row["all_delivered"], row["steps"]) != (done["all_delivered"], done["steps"]):
                return "program row differs from the stored program's execution"
        elif sweep == "verify":
            if (row["all_delivered"], row["delivered"], row["max_finite_hops"]) != (
                done["all_delivered"], done["delivered"], done["max_hops"]
            ):
                return "verify row differs from the stored program's execution"
        elif sweep == "flow":
            if row["demand_model"] == "uniform" and done["mean_hops"] is not None:
                if row["delivered_fraction"] != 1.0 or not np.isclose(
                    row["mean_hops"], done["mean_hops"], rtol=1e-9
                ):
                    return "uniform flow row disagrees with the stored program"
        elif sweep == "resilience":
            # Outcomes partition the feasible pairs (both endpoints alive);
            # routable ones are those the surviving graph still connects.
            classified = (
                row["delivered"] + row["dropped"] + row["livelocked"] + row["misdelivered"]
            )
            if classified != row["feasible"] or not (
                row["delivered"] <= row["routable"] <= row["feasible"]
            ):
                return "resilience outcome counts do not partition the feasible pairs"
            survival = row["delivered"] / row["routable"] if row["routable"] else 1.0
            if not np.isclose(row["survival_rate"], survival, rtol=1e-12):
                return "resilience survival_rate is not delivered / routable"
        elif sweep == "churn":
            if row["mode"] == "patched" and row["outcome_equal"] is not True:
                return "patched delta was not proven sound"
        return None
