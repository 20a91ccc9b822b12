"""Benchmark of the compile -> store -> consume pipeline, in reference seconds.

Run from the root of a checkout::

    python3 pipebench/run.py --probe-ref-s 0.043 --workload cold-medium \\
        --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn and names every metric
``<workload>/<metric>``.  ``--trace 1`` reports the per-layer metrics of
traced passes instead of the end-to-end ones.  ``--steady N`` runs two sets
of N seeded runs per workload and prints, per metric, the spread within
each set and the gap between the two medians against the metric's bound in
``BENCHMARK.json``.

Each pass runs in a fresh interpreter (``child.py``); every wall time is
converted to reference seconds, ``raw_s * probe_ref_s / probe_s``, with
the drift probe (``probe.py``) sampled in that interpreter around every
timed unit.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output matched the reference, 1 when one did not, and 2 when
the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
#: Fixed interpreter hash seed of every pass, so set/dict iteration order
#: (and with it the work a pass does) is the same in every process.
HASH_SEED = "0"


def _die(message: str) -> None:
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
class Run:
    """One workload at one seed: set-up, reference, timed passes, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 probe_ref_s: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.probe_ref_s = probe_ref_s
        self.work = work
        self.passes: List[dict] = []
        self.snapshot: Optional[Path] = None
        self.reference = None

    # -- child processes -------------------------------------------------------
    def _child(self, name: str, workload: str, store: Path, trace: bool) -> dict:
        pass_dir = self.work / name
        pass_dir.mkdir()
        spec = {
            "workload": workload,
            "seed": self.seed,
            "store": str(store),
            "rows_path": str(pass_dir / "rows.jsonl"),
            "out_path": str(pass_dir / "result.json"),
            "trace": trace,
            "src": str(SRC),
        }
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} child exited {proc.returncode}")
        result = json.loads(Path(spec["out_path"]).read_text())
        result["factors"] = self._factors(result)
        result["ref_s"] = sum(u["raw_s"] * f for u, f in zip(result["units"], result["factors"]))
        result["raw_s"] = sum(u["raw_s"] for u in result["units"])
        result["probe_s"] = _median([x for point in result["probes"] for x in point])
        return result

    def _factors(self, result: dict) -> List[float]:
        """``probe_ref_s / probe_s`` per unit, from the probes either side."""
        probes = result["probes"]
        return [
            self.probe_ref_s / _median(probes[i] + probes[i + 1])
            for i in range(len(result["units"]))
        ]

    # -- set-up ----------------------------------------------------------------
    def setup(self) -> float:
        """Set-up time in reference seconds.

        Set-up builds the families and the reference (one live routing
        function per cell), and for warm-large also compiles and primes
        the warm store in its own interpreter.  It is measured once per
        run: one set-up takes 4-25 s, and a multi-second set-up is steadier
        than many repeats of the millisecond family build alone.
        """
        import probe
        import reference

        before = probe.probe_point()
        start = time.perf_counter()
        self.reference = reference.Reference(self.workload, self.seed)
        raw = time.perf_counter() - start
        setup_s = raw * self.probe_ref_s / _median(before + probe.probe_point())
        if self.workload == "warm-large":
            self.snapshot = self.work / "snapshot"
            setup_s += self._child("setup", "warm-large-setup", self.snapshot, False)["ref_s"]
        return setup_s

    # -- passes ----------------------------------------------------------------
    def run_passes(self, checker) -> None:
        start = time.perf_counter()
        index = 0
        while index < MIN_PASSES or time.perf_counter() - start < self.seconds:
            traced = self.trace and index % 2 == 1
            store = self.work / f"store{index}"
            if self.snapshot is not None:
                shutil.copytree(self.snapshot, store)
            result = self._child(f"pass{index}", self.workload, store, traced)
            result["traced"] = traced
            result["store_bytes"] = store_bytes(store)
            manifest = store / "manifest.jsonl"
            result["manifest_bytes"] = manifest.stat().st_size if manifest.exists() else 0
            checker.check_pass(result["rows"], str(store))
            del result["rows"]
            self.passes.append(result)
            shutil.rmtree(store)
            index += 1

    def untraced(self) -> List[dict]:
        return [p for p in self.passes if not p["traced"]]

    # -- metrics ---------------------------------------------------------------
    def end_to_end(self, setup_s: float, ok_rate: float) -> Dict[str, dict]:
        passes = self.untraced()
        return {
            "pass_s": {"value": _median([p["ref_s"] for p in passes]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": _median([p["maxrss_kb"] / 1024 for p in passes]), "unit": "MB"},
            "store_bytes": {"value": _median([p["store_bytes"] for p in passes]), "unit": "bytes"},
            "ok_rate": {"value": ok_rate, "unit": "ratio"},
        }

    def per_layer(self) -> Dict[str, dict]:
        import tracer

        traced = [p for p in self.passes if p["traced"]]
        plain = self.untraced()
        sums: Dict[str, List[float]] = {}
        for p in traced:
            units = p["units"]
            windows = [(u["start"], u["end"], f) for u, f in zip(units, p["factors"])]
            layers = tracer.aggregate(p["spans"], windows)
            root = layers.pop("_root_s")
            layers["unattributed_s"] = p["ref_s"] - root
            layers.update(self._counters(p))
            layers["cli.emit_self_s"] = layers.pop("cli.emit.self_s")
            del layers["cli.emit.calls"], layers["flow.demand.calls"]
            for key, value in layers.items():
                sums.setdefault(key, []).append(value)
        out = {}
        for key, values in sorted(sums.items()):
            unit = _layer_unit(key)
            out[key] = {"value": _median(values), "unit": unit}
        out["trace.overhead"] = {
            "value": _median([p["ref_s"] for p in traced]) / _median([p["ref_s"] for p in plain]),
            "unit": "ratio",
        }
        return out

    @staticmethod
    def _counters(p: dict) -> Dict[str, float]:
        counters = dict(p["counters"])
        stats = p["stats"]
        lookups = stats["compile_hits"] + stats["compile_misses"]
        out = {
            name: counters.get(name, 0)
            for name in (
                "routing.lower.program_bytes",
                "routing.lower.generic_fallbacks",
                "routing.delta.patched",
                "routing.delta.recompiled",
                "routing.delta.unchanged",
                "store.put.bytes",
                "store.get.hits",
                "store.get.misses",
                "flow.route.subtree",
                "flow.route.walk",
                "cli.rows",
            )
        }
        out.update(
            {
                "store.manifest_bytes": p["manifest_bytes"],
                "store.degraded": counters.get("store.degraded", 0),
                "runner.cells": stats["cells"],
                "runner.skipped": stats["skipped"],
                "runner.compile_hit_rate": stats["compile_hits"] / lookups if lookups else 0.0,
                "runner.degraded": stats["degraded"],
                "harness.probe_s": p["probe_s"],
                "harness.pass_wall_s": p["raw_s"],
            }
        )
        return out


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("hit_rate", "overhead")):
        return "ratio"
    return "count"


def store_bytes(store: Path) -> int:
    """Objects plus manifest: the compiled artifacts' footprint on disk."""
    total = 0
    manifest = store / "manifest.jsonl"
    if manifest.exists():
        total += manifest.stat().st_size
    for path in (store / "objects").rglob("*"):
        if path.is_file():
            total += path.stat().st_size
    return total


# ---------------------------------------------------------------------------
def provenance(passes: Dict[str, int]) -> str:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    knobs = {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    return (
        f"provenance: git={sha} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} nproc={os.cpu_count()} "
        f"REPRO_*={json.dumps(knobs)} passes={json.dumps(passes)}"
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 probe_ref_s: float, work: Path):
    """Returns ``(metrics, attempted, failed, pass count, report lines)``."""
    import reference

    run = Run(workload, seed, seconds, trace, probe_ref_s, work)
    setup_s = run.setup()
    checker = reference.Checker(run.reference)
    lines = []
    run.run_passes(checker)
    for message in checker.messages:
        lines.append(f"{workload}: MISMATCH {message}")
    ok_rate = (checker.attempted - checker.failed) / checker.attempted
    plain = run.untraced()
    raw = _median([p["raw_s"] for p in plain])
    probe_s = _median([p["probe_s"] for p in plain])
    if trace:
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end(setup_s, ok_rate)
    n = len(plain)
    samples = " ".join(f"{p['ref_s']:.3f}" for p in plain)
    for name, metric in metrics.items():
        extra = ""
        if name == "pass_s":
            extra = (
                f" (reference; median of n={n} passes; raw pass_wall_s={raw:.4f} s,"
                f" probe_s={probe_s:.5f} s, probe_ref_s={probe_ref_s}; passes {samples})"
            )
        elif name == "setup_s":
            extra = " (reference; n=1 set-up per run)"
        elif not trace:
            extra = f" (median of n={n} passes)" if name != "ok_rate" else (
                f" ({checker.attempted - checker.failed}/{checker.attempted} cells)"
            )
        else:
            extra = f" (n={len(run.passes) - n} traced passes)"
        lines.append(f"{workload}/{name} = {metric['value']:.6g} {metric['unit']}{extra}")
    return metrics, checker.attempted, checker.failed, len(run.passes), lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-ref-s", type=float, required=True,
                        help="reference probe time that raw times are scaled to")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run two sets of N seeded runs and compare them")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"no src/repro under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _die(f"imported repro from {repro.__file__}, not from {SRC}")
    if args.steady:
        import steady

        return steady.main(args, Path(__file__).resolve())

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    base = ROOT / ".pipebench-work"
    base.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=base))
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    passes: Dict[str, int] = {}
    report: List[str] = []
    try:
        for name in names:
            work = work_root / name
            work.mkdir()
            m, a, f, count, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.probe_ref_s, work
            )
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
            passes[name] = count
            report.extend(lines)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(provenance(passes))
    for line in report:
        print(line)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
