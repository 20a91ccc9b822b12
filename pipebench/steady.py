"""Steadiness self-check: two sets of seeded runs of the same code.

``python3 pipebench/run.py --probe-ref-s X --workload W --steady N`` runs
the benchmark N times with seeds 1..N (set A), then N times with seeds
N+1..2N (set B), and prints per ``<workload>/<metric>``:

* each set's median and its spread, the interquartile range over the
  median as ``statistics.quantiles(values, n=4)`` gives it;
* the relative gap between the two medians;

each against the metric's ``bound`` from ``BENCHMARK.json``.  A metric is
steady when both spreads stay under a third of the bound (``setup_s``
excepted) and the gap stays under the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def _one_run(script: Path, args, workload: str, seed: int) -> Dict[str, float]:
    cmd = [
        sys.executable, str(script), "--probe-ref-s", str(args.probe_ref_s),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(args, script: Path) -> int:
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ("cold-medium", "cold-large", "warm-large") if args.workload == "all" else (args.workload,)
    n = args.steady
    steady = True
    for workload in names:
        sets = []
        for base in (0, n):
            runs = []
            for seed in range(base + 1, base + n + 1):
                runs.append(_one_run(script, args, workload, seed))
                print(f"{workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
            sets.append(runs)
        for metric, bound in bounds.items():
            a = [r[metric] for r in sets[0]]
            b = [r[metric] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            gap = abs(mb - ma) / ma if ma else 0.0
            sa, sb = spread(a), spread(b)
            ok = gap <= bound and (metric == "setup_s" or max(sa, sb) <= bound / 3)
            steady = steady and ok
            print(
                f"{workload}/{metric}: median A={ma:.6g} B={mb:.6g} gap={gap:.3f} "
                f"spread A={sa:.3f} B={sb:.3f} bound={bound} "
                f"{'steady' if ok else 'NOT STEADY'}",
                flush=True,
            )
    return 0 if steady else 1
