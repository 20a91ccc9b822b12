"""One benchmark pass (or the warm set-up) in a fresh interpreter.

Usage: ``python3 pipebench/child.py SPEC.json`` where the spec names the
workload, seed, store directory, the file the CLI rows go to, the result
file to write and whether to trace.  Every pass gets its own process
because the in-process CLI keeps one ``ExperimentCache`` per store
directory alive for the life of the interpreter.

The drift probe runs before the first unit, between units and after the
last, in this same process; each unit's reference factor uses the mean of
the probes on either side of it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _jsonable(value):
    """numpy scalars/arrays and tuples as JSON-native values."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import probe
    import tracer as tracer_mod
    import workloads

    tracer = tracer_mod.install() if spec["trace"] else None
    if tracer is None:
        # Same imports as a traced pass, so both time identical work.
        tracer_mod._import_all()
    units = workloads.pass_units(
        spec["workload"], spec["seed"], spec["store"], spec["rows_path"]
    )
    probe.probe()  # warm the probe's own code paths
    probes = [probe.probe_point()]
    timed = []
    rows = []
    stats: dict = {}
    for label, thunk in units:
        start = time.perf_counter()
        unit_rows, unit_stats = thunk()
        end = time.perf_counter()
        probes.append(probe.probe_point())
        timed.append({"label": label, "start": start, "end": end, "raw_s": end - start})
        rows.extend(unit_rows)
        for key, value in unit_stats.items():
            stats[key] = stats.get(key, 0) + value
    result = {
        "units": timed,
        "probes": probes,
        "stats": stats,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rows": rows,
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    with open(spec["out_path"], "w") as fh:
        json.dump(result, fh, default=_jsonable)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
