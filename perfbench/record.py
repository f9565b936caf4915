"""Record the verdicts the benchmark's gate compares against.

    python3 perfbench/record.py

writes ``perfbench/expected.json`` from the program in ``src/``: the built-in
lattice probe results, the nine-checker verdicts on every metric of every
``session`` pool, the ``session`` search verdict on every algebra, and the
``report-table`` status grid.  Run it only at a commit whose verdicts are
trusted, and review the diff of ``expected.json``: the gate accepts whatever
is recorded here.  It takes about a minute.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hermlie import catalog, herm, lattice, search  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    probes = {}
    for name in sorted(lattice.BUILTIN_PROBES):
        rep = lattice.builtin_probe(name)
        probes[name] = {"status": rep["status"], "rounded": rep.get("rounded")}

    metrics, searches = {}, {}
    for entry in catalog.list_entries():
        cx = search.entry_complexification(entry)
        metrics[entry.name] = [
            workloads.check_nine(cx, herm.fundamental_form(workloads.pool_metric(entry.name, i)))
            for i in range(workloads.METRIC_POOL)]
        g = entry.algebra_instance()
        searches[entry.name] = workloads.search_verdict(
            search.find_complex_structure(g, search.SearchConfig(**workloads.SESSION_SEARCH)))
        print(entry.name, searches[entry.name], flush=True)

    result = search.classification_sweep(cfg=search.SearchConfig(seed=0, restarts=8, max_iters=40))
    if not result["ok"]:
        print(f"record: the grid has mismatches: {result['mismatches']}", file=sys.stderr)
        return 1
    cells = {r["algebra"]: {c: r["cells"][c]["status"] for c in result["conditions"]}
             for r in result["rows"]}

    expected = {
        "certify": {"probes": probes},
        "session": {"metrics": metrics, "search": searches},
        "grid": {"cells": cells},
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
