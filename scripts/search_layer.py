#!/usr/bin/env python3
"""Time the metric-search layer on the cells where ``report-table`` searches.

    python3 scripts/search_layer.py

The cells are the ``search-evidence`` cells of ``search.classification_sweep``
at seed 0 and its default restarts and iterations, the ones in which
``report-table`` runs ``search.find_metric``.  Per condition it prints:

* ``us/call``: the median over its cells of the time of one
  ``search._metric_objective`` call (the residual, its Jacobian and the
  Cholesky map), each the best of 5 repeats of 200 calls at seeded points;
* ``restarts/s``: the restarts of ``search.find_metric`` on its cells at the
  sweep's config, over their time, the median of 3 passes.

The last line sums the cells.  Run it at two commits on the same machine and
compare the columns.
"""
from __future__ import annotations

import statistics
import sys
import time
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hermlie import catalog, search  # noqa: E402

SEED = 0
CALLS, REPEATS, PASSES = 200, 5, 3


def evidence_cells(cfg) -> dict:
    """Condition -> complexifications of the entries it is searched on."""
    sweep = search.classification_sweep(cfg=cfg)
    cells = {}
    for row in sweep["rows"]:
        conds = [c for c, cell in row["cells"].items() if cell["status"] == "search-evidence"]
        if conds:
            cx = search.entry_complexification(catalog.get_entry(row["algebra"]))
            for cond in conds:
                cells.setdefault(cond, []).append(cx)
    return cells


def us_per_call(cx, cond: str) -> float:
    residual = search._MetricResidual(cx, cond)
    points = np.random.default_rng(SEED).normal(0.0, 0.8, (CALLS, 9))

    def run():
        for raw in points:
            search._metric_objective(residual, raw)

    return min(timeit.repeat(run, number=1, repeat=REPEATS)) / CALLS * 1e6


def restarts_per_s(cxs, cond: str, cfg) -> tuple:
    rates = []
    for _ in range(PASSES):
        restarts, seconds = 0, 0.0
        for cx in cxs:
            t0 = time.perf_counter()
            outcome = search.find_metric(cx, cond, cfg)
            seconds += time.perf_counter() - t0
            restarts += len(outcome.best_residuals)
        rates.append(restarts / seconds)
    return restarts, statistics.median(rates)


def main() -> int:
    # the config classification_sweep uses when given none, at a fixed seed
    cfg = search.SearchConfig(seed=SEED, restarts=8, max_iters=40)
    cells = evidence_cells(cfg)
    print(f"{'condition':20s} {'cells':>5s} {'us/call':>8s} {'restarts':>8s} {'restarts/s':>10s}")
    total_restarts, total_s = 0, 0.0
    for cond, cxs in cells.items():
        us = statistics.median(us_per_call(cx, cond) for cx in cxs)
        restarts, rate = restarts_per_s(cxs, cond, cfg)
        total_restarts += restarts
        total_s += restarts / rate
        print(f"{cond:20s} {len(cxs):5d} {us:8.1f} {restarts:8d} {rate:10.1f}")
    print(f"{'all':20s} {sum(map(len, cells.values())):5d} {'':>8s} "
          f"{total_restarts:8d} {total_restarts / total_s:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
