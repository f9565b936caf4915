#!/usr/bin/env python3
"""Time the metric-search layer on the cells where ``report-table`` searches.

    python3 scripts/search_layer.py

The cells are the ``search-evidence`` cells of ``search.classification_sweep``
at seed 0 and its default restarts and iterations, the ones in which
``report-table`` runs ``search.find_metric``.  Per condition it prints:

* ``build ms``: the median over its cells of the time of one
  ``search._MetricResidual`` construction, on a fresh
  ``search.entry_complexification`` so that the frame's image caches start
  cold;
* ``us/call``: the median over its cells of the time of one
  ``search._metric_objective`` call (the residual, its Jacobian and the
  Cholesky map), each the best of 5 repeats of 200 calls at seeded points;
* ``restarts/s``: the restarts of ``search.find_metric`` on its cells at the
  sweep's config, over their time, the median of 3 passes.

The last line sums the cells, ``build ms`` as the total over them.

A second table times the rational reconstruction of the complex-structure
search.  It runs ``search.find_complex_structure`` at seed 0 and its default
config on each of the 34 catalog algebras and, per status of the outcome,
prints:

* ``searches``: the number of searches that ended with that status;
* ``ms/call``: the median over their seed-0 J witnesses of one
  ``search._exactify_j`` call on the witness, each the best of 5 repeats.

Run it at two commits on the same machine and compare the columns.
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
    """Condition -> (entry, complexification) of the entries it is searched
    on; the conditions of one entry share its complexification."""
    sweep = search.classification_sweep(cfg=cfg)
    cells = {}
    for row in sweep["rows"]:
        conds = [c for c, cell in row["cells"].items() if cell["status"] == "search-evidence"]
        if conds:
            entry = catalog.get_entry(row["algebra"])
            cx = search.entry_complexification(entry)
            for cond in conds:
                cells.setdefault(cond, []).append((entry, cx))
    return cells


def build_ms(entry, cond: str) -> float:
    cx = search.entry_complexification(entry)  # fresh, so its caches are cold
    t0 = time.perf_counter()
    search._MetricResidual(cx, cond)
    return (time.perf_counter() - t0) * 1e3


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


def reconstruction_table() -> None:
    searches, ms = {}, {}  # per status: search count, ms per witness
    for entry in catalog.list_entries():
        g = entry.algebra_instance()
        outcome = search.find_complex_structure(g, search.SearchConfig(seed=SEED))
        searches[outcome.status] = searches.get(outcome.status, 0) + 1
        times = ms.setdefault(outcome.status, [])
        if outcome.witness is not None:
            x = np.array(outcome.witness["J_float"]).reshape(-1)
            times.append(min(timeit.repeat(lambda: search._exactify_j(g, x),
                                           number=1, repeat=REPEATS)) * 1e3)
    searches["all"] = sum(searches.values())
    ms["all"] = [t for times in ms.values() for t in times]
    print(f"{'reconstruction':20s} {'searches':>8s} {'ms/call':>8s}")
    for status, times in ms.items():
        median = f"{statistics.median(times):8.2f}" if times else f"{'-':>8s}"
        print(f"{status:20s} {searches[status]:8d} {median}")


def main() -> int:
    # the config classification_sweep uses when given none, at a fixed seed
    cfg = search.SearchConfig(seed=SEED, restarts=8, max_iters=40)
    cells = evidence_cells(cfg)
    print(f"{'condition':20s} {'cells':>5s} {'build ms':>8s} {'us/call':>8s} "
          f"{'restarts':>8s} {'restarts/s':>10s}")
    total_restarts, total_s, total_build = 0, 0.0, 0.0
    for cond, pairs in cells.items():
        builds = [build_ms(entry, cond) for entry, _ in pairs]
        cxs = [cx for _, cx in pairs]
        us = statistics.median(us_per_call(cx, cond) for cx in cxs)
        restarts, rate = restarts_per_s(cxs, cond, cfg)
        total_restarts += restarts
        total_s += restarts / rate
        total_build += sum(builds)
        print(f"{cond:20s} {len(cxs):5d} {statistics.median(builds):8.2f} {us:8.1f} "
              f"{restarts:8d} {rate:10.1f}")
    print(f"{'all':20s} {sum(map(len, cells.values())):5d} {total_build:8.2f} {'':>8s} "
          f"{total_restarts:8d} {total_restarts / total_s:10.1f}")
    print()
    reconstruction_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
