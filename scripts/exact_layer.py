#!/usr/bin/env python3
"""Time the exact layer on the ``certify`` path: start-up, obstruction
replay, golden examples, the Nijenhuis tensor and d of a basis monomial.

    python3 scripts/exact_layer.py

It prints five tables:

* ``startup``: for ``import hermlie`` and three CLI commands, the median
  wall time of 9 fresh interpreters, each timed from outside, from its start
  to its exit, and whether the command loaded numpy (any ``numpy.*``
  submodule).  The exact commands should not; ``hermlie search`` does, at
  its first float call, so its row shows where the import went;
* ``replay``: per obstruction row of ``obstructions.obstruction_table``,
  named by its family (its algebra when it has none) and condition, its
  ``runs`` (contexts times branches) and the median over 5 runs of one
  ``obstructions.replay_obstruction_row`` call.
  Every replay is cold: each context builds its own ring and
  ``cpx.instantiate_family`` frame, so no image of d is cached between runs.
  The last line sums the runs and the medians;
* ``verify_example``: over the stock golden examples of every catalog entry,
  the median of each example's median over 5 ``catalog.verify_example``
  calls, and their sum;
* ``nijenhuis``: the median over 5 passes of the summed ``cpx.nijenhuis``
  time, in two rows: the exact pass over the stock golden J of every catalog
  entry, and the generic symbolic J (``cpx.generic_j_ring``) on each algebra
  named by a ``complex`` obstruction row.  Each pass parses every algebra
  afresh, outside the timed call, as ``catalog.verify_example`` does;
* ``_monomial``: per degree of the monomial, the number of
  ``forms.Antiderivation._monomial`` calls in one pass of every replay and
  every ``verify_example`` above, and their mean time in microseconds (each
  call timed with ``time.perf_counter`` around it).

Run it at two commits on the same machine and compare the columns.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hermlie import catalog, cpx, forms, obstructions  # noqa: E402

REPEATS = 5
STARTUP_RUNS = 9
STARTUP = {
    "import hermlie": None,
    "hermlie obstruction s6.154^0 lck": ["obstruction", "s6.154^0", "lck"],
    "hermlie verify-catalog": ["verify-catalog"],
    "hermlie search s6.25": ["search", "s6.25"],
}


def median_ms(fn, arg):
    """The median wall time of REPEATS calls ``fn(arg)`` in ms, and the
    value of the last call."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, out


def startup_table() -> None:
    print(f"{'startup':34s} {'median s':>9s} {'numpy':>6s}")
    for label, argv in STARTUP.items():
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import hermlie\n"
                + (f"import hermlie.cli; hermlie.cli.main({argv!r})\n" if argv else "")
                + "print(any(m.startswith('numpy.') for m in sys.modules))")
        times = []
        for _ in range(STARTUP_RUNS):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True)
            times.append(time.perf_counter() - t0)
        numpy = out.stdout.splitlines()[-1] == "True"
        print(f"{label:34s} {statistics.median(times):9.3f} {'yes' if numpy else 'no':>6s}")


def replay_table(rows) -> None:
    print(f"{'replay':20s} {'condition':18s} {'runs':>5s} {'ms':>8s}")
    total, total_runs = 0.0, 0
    for row in rows:
        ms, report = median_ms(obstructions.replay_obstruction_row, row)
        total += ms
        total_runs += report["runs"]
        print(f"{row.family_id or row.algebra:20s} {row.condition:18s} "
              f"{report['runs']:5d} {ms:8.2f}")
    print(f"{f'all {len(rows)} rows':20s} {'':18s} {total_runs:5d} {total:8.2f}")


def verify_example_table(examples) -> None:
    ms = [median_ms(catalog.verify_example, ex)[0] for ex in examples]
    print(f"{'verify_example':20s} {'examples':>8s} {'median ms':>9s} {'sum ms':>8s}")
    print(f"{'stock':20s} {len(ms):8d} {statistics.median(ms):9.2f} {sum(ms):8.2f}")


def nijenhuis_table(rows, examples) -> None:
    generic = [catalog.get_entry(name) for row in rows if row.condition == "complex"
               for name in row.algebra.split("|")]
    cases = {
        "golden J": [(ex.algebra_instance, ex.j) for ex in examples],
        "generic J": [(e.algebra_instance, lambda: cpx.generic_j_ring(6)[1]) for e in generic],
    }
    print(f"{'nijenhuis':20s} {'calls':>8s} {'median ms':>9s}")
    for label, pairs in cases.items():
        passes = []
        for _ in range(REPEATS):
            total = 0.0
            for algebra, j in pairs:
                g, J = algebra(), j()
                t0 = time.perf_counter()
                cpx.nijenhuis(g, J)
                total += time.perf_counter() - t0
            passes.append(total)
        print(f"{label:20s} {len(pairs):8d} {statistics.median(passes) * 1e3:9.2f}")


def monomial_table(rows, examples) -> None:
    calls, seconds = {}, {}
    inner = forms.Antiderivation._monomial

    def timed(self, dim, key):
        t0 = time.perf_counter()
        out = inner(self, dim, key)
        dt = time.perf_counter() - t0
        calls[len(key)] = calls.get(len(key), 0) + 1
        seconds[len(key)] = seconds.get(len(key), 0.0) + dt
        return out

    forms.Antiderivation._monomial = timed
    try:
        for row in rows:
            obstructions.replay_obstruction_row(row)
        for ex in examples:
            catalog.verify_example(ex)
    finally:
        forms.Antiderivation._monomial = inner
    print(f"{'_monomial degree':20s} {'calls':>8s} {'us/call':>8s}")
    for degree in sorted(calls):
        print(f"{degree:<20d} {calls[degree]:8d} {seconds[degree] / calls[degree] * 1e6:8.1f}")
    n, s = sum(calls.values()), sum(seconds.values())
    print(f"{'all':20s} {n:8d} {s / n * 1e6:8.1f}")


def main() -> int:
    rows = obstructions.obstruction_table()
    examples = [ex for entry in catalog.list_entries() for ex in entry.examples]
    startup_table()
    print()
    replay_table(rows)
    print()
    verify_example_table(examples)
    print()
    nijenhuis_table(rows, examples)
    print()
    monomial_table(rows, examples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
