#!/usr/bin/env python3
"""Print one SHA-256 per hermlie output, to show that a change alters none.

Digests, one line each:

* ``verify-catalog``: ``hermlie --json verify-catalog``, manifest removed;
* ``obstruction``: ``hermlie --json obstruction ALGEBRA CONDITION`` for every
  catalog algebra and every condition it has obstruction rows for, manifest
  removed;
* ``report-table``: ``hermlie --seed 0 report-table --csv``;
* ``report-table-json``: ``hermlie --seed 0 --json report-table``, manifest
  removed, so that the cell details, the mismatches and the negative controls
  are pinned as well as the statuses;
* ``check_all``: the verdict, certificate and notes of every ``herm.check_all``
  checker on every golden example with an omega, and on every
  ``perfbench.workloads.pool_metric`` metric over each algebra's stored
  complex structure;
* ``search``: the verdict class (``exact``, ``float`` or ``exhausted``, as in
  ``perfbench.workloads.search_verdict``) of ``search.find_complex_structure``
  at ``SearchConfig(seed=0)`` on every catalog algebra and negative control.
  Residuals and restart counts are left out: a change to the search's float
  arithmetic may move a hit to another restart without changing a verdict;
* ``lattice``: the full report, float matrix included, of
  ``lattice.builtin_probe`` on every ``BUILTIN_PROBES`` name and of
  ``lattice.run_probe`` on a fixed list of ``(algebra, X, t)`` texts;
* ``residual``: on every catalog algebra's ``search.entry_complexification``
  and for each of the nine conditions, the raw bytes of the float metric
  residual ``search._MetricResidual`` at a few seeded coefficient vectors;
* ``metric``: on the same structures and conditions, the status and
  per-restart residuals of one short ``search.find_metric``
  (``METRIC_SEARCH``).  Unlike ``search``, it pins the search's float
  arithmetic, Jacobian included, so a change to that arithmetic changes it;
* ``check``: ``hermlie --json check FILE``, manifest removed, on every golden
  example with an omega, on the same example with -omega, on one omega that
  is not of type (1,1) under its J, and on one J that is not integrable, so
  that both verdicts of the positivity test are pinned.

Each CLI digest also covers the command's exit code.  Run it from any
directory, at two commits, and compare the lines:

    python3 scripts/output_digest.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hermlie import catalog, cli, herm, lattice, obstructions, search  # noqa: E402
from hermlie.cpx import Complexification  # noqa: E402
from perfbench import workloads  # noqa: E402


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _run(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_without_manifest(argv: list) -> list:
    code, text = _run(["--json"] + argv)
    payload = json.loads(text)
    payload.pop("manifest", None)
    return [code, payload]


def _obstructions() -> list:
    out = []
    for entry in catalog.list_entries(include_controls=True):
        rows = obstructions.obstruction_table(algebra=entry.name)
        for cond in sorted({r.condition for r in rows}):
            out.append([entry.name, cond,
                        _json_without_manifest(["obstruction", entry.name, cond])])
    return out


def _verdicts(cx, omega) -> dict:
    return {name: [rep.holds, repr(sorted(rep.certificate.items())), rep.notes]
            for name, rep in herm.check_all(cx, omega).items()}


def _check_all() -> list:
    out = []
    for entry in catalog.list_entries():
        for ex in entry.examples:
            if not ex.omega:
                continue
            cx = Complexification.from_real(ex.algebra_instance(), ex.j())
            out.append([ex.algebra, ex.omega, _verdicts(cx, cx.to_alpha(ex.omega_form()))])
    for entry in catalog.list_entries():
        cx = search.entry_complexification(entry)
        for index in range(workloads.METRIC_POOL):
            omega = herm.fundamental_form(workloads.pool_metric(entry.name, index))
            out.append([entry.name, index, _verdicts(cx, omega)])
    return out


def _search_verdicts() -> list:
    return [[entry.name, workloads.search_verdict(search.find_complex_structure(
                entry.algebra_instance(), search.SearchConfig(seed=0)))]
            for entry in catalog.list_entries(include_controls=True)]


#: Custom probes: each text reads the same under every parser hermlie has used.
PROBE_TEXTS = [
    ("s6.154^0", "f6", "pi/2"),
    ("s6.154^0", "2f1 - f3", "(1+pi)/2"),
    ("s6.154^0", "pi*f5+f6", "1"),
    ("s6.147^0", "3/4f2", "pi^2"),
    ("s6.147^0", "(1/2)f3+2*f6", "2π"),
    ("s6.152", "f6-((pi-1)/pi)f5", "3/4"),
]


def _lattice() -> list:
    out = [lattice.builtin_probe(name) for name in sorted(lattice.BUILTIN_PROBES)]
    for name, x_text, t_text in PROBE_TEXTS:
        g = catalog.get_entry(name).algebra_instance()
        out.append(lattice.run_probe(g, x_text, t_text, name=name))
    return out


#: The short metric search of the ``metric`` line, and the number of seeded
#: residual evaluations per (algebra, condition) of the ``residual`` line.
METRIC_SEARCH = {"seed": 0, "restarts": 2, "max_iters": 10}
METRIC_POINTS = 3


def _residual() -> list:
    out = []
    for entry in catalog.list_entries():
        cx = search.entry_complexification(entry)
        for cond in sorted(herm.CHECKERS):
            residual = search._MetricResidual(cx, cond)
            rng = np.random.default_rng(0)
            out.append([entry.name, cond, [residual(rng.normal(size=9)).tobytes().hex()
                                           for _ in range(METRIC_POINTS)]])
    return out


def _metric() -> list:
    out = []
    for entry in catalog.list_entries():
        cx = search.entry_complexification(entry)
        for cond in sorted(herm.CHECKERS):
            found = search.find_metric(cx, cond, search.SearchConfig(**METRIC_SEARCH))
            out.append([entry.name, cond, found.status,
                        [r.hex() for r in found.best_residuals]])
    return out


def _example_row(ex, **changes) -> dict:
    """A ``check`` input describing ``ex``, in the ``verify-catalog --dump``
    row format, with some fields replaced."""
    row = {
        "algebra": ex.algebra,
        "equations": ex.equations,
        "params": {k: str(v) for k, v in ex.params.items()},
        "j_images": ({str(k): v for k, v in ex.j_images.items()}
                     if ex.j_images else None),
        "j_matrix": ex.j_matrix,
        "omega": ex.omega,
    }
    row.update(changes)
    return row


def _negated(ex) -> str:
    """-omega of ``ex`` as form text with numeric coefficients."""
    return " + ".join(f"({-c})f{i}{j}" for (i, j), c in sorted(ex.omega_form().coeffs.items()))


def _check_inputs() -> list:
    golden = [ex for entry in catalog.list_entries() for ex in entry.examples if ex.omega]
    rows = []
    for ex in golden:
        rows.append(_example_row(ex))
        rows.append(_example_row(ex, omega=_negated(ex)))
    kahler = catalog.get_entry("s3.3^0+R3").examples[0]
    # the (1,1) part is positive; f13 - f24 is the real part of a (2,0)-form
    rows.append(_example_row(kahler, omega="f12+f34+f56+f13-f24"))
    # J f5 = 2 f6 squares to -Id but is not integrable
    twisted = catalog.get_entry("s6.154^0").examples[0]
    rows.append(_example_row(twisted, j_images={"1": "f2", "3": "f4", "5": "2f6"},
                             j_matrix=None))
    return rows


def _check() -> list:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "check.json"
        for row in _check_inputs():
            path.write_text(json.dumps(row), encoding="utf-8")
            out.append([row, _json_without_manifest(["check", str(path)])])
    return out


def main() -> int:
    print(f"verify-catalog {_sha(_json_without_manifest(['verify-catalog']))}")
    print(f"obstruction    {_sha(_obstructions())}")
    code, csv = _run(["--seed", "0", "report-table", "--csv"])
    print(f"report-table   {_sha([code, csv])}")
    print(f"report-table-json {_sha(_json_without_manifest(['--seed', '0', 'report-table']))}")
    print(f"check_all      {_sha(_check_all())}")
    print(f"search         {_sha(_search_verdicts())}")
    print(f"lattice        {_sha(_lattice())}")
    print(f"residual       {_sha(_residual())}")
    print(f"metric         {_sha(_metric())}")
    print(f"check          {_sha(_check())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
