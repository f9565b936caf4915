"""Command-line surface: catalog verification, ad-hoc structure checks,
randomized searches, obstruction replays, lattice probes, and the
classification grid report.

Each ``cmd_*`` function takes the parsed arguments and returns
``(exit_code, payload, lines)``; it prints nothing.  :func:`main` is the one
place that prints a report: under ``--json`` the payload with the
reproducibility manifest (command, arguments, seed, artifact and catalog
versions, wall time), otherwise the manifest header, the text lines and the
wall-time footer.  ``report-table --csv`` is the one bare output, with no
header or footer.  All output is deterministic for a fixed seed and version
except the wall time.

Exit codes: 0 success / all checks pass; 1 verification mismatch; 2 input,
IO, or schema error.  Every input error is raised as ``_SchemaError``, and
:func:`main` prints it to stderr and returns 2.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .cpx import is_integrable, nijenhuis, squares_to_minus_id
from .herm import CHECKERS, is_positive_form
from .liealg import jacobi_holds, parse_scalar
from .catalog import (
    CATALOG_VERSION,
    ExampleStructure,
    get_entry,
    list_entries,
    verify_entry,
    verify_example,
)
from .obstructions import obstruction_table, replay_obstruction_row
from .search import (SearchConfig, _default_seed, classification_sweep, entry_complexification,
                     find_complex_structure, find_metric)
from .lattice import BUILTIN_PROBES, builtin_probe, run_probe

_STATUS_SYMBOL = {
    "verified-example": "V",
    "obstruction-replayed": "O",
    "search-evidence": "e",
    "mismatch": "X",
}


@dataclass
class RunManifest:
    """Reproducibility header embedded in every report."""

    command: str
    arguments: dict
    seed: int
    artifact_version: str = __version__
    catalog_version: str = CATALOG_VERSION
    wall_time_s: float = 0.0
    started: float = field(default_factory=time.perf_counter)

    def finish(self):
        self.wall_time_s = time.perf_counter() - self.started

    def header(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in sorted(self.arguments.items())
                        if v is not None)
        return (f"# hermlie {self.command} | seed={self.seed} "
                f"| artifact={self.artifact_version} "
                f"| catalog={self.catalog_version}"
                + (f" | {args}" if args else ""))

    def footer(self) -> str:
        self.finish()
        return f"# wall_time_s={self.wall_time_s:.3f}"


def _jsonable(obj):
    """``obj`` with its dict keys and every value that is not a JSON scalar
    (exact scalars, polynomials, forms, metrics) written as text."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _emit_json(payload: dict, manifest: RunManifest):
    manifest.finish()
    payload = _jsonable({**payload, "manifest": {
        k: v for k, v in vars(manifest).items() if k != "started"}})
    print(json.dumps(payload, indent=2, sort_keys=True))


def _write_csv(result: dict):
    """The ``report-table --csv`` grid: one row per algebra, no manifest."""
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["algebra", *result["conditions"]])
    for row in result["rows"]:
        out.writerow([row["algebra"],
                      *(row["cells"][c]["status"] for c in result["conditions"])])


def _seed(args) -> int:
    try:
        return _default_seed() if args.seed is None else args.seed
    except ValueError as err:
        raise _SchemaError(str(err)) from None


def _search_config(args, **defaults):
    """``SearchConfig`` from the command's options; bad values exit 2."""
    kw = {"seed": _seed(args), **defaults}
    for name in ("restarts", "tol", "max_iters"):
        if getattr(args, name, None) is not None:
            kw[name] = getattr(args, name)
    try:
        return SearchConfig(**kw)
    except ValueError as err:
        raise _SchemaError(str(err)) from None


def _entry(name: str):
    """The catalog entry ``name``; an unknown name is an input error."""
    try:
        return get_entry(name)
    except KeyError as err:
        raise _SchemaError(err.args[0]) from None


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------

def _example_from_json(row, where: str):
    """The example that a ``check`` input or a ``verify-catalog FILE`` row
    describes, with its expressions parsed: ``(example, example.parse())``.
    ``equations`` may be left out when ``algebra`` names a catalog entry.
    Every expression is parsed here, so a malformed row raises
    ``_SchemaError`` with ``where`` in its message."""
    try:
        if not isinstance(row, dict):
            raise TypeError("expected a JSON object")
        params = row.get("params") or {}
        j_images = row.get("j_images") or {}
        if not isinstance(params, dict) or not isinstance(j_images, dict):
            raise TypeError("'params' and 'j_images' must be JSON objects")
        ex = ExampleStructure(
            algebra=row.get("algebra", "input"),
            conditions=tuple(row.get("conditions", ())),
            equations=row.get("equations") or get_entry(row["algebra"]).equations,
            params={k: parse_scalar(str(v)) for k, v in params.items()},
            constraint=row.get("constraint", ""),
            j_images={int(k): v for k, v in j_images.items()} or None,
            j_matrix=row.get("j_matrix"),
            omega=row.get("omega", ""),
            mu=row.get("mu"),
        )
        parsed = ex.parse()
        if not jacobi_holds(parsed[0]):
            raise ValueError("the structure equations break the Jacobi identity (d^2 != 0)")
        for cond in ex.conditions:
            if cond not in CHECKERS:
                raise ValueError(f"unknown condition {cond!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise _SchemaError(f"{where}: {err}") from None
    return ex, parsed


def _read_json(path: str, what: str):
    """The JSON value in ``path``; a file that cannot be read, is not JSON or
    nests deeper than the decoder can recurse is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as err:
        raise _SchemaError(f"cannot read {what}: {err}") from None


def _examples_from_file(path: str) -> list:
    data = _read_json(path, "catalog file")
    if not isinstance(data, dict) or "examples" not in data:
        raise _SchemaError("catalog file must be an object with an 'examples' list")
    examples = data["examples"]
    if not isinstance(examples, list) or not examples:
        raise _SchemaError("catalog file has no examples")
    return [_example_from_json(row, f"bad example row {i}")
            for i, row in enumerate(examples)]


class _SchemaError(Exception):
    """Bad input file or option; ``main`` prints it and exits 2."""


def _stock_examples() -> list:
    out = []
    for entry in list_entries():
        out.extend(entry.examples)
    return out


def cmd_verify_catalog(args):
    if args.dump:
        rows = [
            {
                "algebra": ex.algebra,
                "conditions": list(ex.conditions),
                "equations": ex.equations,
                "params": {k: str(v) for k, v in ex.params.items()},
                "constraint": ex.constraint,
                "j_images": ({str(k): v for k, v in ex.j_images.items()}
                             if ex.j_images else None),
                "j_matrix": ex.j_matrix,
                "omega": ex.omega,
                "mu": ex.mu,
            }
            for ex in _stock_examples()
        ]
        try:
            with open(args.dump, "w", encoding="utf-8") as fh:
                json.dump({"examples": rows}, fh, indent=2, sort_keys=True)
        except OSError as err:
            raise _SchemaError(f"cannot write catalog file: {err}") from None
        return (0, {"wrote": len(rows), "file": args.dump},
                [f"wrote {len(rows)} example rows to {args.dump}"])

    failures = []
    lines = []
    if args.file:
        examples = _examples_from_file(args.file)
        entry_reports = []
    else:
        examples = [(ex, None) for ex in _stock_examples()]
        entry_reports = [verify_entry(e) for e in list_entries(include_controls=True)]
        for rep in entry_reports:
            ok = rep.get("ok", False)
            lines.append(f"entry {rep['name']}: {'ok' if ok else 'FAIL ' + str(rep)}")
            if not ok:
                failures.append(f"entry {rep['name']}")
    for ex, parsed in examples:
        rep = verify_example(ex, parsed)
        ok = rep.get("ok", False)
        tag = f"example {ex.algebra} [{', '.join(ex.conditions) or 'complex only'}]"
        lines.append(f"{tag}: {'ok' if ok else 'FAIL ' + str(rep)}")
        if not ok:
            failures.append(tag)
    return (1 if failures else 0, {"rows": lines, "failures": failures, "ok": not failures},
            [*lines, f"{len(lines)} rows, {len(failures)} failures"])


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args):
    data = _read_json(args.file, "input file")
    if isinstance(data, dict) and "algebra" in data:
        _entry(data["algebra"])  # a check input names a catalog algebra, even with equations
    ex, (g, J, om_real, _) = _example_from_json(data, "bad input schema")

    report = {"algebra": ex.algebra, "J_squares_to_minus_id": squares_to_minus_id(J)}
    cx = is_integrable(g, J)
    report["J_integrable"] = cx is not None
    if cx is None:
        nz = sum(1 for comps in nijenhuis(g, J).values() for c in comps if c)
        report["note"] = (f"J is not integrable ({nz} nonzero torsion components); "
                          "only J-level checks were run")
    elif om_real is not None:
        om = cx.to_alpha(om_real)
        positive = is_positive_form(om)
        report["omega_positive"] = positive
        if positive:
            report["conditions"] = {
                name: {"holds": bool(rep), "certificate": rep.certificate,
                       "notes": rep.notes}
                for name, rep in ((n, fn(cx, om)) for n, fn in CHECKERS.items())
            }
    else:
        report["note"] = "no metric supplied; only J-level checks were run"

    lines = [f"algebra: {report['algebra']}",
             f"J^2 = -Id: {report['J_squares_to_minus_id']}",
             f"J integrable: {report['J_integrable']}"]
    if "omega_positive" in report:
        lines.append(f"omega positive: {report['omega_positive']}")
    for name, rep in report.get("conditions", {}).items():
        lines.append(f"  {name:20s} {'holds' if rep['holds'] else 'fails'}")
    if report.get("note"):
        lines.append(report["note"])
    return 0, report, lines


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args):
    entry = _entry(args.algebra)
    cfg = _search_config(args)
    if args.condition in (None, "complex"):
        outcome = find_complex_structure(entry.algebra_instance(), cfg)
        witness = outcome.witness or {}
        summary = {
            "target": "complex structure",
            "status": outcome.status,
            "note": outcome.note,
            "best_residuals": list(outcome.best_residuals),
            "exact_J": witness.get("J_exact"),
        }
    else:
        if args.condition not in CHECKERS:
            raise _SchemaError(f"unknown condition {args.condition!r}; choose from "
                               f"{sorted(CHECKERS)}")
        if not entry.examples:
            raise _SchemaError(f"{entry.name} has no stored complex structure to "
                               "search metrics on")
        outcome = find_metric(entry_complexification(entry), args.condition, cfg)
        witness = outcome.witness or {}
        summary = {
            "target": args.condition,
            "status": outcome.status,
            "note": outcome.note,
            "best_residuals": list(outcome.best_residuals),
            "metric": witness.get("metric"),
        }
    summary["algebra"] = entry.name
    lines = [f"algebra: {entry.name}",
             f"target: {summary['target']}",
             f"status: {summary['status']} ({summary['note']})",
             f"best residual: {min(outcome.best_residuals):.3e} "
             f"over {len(outcome.best_residuals)} restarts"]
    if summary.get("exact_J"):
        lines.append("exact witness J:")
        lines += ["  [" + ", ".join(str(v) for v in row) + "]" for row in summary["exact_J"]]
    if summary.get("metric"):
        lines.append(f"exact witness metric: {summary['metric']}")
    return 0, summary, lines


# ---------------------------------------------------------------------------
# obstruction
# ---------------------------------------------------------------------------

def cmd_obstruction(args):
    _entry(args.algebra)
    if args.condition not in CHECKERS and args.condition != "complex":
        raise _SchemaError(f"unknown condition {args.condition!r}; choose from "
                           f"{sorted(CHECKERS) + ['complex']}")
    rows = obstruction_table(algebra=args.algebra, condition=args.condition)
    reports = [replay_obstruction_row(row) for row in rows]
    ok = bool(rows) and all(rep["ok"] for rep in reports)
    lines = [] if rows else [f"no registered obstruction rows for "
                             f"({args.algebra}, {args.condition})"]
    for row, rep in zip(rows, reports):
        lines.append(f"{row.algebra} [{row.condition}] branch={row.branch or '-'} "
                     f"conclusion={row.conclusion}: "
                     f"{'replayed exactly' if rep['ok'] else 'FAILED'} "
                     f"({rep['runs']} runs, {len(rep['steps'])} steps)")
        if not rep["ok"]:
            lines.append(f"  {rep['detail']}")
    return 0 if ok else 1, {"rows": reports, "ok": ok}, lines


# ---------------------------------------------------------------------------
# lattice-probe
# ---------------------------------------------------------------------------

def cmd_lattice_probe(args):
    if (args.X is None) != (args.t is None):
        raise _SchemaError("give both --X and --t, or neither for a built-in probe")
    if not 0 < args.tol < float("inf"):  # also rejects NaN
        raise _SchemaError("tolerance must be positive and finite")
    if args.X is not None:
        g = _entry(args.algebra).algebra_instance()
        try:
            report = run_probe(g, args.X, args.t, tolerance=args.tol,
                               name=args.algebra)
        except (ValueError, ZeroDivisionError) as err:
            raise _SchemaError(f"bad probe: {err}") from None
    elif args.algebra in BUILTIN_PROBES:
        report = builtin_probe(args.algebra)
    else:
        raise _SchemaError("no built-in probe for this algebra; supply --X and --t")
    lines = [f"algebra: {report['algebra']}", f"status: {report['status']}"]
    if report.get("note"):
        lines.append(f"note: {report['note']}")
    if report.get("rounded"):
        lines.append("integer matrix:")
        lines += ["  " + " ".join(f"{v:3d}" for v in row) for row in report["rounded"]]
    elif report.get("matrix"):
        lines.append("matrix:")
        lines += ["  " + " ".join(f"{v:9.5f}" for v in row) for row in report["matrix"]]
    return 0, report, lines


# ---------------------------------------------------------------------------
# report-table
# ---------------------------------------------------------------------------

def cmd_report_table(args):
    result = classification_sweep(cfg=_search_config(args, restarts=8, max_iters=40))
    conds = result["conditions"]
    short = {"kahler": "Kah", "skt": "SKT", "balanced": "Bal", "lck": "LCK",
             "lcskt": "LCSKT", "lcb": "LCB", "first_gauduchon": "1stG",
             "strongly_gauduchon": "StrG"}
    width = max(len(r["algebra"]) for r in result["rows"]) + 1
    lines = [" " * width + " ".join(f"{short.get(c, c):>5s}" for c in conds)]
    for row in result["rows"]:
        cells = " ".join(
            f"{_STATUS_SYMBOL.get(row['cells'][c]['status'], '?'):>5s}"
            for c in conds)
        lines.append(f"{row['algebra']:<{width}s}{cells}")
    lines.append("legend: V verified example (exact), O obstruction replayed (exact), "
                 "e search exhausted (evidence, not proof), X mismatch")
    lines.append("excluded algebras (no complex structure):")
    lines += [f"  {ctl['algebra']}: {_STATUS_SYMBOL[ctl['status']]} {ctl['detail']}"
              for ctl in result["controls"]]
    if result["mismatches"]:
        lines.append("DIFF against recorded claims:")
        lines += [f"  {m}" for m in result["mismatches"]]
    else:
        lines.append("diff against recorded claims: empty")
    return 0 if result["ok"] else 1, result, lines


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hermlie",
        description="Exact-arithmetic checks, searches, and reports for "
                    "special Hermitian structures on six-dimensional "
                    "strongly unimodular almost nilpotent Lie algebras.",
    )
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: HERMLIE_SEED or 0)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify-catalog", help="verify the golden catalog")
    q.add_argument("file", nargs="?", default=None,
                   help="optional JSON example file overriding the built-in catalog")
    q.add_argument("--dump", default=None,
                   help="write the built-in example rows to a JSON file and exit")

    q = sub.add_parser("check", help="check a structure supplied in a JSON file")
    q.add_argument("file")

    q = sub.add_parser(
        "search", help="randomized search on one algebra",
        description="Status: found (the witness was re-checked exactly), "
                    "float-only (a float hit that no rational reconstruction "
                    "passed; complex structures only) or exhausted (evidence, "
                    "not proof).")
    q.add_argument("algebra")
    q.add_argument("--condition", default=None,
                   help="metric condition; omit for the complex-structure search")
    q.add_argument("--restarts", type=int, default=None)
    q.add_argument("--tol", type=float, default=None)
    q.add_argument("--max-iters", type=int, default=None)

    q = sub.add_parser("obstruction", help="replay exact obstruction rows")
    q.add_argument("algebra")
    q.add_argument("condition")

    q = sub.add_parser("lattice-probe", help="integrality probe for exp(t ad_X)")
    q.add_argument("algebra")
    q.add_argument("--X", default=None)
    q.add_argument("--t", default=None)
    q.add_argument("--tol", type=float, default=1e-9)

    q = sub.add_parser("report-table", help="classification grid report")
    q.add_argument("--csv", action="store_true")
    q.add_argument("--restarts", type=int, default=None)
    q.add_argument("--max-iters", type=int, default=None)
    return p


_DISPATCH = {
    "verify-catalog": cmd_verify_catalog,
    "check": cmd_check,
    "search": cmd_search,
    "obstruction": cmd_obstruction,
    "lattice-probe": cmd_lattice_probe,
    "report-table": cmd_report_table,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = RunManifest(
            command=args.command,
            arguments={k: v for k, v in vars(args).items()
                       if k not in ("command", "json") and v is not None},
            seed=_seed(args),
        )
        code, payload, lines = _DISPATCH[args.command](args)
    except _SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(payload, manifest)
    elif getattr(args, "csv", False):
        _write_csv(payload)
    else:
        print(manifest.header(), *lines, manifest.footer(), sep="\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
