#!/usr/bin/env python3
"""Run the benchmark on two checkouts, alternating, and write a BENCH file.

    python3 scripts/bench.py --base ../parent --head . --seeds 1-10 \\
        --workloads grid certify session jsearch --out BENCH_6.json

For each workload and seed it runs ``perfbench/run.py --trace 0`` once in
each checkout: the base first on odd seeds, the head first on even ones.  It
keeps each run's result line (the last line of the output) and the
environment from the report before it.  The output file records, per
workload, every run, each side's median and interquartile range of every
end-to-end metric, and, per metric, in how many seed pairs the head's value
was lower (every end-to-end metric of the benchmark is better lower).  It is
rewritten after every run, so an interrupted session keeps the runs it
finished.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300
SIDES = ("base", "head")


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its result line, plus the report's environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or "perfbench report:" not in lines:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    report = json.loads("\n".join(lines[lines.index("perfbench report:") + 1:-1]))
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "env": report["env"]}


def summary(runs: list) -> dict:
    """Median and interquartile range of each end-to-end metric."""
    ok = [r for r in runs if "metrics" in r]
    out = {}
    for name in sorted(ok[0]["metrics"]) if ok else ():
        values = [r["metrics"][name] for r in ok]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "iqr": q3 - q1}
    return out


def head_wins(runs: dict) -> dict:
    """Per metric, the number of seed pairs in which the head's value was lower."""
    base = {r["seed"]: r["metrics"] for r in runs["base"] if "metrics" in r}
    wins = {}
    for r in runs["head"]:
        if "metrics" in r and r["seed"] in base:
            for name, value in r["metrics"].items():
                wins[name] = wins.get(name, 0) + (value < base[r["seed"]][name])
    return wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--head", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    bench = {"seeds": args.seeds, "seconds": args.seconds, "sides": {}, "workloads": {}}
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for seed in args.seeds:
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                run = run_once(checkouts[side], workload, seed, args.seconds)
                env = run.pop("env", None)
                if env:
                    bench["sides"][side] = {"commit": env["git_commit"],
                                            "src_sha256": env["src_sha256"]}
                    bench["environment"] = {k: env[k] for k in ("python", "numpy", "scipy", "nproc")}
                runs[side].append(run)
                print(workload, seed, side, run.get("metrics", run.get("error")),
                      file=sys.stderr, flush=True)
                bench["workloads"][workload] = {
                    "median_iqr": {s: summary(runs[s]) for s in SIDES},
                    "head_wins": head_wins(runs),
                    "runs": runs,
                }
                args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
