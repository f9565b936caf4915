"""hermlie benchmark: one seeded workload, timed, gated, reported.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one pass
untraced and the same pass again with every layer wrapped (``layers.py``),
and reports the per-layer metrics.  ``--smoke`` runs each workload at minimal
size.  The human-readable report comes first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "session", "grid", "jsearch")

SETUP_PROBES = 3          # fresh interpreters timed per run for setup_s
PROBE_TIMEOUT_S = 60
RUN_LIMIT_S = 170         # a run still going then stops without a result
ITEM_PERCENTILE_MIN = 100  # item_p50_ms/item_p90_ms need this many items

#: The speed reference is a fixed pure-Python loop, timed every
#: SAMPLE_EVERY_S of CPU time while a pass runs.  REFERENCE_S is its duration
#: on the 2-core Xeon VM the bounds were set on, when that host was quiet.
SAMPLE_EVERY_S = 0.2
REFERENCE_S = 0.0017


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal inputs, one pass, one set-up probe")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _probe_cmd(args, *python_flags) -> list:
    cmd = [sys.executable, *python_flags, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    return cmd + (["--smoke"] if args.smoke else [])


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready
    for its first timed item."""
    t0 = time.perf_counter()
    with subprocess.Popen(_probe_cmd(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def import_times(args) -> dict:
    """``python -X importtime`` on a set-up probe.  ``import.hermlie_s`` is the
    cumulative time of ``import hermlie``; the others are the summed self
    times of each dependency's own modules."""
    proc = subprocess.run(_probe_cmd(args, "-X", "importtime"), capture_output=True,
                          text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"importtime probe failed: {proc.stderr[-2000:]}")
    self_us = {"numpy": 0, "scipy": 0, "sympy": 0}
    hermlie_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, module = (part.strip() for part in line[12:].split("|"))
        if not own.isdigit():
            continue
        top = module.split(".")[0]
        if top in self_us:
            self_us[top] += int(own)
        elif module == "hermlie":
            hermlie_us = int(cumulative)
    out = {"import.hermlie_s": (hermlie_us / 1e6, "s")}
    out.update({f"import.{k}_s": (v / 1e6, "s") for k, v in self_us.items()})
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    from hermlie import search

    kernel = search.j_residual_kernel()
    digest = hashlib.sha256()
    for path in sorted((SRC / "hermlie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "j_kernel": "numba" if "numba" in type(kernel).__module__ else "numpy",
    }


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _reference():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


class SpeedSampler:
    """Measures the host's speed on the run's own core while a pass runs.

    Other tenants of a shared host can slow it by up to 2x for tens of
    seconds at a time, and CPU time slows with wall time, so raw pass times
    of the same work spread by 20-30 % from run to run.  A SIGVTALRM handler
    times the reference loop every SAMPLE_EVERY_S of CPU time; the samples
    interleave with the pass on the same core and cost about 1 % of it.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        _reference()
        self.samples.append(time.perf_counter() - t0)

    def run(self, run_pass):
        """``run_pass()`` with sampling on.  Returns the pass result, its wall
        time without the samples, and that time scaled to the reference
        speed: ``raw * REFERENCE_S / mean(sample)``."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            res = run_pass()
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
        raw = res.wall_s - sum(self.samples[1:])
        self._sample()
        return res, raw, raw * REFERENCE_S / statistics.mean(self.samples)


def _on_alarm(signum, frame):
    raise TimeoutError(f"run still going after {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hermlie" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'hermlie'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        import workloads

        workloads.setup(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    setup_samples = [setup_probe(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    imports = import_times(args) if args.trace else {}

    import hermlie
    import workloads
    from layers import Tracer

    if Path(hermlie.__file__).resolve().parent != SRC / "hermlie":
        print(f"perfbench: imported hermlie from {hermlie.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = workloads.setup(args.workload, args.seed, args.smoke)

    sampler = SpeedSampler()
    timed = []  # (PassResult, raw s, s at reference speed) per untraced pass
    start = time.perf_counter()
    while True:
        timed.append(sampler.run(lambda: work.run_pass(len(timed))))
        elapsed = time.perf_counter() - start
        if args.smoke or args.trace or elapsed + timed[-1][1] > args.seconds:
            break
    passes = [res for res, _, _ in timed]
    layer = {}
    if args.trace:
        tracer = Tracer().install()
        try:
            traced, _, traced_ref_s = sampler.run(lambda: work.run_pass(0))
        finally:
            tracer.remove()
        layer = tracer.metrics()
        layer.update(imports)
        layer["trace_overhead"] = (traced_ref_s / timed[0][2], "ratio")
        passes.append(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    signal.alarm(0)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    items = [ms for res, _, _ in timed for ms in res.item_ms]
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_ref_s": (statistics.median(ref for _, _, ref in timed), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layer["fail_ratio"] = (failed / attempted, "ratio")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": environment(args),
        "passes": len(timed),
        "pass_wall_s": [raw for _, raw, _ in timed],
        "pass_wall_ref_s": [ref for _, _, ref in timed],
        "wall_s": statistics.median(raw for _, raw, _ in timed),
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "wrong_verdicts": wrong[:20],
        "items": len(items),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    if len(items) >= ITEM_PERCENTILE_MIN:
        report["end_to_end"]["item_p50_ms"] = {"value": _percentile(items, 50), "unit": "ms"}
        report["end_to_end"]["item_p90_ms"] = {"value": _percentile(items, 90), "unit": "ms"}
    if args.trace:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    print("perfbench report:")
    print(json.dumps(report, indent=1, sort_keys=True))

    chosen = layer if args.trace else end_to_end
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
