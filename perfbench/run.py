"""splitmw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {ingest,engines,certify} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports splitmw from `src/`
and fails without printing a result when that is missing.  Inputs are made
from --seed; scratch files and result records go to `.perfbench/` under the
checkout.

With `--trace 0` the run times the workload untraced and reports the
end-to-end metrics.  With `--trace 1` it alternates untraced and traced
passes and reports the per-layer metrics: self times and counts from spans
around the calls into each splitmw module, plus `bench.trace_overhead_frac`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the machine, the commit, the seed, the inputs, the raw latencies, the
reference-speed scale and which job `job_tail_s` is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Seconds one pass takes at the commit that defined the benchmark, the sum
# of its job latencies on an unloaded 2-vCPU host (Python 3.11.7).  A run
# makes round(seconds / NOMINAL_PASS_S) passes, so a faster or slower commit
# times the same jobs the same number of times.
NOMINAL_PASS_S = {"ingest": 5.3, "engines": 2.2, "certify": 1.35}
SETUP_REPEATS = 5
# The fastest time of `reference_s()` on the host that defined the benchmark
# (2-vCPU Xeon VM, Python 3.11.7).  Timings are reported at that host speed:
# measured seconds times REFERENCE_S / (the run's fastest reference time).
REFERENCE_S = 0.00072
REFERENCE_REPEATS = 2  # reference timings before each job


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NOMINAL_PASS_S)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Outcome:
    """Latencies, output sizes and failures of the jobs run so far, and the
    reference timings taken before each untraced job."""

    def __init__(self):
        self.by_job: dict[str, list[float]] = {}
        self.pass_times: list[float] = []   # the sum of a pass's job latencies
        self.pass_bytes: list[int] = []
        self.references: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self._digests: dict[str, str] = {}

    def run_pass(self, plan, tracer=None) -> None:
        if plan.before_pass is not None:
            plan.before_pass()
        nbytes, seconds = 0, 0.0
        for job in plan.jobs:
            nbytes += len(self.run_job(job, tracer))
            seconds += self.by_job[job.name][-1]
        self.pass_times.append(seconds)
        self.pass_bytes.append(nbytes)
        if tracer is not None and plan.after_pass is not None:
            plan.after_pass(tracer)

    def run_job(self, job, tracer=None) -> bytes:
        """Run and check one job; any failure is recorded, never raised.
        Only `job.run` is timed."""
        self.attempted += 1
        if tracer is None:
            self.references += [reference_s() for _ in range(REFERENCE_REPEATS)]
        else:
            tracer.job = job.name
        start = time.perf_counter()
        try:
            value = job.run(tracer)
        except Exception as exc:    # a job that raises is a failed job
            self._timed(job, start)
            self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            return b""
        self._timed(job, start)
        try:
            out, error = job.check(value)
        except Exception as exc:    # so is one whose output cannot be checked
            self.failures.append(f"{job.name}: unreadable output: {type(exc).__name__}: {exc}")
            return b""
        digest = hashlib.sha256(out).hexdigest()
        if self._digests.setdefault(job.name, digest) != digest:
            error = error or f"{job.name}: output differs from an earlier pass"
        if error:
            self.failures.append(error)
        return out

    def _timed(self, job, start: float) -> None:
        self.by_job.setdefault(job.name, []).append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REFERENCE_S / min(self.references)


def reference_s() -> float:
    """One timing of a fixed piece of pure-Python bitmask, dict and list work,
    the kind of code splitmw runs.  On a shared host the speed of the
    process's vCPU drifts by tens of percent over minutes; the fastest
    reference time of a run tracks the fastest job times of the same run, so
    their ratio leaves the drift out."""
    start = time.perf_counter()
    seen: dict[int, int] = {}
    order = []
    for i in range(3000):
        mask = (i * 40503) & 0xFFFF
        seen[mask] = seen.get(mask >> 3, 0) + mask.bit_count()
        order.append(mask)
    order.sort()
    return time.perf_counter() - start


def setup(builder, seed: int, workdir: Path, goldens) -> tuple:
    """Build the inputs and run the warm job once; returns (plan, seconds,
    failure or None)."""
    start = time.perf_counter()
    plan = builder(seed, workdir, goldens)
    warm = Outcome()
    warm.run_job(plan.warm)
    return plan, time.perf_counter() - start, (warm.failures or [None])[0]


def machine() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "processor": platform.machine()}


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "splitmw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def end_to_end(outcome: Outcome, setup_s: float, children_rss: bool) -> tuple[dict, dict]:
    """Timings come from each job's fastest pass, at the reference speed."""
    who = resource.RUSAGE_CHILDREN if children_rss else resource.RUSAGE_SELF
    scale = outcome.scale()
    best = {job: min(samples) * scale for job, samples in outcome.by_job.items()}
    slowest = max(best, key=best.get)
    metrics = {
        "jobs_per_s": (len(best) / sum(best.values()), "1/s"),
        "job_p50_s": (statistics.median(best.values()), "s"),
        "job_tail_s": (best[slowest], "s"),
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "output_bytes": (outcome.pass_bytes[0], "bytes"),
        "ok_frac": ((outcome.attempted - len(outcome.failures)) / outcome.attempted, "frac"),
    }
    return metrics, {"scale": scale, "fastest_reference_s": min(outcome.references),
                     "job_tail_job": slowest, "best_job_s": best}


def import_seconds() -> float:
    """The median time to import splitmw in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import splitmw; "
            "print(time.perf_counter() - start)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(SETUP_REPEATS))


def measure(builder, args, workdir: Path, goldens):
    """Untraced run: set up SETUP_REPEATS times, then time the passes.
    Returns (plan, outcome, metrics, metadata, set-up errors)."""
    errors, setups = [], []
    for _ in range(SETUP_REPEATS):
        plan, seconds, failure = setup(builder, args.seed, workdir, goldens)
        setups.append((seconds, plan.inputs))
        errors += [failure] if failure else []
    if any(inp != setups[0][1] for _, inp in setups):
        errors.append("set-up made different inputs from the same seed")
    outcome = Outcome()
    for _ in range(max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))):
        outcome.run_pass(plan)
    if len(set(outcome.pass_bytes)) != 1:
        errors.append(f"output bytes differ between passes: {outcome.pass_bytes}")
    setup_s = import_seconds() + statistics.median(s for s, _ in setups)
    metrics, meta = end_to_end(outcome, setup_s, plan.children_rss)
    return plan, outcome, metrics, meta, errors


def measure_traced(builder, args, workdir: Path, goldens, spans_path: Path):
    """Traced run: set up once with spans on (graphs.forests_s is only called
    there), then alternate untraced and traced passes.  Each per-layer metric
    is the median over traced passes; the last traced pass's spans are
    written to `spans_path`."""
    import tracing

    recorder = tracing.Recorder()
    recorder.install()
    try:
        recorder.job = "setup"
        plan, _, failure = setup(builder, args.seed, workdir, goldens)
    finally:
        recorder.uninstall()
    setup_own, _ = tracing.self_times(recorder.take()[0])
    outcome = Outcome()
    untraced, traced, layers = [], [], []
    pairs = max(1, round(args.seconds / (2 * NOMINAL_PASS_S[args.workload])))
    for i in range(pairs):
        # untraced-traced, then traced-untraced, so that whatever the first
        # pass of a pair pays falls on both sides alike
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                outcome.run_pass(plan)
                untraced.append(outcome.pass_times[-1])
                continue
            recorder.install()
            try:
                outcome.run_pass(plan, recorder)
            finally:
                recorder.uninstall()
            traced.append(outcome.pass_times[-1])
            spans, counters = recorder.take()
            layers.append(tracing.layer_metrics(spans, counters))
            layers[-1]["graphs.forests_s"] = setup_own["graphs.forests"]
    metrics = {name: (statistics.median(v[name] for v in layers), tracing.UNITS[name])
               for name in layers[0]}
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1, "frac")
    by_job, _ = tracing.self_times(spans, key=lambda span: (span[0], span[1]))
    self_s_by_job: dict[str, dict[str, float]] = {}
    for (job, name), seconds in sorted(by_job.items()):
        self_s_by_job.setdefault(job, {})[name] = seconds
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["job", "name", "start", "end", "parent"],
                   "spans": spans}, fh)
    meta = {"untraced_pass_s": untraced, "traced_pass_s": traced,
            "self_s_by_job": self_s_by_job}
    return plan, outcome, metrics, meta, [failure] if failure else []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splitmw" / "__init__.py").is_file():
        print(f"error: no splitmw source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    builder = workloads.BUILDERS[args.workload]
    goldens = workloads.Goldens.load()
    results = WORK / "results"
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            plan, outcome, metrics, extra, errors = measure_traced(
                builder, args, workdir, goldens, results / f"{name}-spans.json")
        else:
            plan, outcome, metrics, extra, errors = measure(
                builder, args, workdir, goldens)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(outcome.failures)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "machine": machine(), "commit": commit(),
            "source_sha256": source_digest(), "inputs": plan.inputs,
            "passes": len(outcome.pass_times), "jobs_per_pass": len(plan.jobs),
            "latencies_by_job": outcome.by_job, "pass_times": outcome.pass_times,
            **extra, "errors": (errors + outcome.failures)[:20]}
    result = {"correct": not errors and failed == 0,
              "attempted": outcome.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(results / f"{name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
