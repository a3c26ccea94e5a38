"""Benchmark of the histrio explorer: time to verdict on four workloads.

    python3 perfbench/run.py --workload explore-pass --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: histrio is imported from ``src/`` there
and nowhere else.  The workloads are defined in ``workloads.py``.

A run builds the workload's inputs from ``--seed``, runs an untimed
warm-up over its first jobs (about ``WARMUP_S`` seconds), then repeats
the whole job list until ``--seconds`` have passed, at least once.  Every
job's outcome is checked; a job fails when a verdict or a pinned count
differs from the seed commit.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every time in it is scaled to a reference host speed, as
``speed.py`` explains; the unscaled repetition times go to stderr.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: interpreter start to the first timed call (import plus
  input construction), the median of ``SETUP_PROBES`` fresh interpreters;
* ``wall_s``: the median time of one repetition, i.e. to all verdicts;
* ``run_ms_p50``, ``run_ms_p95``: latency of one job, as percentiles
  within each repetition, so they do not depend on how many repetitions
  ran.  On ``seeded-runs`` a job is one seed of one scenario (200 a
  repetition, so 10 lie beyond the 95th percentile); on ``explore-pass``
  one scenario's exploration; on ``explore-bug`` the exploration plus the
  counterexample's replay; on ``obligations`` one suite call on one
  subject;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` an untraced and a traced repetition alternate.  The
metrics are the per-layer ones: calls and self time of each wrapped
callable (see ``tracer.py``) with the explorer's memo and path counts
and the sampling ratios, from the traced repetitions; each
``explore-pass`` scenario's time, from the untraced ones; the tracing
overhead (traced over untraced repetition time); and the share of
failed jobs.  Its times are medians over repetitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP_S = 3.0
SETUP_PROBES = 7


def _import_program():
    """Import histrio, and the modules that use it, from ``src/``."""
    if not (SRC / "histrio" / "__init__.py").is_file():
        sys.exit(f"no histrio sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import histrio

    if Path(histrio.__file__).resolve().parent != SRC / "histrio":
        sys.exit(f"histrio imported from {histrio.__file__}, not from {SRC}")
    import tracer
    import workloads

    return workloads, tracer


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, print the sampled speed scale, exit
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _setup_probe(args) -> int:
    with SpeedSampler() as speed:
        workloads, _ = _import_program()
        workloads.WORKLOADS[args.workload](args.seed)
    print(speed.scale(), flush=True)
    return 0


def _setup_seconds(args) -> float:
    """Median over fresh interpreters of the time until set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0:
                sys.exit("set-up probe failed")
        samples.append(elapsed * float(line))
    return statistics.median(samples)


class Rep:
    """One repetition of a workload's jobs, with their time intervals."""

    def __init__(self, jobs):
        self.jobs: dict = {}  # name -> (start, end)
        self.errors: list = []
        self.failed = 0
        self.counts: Counter = Counter()
        # the explorer's memo lives in a reference cycle; collect what the
        # last repetition left, so every one starts from the same heap and
        # peak memory does not depend on how many repetitions ran
        gc.collect()
        self.start = time.perf_counter()
        for job in jobs:
            t = time.perf_counter()
            out = job.run()
            self.jobs[job.name] = (t, time.perf_counter())
            self.failed += bool(out.errors)
            self.errors += out.errors
            self.counts.update(out.counts)
        self.end = time.perf_counter()

    def wall_s(self, speed) -> float:
        return (self.end - self.start) * speed.scale(self.start, self.end)

    def job_s(self, name: str, speed) -> float:
        start, end = self.jobs.get(name, (0.0, 0.0))
        return (end - start) * speed.scale(start, end)

    def job_ms_percentiles(self, speed) -> list:
        ms = [self.job_s(name, speed) * 1000 for name in self.jobs]
        return statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99


def _warm_up(jobs):
    t0 = time.perf_counter()
    for job in jobs:
        if time.perf_counter() - t0 >= WARMUP_S:
            break
        job.run()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(reps, speed, setup_s):
    pct = [r.job_ms_percentiles(speed) for r in reps]
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(r.wall_s(speed) for r in reps), "s"),
        "run_ms_p50": _metric(statistics.median(p[49] for p in pct), "ms"),
        "run_ms_p95": _metric(statistics.median(p[94] for p in pct), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _layer(tracer, spans, rep: Rep, scale: float) -> dict:
    m = {}
    for name in spans:
        m[f"{name}.calls"] = _metric(tracer.calls[name], "count")
        m[f"{name}.self_s"] = _metric(tracer.self_s[name] * scale, "s")
    c = rep.counts
    for name in ("scheduler.memo.nodes", "scheduler.memo.edges",
                 "scheduler.paths.complete", "scheduler.paths.violating",
                 "scheduler.violations.recorded"):
        m[name] = _metric(c[name], "count")
    m["scheduler.memo.distinct_configs"] = _metric(tracer.distinct_configs(), "count")
    lookups = c["scheduler.memo.lookups"]
    m["scheduler.memo.hit_ratio"] = _metric(
        (lookups - c["scheduler.memo.nodes"]) / lookups if lookups else 0.0, "ratio")
    runs = c["scheduler.seeded.runs"]
    m["scheduler.seeded.decided_ratio"] = _metric(
        c["scheduler.seeded.decided"] / runs if runs else 0.0, "ratio")
    for layer in ("actions", "concurroid"):
        drawn = c[f"{layer}.samples"] + c[f"{layer}.vacuous"]
        m[f"{layer}.useful_ratio"] = _metric(
            c[f"{layer}.samples"] / drawn if drawn else 0.0, "ratio")
    return m


def _median_times(runs: list) -> dict:
    """Medians of the times; counts repeat exactly, so the last is kept."""
    return {k: _metric(statistics.median(r[k]["value"] for r in runs), v["unit"])
            if v["unit"] == "s" else v for k, v in runs[-1].items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    workloads, tracing = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    setup_s = _setup_seconds(args) if not args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed)
    _warm_up(wl.jobs)

    reps, traced, layers = [], [], []
    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < args.seconds:
            reps.append(Rep(wl.jobs))
            if args.trace:
                with tracing.Tracer(wl) as tracer:
                    rep = Rep(wl.jobs)
                traced.append(rep)
                layers.append(_layer(tracer, tracing.SPANS, rep,
                                     speed.scale(rep.start, rep.end)))

    done = reps + traced
    attempted = sum(len(r.jobs) for r in done)
    failed = sum(r.failed for r in done)
    errors = [e for r in done for e in r.errors]
    if args.trace:
        metrics = _median_times(layers)
        for name, *_ in workloads.EXPLORE_PASS:
            metrics[f"scenarios.{name}.wall_s"] = _metric(
                statistics.median(r.job_s(name, speed) for r in reps), "s")
        metrics["trace.overhead"] = _metric(
            statistics.median(r.wall_s(speed) for r in traced)
            / statistics.median(r.wall_s(speed) for r in reps), "ratio")
        metrics["failed_ratio"] = _metric(failed / attempted, "ratio")
        errors += wl.trace_errors(metrics)
    else:
        metrics = _end_to_end(reps, speed, setup_s)
    print("unscaled repetition times (s):",
          " ".join(f"{r.end - r.start:.3f}" for r in reps), file=sys.stderr)
    for e in errors[:20]:
        print(f"MISMATCH {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
