"""One run of a workload in a fresh process: write the inputs, then run
passes over the jobs, one job at a time, reporting each job as a JSON line
on stdout.  A pass runs every job once: the first in the workload's order,
the later ones in an order shuffled from --seed, so that a slow spell of
the host meets different jobs in different passes.  After the first pass,
jobs run while the next one, at its first-pass time, still ends within
--seconds, so the last pass may be partial.  In the untraced later passes a
job shorter than REPEAT_S runs several times in a row, up to REPEAT_S and
MAX_REPEATS, each run a sample: on `routes` most jobs take a few ms, and
their median needs more samples than the long jobs leave time for.

The worker also times its workload's reference computation
(reference.py) before a job whenever the jobs since the last one took
REFERENCE_EVERY_S, and at the end until it has MIN_REFERENCES samples.
The peak RSS includes the references; their own footprint is small next
to the jobs' (perfbench/README.md, Host scaling).

    python3 perfbench/worker.py --workload routes --seed 0 --workdir DIR --seconds 55 [--trace]

Protocol (one JSON object a line):
  {"event": "ready", "jobs": [names]}           inputs written, first job ready
  {"event": "pass"}                             before each pass
  {"event": "job", "name", "seconds", "cells", "error"}   after each run of a job
  {"event": "layers", "per_layer"}              after each complete pass,
                                                with --trace
  {"event": "reference", "seconds"}             after each reference
  {"event": "done", "rss_mb"}                   after the last pass; the
                                                peak RSS after the first

Caches start cold for each job, as they do for each `perm` invocation,
and the oracle runs after the job's clock stops.  With --trace the spans
are written once, at the end, to DIR/spans.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import permcomplex  # noqa: E402
from permcomplex import cli  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_EVERY_S = 2.0
MIN_REFERENCES = 5
REPEAT_S = 0.05
MAX_REPEATS = 10


def _caches() -> list:
    """Every lru_cache'd function of the program, once each."""
    return list({id(value): value for name, mod in list(sys.modules.items())
                 if name.startswith("permcomplex.")
                 for value in vars(mod).values() if hasattr(value, "cache_clear")}.values())


def _run_job(job, out_path, caches, tracer) -> tuple:
    """Run one job from cold caches: (seconds, error or None).  The clock
    stops before a CLI job's report is read back and checked."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    start = perf_counter()
    try:
        if job.argv is None:
            code, answer = 0, job.call()
        else:
            code, answer = cli.main(["--out", out_path] + job.argv), None
    except (Exception, SystemExit):
        return perf_counter() - start, traceback.format_exc(limit=4)
    seconds = perf_counter() - start
    if tracer:
        _count_cache_hits(tracer, caches)
    if job.argv is not None:
        if tracer:
            tracer.counters["cli.report_bytes"] += os.path.getsize(out_path)
        with open(out_path) as fh:
            answer = json.load(fh)
        os.remove(out_path)
    return seconds, workloads.verdict(job, code, answer)


def _time_reference(workload) -> float:
    compute, expected, _ = reference.REFERENCES[workload]
    gc.collect()
    start = perf_counter()
    got = compute()
    seconds = perf_counter() - start
    if got != expected:
        raise RuntimeError(f"reference {compute.__name__} gave {got}, not {expected}")
    return seconds


def _count_cache_hits(tracer, caches):
    for cache in caches:
        layer = cache.__module__.rsplit(".", 1)[-1]
        tracer.counters[f"{layer}.cache_hits"] += cache.cache_info().hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="start another pass while one more fits in this time")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the first job is ready")
    args = parser.parse_args(argv)

    if not permcomplex.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"permcomplex imported from {permcomplex.__file__}, not {ROOT}/src")
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # nothing but the protocol goes to stdout

    def say(**message):
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    jobs = workloads.build(args.workload, args.seed, args.workdir)
    caches = _caches()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    say(event="ready", jobs=[job.name for job in jobs])
    if args.setup_only:
        return 0

    out_path = os.path.join(args.workdir, "report.json")
    rng = random.Random(args.seed)
    first = {}  # job name -> its time in the first pass
    references, since_reference = 0, 0.0  # job seconds since the last one
    started, n, stop = perf_counter(), 0, False
    while not stop:
        order = rng.sample(jobs, len(jobs)) if n else jobs
        first_span = len(tracer.spans) if tracer else 0
        say(event="pass")
        for job in order:
            repeats = 1
            if n and not tracer:
                repeats = max(1, min(MAX_REPEATS, int(REPEAT_S / first[job.name])))
            if n and perf_counter() - started + repeats * first[job.name] > args.seconds:
                stop = True
                break
            if since_reference >= REFERENCE_EVERY_S:
                say(event="reference", seconds=_time_reference(args.workload))
                references, since_reference = references + 1, 0.0
            if tracer:
                tracer.job = f"{n}/{job.name}"
            for _ in range(repeats):
                seconds, error = _run_job(job, out_path, caches, tracer)
                first.setdefault(job.name, seconds)
                since_reference += seconds
                say(event="job", name=job.name, seconds=seconds, cells=job.cells, error=error)
        else:
            if tracer:
                say(event="layers", per_layer=tracer.per_layer(first_span))
            if not n:  # the peak of one pass from a fresh process, as `perm` has
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            n += 1
        if tracer:
            tracer.counters.clear()

    for _ in range(references, MIN_REFERENCES):
        say(event="reference", seconds=_time_reference(args.workload))
    if tracer:
        with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    say(event="done", rss_mb=rss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
