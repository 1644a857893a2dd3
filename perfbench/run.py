"""The permcomplex benchmark.

    python3 perfbench/run.py --workload routes --seed 0 --seconds 55 --trace 0

Run from the root of a checkout.  A run starts one fresh worker process
(perfbench/worker.py) that makes passes over the workload's jobs, one job
at a time, for --seconds; the last pass may be partial, and a short job
may run several times in a pass.  A job's time is its median over its
runs, scaled to a nominal host speed by the run's reference computation
(reference.py); wall_s sums them and the percentiles are taken over jobs.
Setup is timed from spawning a worker to its first job ready,
SETUP_SAMPLES times a run: the worker, then setup-only probes.  A worker
that overruns its deadline is killed, and the unfinished jobs of its pass
fail with status "timeout".

The last line of stdout is the result:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics for --trace 0.  With --trace 1 it has the
per-layer metrics, medians over the passes of a traced worker that gets
half of --seconds; an untraced worker gets the other half, and the
difference of their pass times is the tracing overhead.  The line before
the result is a record of the run: environment stamp, pass times, setup
samples, reference times and host scale, failed_ratio and the first
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("routes", "faces-diagonal")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # the whole run, every worker included
PASS_DEADLINE_S = {"routes": 150, "faces-diagonal": 100}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cells_per_s": "cells/s",
             "job_p50_s": "s", "job_p90_s": "s", "peak_rss_mb": "MB"}


class Worker:
    """What one worker process reported."""

    def __init__(self):
        self.setup_s = None
        self.jobs = None  # job names, from "ready"
        self.passes = []  # per pass started, [{"name", "seconds", "cells", "error"}],
        # one per run of a job: a short job may run several times in a pass
        self.per_layer = []  # per traced pass
        self.references = []  # seconds of each reference computation
        self.rss_mb = None  # from "done": the worker finished
        self.timed_out = False

    def record(self, message):
        event = message["event"]
        if event == "ready":
            self.jobs = message["jobs"]
        elif event == "pass":
            self.passes.append([])
        elif event == "job":
            self.passes[-1].append(message)
        elif event == "reference":
            self.references.append(message["seconds"])
        elif event == "layers":
            self.per_layer.append(message["per_layer"])
        elif event == "done":
            self.rss_mb = message["rss_mb"]

    def complete(self) -> list:
        """The passes that ran every job."""
        return [p for p in self.passes if len({job["name"] for job in p}) == len(self.jobs)]

    def unfinished(self) -> list:
        """The jobs of the pass a killed or crashed worker was in that it
        never reported."""
        if self.rss_mb is not None or self.jobs is None:
            return []
        finished = {job["name"] for job in self.passes[-1]} if self.passes else set()
        return [name for name in self.jobs if name not in finished]

    def attempted(self) -> int:
        return sum(map(len, self.passes)) + len(self.unfinished())

    def failures(self) -> list:
        """(job, error) for every failed job, unfinished ones included."""
        status = "timeout" if self.timed_out else "crashed"
        return ([(job["name"], job["error"])
                 for p in self.passes for job in p if job["error"]]
                + [(name, status) for name in self.unfinished()])


def _lines(proc, deadline):
    """Lines of the worker's stdout, until EOF or TimeoutError at deadline."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffer = b""
    fd = proc.stdout.fileno()
    try:
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not selector.select(remaining):
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            yield from lines
    finally:
        selector.close()


def run_worker(args, workdir, seconds=0.0, trace=False, setup_only=False,
               deadline_s=60.0) -> Worker:
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--seconds", str(seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    # A fixed hash seed, so that dict and set layouts repeat from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    result = Worker()
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env)
    try:
        for line in _lines(proc, start + deadline_s):
            message = json.loads(line)
            if message["event"] == "ready":
                result.setup_s = perf_counter() - start
            result.record(message)
    except TimeoutError:
        result.timed_out = True
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):  # kept: the last traced run of the workload
            os.replace(spans, os.path.join(
                os.path.dirname(workdir), f"spans-{args.workload}.json"))
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def env_stamp(root) -> dict:
    sha = None
    if os.path.exists(os.path.join(root, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {"git_sha": sha, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0]}


def job_samples(passes) -> dict:
    """name -> ([seconds of each run], cells)."""
    runs = {}
    for p in passes:
        for job in p:
            runs.setdefault(job["name"], ([], job["cells"]))[0].append(job["seconds"])
    return runs


def job_times(passes) -> dict:
    """name -> (median seconds over its runs, cells)."""
    return {name: (statistics.median(times), cells)
            for name, (times, cells) in job_samples(passes).items()}


def host_scale(workload, worker) -> float:
    """The reference's nominal time over its median time in this run: the
    factor that brings the run's job times to the nominal host speed."""
    return reference.REFERENCES[workload][2] / statistics.median(worker.references)


def end_to_end(worker, setups, scale) -> dict:
    """Job times are medians over their runs, so that a slow spell of the
    host moves only the runs it overlapped, times `scale`; the percentiles
    are over jobs."""
    jobs = job_times(worker.passes)
    seconds = [t * scale for t, _ in jobs.values()]
    wall = sum(seconds)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cells_per_s": sum(cells for _, cells in jobs.values()) / wall,
        "job_p50_s": statistics.median(seconds),
        "job_p90_s": _p90(seconds),
        "peak_rss_mb": worker.rss_mb,
    }


def _pass_seconds(jobs) -> float:
    """Time to run every job of a pass once: a repeated job counts its mean."""
    return sum(statistics.mean(times) for times, _ in job_samples([jobs]).values())


def _pass_wall(worker) -> float:
    return statistics.median(map(_pass_seconds, worker.complete()))


def per_layer(untraced, traced) -> dict:
    metrics = {}
    for key, value in traced.per_layer[0].items():
        median = statistics.median if isinstance(value, float) else statistics.median_low
        metrics[key] = median(layers[key] for layers in traced.per_layer)
    metrics["bench.traced_wall_s"] = _pass_wall(traced)
    metrics["bench.trace_overhead_s"] = _pass_wall(traced) - _pass_wall(untraced)
    return metrics


def _unit(name) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "permcomplex", "__init__.py")):
        print("perfbench: run from the root of a permcomplex checkout "
              "(src/permcomplex not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.dirname(work), exist_ok=True)
    stamp = env_stamp(root)
    started = perf_counter()

    def deadline(seconds):
        return min(seconds + PASS_DEADLINE_S[args.workload],
                   started + RUN_LIMIT_S - perf_counter())

    share = args.seconds / 2 if args.trace else args.seconds
    workers = [run_worker(args, f"{work}-run", share, deadline_s=deadline(share))]
    if args.trace and workers[0].rss_mb is not None:
        workers.append(run_worker(args, f"{work}-traced", share, trace=True,
                                  deadline_s=deadline(share)))
    setups = [workers[0].setup_s] if workers[0].setup_s is not None else []
    while not args.trace and len(setups) < SETUP_SAMPLES and deadline(0) > 10:
        probe = run_worker(args, f"{work}-setup{len(setups)}", setup_only=True,
                           deadline_s=min(30.0, deadline(0)))
        if probe.setup_s is None:
            break
        setups.append(probe.setup_s)

    untraced = workers[0]
    if untraced.jobs is None:
        print("perfbench: the worker never got ready", file=sys.stderr)
        return 1
    attempted = sum(w.attempted() for w in workers)
    failures = [f for w in workers for f in w.failures()]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp,
        "passes": [len(w.complete()) for w in workers],
        "pass_wall_s": [_pass_seconds(p) for p in untraced.complete()],
        "setup_samples_s": setups,
        "jobs_per_pass": len(untraced.jobs),
        "samples_per_job": sorted({len(t) for t, _ in job_samples(untraced.passes).values()}),
        "cells_per_pass": sum(job["cells"] for job in untraced.passes[0]) if untraced.passes else 0,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:10],
    }
    if any(w.rss_mb is None for w in workers) or len(workers) < 1 + args.trace:
        print(json.dumps(record))
        print("perfbench: a worker did not finish", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(untraced, workers[1])
        units = {name: _unit(name) for name in metrics}
    else:
        scale = host_scale(args.workload, untraced)
        metrics = end_to_end(untraced, setups, scale)
        units = E2E_UNITS
        record["reference_s"] = untraced.references
        record["host_scale"] = scale
        record["unscaled_wall_s"] = metrics["wall_s"] / scale
        record["jobs_beyond_p90"] = sum(
            1 for t, _ in job_times(untraced.passes).values()
            if t * scale > metrics["job_p90_s"])
    print(json.dumps(record))
    print(json.dumps({
        "correct": not [f for f in failures if f[1] not in ("timeout", "crashed")],
        "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
