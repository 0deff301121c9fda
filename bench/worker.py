"""Benchmark worker: one fresh process per pass of a workload.

It sets up (interpreter start, ``import toricfan``, seeded inputs, fan
files), runs the workload's job list as a closed loop with one client and a
per-job time budget, then checks every output outside the timed region and
writes one JSON result. With ``--setup-only`` it stops once set-up is done.
For ``cli-cold`` set-up is all it does: it writes the fan files and the
invocation list, which ``run.py`` executes.

    python bench/worker.py --workload W --seed N --out FILE
        [--workdir DIR] [--trace] [--setup-only] [--budget S] [--deadline T]

``--deadline`` is a ``time.monotonic()`` reading after which no job starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

from speed import NEAREST, Speedometer

ROOT = Path(__file__).resolve().parent.parent


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job exceeds its budget.

    A BaseException, so that no ``except Exception`` in the code under test
    can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import toricfan

    where = Path(toricfan.__file__).resolve().parent
    if where != ROOT / "src" / "toricfan":
        raise SystemExit(f"toricfan imported from {where}, not from the checkout")


def run_jobs(jobs, budget: float, deadline: float, tracer=None) -> tuple[list, float]:
    """Run the jobs in order; each result is [job, output, error, wall
    seconds, normalized seconds] (see speed.py). Also returns the wall time
    of the whole job list."""
    signal.signal(signal.SIGALRM, _on_alarm)
    speedometer = Speedometer()
    speedometer.sample(NEAREST)
    results, spans = [], []
    start = time.perf_counter()
    speedometer.start()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(k)
        allowed = min(budget, deadline - time.monotonic())
        out, err = None, None
        t0, c0, o0 = time.monotonic(), time.thread_time(), speedometer.overhead
        if allowed <= 0:
            err = "not started: the run deadline has passed"
        else:
            try:
                signal.setitimer(signal.ITIMER_REAL, allowed)
                try:
                    out = job.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except JobTimeout:
                err = f"over its time budget of {allowed:.1f} s"
            except Exception as exc:  # a failing job is recorded, the run goes on
                err = f"raised {exc!r}"
        cpu = time.thread_time() - c0 - (speedometer.overhead - o0)
        spans.append((t0, time.monotonic()))
        results.append([job, out, err, spans[-1][1] - t0, cpu])
    speedometer.stop()
    wall = time.perf_counter() - start
    speedometer.sample(NEAREST)
    for r, (t0, t1) in zip(results, spans):
        r[4] *= speedometer.scale(t0, t1)
    return results, wall


def setup_seconds() -> float:
    """This process's CPU time so far, normalized by reference samples."""
    cpu = time.thread_time()
    speedometer = Speedometer()
    speedometer.sample(NEAREST)
    return cpu * speedometer.scale(0.0, 0.0)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--budget", type=float, default=60.0)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    args = parser.parse_args()

    _import_package()
    import workloads

    out_path = Path(args.out)
    if args.workload == "cli-cold":
        cli_jobs = workloads.cli_cold(args.seed, Path(args.workdir))
        out_path.write_text(json.dumps({"setup_s": setup_seconds(),
                                        "cli_jobs": cli_jobs}))
        return

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        caches = {n: tracer.cache_info(n) for n in ("mori.primitive_collections",
                                                    "mori.mori_cone")}
    setup_s = setup_seconds()
    if args.setup_only:
        out_path.write_text(json.dumps({"setup_s": setup_s}))
        return

    results, wall = run_jobs(jobs, args.budget, args.deadline, tracer)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(caches)
        tracer.write(ROOT / ".bench_work" / f"spans-{args.workload}")
    for r in results:
        job, output, err = r[:3]
        if err is None:
            try:
                job.check(output)
            except Exception as exc:  # any check error marks the job failed
                r[2] = f"check failed: {exc!r}"
    out_path.write_text(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall": wall,
                "rss_kib": rss_kib,
                "jobs": [
                    {"label": job.label, "wall": secs, "seconds": norm, "error": err}
                    for job, _, err, secs, norm in results
                ],
                "layers": layers,
            }
        )
    )


if __name__ == "__main__":
    main()
