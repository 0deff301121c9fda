"""toricfan benchmark: the entry point that runs one workload (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: analyze-stream, factor-search,
classify, cli-cold (see bench/README.md for why each exists).

A run is a closed loop with one client. Each pass starts a fresh worker
process (``worker.py``) that sets up and then works through the workload's
fixed job list, one job after another; passes repeat until ``--seconds``
have elapsed, and at least one runs. For cli-cold the worker only sets up,
and this process then runs the invocations as ``python -m toricfan``
children, one at a time. At most two processes are alive at once: this one
and a worker or a CLI child.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics. The metric names and units come from BENCHMARK.json.
Every end-to-end time is CPU time normalized by a reference computation
sampled next to it (``speed.py``), because the host's speed drifts.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Any
failure of the harness itself (for instance a checkout without the package)
exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from math import ceil
from pathlib import Path

from speed import NEAREST, Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Per-job time budget in seconds: far above the slowest job (under 1.5 s;
# about 60 s for classify), and short enough for a run to end in time.
BUDGET = {"analyze-stream": 20, "factor-search": 20, "classify": 120, "cli-cold": 20}
TRACE_BUDGET_FACTOR = 3
# No job starts after this many seconds, so that a run ends within 180 s.
RUN_DEADLINE = 150
SETUP_SAMPLES = 9
STARTUP_SAMPLES = 5
# Reference samples taken before each CLI child (see speed.py).
CLI_SAMPLES = 2
HELD_OUT_SEED = 9973


class BenchError(Exception):
    """The harness could not run; no result is printed."""


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds through spawn(), which kills its child


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, timeout, stdin=os.devnull, stdout=os.devnull, stderr=os.devnull):
    """Run one child to completion; return (exit code, peak RSS KiB, start,
    wall seconds, CPU seconds), exit code None when it ran past ``timeout``
    and was killed. ``wait4`` gives the child's own peak RSS and CPU time."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    reaped = None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
            try:
                reaped = os.wait4(pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ChildTimeout:
            pass
    finally:
        if reaped is None:
            try:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    wall = time.monotonic() - start
    if reaped is None:
        return None, 0, start, wall, wall
    _, status, usage = reaped
    cpu = usage.ru_utime + usage.ru_stime
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, start, wall, cpu


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.monotonic()
        self.deadline = self.started + RUN_DEADLINE
        self.setups: list[float] = []
        self.passes: list[dict] = []
        self.spans: list[tuple] = []
        self.wall_view = None

    def remaining(self) -> float:
        return self.deadline + 20 - time.monotonic()

    def worker(self, *extra, trace=False) -> dict:
        """One fresh worker; returns its JSON result plus its set-up time."""
        out = self.workdir / "worker.json"
        err = self.workdir / "worker.err"
        budget = BUDGET[self.workload] * (TRACE_BUDGET_FACTOR if trace else 1)
        argv = [str(BENCH / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--out", str(out),
                "--workdir", str(self.workdir), "--budget", str(budget),
                "--deadline", repr(self.deadline), *extra]
        if trace:
            argv.append("--trace")
        if out.exists():
            out.unlink()
        code, _, _, _, _ = spawn(argv, self.remaining(), stderr=str(err))
        if code != 0:
            detail = err.read_text(errors="replace").strip().splitlines()[-1:]
            raise BenchError(f"worker exited with {code}: {' '.join(detail)}")
        return json.loads(out.read_text())

    def setup_only(self) -> float:
        if self.workload == "cli-cold":
            return self.worker()["setup_s"]
        return self.worker("--setup-only")["setup_s"]

    # -- passes ---------------------------------------------------------

    def run_pass(self, trace=False) -> dict:
        if self.workload == "cli-cold":
            return self.cli_pass(trace)
        result = self.worker(trace=trace)
        self.setups.append(result["setup_s"])
        return {
            "wall": result["wall"],
            "rss_kib": result["rss_kib"],
            "latencies": [j["seconds"] for j in result["jobs"]],
            "wall_latencies": [j["wall"] for j in result["jobs"]],
            "errors": [(j["label"], j["error"]) for j in result["jobs"] if j["error"]],
            "layers": result["layers"],
        }

    def cli_pass(self, trace=False) -> dict:
        setup = self.worker()
        self.setups.append(setup["setup_s"])
        jobs = setup["cli_jobs"]
        outdir = self.workdir / "out"
        outdir.mkdir(exist_ok=True)
        outputs, timings, rss = {}, [], []
        speedometer = Speedometer()
        speedometer.sample(NEAREST)
        first = time.monotonic()
        for k, job in enumerate(jobs):
            stdout = outdir / f"{k}.out"
            stdin = outputs[job["stdin_from"]][1] if job["stdin_from"] else os.devnull
            allowed = min(BUDGET["cli-cold"], self.deadline - time.monotonic())
            if allowed <= 0:
                outputs[job["label"]] = ("not started: the run deadline has passed", None)
                timings.append((0.0, 0.0, 0.0))
                continue
            speedometer.sample(CLI_SAMPLES)
            code, peak, start, wall, cpu = spawn(
                ["-m", "toricfan", *job["argv"]], allowed, stdin=str(stdin),
                stdout=str(stdout), stderr=str(outdir / f"{k}.err"))
            outputs[job["label"]] = (code, stdout)
            timings.append((start, wall, cpu))
            rss.append(peak)
            if trace:
                self.spans.append((f"cli.{job['sub']}", start, start + wall, -1, k))
        wall = time.monotonic() - first
        speedometer.sample(NEAREST)
        latencies = [cpu * speedometer.scale(start, start + w) if cpu else 0.0
                     for start, w, cpu in timings]
        errors = []
        for job in jobs:
            problem = check_cli_job(job, outputs)
            if problem:
                errors.append((job["label"], problem))
        shutil.rmtree(outdir)
        return {"wall": wall, "rss_kib": max(rss, default=0),
                "latencies": latencies, "wall_latencies": [w for _, w, _ in timings],
                "errors": errors, "layers": {}}

    # -- modes ----------------------------------------------------------

    def measure(self) -> dict:
        while not self.passes or time.monotonic() - self.started < self.seconds:
            self.passes.append(self.run_pass())
        while len(self.setups) < SETUP_SAMPLES:
            self.setups.append(self.setup_only())
        latencies = sorted(s for p in self.passes for s in p["latencies"])
        walls = sorted(s for p in self.passes for s in p["wall_latencies"])
        self.wall_view = (
            statistics.median((len(p["latencies"]) - len(p["errors"])) / p["wall"]
                              for p in self.passes),
            1000 * statistics.median(walls), 1000 * nearest_rank(walls, 0.9))
        return {
            "jobs_per_s": statistics.median(
                (len(p["latencies"]) - len(p["errors"])) / sum(p["latencies"])
                for p in self.passes
            ),
            "job_p50_ms": 1000 * statistics.median(latencies),
            "job_p90_ms": 1000 * nearest_rank(latencies, 0.9),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mib": statistics.median(p["rss_kib"] for p in self.passes) / 1024,
        }

    def measure_traced(self) -> dict:
        plain = self.run_pass()
        traced = self.run_pass(trace=True)
        self.passes += [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall"]
        layers["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
        if self.workload == "cli-cold":
            subs = {}
            for name, start, end, _, _ in self.spans:
                subs.setdefault(name, []).append(end - start)
            for name, walls in subs.items():
                layers[f"{name}.p50_ms"] = 1000 * statistics.median(walls)
            layers["cli.startup_s"] = statistics.median(
                self.startup() for _ in range(STARTUP_SAMPLES))
            (WORK / "spans-cli-cold.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "job"],
                 "spans": self.spans}))
        return layers

    def startup(self) -> float:
        code, _, _, wall, _ = spawn(["-c", "import toricfan"], self.remaining())
        if code != 0:
            raise BenchError("import toricfan failed")
        return wall


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(ceil(q * len(sorted_values)) - 1, 0)]


# -- cli-cold checks, on text only --------------------------------------


def parse_fan_text(text: str):
    """(ray name -> vector, set of cones as name sets) of a fan file."""
    rays, cones = {}, set()
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["ray"]:
            rays[tokens[1]] = tuple(int(t) for t in tokens[2:])
        elif tokens[:1] == ["maxcone"]:
            cones.add(frozenset(tokens[1:]))
    return rays, cones


def check_isomorphism(text: str, first: str, second: str) -> str | None:
    """The printed matrix maps the first fan's rays and cones onto the second's."""
    lines = text.splitlines()
    if "map:" not in lines:
        return "no map printed"
    rows = [tuple(int(t) for t in ln.split()) for ln in lines[lines.index("map:") + 1:]]
    a_rays, a_cones = parse_fan_text(Path(first).read_text())
    b_rays, b_cones = parse_fan_text(Path(second).read_text())
    image = {n: tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)
             for n, v in a_rays.items()}
    b_names = {v: n for n, v in b_rays.items()}
    if sorted(image.values()) != sorted(b_rays.values()):
        return "the map does not carry the rays onto the rays"
    mapped = {frozenset(b_names[image[n]] for n in cone) for cone in a_cones}
    return None if mapped == b_cones else "the map does not carry cones onto cones"


def check_cli_job(job: dict, outputs: dict) -> str | None:
    code, path = outputs[job["label"]]
    if path is None:
        return str(code)
    if code is None:
        return f"over its time budget of {BUDGET['cli-cold']} s"
    if code != job["exit"]:
        return f"exit code {code}, expected {job['exit']}"
    text = path.read_text(encoding="utf-8", errors="replace")
    for entry in job["contains"]:
        if not (text.startswith(entry) or "\n" + entry in text):
            return f"output lacks {entry!r}"
    if job["same_as"]:
        other = outputs[job["same_as"]][1]
        if other is None or path.read_bytes() != other.read_bytes():
            return f"output differs from {job['same_as']!r}"
    if job["rays"] is not None:
        count = sum(1 for ln in text.splitlines() if ln.startswith("ray "))
        if count != job["rays"]:
            return f"{count} rays, expected {job['rays']}"
    if job["iso"]:
        return check_isomorphism(text, *job["iso"])
    return None


# -- entry point ----------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUDGET))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "toricfan" / "__init__.py").is_file():
        print("bench: no toricfan package under src/ in this checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        run.setup_only()  # untimed: compiles bytecode, proves the package imports
        values = run.measure_traced() if args.trace else run.measure()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    errors = [e for p in run.passes for e in p["errors"]]
    attempted = sum(len(p["latencies"]) for p in run.passes)
    jobs = [len(p["latencies"]) for p in run.passes]
    print(f"workload {args.workload}  seed {args.seed}  held-out seed {HELD_OUT_SEED}"
          f"  trace {args.trace}  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    print(f"passes {len(run.passes)}  jobs per pass {jobs}  latency samples"
          f" {attempted}  setup samples {len(run.setups)}")
    if run.wall_view:
        print("wall clock, for comparison: %.6g jobs/s, p50 %.6g ms, p90 %.6g ms"
              % run.wall_view)
    for label, problem in errors:
        print(f"FAILED {label}: {problem}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
