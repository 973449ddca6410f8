"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload policy_sweep --seed 1 --seconds 25 --trace 0

Each operation is one in-process call of `ncbroadcast.cli.main(argv)`,
imported from `src/` of the checkout this file sits in, in one process
and one thread.  The workload's operations run in whole rounds while the
next round is expected to end within `--seconds`; every round's outputs
are checked and the run exits 1 if any check fails.  Reported times are
scaled to a reference pace measured around every operation (README.md).  With `--trace 0` the last line of stdout is
the end-to-end metrics, with `--trace 1` the per-layer metrics of a
separate traced phase (see tracing.py).  Each run also writes a result
file under bench/results/.  `--smoke` runs one round at tiny sizes.
"""

import os
import time

START = time.monotonic()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60
# The reference kernel's time on this host at full speed.  Every reported
# time is scaled by this over the kernel's time measured around it, which
# takes out the host's own swings in speed (see README.md).
REFERENCE_PACE_S = 0.002


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the `end_to_end` or `per_layer` list in BENCHMARK.json."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in definition[kind]}


def load_program():
    """Import ncbroadcast.cli from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "ncbroadcast"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no ncbroadcast package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import ncbroadcast.cli

    if Path(ncbroadcast.cli.__file__).resolve().parent != package.resolve():
        raise ImportError(f"ncbroadcast was imported from {ncbroadcast.cli.__file__}, not {package}")
    return ncbroadcast.cli


def call(cli, argv) -> tuple[int | None, str, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failed operation, counted and reported
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def reference_kernel() -> int:
    """Fixed CPU work of the kind the program does: an interpreter loop and small numpy calls."""
    total = 0
    for i in range(36000):
        total += i & 7
    row = np.arange(1024, dtype=np.uint8)
    for _ in range(360):
        row = row ^ row[::-1]
    return total + int(row[0])


def host_pace() -> float:
    """Seconds the reference kernel takes right now (fastest of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def run_round(cli, plan) -> tuple[list[float], list[float], list[workloads.OpResult]]:
    """One pass over the plan's operations.

    Returns each operation's seconds, the host pace around it (the mean
    of the reference kernel's time just before and just after) and its
    result.
    """
    times, paces, results = [], [], []
    before = host_pace()
    for op in plan.ops:
        start = time.perf_counter()
        code, stdout, stderr = call(cli, op.argv)
        times.append(time.perf_counter() - start)
        after = host_pace()
        paces.append((before + after) / 2)
        before = after
        results.append(workloads.OpResult(op, code, stdout, stderr))
    return times, paces, results


def probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of its setup, and the host pace around it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0"] + (["--smoke"] if args.smoke else [])
    before = host_pace()
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("setup probe timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {stderr.strip()}")
    elapsed = float(stdout.split()[-1]) - start
    return elapsed, (before + host_pace()) / 2


def prepare(cli, args, workdir: Path):
    """Everything before the first timed operation: inputs and warm-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.build(args.workload, args.seed, args.smoke, workdir)
    for argv in plan.warmup:
        code, _, stderr = call(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} exited {code}: {stderr.strip()}")
    return plan


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
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
    return "unknown"


def paced(times: list[float], paces: list[float]) -> list[float]:
    """Seconds at the reference pace: each time scaled by REFERENCE_PACE_S over the pace it ran at."""
    return [t * REFERENCE_PACE_S / pace for t, pace in zip(times, paces)]


def round_time(rounds: list[list[float]]) -> float:
    """Time of one round: the sum over its operations of each one's median over the rounds."""
    return sum(statistics.median(times) for times in zip(*rounds))


def outputs(results: list[workloads.OpResult]) -> list:
    """What a round produced: exit codes, stdout and the contents of each --out file."""
    return [(r.code, r.stdout, r.op.out.read_bytes() if r.op.out else b"") for r in results]


class Tally:
    """Outcome of the rounds run so far: attempts, failures, check problems, work per round."""

    def __init__(self, cli, plan):
        self.cli, self.plan = cli, plan
        self.attempted = self.failed = 0
        self.problems: set[str] = set()
        self.work = None
        self.refs = None
        self.checked = None  # outputs of the last round that went through plan.check
        self.raw: list[list[float]] = []    # measured seconds of every operation, per round
        self.paces: list[list[float]] = []  # host pace around every operation, per round

    def rounds_until(self, deadline: float, smoke: bool) -> list[list[float]]:
        """Whole rounds, at least one, while the next is expected to end by `deadline`.

        Returns the paced operation times of each round; with `smoke`, one round.
        """
        rounds, durations = [], []
        while True:
            start = time.monotonic()
            times, paces, results = run_round(self.cli, self.plan)
            rounds.append(paced(times, paces))
            self.raw.append(times)
            self.paces.append(paces)
            self.attempted += len(results)
            self.failed += sum(not r.ok for r in results)
            if self.refs is None:
                self.refs = [workloads.OpResult(op, *call(self.cli, op.argv)) for op in self.plan.references]
                self.problems.update(f"reference {' '.join(r.op.argv)} exited {r.code}: {r.error}"
                                     for r in self.refs if not r.ok)
            # Rounds repeat the same calls, so a round whose outputs equal
            # the last checked round's passes the same checks.
            if all(r.ok for r in results + self.refs) and outputs(results) != self.checked:
                if self.checked is not None:
                    self.problems.add("a round's outputs differ from an earlier round's with the same inputs")
                self.problems.update(self.plan.check(results, self.refs))
                self.checked = outputs(results)
                if self.work is None:
                    self.work = self.plan.work(results)
            durations.append(time.monotonic() - start)
            if smoke or time.monotonic() + statistics.median(durations) > deadline:
                return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ncbroadcast benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        cli = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    workdir = RESULTS / f"work-{os.getpid()}"
    try:
        if args.probe_setup:
            prepare(cli, args, workdir)
            print(time.monotonic())
            return 0
        probes = [probe_setup(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
        plan = prepare(cli, args, workdir)
        main_setup = time.monotonic() - START
        tally = Tally(cli, plan)
        begin = time.monotonic()
        tracer, traced_rounds = None, []
        if args.trace:
            # A third of the time untraced, as the base of the tracing overhead.
            rounds = tally.rounds_until(begin + args.seconds / 3, args.smoke)
            with tracing.Tracer() as tracer:
                traced_rounds = tally.rounds_until(begin + args.seconds, args.smoke)
        else:
            rounds = tally.rounds_until(begin + args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = round_time(rounds)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced_rounds), plan.states, plan.tables)
        overhead = round_time(traced_rounds) - wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / wall
        units = metric_units("per_layer")
    else:
        metrics = {
            "setup_s": statistics.median(paced(*zip(*probes))),
            "wall_s": wall,
            "op_p50_ms": 1e3 * statistics.median(t for times in rounds for t in times),
            "work_per_s": (tally.work or 0.0) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metric_units("end_to_end")
    problems = sorted(tally.problems)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(), "result": result, "problems": problems,
        "work_per_round": tally.work, "work_unit": plan.work_unit, "ops_per_round": len(plan.ops),
        "op_s": tally.raw, "pace_s": tally.paces, "setup_probes_s_pace_s": probes, "main_setup_s": main_setup,
    }
    if tracer is not None:
        record.update(traced_rounds=len(traced_rounds), absent=tracer.absent,
                      functions=tracing.function_table(tracer, len(traced_rounds)))
        for name in tracer.absent:
            print(f"absent: {name}", file=sys.stderr)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds) + len(traced_rounds)} rounds, {tally.attempted} operations, "
          f"{tally.failed} failed, {tally.work} {plan.work_unit} per round; wrote {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] and not tally.failed else 1


if __name__ == "__main__":
    sys.exit(main())
