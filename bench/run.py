"""gibbspress benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. With --trace 0 the run measures set-up time (fresh interpreters),
the median wall time of one CLI solve and the solving process's peak RSS.
With --trace 1 it reports the per-layer metrics of `bench/spans.py`. The
last line of standard output is the result as one JSON object; the full
record, with the environment, every solve and every span, goes to
`.bench_results/<workload>-seed<N>-trace<T>.json`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
#: Fresh interpreters timed per run for setup_s, after one untimed one that
#: fills the bytecode and file caches.
SETUP_PROBES = 9
#: Every run ends within this many seconds, child processes included.
RUN_LIMIT_S = 170.0


def blas_threads() -> int:
    """One BLAS thread per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def run_child(cmd: list[str], env: dict, deadline: float, stdout=None) -> str | None:
    """Run a child process to completion, killing it at the deadline.

    The wait blocks in waitpid: `subprocess.run(timeout=...)` instead polls
    with sleeps of up to 50 ms, which would round the set-up times up.
    """
    limit = remaining(deadline)
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout, text=True)
    killer = threading.Timer(limit, proc.kill)
    killer.start()
    try:
        out, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def measure_setup(source: str, env: dict, deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing the package and building
    the workload's model and point."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        run_child([sys.executable, "-c", source], env, deadline)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_worker(args, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    return json.loads(run_child(cmd, env, deadline, stdout=subprocess.PIPE).splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (see bench/test_harness.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gibbspress" / "__init__.py").is_file():
        print(f"bench: no gibbspress sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that run_child kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    env = child_env()
    try:
        setup = [] if args.trace else measure_setup(workload.setup_source, env, deadline)
        report = run_worker(args, env, deadline)
    except (subprocess.SubprocessError, TimeoutError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    solves = report.pop("solves")
    failed = sum(bool(s["problems"]) for s in solves)
    if args.trace:
        metrics = {k: {"value": report["layers"][k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(s["seconds"] for s in solves),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(solves), "failed": failed, "metrics": metrics}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "argv": workload.argv(args.tiny),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": report.pop("numpy"),
            "blas": report.pop("blas"),
            "blas_threads": blas_threads(),
            "git_commit": git_commit(),
        },
        "setup_times_s": setup,
        "solves": solves,
        **report,
        "result": result,
    }
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    (out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for s in solves:
        for problem in s["problems"]:
            print(f"bench: solve failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
