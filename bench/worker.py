"""The workload process: repeated CLI solves in one interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Runs one small warm-up solve, then solves closed-loop (one at a time) until
S seconds have passed, at least once. With --trace 1 the solves come in
pairs, one traced and one untraced, in an order drawn from the seed. Every
solve is checked against the workload's references and against the first
untraced solve. Prints one JSON report line; `bench/run.py` reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import gibbspress  # noqa: E402
import gibbspress.cli as cli  # noqa: E402
import numpy as np  # noqa: E402

from spans import PER_LAYER, Tracer, cross_check, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        return {"name": None, "version": None}


def _solve(argv: list[str], tracer: Tracer | None, solve: int):
    """One CLI solve; returns (exit code, stdout text, wall seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv) if tracer is None else tracer.call(solve, cli.main, argv)
        except SystemExit as exc:  # the CLI's parser rejected the command line
            code = exc.code
        wall = time.perf_counter() - start
    return code, buf.getvalue(), wall


def _layer_medians(solves: list[dict], layers: list[dict]) -> dict:
    """Median of each per-layer metric over the traced solves."""
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}

    def median_of(traced, field):
        values = [r[field] for r in solves if r["traced"] == traced and field in r]
        return statistics.median(values) if values else 0.0

    out["cli.result_width"] = median_of(True, "width")
    out["bench.trace_overhead_s"] = median_of(True, "seconds") - median_of(False, "seconds")
    return {k: out.get(k, 0.0) for k in PER_LAYER}


def run(workload: Workload, seconds: float, trace: bool, seed: int, tiny: bool = False) -> dict:
    argv = workload.argv(tiny)
    _solve(workload.argv(tiny=True), None, -1)  # warm-up: imports, BLAS threads, allocator
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    solves, layers = [], []
    start = time.perf_counter()
    while not solves or time.perf_counter() - start < seconds:
        for traced in rng.sample([True, False], 2) if trace else [False]:
            idx = len(solves)
            record = {"traced": traced, "problems": []}
            solves.append(record)
            began = time.perf_counter()
            try:
                if traced:
                    tracer.install()
                try:
                    code, text, record["seconds"] = _solve(argv, tracer if traced else None, idx)
                finally:
                    if traced:
                        tracer.uninstall()
                if code != 0:
                    record["problems"].append(f"exit code {code}")
                    continue
                result = workload.parse(text)
                record["problems"] += workload.check_output(result, tiny)
                record["width"] = workload.width(result)
                record["key"] = workload.key(result)
                if traced:
                    record["problems"] += cross_check(tracer, idx, result)
                    layers.append(layer_metrics(tracer, idx))
            except Exception:  # a crashing solve is a failed solve; the run goes on
                record["problems"].append(traceback.format_exc())
                record.setdefault("seconds", time.perf_counter() - began)
    reference = next((r["key"] for r in solves if not r["traced"] and "key" in r), None)
    for record in solves:
        if "key" in record and record.pop("key") != reference:
            record["problems"].append("result differs from the first untraced solve")
    report = {
        "solves": solves,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": str(Path(gibbspress.__file__).resolve().parent),
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if trace:
        report["layers"] = _layer_medians(solves, layers)
        report["missing"] = tracer.missing
        report["spans"] = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "solve": s.solve, **s.counts}
            for s in tracer.spans
        ]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="run the workload at its self-test size")
    args = parser.parse_args(argv)
    if Path(gibbspress.__file__).resolve().parent != SRC / "gibbspress":
        print(f"worker: gibbspress imported from {gibbspress.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report = run(WORKLOADS[args.workload], args.seconds, bool(args.trace), args.seed, args.tiny)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
