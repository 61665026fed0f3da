"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_harness.py

The repository's own test suite does not collect this file; it tests the
benchmark, not the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
from spans import PER_LAYER, Tracer, cross_check  # noqa: E402
from workloads import WORKLOADS, check_box, check_col3_diag3, check_hs_radius, check_strip, parse_study  # noqa: E402

HEADER = "n,pressure_lower,pressure_upper,interval_width,wall_time_ms,status\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_is_correct_and_accounted(name):
    report = worker.run(WORKLOADS[name], seconds=0, trace=True, seed=0, tiny=True)
    assert [s["problems"] for s in report["solves"]] == [[], []]
    assert sorted(s["traced"] for s in report["solves"]) == [False, True]
    assert report["missing"] == []
    layers = report["layers"]
    assert set(layers) == set(PER_LAYER)
    assert 0.9 < layers["bench.self_time_coverage"] <= 1.0 + 1e-9
    estimator = WORKLOADS[name].base_argv[0] == "study"
    assert (layers["transfer.sweep_gflop"] > 0) == estimator
    assert (layers["pressure.canopy_members"] > 0) == estimator
    assert (layers["transfer.strip_iterations"] > 0) == (name == "col3-strip")
    assert (layers["transfer.evaluate_s"] > 0) == (name == "hs-box")
    assert report["spans"] and {s["solve"] for s in report["spans"]} == {
        i for i, s in enumerate(report["solves"]) if s["traced"]
    }


def test_tracer_restores_the_package():
    import gibbspress.pressure as pressure
    import gibbspress.transfer as transfer

    before = (pressure.p_interval, transfer.RegionEngine.__init__)
    tracer = Tracer()
    tracer.install()
    assert pressure.p_interval is not before[0]
    tracer.uninstall()
    assert (pressure.p_interval, transfer.RegionEngine.__init__) == before


def test_cross_check_catches_a_row_without_spans():
    workload = WORKLOADS["hs-radius"]
    tracer = Tracer()
    tracer.install()
    try:
        code, text, _ = worker._solve(workload.argv(tiny=True), tracer, 0)
    finally:
        tracer.uninstall()
    rows = parse_study(text)
    assert code == 0 and cross_check(tracer, 0, rows) == []
    assert cross_check(tracer, 0, rows + rows[-1:])


def test_checks_reject_wrong_outputs():
    good = parse_study(HEADER + "1,0.2,0.7,0.5,1.0,ok\n2,0.3,0.5,0.2,1.0,ok\n")
    assert check_hs_radius(good, "1:2") == []
    assert check_hs_radius(good, "1:3")  # a missing row
    assert check_hs_radius(parse_study(HEADER + "1,0.2,0.7,0.5,1.0,ok\n2,,,,,budget: over\n"), "1:2")
    assert check_hs_radius(parse_study(HEADER + "1,0.3,0.5,0.2,1.0,ok\n2,0.2,0.7,0.5,1.0,ok\n"), "1:2")
    assert check_hs_radius(parse_study(HEADER + "1,0.41,0.7,0.29,1.0,ok\n"), "1:1")
    assert check_col3_diag3(parse_study(HEADER + "1,0.0,0.0,0.0,1.0,ok\n"), "1:1") == []
    assert check_col3_diag3(parse_study(HEADER + "1,0.0,1e-300,1e-300,1.0,ok\n"), "1:1")
    strip = {"widths": [{"width": 11, "ratio_lower": 0.430483934, "ratio_upper": 0.430483936}]}
    assert check_strip(strip, 11) == []
    strip["widths"][0]["ratio_upper"] = 0.43048393
    assert check_strip(strip, 11)
    assert check_box({"per_site_log_partition": 0.41740090137927915}, 14) == []
    assert check_box({"per_site_log_partition": 0.417400901}, 14)


def test_run_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "hs-box", "--seed", "7",
         "--seconds", "0", "--trace", "0", "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hs-box", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
