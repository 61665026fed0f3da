import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest

from gibbspress.cli import main
from gibbspress.interaction import build_hard_square, interaction_to_json

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "gibbspress" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_check_hard_square(capsys):
    doc = run_json(capsys, "check", "--model", "hardsquare")
    jsonschema.validate(doc, load_schema("check.schema.json"))
    assert doc["ssf"] is True
    assert doc["safe_symbol"] == 0
    assert doc["counterexample"] is None
    assert "folding" in doc["params"]


def test_check_checkerboards(capsys):
    doc = run_json(capsys, "check", "--model", "checkerboard", "-k", "4")
    jsonschema.validate(doc, load_schema("check.schema.json"))
    assert doc["ssf"] is False
    assert doc["counterexample"] == [0, 1, 2, 3]

    doc = run_json(capsys, "check", "--model", "checkerboard", "-k", "5")
    assert doc["ssf"] is True and doc["safe_symbol"] is None


def test_pressure_full_shift(capsys):
    doc = run_json(capsys, "pressure", "--model", "fullshift", "--n", "1")
    jsonschema.validate(doc, load_schema("pressure.schema.json"))
    assert doc["pressure_lower"] == pytest.approx(math.log(2), abs=1e-12)
    assert doc["pressure_upper"] == pytest.approx(math.log(2), abs=1e-12)


def test_pressure_hard_square(capsys):
    doc = run_json(capsys, "pressure", "--model", "hardsquare", "--nu", "zeros", "--n", "2")
    jsonschema.validate(doc, load_schema("pressure.schema.json"))
    assert doc["pressure_lower"] <= doc["pressure_upper"]
    assert doc["canopy_count"] > 0
    assert doc["per_site"][0]["site"] == [0, 0]
    # monotone: two canopy members per site, none skipped
    assert doc["per_site"][0]["canopy_path"] == "extremes"
    assert (doc["canopy_count"], doc["skipped_count"]) == (2, 0)


def test_pressure_counterexample(capsys):
    doc = run_json(capsys, "pressure", "--model", "checkerboard", "-k", "3", "--nu", "diag3", "--n", "1")
    jsonschema.validate(doc, load_schema("pressure.schema.json"))
    assert doc["pressure_lower"] == 0.0 and doc["pressure_upper"] == 0.0
    # the upper layer forces every origin symbol: nothing is evaluated
    assert doc["canopy_count"] == doc["skipped_count"] == 0
    assert {t["canopy_path"] for t in doc["per_site"]} == {"forced"}
    assert {(t["p_lower"], t["p_upper"]) for t in doc["per_site"]} == {(1.0, 1.0)}


def test_pressure_deterministic_modulo_wall_time(capsys):
    a = run_json(capsys, "pressure", "--model", "hardsquare", "--n", "1")
    b = run_json(capsys, "pressure", "--model", "hardsquare", "--n", "1")
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def test_oracle_strip(capsys):
    doc = run_json(capsys, "oracle", "--model", "hardsquare", "--mode", "strip", "--width", "1")
    jsonschema.validate(doc, load_schema("oracle.schema.json"))
    golden = math.log((1 + math.sqrt(5)) / 2)
    entry = doc["widths"][0]
    assert entry["per_site_lower"] == pytest.approx(golden, abs=1e-9)
    assert entry["ratio_lower"] is None

    doc = run_json(capsys, "oracle", "--model", "hardsquare", "--mode", "strip", "--width", "5")
    jsonschema.validate(doc, load_schema("oracle.schema.json"))
    assert [w["width"] for w in doc["widths"]] == [2, 3, 4, 5]
    assert doc["extrapolated"]["ratio_lower"] == pytest.approx(0.4075, abs=2e-3)


def test_oracle_strip_checkerboard_trend(capsys):
    doc = run_json(capsys, "oracle", "--model", "checkerboard", "-k", "3", "--mode", "strip", "--width", "5")
    values = [w["per_site_upper"] for w in doc["widths"]]
    assert values == sorted(values, reverse=True)  # raw values decrease in width


def test_oracle_box(capsys):
    doc = run_json(capsys, "oracle", "--model", "hardsquare", "--mode", "box", "--width", "2")
    jsonschema.validate(doc, load_schema("oracle.schema.json"))
    assert doc["per_site_log_partition"] == pytest.approx(math.log(7) / 4, abs=1e-12)


def test_study_csv(capsys):
    code, out, err = run_cli(
        capsys, "study", "--model", "hardsquare", "--nu", "zeros", "--n-range", "1:3"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    widths = [float(r["interval_width"]) for r in rows]
    assert widths[0] >= widths[1] >= widths[2]
    assert all(r["status"] == "ok" for r in rows)


def test_study_full_shift_widths_vanish(capsys):
    code, out, err = run_cli(
        capsys, "study", "--model", "fullshift", "--nu", "zeros", "--n-range", "1:2"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(r["interval_width"]) < 1e-12 for r in rows)


def test_study_exit_3_when_nothing_succeeds(capsys):
    code, out, err = run_cli(
        capsys,
        "study", "--model", "hardsquare", "--nu", "zeros", "--n-range", "3:4",
        "--budget", "10",
    )
    assert code == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["status"].startswith("budget") for r in rows)


def test_study_records_budget_failures(capsys):
    # the 5-colouring pairs 100 canopy heads with 100 tails at n = 1, and
    # 400 heads with 6400 tails at n = 2
    code, out, err = run_cli(
        capsys,
        "study", "--model", "checkerboard", "-k", "5", "--nu", "parity", "--n-range", "1:2",
        "--budget", "10000",
    )
    assert code == 0  # some rows succeeded
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["status"] == "ok"
    assert rows[-1]["status"].startswith("budget: canopy ensemble")


def test_usage_errors(capsys):
    assert run_cli(capsys, "check", "--model", "nosuch")[0] == 2
    assert run_cli(capsys, "check", "--model", "checkerboard")[0] == 2  # missing -k
    assert run_cli(capsys, "check", "--model", "hardsquare", "--beta", "1.0")[0] == 2
    assert run_cli(capsys, "pressure", "--model", "hardsquare", "--n", "0")[0] == 2
    assert run_cli(capsys, "study", "--model", "hardsquare", "--n-range", "3:1")[0] == 2
    assert run_cli(capsys, "pressure", "--model", "hardsquare", "--nu", "diag3", "--n", "1")[0] == 2
    assert run_cli(capsys, "study", "--model", "hardsquare", "--n-range", "0:2")[0] == 2
    assert run_cli(capsys, "study", "--model", "hardsquare", "--n-range=-1:2")[0] == 2
    for value in ("nan", "inf", "-inf"):
        assert run_cli(capsys, "check", "--model", "hardsquare", f"--lambda={value}")[0] == 2
        assert run_cli(capsys, "pressure", "--model", "ising", f"--beta={value}", "--n", "1")[0] == 2


def test_negative_budget_is_a_usage_error(capsys):
    """A negative --budget is malformed input: exit 2 before any work. A
    budget of 0 is a budget, and still refuses the work it cannot hold."""
    commands = {
        "pressure": ("--model", "hardsquare", "--nu", "parity", "--n", "1"),
        "oracle": ("--model", "hardsquare", "--mode", "strip", "--width", "3"),
        "study": ("--model", "hardsquare", "--n-range", "1:2"),
    }
    refused = (2, "", "gibbspress: --budget must be nonnegative\n")
    for command, argv in commands.items():
        assert run_cli(capsys, command, *argv, "--budget", "-5") == refused
    assert run_cli(capsys, "pressure", *commands["pressure"], "--budget", "0")[0] == 4
    assert run_cli(capsys, "oracle", *commands["oracle"], "--budget", "0")[0] == 4
    code, out, _ = run_cli(capsys, "study", *commands["study"], "--budget", "0")
    assert code == 3 and out.count("budget: ") == 2


def test_hypothesis_failures_exit_3(capsys):
    code, out, err = run_cli(
        capsys, "pressure", "--model", "checkerboard", "-k", "3", "--nu", "zeros", "--n", "1"
    )
    assert code == 3
    assert "hypothesis" in err


def test_budget_refusal_exit_4(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys,
        "pressure", "--model", "checkerboard", "-k", "5", "--nu", "parity", "--n", "3",
    )
    assert code == 4

    # 17711 states per row, over the budget of 10000
    code, out, err = run_cli(
        capsys, "oracle", "--model", "hardsquare", "--mode", "box", "--width", "20", "--budget", "10000"
    )
    assert code == 4 and "transfer states" in err

    # the canopy ensemble's candidate (head, tail) pairs are refused
    code, out, err = run_cli(
        capsys,
        "pressure", "--model", "checkerboard", "-k", "4", "--nu", "diag3", "--n", "2", "--budget", "5000",
    )
    assert code == 4 and "canopy ensemble: needs 186624 states, 144 heads times 1296 tails" in err
    # the 3-colouring's diag3 sites are forced: no canopy ensemble to refuse
    code, out, err = run_cli(
        capsys,
        "pressure", "--model", "checkerboard", "-k", "3", "--nu", "diag3", "--n", "2", "--budget", "5000",
    )
    assert code == 0

    # --budget is the only setter: the environment is not read. S_n is swept
    # by its columns, whose transfer stages hold 12 states at n = 3
    monkeypatch.setenv("GPRESS_BUDGET", "10")
    assert run_cli(capsys, "pressure", "--model", "hardsquare", "--n", "3")[0] == 0
    code, out, err = run_cli(capsys, "pressure", "--model", "hardsquare", "--n", "3", "--budget", "10")
    assert code == 4 and "S_n swept by columns (row y=k is column x=k): transfer states" in err


def test_model_file_round_trip(capsys, tmp_path):
    path = tmp_path / "hs.json"
    path.write_text(json.dumps(interaction_to_json(build_hard_square(1.0))))
    doc = run_json(capsys, "check", "--model", f"file:{path}")
    assert doc["ssf"] is True and doc["safe_symbol"] == 0


def test_point_file(capsys, tmp_path):
    path = tmp_path / "parity.json"
    path.write_text(json.dumps({"periods": [2, 2], "cell": [[0, 1], [1, 0]]}))
    doc = run_json(
        capsys, "pressure", "--model", "hardsquare", "--nu", f"file:{path}", "--n", "1"
    )
    assert doc["n"] == 1
    assert len(doc["per_site"]) == 4

    bad = tmp_path / "bad.json"
    for doc in ({}, {"periods": [1, 1], "cell": [[-1]]}, {"periods": [0, 1], "cell": [[]]}):
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "pressure", "--model", "hardsquare", "--nu", f"file:{bad}", "--n", "1"
        )
        assert code == 2 and "cannot read point file" in err


def test_out_flag_writes_file(capsys, tmp_path, monkeypatch):
    out = tmp_path / "result.json"
    code, stdout, _ = run_cli(capsys, "check", "--model", "hardsquare", "--out", str(out))
    assert code == 0 and stdout == ""
    doc = json.loads(out.read_text())
    assert doc["ssf"] is True

    # an unwritable --out is refused before anything is computed
    def fail(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr("gibbspress.cli.ssf_check", fail)
    monkeypatch.setattr("gibbspress.cli.box_log_partition", fail)
    missing = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "check", "--model", "hardsquare", "--out", str(missing))
    assert code == 2 and str(missing) in err and not missing.parent.exists()
    code, _, err = run_cli(
        capsys, "oracle", "--model", "hardsquare", "--mode", "box", "--width", "2", "--out", str(tmp_path)
    )
    assert code == 2 and str(tmp_path) in err
