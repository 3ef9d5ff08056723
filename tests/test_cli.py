import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from indexaudit import dataio
from indexaudit.cli import main
from indexaudit.report import parse_report

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report_schema.json")
    .read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fx(fixture_dir):
    return {
        "prices": str(fixture_dir / "prices.csv"),
        "weights": str(fixture_dir / "weights.csv"),
        "estimate": str(fixture_dir / "survey_estimate.csv"),
        "micro": str(fixture_dir / "ces_micro.csv"),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_machine(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


# --- ztest / btest ----------------------------------------------------------------


def test_ztest_machine_report(capsys, fx):
    payload = run_machine(capsys, "ztest", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"])
    rows = payload["results"]
    assert [row["kind"] for row in rows] == ["Z"] * 4
    by_proxy = {row["metadata"]["proxy"]: row for row in rows}
    assert pytest.approx(by_proxy["age_lt26"]["p_value"], abs=5e-7) == 0.970870
    assert pytest.approx(by_proxy["age_26_40"]["p_value"], abs=5e-7) == 0.971970
    assert pytest.approx(by_proxy["age_41_67"]["p_value"], abs=5e-7) == 0.968121
    assert pytest.approx(by_proxy["age_68plus"]["p_value"], abs=5e-7) == 0.969770
    assert payload["command"] == "ztest"
    assert payload["config"]["periods_spec"] == "all"
    assert payload["meta"]["schema_version"] == "1"


def test_ztest_table_output(capsys, fx):
    code, out, err = run(capsys, "ztest", "--format", "table",
                         "--prices", fx["prices"], "--weights", fx["weights"],
                         "--survey-estimate", fx["estimate"])
    assert code == 0
    assert "indexaudit ztest report" in out
    for printed in ("0.971", "0.972", "0.968", "0.970"):
        assert printed in out


def test_ztest_proxy_filter_and_each_period(capsys, fx):
    payload = run_machine(capsys, "ztest", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"],
                          "--proxy", "age_lt26", "--each-period",
                          "--periods", "2015-03:2015-05")
    rows = payload["results"]
    assert [row["metadata"]["periods"] for row in rows] == [
        "2015-03", "2015-04", "2015-05"]
    assert all(row["metadata"]["proxy"] == "age_lt26" for row in rows)


def test_period_positions_and_ranges_deduplicate(capsys, fx):
    payload = run_machine(capsys, "ztest", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"],
                          "--proxy", "age_lt26", "--each-period",
                          "--periods", "2,2,1:3")
    labels = [row["metadata"]["periods"] for row in payload["results"]]
    # positions 2,2,1:3 resolve to {1,2,3}; the battery reports subsets sorted
    assert labels == ["2015-02", "2015-03", "2015-04"]


def test_btest_on_micro_strata(capsys, fx):
    payload = run_machine(capsys, "btest", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-micro", fx["micro"],
                          "--survey-stratum", "age_lt26")
    rows = payload["results"]
    assert [row["kind"] for row in rows] == ["B"] * 4
    assert all(row["metadata"]["survey"] == "age_lt26" for row in rows)
    assert all("beta_hat" in row["metadata"] for row in rows)


def test_micro_without_stratum_pools_households(capsys, fx):
    payload = run_machine(capsys, "ztest", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-micro", fx["micro"],
                          "--proxy", "age_lt26")
    surveys = sorted({row["metadata"]["survey"] for row in payload["results"]})
    assert surveys == ["age_26_40", "age_41_67", "age_68plus", "age_lt26", "all"]


# --- coverage / mse -----------------------------------------------------------------


def test_coverage_report_medians(capsys, fx):
    payload = run_machine(capsys, "coverage", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"],
                          "--proxy", "age_lt26")
    assert pytest.approx(payload["config"]["resolved_omega"], abs=1e-6) == 0.058002
    rows = payload["results"]
    by_type = {}
    for row in rows:
        by_type.setdefault(row["type"], []).append(row)
    assert len(by_type["coverage_estimate"]) == 2 * 36
    summaries = {row["column"]: row for row in by_type["coverage_summary"]}
    assert pytest.approx(summaries["published_constant"]["median"],
                         abs=5e-6) == 0.949853
    assert pytest.approx(summaries["unbiased_benchmark"]["median"],
                         abs=5e-6) == 0.838442
    roles = {row["role"] for row in by_type["coverage_estimate"]}
    assert roles == {"published_constant", "unbiased_benchmark"}


def test_coverage_table_shows_both_estimators(capsys, fx):
    code, out, _ = run(capsys, "coverage", "--format", "table",
                       "--prices", fx["prices"], "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"],
                       "--proxy", "age_lt26", "--periods", "0:2")
    assert code == 0
    assert "published_constant" in out and "unbiased_benchmark" in out
    assert "0.950" in out and "0.838" in out
    assert "Median" in out


def test_coverage_explicit_omega_and_var_of_variance(capsys, fx):
    payload = run_machine(capsys, "coverage", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"],
                          "--proxy", "age_lt26", "--omega", "0.02",
                          "--var-of-variance", "1e-9", "--periods", "0")
    assert payload["config"]["resolved_omega"] == 0.02
    benchmark = [row for row in payload["results"]
                 if row.get("role") == "unbiased_benchmark"][0]
    assert benchmark["inputs"]["var_of_variance"] == 1e-9


def test_mse_rows_are_negative_on_fixture(capsys, fx):
    payload = run_machine(capsys, "mse", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"],
                          "--proxy", "age_lt26")
    rows = [row for row in payload["results"] if row["type"] == "mse_estimate"]
    assert len(rows) == 36
    assert all(row["is_negative"] for row in rows)
    values = sorted(row["value"] for row in rows)
    median = 0.5 * (values[17] + values[18])
    assert pytest.approx(median, rel=1e-4) == -8.399151e-04


def test_report_lists_each_dropped_household_once_per_pool(capsys, fx, tmp_path,
                                                           food_prices):
    micro = tmp_path / "micro.csv"
    micro.write_text(Path(fx["micro"]).read_text(encoding="utf-8") + "".join(
        f"zero,{group},0.0,age_lt26\n" for group in food_prices.group_labels),
        encoding="utf-8")
    common = ("report", "--prices", fx["prices"], "--weights", fx["weights"],
              "--survey-micro", str(micro), "--proxy", "age_lt26", "--periods", "0:5")
    dropped = "dropped 1 household(s) with zero total expenditure"
    # the household sits in two pools: its stratum and 'all'
    assert run_machine(capsys, *common)["warnings"] == [dropped] * 2
    assert run_machine(capsys, *common, "--survey-stratum", "age_lt26")[
        "warnings"] == [dropped]


def test_ztest_on_nearly_proportional_households(capsys, tmp_path):
    # the estimator's covariance cancels far below its rows' rounding
    micro = tmp_path / "micro.csv"
    micro.write_text("household_id,group,expenditure\nh1,bread,520.86\nh1,meat,88.78\n"
                     "h2,bread,603.99\nh2,meat,102.95\n", encoding="utf-8")
    prices = tmp_path / "prices.csv"
    prices.write_text("period,group,index\nt1,bread,100\nt1,meat,100\n"
                      "t2,bread,101\nt2,meat,103\n", encoding="utf-8")
    weights = tmp_path / "weights.csv"
    weights.write_text("source,group,weight\np,bread,0.8\np,meat,0.2\n", encoding="utf-8")
    payload = run_machine(capsys, "ztest", "--prices", str(prices),
                          "--weights", str(weights), "--survey-micro", str(micro))
    assert [row["kind"] for row in payload["results"]] == ["Z"]


def test_full_report_combines_sections(capsys, fx):
    payload = run_machine(capsys, "report", "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"],
                          "--proxy", "age_lt26", "--periods", "0:5")
    types = {row["type"] for row in payload["results"]}
    assert types == {"test_result", "coverage_estimate", "coverage_summary",
                     "mse_estimate"}
    kinds = [row["kind"] for row in payload["results"]
             if row["type"] == "test_result"]
    assert sorted(kinds) == ["B", "Z"]


# --- simulate -----------------------------------------------------------------------


def test_simulate_writes_deterministic_micro_csv(capsys, fx, tmp_path):
    out = tmp_path / "sim.csv"
    args = ("simulate", "--true-weights", "0.6,0.4", "--groups", "a,b",
            "--n", "7", "--seed", "3", "--stratum", "urban",
            "--out", str(out))
    payload = run_machine(capsys, *args)
    row = payload["results"][0]
    assert row["type"] == "file_output"
    assert row["rows"] == 14
    first = out.read_bytes()
    assert hashlib.sha256(first).hexdigest() == row["sha256"]

    records = dataio.load_households(out, ["a", "b"])
    assert len(records) == 7
    assert set(records.strata) == {"urban"}

    run_machine(capsys, *args)
    assert out.read_bytes() == first


def test_simulate_from_weights_file(capsys, fx, tmp_path):
    out = tmp_path / "sim.csv"
    payload = run_machine(capsys, "simulate", "--weights-file", fx["weights"],
                          "--source", "age_lt26", "--n", "4", "--seed", "1",
                          "--out", str(out))
    assert payload["results"][0]["rows"] == 20  # 4 households x 5 groups
    records = dataio.load_households(out)
    assert len(records) == 4


def test_simulate_argument_validation(capsys, fx, tmp_path):
    code, _, err = run(capsys, "simulate", "--true-weights", "0.6,0.4",
                       "--n", "3", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert json.loads(err)["error"]["code"] == "config_error"
    code, _, err = run(capsys, "simulate", "--weights-file", fx["weights"],
                       "--n", "3", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "--source" in json.loads(err)["error"]["message"]
    code, _, err = run(capsys, "simulate", "--weights-file", str(tmp_path / "none.csv"),
                       "--source", "age_lt26", "--n", "3", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert json.loads(err)["error"]["code"] == "config_error"


def test_simulate_rejects_duplicate_group_labels(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "simulate", "--true-weights", "0.5,0.5",
                       "--groups", "a,a", "--n", "3", "--out", str(out))
    assert code == 1
    assert len(err.splitlines()) == 1
    body = json.loads(err)["error"]
    assert body["code"] == "config_error"
    assert "duplicate group labels" in body["message"]
    assert not out.exists()


# --- verify -------------------------------------------------------------------------


def test_verify_passes_and_is_identical_across_jobs(capsys, tmp_path):
    out_serial = tmp_path / "serial.json"
    out_parallel = tmp_path / "parallel.json"
    code, _, err = run(capsys, "verify", "--scale", "0.2",
                       "--output", str(out_serial))
    assert code == 0, err
    code, _, _ = run(capsys, "verify", "--scale", "0.2", "--jobs", "3",
                     "--output", str(out_parallel))
    assert code == 0
    assert out_serial.read_bytes() == out_parallel.read_bytes()

    payload = json.loads(out_serial.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert len(payload["results"]) == 14
    assert all(row["passed"] for row in payload["results"])


def test_verify_is_identical_across_jobs_at_block_boundaries(capsys, tmp_path):
    # at this scale the calibration checks draw 65,537 replicates, one block
    # and a 1-row tail, and the coverage checks cross their 1,000,000 chunk
    reports = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}.json"
        code, _, err = run(capsys, "verify", "--scale", "6.5537", "--jobs", jobs,
                           "--output", str(out))
        assert code == 0, err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    replicates = {row["name"]: row["replicates"]
                  for row in json.loads(reports[0])["results"]}
    assert replicates["z_calibration"] == 65_537


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the patch reaches the workers only through fork")
def test_verify_worker_death_is_a_one_line_error(capsys, tmp_path, monkeypatch):
    from indexaudit import montecarlo

    def die(plan):
        os._exit(9)

    # the forked workers inherit the patched table
    monkeypatch.setitem(montecarlo._DISPATCH, "mse_unbiasedness", die)
    out = tmp_path / "verify.json"
    code, stdout, err = run(capsys, "verify", "--scale", "0.01", "--jobs", "2",
                            "--output", str(out))
    assert code == 4
    assert stdout == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "worker_failure"
    assert not out.exists()


def test_verify_reports_gate_failures_with_exit_3(capsys, tmp_path):
    # with only a handful of replicates the calibration gates cannot hold
    out = tmp_path / "fail.json"
    code, _, err = run(capsys, "verify", "--scale", "0.05",
                       "--output", str(out))
    assert code == 3
    assert json.loads(err)["error"]["code"] == "verification_failure"
    payload = json.loads(out.read_text())  # report still written
    failing = [row["name"] for row in payload["results"] if not row["passed"]]
    assert "z_calibration" in failing


def test_verify_seed_changes_report_bytes(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for seed, path in zip((1, 2), paths):
        run(capsys, "verify", "--scale", "0.2", "--seed", str(seed),
            "--output", str(path))
    a, b = (json.loads(p.read_text()) for p in paths)
    assert a["config"]["seed"] != b["config"]["seed"]
    points_a = [o["point"] for row in a["results"] for o in row["outcomes"]]
    points_b = [o["point"] for row in b["results"] for o in row["outcomes"]]
    assert points_a != points_b


# --- plumbing -----------------------------------------------------------------------


def test_output_dir_environment_variable(capsys, fx, tmp_path, monkeypatch):
    monkeypatch.setenv("INDEXAUDIT_OUTPUT_DIR", str(tmp_path / "reports"))
    code, out, _ = run(capsys, "ztest", "--prices", fx["prices"],
                       "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"])
    assert code == 0
    assert out == ""
    written = tmp_path / "reports" / "ztest.json"
    doc = parse_report(written.read_bytes())
    assert doc.command == "ztest"


def test_explicit_output_beats_environment(capsys, fx, tmp_path, monkeypatch):
    monkeypatch.setenv("INDEXAUDIT_OUTPUT_DIR", str(tmp_path / "env"))
    target = tmp_path / "here.json"
    code, _, _ = run(capsys, "ztest", "--prices", fx["prices"],
                     "--weights", fx["weights"],
                     "--survey-estimate", fx["estimate"],
                     "--output", str(target))
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "env").exists()


def test_config_errors_exit_1(capsys, fx, tmp_path):
    code, _, err = run(capsys, "ztest", "--prices", str(tmp_path / "nope.csv"),
                       "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "config_error"

    code, _, err = run(capsys, "ztest", "--prices", fx["prices"],
                       "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"],
                       "--survey-micro", fx["micro"])
    assert code == 1
    assert "exactly one" in json.loads(err)["error"]["message"]

    code, _, err = run(capsys, "ztest", "--prices", fx["prices"],
                       "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"],
                       "--proxy", "nobody")
    assert code == 1
    assert "unknown proxy source" in json.loads(err)["error"]["message"]

    code, _, err = run(capsys, "ztest", "--prices", fx["prices"],
                       "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"],
                       "--periods", "5:2")
    assert code == 1
    assert "backwards period range" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("command, flag, value", [
    ("coverage", "--omega", "1e-200"),  # sigma^2 underflows to 0
    ("coverage", "--omega", "1e200"),  # sigma^2 overflows
    ("coverage", "--omega", "1e150"),  # sigma^6 overflows
    ("coverage", "--omega", "1e-160"),  # sigma^6 underflows to 0
    ("coverage", "--omega", "inf"),
    ("coverage", "--omega", "nan"),
    ("coverage", "--omega-se-mult", "inf"),
    ("report", "--omega", "1e-200"),
    ("coverage", "--var-of-variance", "inf"),
    ("coverage", "--var-of-variance", "-1"),
    ("verify", "--scale", "inf"),
    ("verify", "--scale", "nan"),
    ("simulate", "--dispersion", "inf"),
    ("simulate", "--dispersion", "-1"),
])
def test_invalid_float_flags_exit_1(capsys, fx, tmp_path, command, flag, value):
    argv = {
        "coverage": ["--prices", fx["prices"], "--weights", fx["weights"],
                     "--survey-estimate", fx["estimate"], "--proxy", "age_lt26"],
        "verify": [],
        "simulate": ["--true-weights", "1,2", "--groups", "a,b", "--n", "5",
                     "--out", str(tmp_path / "micro.csv")],
    }
    argv["report"] = argv["coverage"]
    code, out, err = run(capsys, command, *argv[command], f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    body = json.loads(err)["error"]
    assert body["code"] == "config_error"
    assert flag.lstrip("-") in body["message"]


@pytest.mark.parametrize("dispersion", ["5e-324", "1e3", "1e10"])
def test_simulate_dispersion_out_of_range_exits_1(capsys, tmp_path, dispersion):
    # a positive finite dispersion whose draws are not finite is a flag
    # error, not a data error blamed on a household
    out_path = tmp_path / "micro.csv"
    code, out, err = run(capsys, "simulate", "--true-weights", "0.2,0.3,0.5",
                         "--groups", "a,b,c", "--n", "30",
                         "--dispersion", dispersion, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert not out_path.exists()
    body = json.loads(err)["error"]
    assert body["code"] == "config_error"
    assert body["message"].startswith("dispersion ")
    assert "household '" not in body["message"]


def test_data_errors_exit_2(capsys, fx, tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("period,group,index\nx,a,1.0\nx,b,2.0\ny,a,1.1\n")
    code, _, err = run(capsys, "ztest", "--prices", str(ragged),
                       "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"])
    assert code == 2
    body = json.loads(err)["error"]
    assert body["code"] == "data_error"
    assert "not rectangular" in body["message"]



@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("body, message", [
    (b"p,a,1.0\np,b,\xff2.0\n", ": not UTF-8 text: invalid start byte"),
    (b"p,a,1.0\np,b," + b"1" * 131073 + b"\n", ":3: field larger than field limit"),
])
def test_unreadable_input_is_a_data_error(capsys, fx, tmp_path, body, message, quoted):
    # quote-free files are split directly, quoted ones by the csv module
    prices = tmp_path / "prices.csv"
    prices.write_bytes((b'"period"' if quoted else b"period") + b",group,index\n" + body)
    code, out, err = run(capsys, "ztest", "--prices", str(prices),
                         "--weights", fx["weights"],
                         "--survey-estimate", fx["estimate"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["code"] == "data_error"
    assert error["message"].startswith(f"{prices}{message}")

def test_missing_required_flag_exits_1_without_traceback(capsys):
    code, _, err = run(capsys, "ztest")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "config_error"


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("indexaudit, version ")


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "indexaudit", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("indexaudit, version ")
