import ast
import contextlib
import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import click
import pytest

import micro_oracle
from indexaudit import dataio
from indexaudit.cli import cli, main
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


@pytest.fixture
def partly_tagged(tmp_path):
    """Two groups over three periods, and four households: two untagged and
    two in stratum 'x'."""
    prices = tmp_path / "prices.csv"
    prices.write_text("period,group,index\nt0,a,100\nt0,b,100\nt1,a,101\nt1,b,99\n"
                      "t2,a,103\nt2,b,98\n", encoding="utf-8")
    weights = tmp_path / "weights.csv"
    weights.write_text("source,group,weight\np,a,0.5\np,b,0.5\n", encoding="utf-8")
    micro = tmp_path / "micro.csv"
    micro.write_text("household_id,group,expenditure,stratum\n"
                     "h1,a,3,\nh1,b,1,\nh2,a,1,\nh2,b,2,\n"
                     "h3,a,2,x\nh3,b,2,x\nh4,a,1,x\nh4,b,4,x\n", encoding="utf-8")
    return ("--prices", str(prices), "--weights", str(weights),
            "--survey-micro", str(micro))


def test_pool_all_is_every_household_with_or_without_the_flag(capsys, partly_tagged):
    pooled = run_machine(capsys, "mse", *partly_tagged, "--proxy", "p")
    flagged = run_machine(capsys, "mse", *partly_tagged, "--proxy", "p",
                          "--survey-stratum", "all")
    assert pooled["results"] == flagged["results"]
    stratum_x = run_machine(capsys, "mse", *partly_tagged, "--proxy", "p",
                            "--survey-stratum", "x")
    assert stratum_x["results"] != pooled["results"]
    # the untagged households are tested only inside the pooled sample
    payload = run_machine(capsys, "ztest", *partly_tagged)
    assert [row["metadata"]["survey"] for row in payload["results"]] == ["all", "x"]
    # one stratum that holds every household is tested once, as the pool
    micro = Path(partly_tagged[-1])
    micro.write_text(micro.read_text(encoding="utf-8").replace(",\n", ",x\n"),
                     encoding="utf-8")
    payload = run_machine(capsys, "ztest", *partly_tagged)
    assert [row["metadata"]["survey"] for row in payload["results"]] == ["all"]


def test_a_stratum_named_all_is_a_data_error(capsys, partly_tagged):
    micro = Path(partly_tagged[-1])
    micro.write_text(micro.read_text(encoding="utf-8").replace(",x", ",all"),
                     encoding="utf-8")
    code, out, err = run(capsys, "ztest", *partly_tagged)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": {
        "code": "data_error",
        "message": f"{micro}: stratum 'all' is reserved for the pooled sample of "
                   f"every household",
    }}, sort_keys=True) + "\n"


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
    # the household sits in two pools, its stratum and 'all', and each
    # warning names its pool
    assert run_machine(capsys, *common)["warnings"] == [
        f"survey pool 'age_lt26': {dropped}", f"survey pool 'all': {dropped}"]
    assert run_machine(capsys, *common, "--survey-stratum", "age_lt26")[
        "warnings"] == [f"survey pool 'age_lt26': {dropped}"]


def test_a_pool_too_small_to_estimate_is_named_with_its_file(capsys, fx, tmp_path,
                                                             food_prices):
    micro = tmp_path / "micro.csv"
    micro.write_text(Path(fx["micro"]).read_text(encoding="utf-8") + "".join(
        f"h_solo,{group},1.0,solo\n" for group in food_prices.group_labels),
        encoding="utf-8")
    code, out, err = run(capsys, "ztest", "--prices", fx["prices"],
                         "--weights", fx["weights"], "--survey-micro", str(micro))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": "data_error",
        "message": f"{micro}: survey pool 'solo': need at least 2 households with "
                   f"positive expenditure, got 1"}


@pytest.mark.parametrize("command", ["coverage", "mse"])
def test_coverage_and_mse_estimate_only_their_pool(capsys, fx, tmp_path, food_prices,
                                                    command):
    micro = tmp_path / "micro.csv"
    micro.write_text(Path(fx["micro"]).read_text(encoding="utf-8") + "".join(
        f"zero,{group},0.0,age_lt26\n" for group in food_prices.group_labels),
        encoding="utf-8")
    common = (command, "--prices", fx["prices"], "--weights", fx["weights"],
              "--survey-micro", str(micro), "--proxy", "age_lt26", "--periods", "0:5")
    dropped = "dropped 1 household(s) with zero total expenditure"
    assert run_machine(capsys, *common)["warnings"] == [f"survey pool 'all': {dropped}"]
    assert run_machine(capsys, *common, "--survey-stratum", "age_lt26")[
        "warnings"] == [f"survey pool 'age_lt26': {dropped}"]
    assert run_machine(capsys, *common, "--survey-stratum", "age_68plus")["warnings"] == []


@pytest.mark.parametrize("command, calls", [
    ("ztest", 5), ("btest", 5), ("report", 5), ("coverage", 1), ("mse", 1)])
def test_each_command_estimates_the_pools_it_reports(capsys, fx, monkeypatch,
                                                     command, calls):
    from indexaudit import cli as cli_module

    pooled = []
    estimate = cli_module.estimate_weights
    monkeypatch.setattr(cli_module, "estimate_weights",
                        lambda panel: pooled.append(len(panel)) or estimate(panel))
    run_machine(capsys, command, "--prices", fx["prices"], "--weights", fx["weights"],
                "--survey-micro", fx["micro"], "--proxy", "age_lt26")
    # four strata of 15 households and all 60 for a battery; all 60 otherwise
    assert pooled == [15, 15, 15, 15, 60][-calls:]


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


@pytest.mark.parametrize("command", ["btest", "report"])
def test_skipped_b_tests_are_named_in_a_warning(capsys, fx, command):
    payload = run_machine(capsys, command, "--prices", fx["prices"],
                          "--weights", fx["weights"],
                          "--survey-estimate", fx["estimate"],
                          "--proxy", "age_lt26", "--periods", "0,1")
    assert [row["kind"] for row in payload["results"]
            if row["type"] == "test_result"] == ([] if command == "btest" else ["Z"])
    assert payload["warnings"] == [
        "B-test skipped for period subset '0,1': the slope fit needs at least 3 "
        "periods, the subset has 2"]


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


@pytest.mark.parametrize("seed, sha256", [
    ("0", "c6c443af2f0cebd8fde548aab0f5eaae45f3b65a7af6849dbe4f0c3a6b00f3f1"),
    ("7", "cc4664741a6870e2b5e6fe65a002573b280ee26fbc553275d4bff251245718e3"),
    (str(2 ** 64), "9bc03e765e035855b323f13236307ffd38275104eb853fdba839b48b1b071db2"),
])
def test_simulate_keeps_the_stream_of_every_valid_seed(capsys, tmp_path, seed, sha256):
    # a negative seed is a config error (CONFIG_ERRORS); these files were
    # drawn before that check was added
    out = tmp_path / "sim.csv"
    code, _, err = run(capsys, "simulate", "--true-weights", "0.6,0.4", "--groups", "a,b",
                       "--n", "5", "--seed", seed, "--out", str(out))
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


SIMULATE = ("simulate", "--true-weights", "0.6,0.4", "--groups", "a,b", "--n", "3")


def test_simulate_out_makes_missing_directories(capsys, tmp_path):
    out = tmp_path / "sub" / "deeper" / "sim.csv"
    payload = run_machine(capsys, *SIMULATE, "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == payload["results"][0]["sha256"]


@pytest.mark.parametrize("where", ["a directory", "under a file"])
def test_simulate_unwritable_out_is_a_one_line_config_error(capsys, tmp_path, where):
    (tmp_path / "file.csv").write_text("")
    target = tmp_path if where == "a directory" else tmp_path / "file.csv" / "sim.csv"
    code, out, err = run(capsys, *SIMULATE, "--out", str(target))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    body = json.loads(err)["error"]
    assert body["code"] == "config_error"
    assert str(target) in body["message"]


def test_simulate_writer_matches_the_reference(capsys, tmp_path):
    out = tmp_path / "sim.csv"
    payload = run_machine(capsys, "simulate", "--true-weights", "0.2,0.3,0.5",
                          "--groups", 'a,"b",c d', "--n", "40", "--stratum", "r,1",
                          "--out", str(out))
    reference = tmp_path / "reference.csv"
    micro_oracle.write_households(reference, dataio.load_households(out),
                                  ["a", '"b"', "c d"])
    assert out.read_bytes() == reference.read_bytes()
    assert payload["results"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["reference.csv", "sim.csv"]


def test_a_failed_simulate_write_is_a_config_error_and_leaves_no_file(capsys, tmp_path,
                                                                      monkeypatch):
    out, opened = tmp_path / "sim.csv", dataio.output_file

    @contextlib.contextmanager
    def full_disk(path, binary=False):
        with opened(path, binary) as handle:
            write = handle.write

            def fail_after_the_header(data):
                if handle.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return write(data)

            handle.write = fail_after_the_header
            yield handle

    # the header is in the file when the first block cannot be written
    monkeypatch.setattr(dataio, "output_file", full_disk)
    code, stdout, err = run(capsys, *SIMULATE, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == json.dumps({"error": {
        "code": "config_error",
        "message": f"cannot write households to {out}: [Errno 28] No space left on device",
    }}, sort_keys=True) + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_simulate_out_to_a_pipe_reports_the_digest_of_what_the_reader_got(tmp_path):
    # the command runs in a child process with a timeout, so that one which
    # waits on the pipe after writing it fails the test rather than hangs it;
    # 10,000 rows are more than the pipe holds unread
    fifo, got = tmp_path / "sim.csv", {}
    os.mkfifo(fifo)

    def read():
        with fifo.open("rb") as pipe:
            got["bytes"] = pipe.read()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc = subprocess.run([sys.executable, "-m", "indexaudit", "simulate",
                               "--true-weights", "0.6,0.4", "--groups", "a,b", "--n", "5000",
                               "--out", str(fifo)],
                              capture_output=True, text=True, env=_entry_env(), timeout=60)
    finally:
        # a reader still waiting for a writer gets an empty pipe
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert (proc.returncode, proc.stderr) == (0, "")
    row = json.loads(proc.stdout)["results"][0]
    assert row["rows"] == 10_000
    assert row["sha256"] == hashlib.sha256(got["bytes"]).hexdigest()


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
def test_simulate_out_to_a_device_reports_the_digest_of_what_it_wrote(capsys, tmp_path):
    out = tmp_path / "sim.csv"
    regular = run_machine(capsys, *SIMULATE, "--out", str(out))["results"][0]
    device = run_machine(capsys, *SIMULATE, "--out", os.devnull)["results"][0]
    assert device["sha256"] == regular["sha256"] == hashlib.sha256(
        out.read_bytes()).hexdigest()


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
    parent = os.getpid()

    def die(plan):
        assert os.getpid() != parent, "the check ran in the parent"
        os._exit(9)

    # the forked workers inherit the patched table; two cores make two of them
    monkeypatch.setitem(montecarlo.SCENARIOS, "mse_unbiasedness", die)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
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


@pytest.mark.parametrize("fmt", ["machine", "table"])
def test_paths_that_are_not_utf8_are_echoed_with_escapes(capsys, fx, tmp_path, fmt):
    # the command line carries the byte 0xff of a file name as a lone surrogate
    prices = tmp_path / os.fsdecode(b"prices_\xff.csv")
    prices.write_bytes(Path(fx["prices"]).read_bytes())
    out_path = tmp_path / os.fsdecode(b"micro_\xfe.csv")
    code, out, err = run(capsys, "ztest", "--format", fmt, "--prices", str(prices),
                         "--weights", fx["weights"], "--survey-estimate", fx["estimate"])
    assert code == 0, err
    if fmt == "machine":
        assert json.loads(out)["config"]["prices_path"] == str(tmp_path / "prices_\\xff.csv")
    else:
        assert f"  prices_path = {tmp_path}/prices_\\xff.csv\n" in out
    code, out, err = run(capsys, "simulate", "--format", fmt, "--true-weights", "0.5,0.5",
                         "--groups", "a,b", "--n", "3", "--out", str(out_path))
    assert code == 0, err
    assert out_path.exists()
    if fmt == "machine":
        payload = json.loads(out)
        assert payload["config"]["out_path"] == str(tmp_path / "micro_\\xfe.csv")
        assert payload["results"][0]["path"] == str(tmp_path / "micro_\\xfe.csv")
    else:
        assert f"wrote {tmp_path}/micro_\\xfe.csv (6 rows" in out


AUDIT_INPUTS = [("--prices", "prices_path"), ("--weights", "weights_path"),
                ("--survey-micro", "survey_micro_path"),
                ("--survey-estimate", "survey_estimate_path"),
                ("--survey-stratum", "survey_strata"), ("--periods", "periods_spec"),
                ("--proxy", "proxy_sources")]
SCHEME = [("--omega-se-mult", "omega_se_multiple"), ("--omega", "omega"),
          ("--alpha", "alpha"), ("--var-of-variance", "var_of_variance")]
REPORT_OPTIONS = [("--output", "output"), ("--format", "fmt"), ("--help", "help")]


@pytest.mark.parametrize("command, options", [
    ("ztest", [*AUDIT_INPUTS, ("--each-period", "each_period")]),
    ("btest", AUDIT_INPUTS),
    ("coverage", [*AUDIT_INPUTS, *SCHEME]),
    ("mse", AUDIT_INPUTS),
    ("simulate", [("--true-weights", "true_weights"), ("--groups", "group_names"),
                  ("--weights-file", "weights_path"), ("--source", "source"),
                  ("--n", "n_households"), ("--dispersion", "dispersion"),
                  ("--seed", "seed"), ("--stratum", "stratum"), ("--out", "out_path")]),
    ("verify", [("--seed", "seed"), ("--scale", "scale"), ("--jobs", "jobs")]),
    ("report", [*AUDIT_INPUTS, *SCHEME]),
])
def test_each_command_lists_its_options_in_help_order(capsys, command, options):
    expected = [*options, *REPORT_OPTIONS]
    params = cli.commands[command].get_params(click.Context(cli.commands[command]))
    assert [(param.opts[0], param.name) for param in params] == expected
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
    assert listed == [flag for flag, _ in expected]


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


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_FSIZE as Linux enforces it")
def test_a_report_that_cannot_be_finished_leaves_no_file(fx, tmp_path):
    # past a 16 KiB file size limit a write fails with EFBIG, and SIGXFSZ is
    # ignored so that the process lives to report it; the report is ~52 KB
    limited = ("import resource, signal, sys\n"
               "from indexaudit.cli import main\n"
               "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
               "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
               "resource.setrlimit(resource.RLIMIT_FSIZE, (16384, hard))\n"
               "sys.exit(main(sys.argv[1:]))\n")
    out = tmp_path / "ztest.json"
    proc = subprocess.run(
        [sys.executable, "-c", limited, "ztest", "--each-period", "--prices", fx["prices"],
         "--weights", fx["weights"], "--survey-estimate", fx["estimate"],
         "--output", str(out)],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == json.dumps({"error": {
        "code": "config_error",
        "message": f"cannot write report to {out}: [Errno 27] File too large",
    }}, sort_keys=True) + "\n"
    assert list(tmp_path.iterdir()) == []


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

    code, _, err = run(capsys, "coverage", "--prices", fx["prices"],
                       "--weights", fx["weights"],
                       "--survey-estimate", fx["estimate"], "--proxy", "age_lt26",
                       "--omega", "0.05", "--omega-se-mult", "2")
    assert code == 1
    assert json.loads(err)["error"] == {
        "code": "config_error", "message": "pass --omega or --omega-se-mult, not both"}


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
    ("coverage", "--alpha", "1.5"),
    ("verify", "--jobs", "0"),
    ("simulate", "--n", "0"),
    # finite and positive, but out of range in the value each gives on the data
    ("coverage", "--omega-se-mult", "1e-300"),  # omega's sigma^2 underflows to 0
    ("report", "--omega-se-mult", "1e300"),  # omega's sigma^2 overflows
    ("coverage", "--var-of-variance", "1e308"),  # the coverage variance overflows
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



def test_overflowing_weights_are_a_data_error(capsys, fx, tmp_path):
    lines = Path(fx["weights"]).read_text(encoding="utf-8").splitlines()
    huge = [i for i, line in enumerate(lines) if line.startswith("age_lt26,")][:2]
    for i in huge:
        lines[i] = lines[i].rsplit(",", 1)[0] + ",1e308"
    weights = tmp_path / "weights.csv"
    weights.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "ztest", "--prices", fx["prices"],
                         "--weights", str(weights), "--survey-estimate", fx["estimate"])
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": {
        "code": "data_error",
        "message": f"{weights}: weight vector 'age_lt26' overflows: its weights sum to inf",
    }}, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["ztest", "coverage"])
def test_an_overflowing_expenditure_total_is_a_data_error(capsys, fx, tmp_path, command):
    lines = Path(fx["micro"]).read_text(encoding="utf-8").splitlines()
    scaled = [lines[0]]
    for line in lines[1:]:
        household, group, amount, stratum = line.split(",")
        scaled.append(f"{household},{group},{float(amount) * 1e307!r},{stratum}")
    micro = tmp_path / "micro.csv"
    micro.write_text("\n".join(scaled) + "\n", encoding="utf-8")
    code, out, err = run(capsys, command, "--prices", fx["prices"],
                         "--weights", fx["weights"], "--survey-micro", str(micro),
                         "--proxy", "age_lt26")
    assert (code, out) == (2, "")
    # each stratum's 15 households sum to a finite total; all 60 do not
    assert err == json.dumps({"error": {
        "code": "data_error",
        "message": f"{micro}: survey pool 'all': the pooled expenditure total of 60 "
                   f"households overflows to inf",
    }}, sort_keys=True) + "\n"


@pytest.mark.parametrize("command, message", [
    ("report", "index-level variance overflows"),
    ("ztest", "index-level variance overflows"),
    ("btest", "proxy-weighted index variation overflows"),
    ("coverage", "index variance overflows"),
])
@pytest.mark.parametrize("price", ["1e308", "1e200"])
def test_an_overflowing_price_panel_names_the_overflow(capsys, tmp_path, command,
                                                       message, price):
    prices = tmp_path / "prices.csv"
    prices.write_text("period,group,index\n" + "".join(
        f"t{t},{group},{float(price) * (1.0 + 0.1 * t * (group == 'a'))!r}\n"
        for t in range(3) for group in "ab"), encoding="utf-8")
    weights = tmp_path / "weights.csv"
    weights.write_text("source,group,weight\np,a,0.5\np,b,0.5\n", encoding="utf-8")
    micro = tmp_path / "micro.csv"
    micro.write_text("household_id,group,expenditure\nh1,a,1\nh1,b,2\nh2,a,3\n"
                     "h2,b,1\nh3,a,2\nh3,b,2\n", encoding="utf-8")
    argv = [command, "--prices", str(prices), "--weights", str(weights),
            "--survey-micro", str(micro)]
    if command in ("report", "coverage"):
        argv += ["--proxy", "p"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert (code, out, err.count("\n")) == (2, "", 1)
    body = json.loads(err)["error"]
    assert body["code"] == "data_error"
    assert body["message"].startswith(message), body["message"]


def test_an_audit_variance_whose_square_overflows_is_a_data_error(capsys, tmp_path):
    # prices near 1e80 give a finite audit variance near 1e157, whose square
    # the default variance of the variance needs; --omega keeps sigma small
    prices = tmp_path / "prices.csv"
    prices.write_text("period,group,index\n" + "".join(
        f"t{t},{group},{1e80 * (1.0 + 0.1 * t * (group == 'a'))!r}\n"
        for t in range(3) for group in "ab"), encoding="utf-8")
    weights = tmp_path / "weights.csv"
    weights.write_text("source,group,weight\np,a,0.5\np,b,0.5\n", encoding="utf-8")
    micro = tmp_path / "micro.csv"
    micro.write_text("household_id,group,expenditure\nh1,a,1\nh1,b,2\nh2,a,3\n"
                     "h2,b,1\nh3,a,2\nh3,b,2\n", encoding="utf-8")
    code, out, err = run(capsys, "coverage", "--prices", str(prices), "--weights",
                         str(weights), "--survey-micro", str(micro), "--proxy", "p",
                         "--omega", "1")
    assert (code, out, err.count("\n")) == (2, "", 1)
    body = json.loads(err)["error"]
    assert body["code"] == "data_error"
    assert body["message"].startswith("variance estimate "), body["message"]
    assert body["message"].endswith(" is too large: its square overflows")


def test_a_derived_value_out_of_range_on_the_data_alone_stays_a_data_error(capsys,
                                                                          tmp_path):
    # prices near 1e80 give an audit variance whose tau^6 overflows whatever
    # --var-of-variance is: the data is at fault, not the flag
    prices = tmp_path / "prices.csv"
    prices.write_text("period,group,index\n" + "".join(
        f"t{t},{group},{1e80 * (1.0 + 0.1 * t * (group == 'a'))!r}\n"
        for t in range(3) for group in "ab"), encoding="utf-8")
    weights = tmp_path / "weights.csv"
    weights.write_text("source,group,weight\np,a,0.5\np,b,0.5\n", encoding="utf-8")
    micro = tmp_path / "micro.csv"
    micro.write_text("household_id,group,expenditure\nh1,a,1\nh1,b,2\nh2,a,3\n"
                     "h2,b,1\nh3,a,2\nh3,b,2\n", encoding="utf-8")
    code, out, err = run(capsys, "coverage", "--prices", str(prices), "--weights",
                         str(weights), "--survey-micro", str(micro), "--proxy", "p",
                         "--omega", "1", "--var-of-variance", "1")
    assert (code, out, err.count("\n")) == (2, "", 1)
    body = json.loads(err)["error"]
    assert body["code"] == "data_error"
    assert body["message"].startswith("variance estimate "), body["message"]
    assert body["message"].endswith(" is too large: tau^6 = (sigma^2 + variance estimate)^3 "
                                    "overflows")


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

def test_missing_required_flag_exits_1_without_traceback(capsys, tmp_path):
    code, _, err = run(capsys, "ztest")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "config_error"

    code, out, err = run(capsys, "simulate", "--true-weights", "1,2", "--groups", "a,b",
                         "--out", str(tmp_path / "micro.csv"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    body = json.loads(err)["error"]
    assert body["code"] == "config_error"
    assert "--n" in body["message"]
    assert not (tmp_path / "micro.csv").exists()


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("indexaudit, version ")


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "indexaudit", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("indexaudit, version ")


# --- the process entry point ------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
# the package these tests import, which a child process imports too
PACKAGE = Path(dataio.__file__).resolve().parent


def _entry_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("INDEXAUDIT_OUTPUT_DIR", None)
    return env


def _console_script() -> str:
    """The ``module:function`` the ``indexaudit`` console script runs."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return pyproject["project"]["scripts"]["indexaudit"]


def test_the_console_script_runs_what_python_m_runs():
    # both entry points run __main__.main, so neither can skip what it does
    tree = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    (guard,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    module, function = _console_script().split(":")
    assert module == "indexaudit.__main__"
    assert [ast.unparse(statement) for statement in guard.body] == [f"sys.exit({function}())"]


def _launcher(name: str) -> list[str]:
    """``python -m indexaudit`` ("module"), or what the console script runs
    ("script")."""
    if name == "module":
        return [sys.executable, "-m", "indexaudit"]
    module, function = _console_script().split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {function}; "
                                  f"sys.exit({function}())"]


def test_the_entry_point_freezes_what_the_cli_imports_and_leaves_the_collector_on():
    code = ("import gc, json, sys\n"
            "from indexaudit.__main__ import main\n"
            "before = [gc.isenabled(), gc.get_freeze_count()]\n"
            "sys.argv[1:] = ['--version']\n"
            "status = main()\n"
            "print(json.dumps([before, gc.isenabled(), gc.get_freeze_count(), status]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_entry_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    version, result = proc.stdout.splitlines()
    assert version.startswith("indexaudit, version ")
    # importing the entry module touches nothing; running it imports the CLI,
    # freezes the tens of thousands of objects that brings, and turns the
    # collector back on
    before, enabled, frozen, status = json.loads(result)
    assert (before, enabled, status) == ([True, 0], True, 0)
    assert frozen > 10_000


def test_the_cli_in_process_leaves_the_collector_alone():
    code = ("import gc, json\n"
            "from indexaudit import cli\n"
            "before = gc.get_freeze_count()\n"
            "status = cli.main(['--version'])\n"
            "print(json.dumps([before, gc.get_freeze_count(), gc.isenabled(), status]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_entry_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, True, 0]


@pytest.fixture(scope="module")
def panel_sweep(tmp_path_factory):
    """The benchmark's panel_sweep inputs at full size: 40 groups, 400
    periods, 16 proxies; its ztest --each-period report is ~2.7 MB."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    workdir = tmp_path_factory.mktemp("panel_sweep")
    prepared = workloads.prepare_panel_sweep(workdir, 7,
                                             workloads.SIZES["panel_sweep"]["full"])
    argv = prepared.invocations[0].argv
    assert argv[0] == "ztest" and argv[-3:-1] == ("--each-period", "--output")
    return argv[:-2]


@pytest.mark.parametrize("launcher", ["module", "script"])
def test_a_report_piped_to_stdout_is_the_report_written_to_a_file(panel_sweep, tmp_path,
                                                                 launcher):
    # far more than a pipe buffer: the exit path must still flush all of it
    command = _launcher(launcher)
    out = tmp_path / "ztest.json"
    written = subprocess.run([*command, *panel_sweep, "--output", str(out)],
                             capture_output=True, env=_entry_env(), timeout=120)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    piped = subprocess.run([*command, *panel_sweep], capture_output=True,
                           env=_entry_env(), timeout=120)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert len(piped.stdout) > 2_000_000
    assert piped.stdout == out.read_bytes()


@pytest.mark.parametrize("launcher", ["module", "script"])
def test_a_report_whose_reader_goes_away_is_a_config_error(panel_sweep, launcher):
    # the reader takes 10 bytes of ~2.7 MB and closes the pipe
    read, write = os.pipe()
    proc = subprocess.Popen([*_launcher(launcher), *panel_sweep], stdout=write,
                            stderr=subprocess.PIPE, env=_entry_env())
    os.close(write)
    with os.fdopen(read, "rb") as reader:
        assert len(reader.read(10)) == 10
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert json.loads(err) == {"error": {
        "code": "config_error",
        "message": "cannot write report to stdout: [Errno 32] Broken pipe"}}


@pytest.mark.parametrize("launcher", ["module", "script"])
@pytest.mark.parametrize("argv, status, message", [
    (("ztest", "--prices", "{prices}", "--weights", "{weights}", "--survey-estimate",
      "{estimate}", "--periods", "5:2"),
     1, {"code": "config_error", "message": "backwards period range '5:2'"}),
    (("ztest", "--prices", "{ragged}", "--weights", "{weights}", "--survey-estimate",
      "{estimate}"),
     2, {"code": "data_error", "message": "{ragged}: panel is not rectangular; 1 missing "
                                          "cell(s), first is group 'b', period 'y'"}),
    # of --seed 0 to 7 at --scale 0.2, seeds 0, 3, 4, 5 and 6 trip a gate;
    # seed 4 trips z_calibration alone, by the widest margin (KS 0.0252 > 0.02)
    (("verify", "--seed", "4", "--scale", "0.2", "--jobs", "2", "--output", "{tmp}/v.json"),
     3, {"code": "verification_failure",
         "message": "verification suite failed; see the report for failing checks"}),
])
def test_a_failing_process_exits_with_its_code_and_one_json_line(fx, tmp_path, launcher,
                                                                 argv, status, message):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("period,group,index\nx,a,1.0\nx,b,2.0\ny,a,1.1\n")
    inputs = {**fx, "ragged": ragged, "tmp": tmp_path}
    proc = subprocess.run([*_launcher(launcher), *(fill(arg, inputs) for arg in argv)],
                          capture_output=True, text=True, env=_entry_env(), timeout=120)
    expected = {key: fill(value, inputs) for key, value in message.items()}
    assert (proc.returncode, proc.stdout) == (status, "")
    assert proc.stderr == json.dumps({"error": expected}, sort_keys=True) + "\n"
    if status == 3:
        report = json.loads((tmp_path / "v.json").read_text())
        assert [row["name"] for row in report["results"] if not row["passed"]] == \
            ["z_calibration"]


# --- every configuration error cli.py raises ------------------------------------------

PRICES = ("--prices", "{prices}", "--weights", "{weights}")
ESTIMATE = (*PRICES, "--survey-estimate", "{estimate}")
MICRO = (*PRICES, "--survey-micro", "{micro}")
SIMULATED = ("--groups", "a,b", "--n", "3", "--out", "{tmp}/sim.csv")

# (argv, the exact message of its one-line JSON error); "{name}" stands for
# an input file, "{tmp}" for a directory that holds a plain file "file"
CONFIG_ERRORS = [
    (("coverage", *ESTIMATE, "--proxy", "age_lt26", "--omega=inf"),
     "--omega must be finite, got inf"),
    (("coverage", *ESTIMATE, "--proxy", "age_lt26", "--omega=-1"),
     "--omega must be positive, got -1.0"),
    (("coverage", *ESTIMATE, "--proxy", "age_lt26", "--alpha=1.5"),
     "--alpha must lie in (0, 1), got 1.5"),
    (("coverage", *ESTIMATE, "--proxy", "age_lt26", "--omega=1e-200"),
     "omega 1e-200 is out of range: sigma^2 = (omega / kappa)^2 = 0.0 and "
     "sigma^6 = 0.0 must be positive finite floats"),
    (("report", *ESTIMATE, "--proxy", "age_lt26", "--omega=0.05", "--omega-se-mult=2"),
     "pass --omega or --omega-se-mult, not both"),
    (("coverage", *ESTIMATE, "--proxy", "age_lt26", "--var-of-variance=-1"),
     "--var-of-variance must be non-negative, got -1.0"),
    (("verify", "--jobs", "0"), "--jobs must be at least 1, got 0"),
    (("simulate", "--true-weights", "1,2", "--groups", "a,b", "--n", "0",
      "--out", "{tmp}/sim.csv"), "--n must be positive, got 0"),
    (("ztest", *PRICES), "pass exactly one of --survey-micro or --survey-estimate"),
    (("btest", *ESTIMATE, "--survey-stratum", "age_lt26"),
     "--survey-stratum only applies to --survey-micro input"),
    (("ztest", *ESTIMATE, "--periods", "2015-13"),
     "period token '2015-13' is neither a period label nor a position"),
    (("btest", *ESTIMATE, "--periods", "0:36"), "period position 36 out of range [0, 35]"),
    (("mse", *ESTIMATE, "--proxy", "age_lt26", "--periods= "), "empty --periods value"),
    (("ztest", *ESTIMATE, "--periods", "5:2"), "backwards period range '5:2'"),
    (("report", *MICRO, "--survey-stratum", "age_99plus", "--proxy", "age_lt26"),
     "unknown survey stratum 'age_99plus'; file has age_26_40, age_41_67, age_68plus, "
     "age_lt26"),
    (("ztest", *ESTIMATE, "--proxy", "age_99plus"),
     "unknown proxy source 'age_99plus'; file has age_26_40, age_41_67, age_68plus, "
     "age_lt26"),
    (("coverage", *MICRO, "--survey-stratum", "age_lt26", "--survey-stratum", "age_68plus",
      "--proxy", "age_lt26"), "this command takes exactly one --survey-stratum"),
    (("mse", *ESTIMATE), "this command needs exactly one proxy source (pass --proxy)"),
    (("coverage", *PRICES, "--survey-estimate", "{zero_covariance}", "--proxy", "age_lt26"),
     "audit standard error is zero; pass --omega explicitly"),
    (("report", *PRICES, "--survey-estimate", "{no_count}", "--proxy", "age_lt26"),
     "survey estimate has no household count; pass --var-of-variance"),
    (("simulate", "--n", "3", "--out", "{tmp}/sim.csv"),
     "pass exactly one of --true-weights or --weights-file with --source"),
    (("simulate", "--true-weights", "1,2", "--n", "3", "--out", "{tmp}/sim.csv"),
     "--true-weights needs --groups labels"),
    (("simulate", "--true-weights", "1;2", *SIMULATED),
     "--true-weights must be comma-separated floats, got '1;2'"),
    (("simulate", "--true-weights", "1,2,3", *SIMULATED), "3 weights for 2 group labels"),
    (("simulate", "--true-weights", "1,-2", *SIMULATED),
     "weight vector 'true' has a negative weight at group 'b'"),
    (("simulate", "--weights-file", "{weights}", "--n", "3", "--out", "{tmp}/sim.csv"),
     "--weights-file needs --source to pick a vector"),
    (("simulate", "--weights-file", "{weights}", "--source", "age_99plus", "--n", "3",
      "--out", "{tmp}/sim.csv"),
     "unknown source 'age_99plus'; file has age_26_40, age_41_67, age_68plus, age_lt26"),
    (("simulate", "--true-weights", "1,2", "--dispersion", "1e10", *SIMULATED),
     "dispersion 10000000000.0 is out of range: household totals or shares drawn with "
     "it are not finite"),
    (("simulate", "--true-weights", "1,2", "--groups", "a,b", "--n", "3",
      "--out", "{tmp}/file/sim.csv"),
     "cannot write households to {tmp}/file/sim.csv: [Errno 17] File exists: '{tmp}/file'"),
    (("ztest", *ESTIMATE, "--output", "{tmp}/file/report.json"),
     "cannot write report to {tmp}/file/report.json: [Errno 17] File exists: "
     "'{tmp}/file'"),
    (("simulate", "--true-weights", "1,2", "--stratum", "all", *SIMULATED),
     "--stratum 'all' is reserved for the pooled sample of every household"),
    # 8e17 bytes exceed any address space, so the draw fails before it
    # allocates, whatever the host's overcommit setting
    (("simulate", "--true-weights", "0.5,0.5", "--groups", "a,b", "--n", str(10 ** 17),
      "--out", "{tmp}/sim.csv"), f"--n {10 ** 17} households do not fit in memory"),
    # (1 + alpha) / 2 rounds to 0.5, where kappa is 0, or to 1, which has no quantile
    *[((command, *ESTIMATE, "--proxy", "age_lt26", *omega, "--alpha", alpha),
       f"--alpha {alpha} is too close to 0 or 1: (1 + alpha) / 2 rounds to {level}")
      for command in ("coverage", "report") for omega in ((), ("--omega", "0.1"))
      for alpha, level in (("1e-300", "0.5"), ("0.9999999999999999", "1.0"))],
    # the command line carries a byte that is not UTF-8 as a lone surrogate
    (("simulate", "--true-weights", "1,2", "--groups", "\udcff,b", "--n", "3",
      "--out", "{tmp}/sim.csv"), "--groups must be UTF-8 text, got \\xff,b"),
    (("simulate", "--true-weights", "1,2", "--stratum", "\udcff", *SIMULATED),
     "--stratum must be UTF-8 text, got \\xff"),
    (("simulate", "--true-weights", "1,2", "--seed", "-1", *SIMULATED),
     "--seed must be non-negative, got -1"),
    # the least positive multiple gives an omega of 0
    (("coverage", *ESTIMATE, "--proxy", "age_lt26", "--omega-se-mult=5e-324"),
     "--omega-se-mult 5e-324 is out of range for this data: omega must be a positive "
     "float, got 0.0"),
    (("report", *ESTIMATE, "--proxy", "age_lt26", "--var-of-variance=1e308"),
     "--var-of-variance 1e+308 is out of range for this data: coverage variance must be "
     "finite and non-negative, got inf"),
]

# raises that click's own checks keep every command line from reaching
UNREACHABLE = {
    "f'unknown format {self.fmt!r}'",  # --format is a click.Choice
    "f'unknown command {config.command!r}'",  # click runs only the commands it has
}


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory, fixture_dir):
    tmp = tmp_path_factory.mktemp("config_errors")
    (tmp / "file").write_text("")
    estimate = (fixture_dir / "survey_estimate.csv").read_text(encoding="utf-8")
    zero_covariance = tmp / "zero_covariance.csv"
    zero_covariance.write_text("".join(
        line.rsplit(",", 1)[0] + ",0.0\n" if line.startswith("cov,") else line + "\n"
        for line in estimate.splitlines()), encoding="utf-8")
    no_count = tmp / "no_count.csv"
    no_count.write_text("".join(line + "\n" for line in estimate.splitlines()
                                if not line.startswith("households,")), encoding="utf-8")
    return {"prices": fixture_dir / "prices.csv", "weights": fixture_dir / "weights.csv",
            "estimate": fixture_dir / "survey_estimate.csv",
            "micro": fixture_dir / "ces_micro.csv", "zero_covariance": zero_covariance,
            "no_count": no_count, "tmp": tmp}


def fill(text, inputs):
    for name, path in inputs.items():
        text = text.replace("{" + name + "}", str(path))
    return text


@pytest.mark.parametrize("argv, message", CONFIG_ERRORS)
def test_config_error_is_one_exact_json_line(capsys, error_inputs, argv, message):
    code, out, err = run(capsys, *(fill(arg, error_inputs) for arg in argv))
    expected = {"error": {"code": "config_error", "message": fill(message, error_inputs)}}
    assert (code, out, err) == (1, "", json.dumps(expected, sort_keys=True) + "\n")
    assert not (error_inputs["tmp"] / "sim.csv").exists()


def test_every_config_error_raise_has_a_row(capsys, monkeypatch, error_inputs):
    from indexaudit import cli as cli_module
    from indexaudit.errors import ConfigError

    raised_at: set[int] = set()

    class Recorded(ConfigError):
        def __init__(self, message):
            caller = sys._getframe(1)
            if caller.f_code.co_filename == cli_module.__file__:
                raised_at.add(caller.f_lineno)
            super().__init__(message)

    monkeypatch.setattr(cli_module, "ConfigError", Recorded)
    for argv, _ in CONFIG_ERRORS:
        assert run(capsys, *(fill(arg, error_inputs) for arg in argv))[0] == 1
    tree = ast.parse(Path(cli_module.__file__).read_text(encoding="utf-8"))
    raises = {node.exc.lineno: ast.unparse(node.exc.args[0]) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and getattr(node.exc.func, "id", None) == "ConfigError"}
    assert len(raises) > len(UNREACHABLE)
    assert {message for line, message in raises.items()
            if line not in raised_at} == UNREACHABLE
