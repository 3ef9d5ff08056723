import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indexaudit import report
from indexaudit.bias_tests import z_test
from indexaudit.coverage import (EvalScheme, estimate_coverage,
                                 estimate_unbiased_coverage, mse_estimate)
from indexaudit.errors import ValidationError
from indexaudit.montecarlo import run_verification

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report_schema.json")
    .read_text(encoding="utf-8"))


def make_doc(command="ztest", results=(), warnings=(), config=None):
    return report.build_document(
        command,
        config if config is not None else {"alpha": 0.95, "paths": ["a.csv"]},
        list(results),
        warnings=list(warnings),
    )


def validate(doc):
    jsonschema.validate(json.loads(report.emit_machine(doc)), SCHEMA)


# --- machine format ------------------------------------------------------------


def test_machine_bytes_are_canonical():
    blob = report.emit_machine(make_doc())
    assert blob.endswith(b"\n")
    text = blob.decode("utf-8")
    payload = json.loads(text)
    # canonical form: re-serializing the parsed payload reproduces the bytes
    again = json.dumps(payload, sort_keys=True, indent=2,
                       ensure_ascii=False, allow_nan=False) + "\n"
    assert again == text
    assert payload["meta"]["generator"] == "indexaudit"
    assert payload["meta"]["schema_version"] == "1"


def test_machine_bytes_ignore_dict_insertion_order():
    doc_a = make_doc(config={"alpha": 0.95, "omega": 0.058})
    doc_b = make_doc(config={"omega": 0.058, "alpha": 0.95})
    assert report.emit_machine(doc_a) == report.emit_machine(doc_b)


def test_machine_round_trip_is_byte_exact():
    doc = make_doc(results=[{"type": "mse_estimate", "period": "p", "value": 1.0,
                             "is_negative": False, "theta_star": 0.1,
                             "theta_audit": 0.2, "audit_variance": 0.029 ** 2}],
                   warnings=["dropped 1 household"])
    blob = report.emit_machine(doc)
    parsed = report.parse_report(blob)
    assert report.emit_machine(parsed) == blob
    assert parsed.command == doc.command
    assert parsed.warnings == ["dropped 1 household"]


def test_non_finite_floats_become_repr_strings():
    doc = make_doc(results=[{
        "type": "simulation_outcome", "label": "degenerate",
        "point": 0.0, "mc_stderr": 0.0, "target": 0.0,
        "z_score": math.inf, "replicates_used": 10,
        "extras": {"spread": math.nan, "low": -math.inf},
    }])
    payload = json.loads(report.emit_machine(doc))
    row = payload["results"][0]
    assert row["z_score"] == "inf"
    assert row["extras"] == {"spread": "nan", "low": "-inf"}


def test_numpy_scalars_serialize_as_plain_numbers():
    doc = make_doc(results=[{"type": "x", "a": np.float64(0.5),
                             "b": np.int64(3), "c": (np.float64(1.0),)}])
    row = json.loads(report.emit_machine(doc))["results"][0]
    assert row == {"type": "x", "a": 0.5, "b": 3, "c": [1.0]}


def test_parse_rejects_malformed_documents():
    with pytest.raises(ValidationError, match="not a machine report"):
        report.parse_report(b"] nope")
    payload = json.loads(report.emit_machine(make_doc()))
    del payload["results"]
    with pytest.raises(ValidationError, match="missing 'results'"):
        report.parse_report(json.dumps(payload))


def test_parse_rejects_other_major_versions():
    payload = json.loads(report.emit_machine(make_doc()))
    payload["meta"]["schema_version"] = "2.0"
    with pytest.raises(ValidationError, match="unsupported report schema version"):
        report.parse_report(json.dumps(payload))
    payload["meta"]["schema_version"] = "1.3"
    report.parse_report(json.dumps(payload))  # same major: fine


# --- row builders --------------------------------------------------------------


def test_rows_from_real_results_validate_against_schema(
        food_prices, food_weights, food_estimate):
    scheme = EvalScheme(0.95, 0.058)
    result = z_test(food_prices, food_estimate, food_weights["age_lt26"])
    plug_in = estimate_coverage(0.001, 0.0, 0.029 ** 2, scheme)
    unbiased = estimate_unbiased_coverage(0.029 ** 2, 2e-8, scheme)
    mse = mse_estimate(0.001, 0.0, 0.029 ** 2)

    rows = [
        report.test_result_row(result),
        report.coverage_row("2015-01", "published_constant", plug_in),
        report.coverage_row("2015-01", "unbiased_benchmark", unbiased),
        report.quantile_summary_row("published_constant", [plug_in.value] * 4),
        report.mse_row("2015-01", mse, 0.001, 0.0, 0.029 ** 2),
    ]
    doc = make_doc("report", results=rows)
    validate(doc)

    assert rows[0]["kind"] == "Z"
    assert rows[0]["p_value"] == result.p_value
    # the row holds the result's own metadata, not a second copy of it
    assert rows[0]["metadata"] is result.metadata
    assert rows[1]["role"] == "published_constant"
    assert rows[4]["is_negative"] == mse.is_negative


def test_verification_rows_validate_against_schema():
    checks = run_verification(master_seed=3, scale=1e-9, jobs=1)
    rows = [report.verification_row(check) for check in checks]
    doc = make_doc("verify", results=rows)
    validate(doc)
    assert {row["type"] for row in rows} == {"verification_check"}
    assert all(row["replicates"] >= 2 for row in rows)
    assert all(row["outcomes"] for row in rows)


def test_quantile_summary_row_statistics():
    row = report.quantile_summary_row("col", [4.0, 1.0, 3.0, 2.0])
    assert row["minimum"] == 1.0
    assert row["maximum"] == 4.0
    assert row["median"] == 2.5
    assert row["mean"] == 2.5
    assert row["first_quartile"] == 1.75
    assert row["third_quartile"] == 3.25
    with pytest.raises(ValidationError, match="empty column"):
        report.quantile_summary_row("col", [])


QUARTILES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                                        math.nan])),
                min_size=1, max_size=40))
@example([1.5])
@example([-0.0])
@example([0.0, -0.0, 0.0, -0.0])
@example([math.nan, 1.0])
@example([math.inf, -math.inf])
@example([1e308, -1e308, 5e-324])
def test_quantiles_are_numpys_linear_quantiles_bit_for_bit(values):
    data = np.array(values)
    with np.errstate(all="ignore"):
        want = np.quantile(data, QUARTILES)
        got = report._quantiles(data, QUARTILES)
    assert got.tobytes() == want.tobytes()
    assert data.tobytes() == np.array(values).tobytes()


# --- table format ----------------------------------------------------------------


def test_table_formats_test_results(food_prices, food_weights, food_estimate):
    result = z_test(food_prices, food_estimate, food_weights["age_lt26"])
    doc = make_doc(results=[report.test_result_row(result)],
                   warnings=["be careful"])
    text = report.emit_table(doc)
    assert text.endswith("\n")
    assert "indexaudit ztest report" in text
    assert "! be careful" in text
    assert f"{result.p_value:.3f}" in text          # 0.971
    assert f"{result.effect:.6f}" in text
    # column alignment: header and separator rows have equal width
    lines = text.splitlines()
    header_pos = next(i for i, line in enumerate(lines)
                      if line.startswith("survey"))
    assert len(lines[header_pos + 1]) >= len("survey")
    assert set(lines[header_pos + 1]) <= {"-", " "}


def test_table_renders_summary_and_file_sections():
    summary = report.quantile_summary_row("plug_in", [0.949, 0.950, 0.951])
    doc = make_doc("coverage", results=[
        summary,
        {"type": "file_output", "path": "out.csv", "rows": 36,
         "sha256": "ab" * 32},
    ])
    text = report.emit_table(doc)
    assert "Median" in text and "Third Quartile" in text
    assert "0.950" in text
    assert f"wrote out.csv (36 rows, sha256 {'ab' * 32})" in text


def test_table_prints_non_finite_z_verbatim():
    doc = make_doc("simulate", results=[{
        "type": "simulation_outcome", "label": "edge", "point": 0.0,
        "mc_stderr": 0.0, "target": 0.0, "z_score": "inf",
        "replicates_used": 5, "extras": {},
    }])
    assert "inf" in report.emit_table(doc)


def _every_row_type_doc():
    """One document with every row type the table prints, out of print order,
    plus a row type it skips."""
    outcome = {"type": "simulation_outcome", "label": "coverage_plug_in",
               "point": 0.9487, "mc_stderr": 0.0021, "target": 0.95,
               "z_score": -0.619047619047619, "replicates_used": 4000, "extras": {}}
    results = [
        {"type": "file_output", "path": "out.csv", "rows": 36, "sha256": "ab" * 32},
        {"type": "simulation_outcome", "label": "degenerate", "point": 0.0,
         "mc_stderr": 0.0, "target": 0.0, "z_score": math.inf,
         "replicates_used": 2, "extras": {}},
        {"type": "mse_estimate", "period": "2015-02", "value": -3.25e-4,
         "is_negative": True, "theta_star": 100.0125, "theta_audit": 100.0,
         "audit_variance": 0.029 ** 2},
        {"type": "verification_check", "name": "coverage_constant_unbiased",
         "scenario": "coverage", "replicates": 4000, "seed": 7, "parameters": {},
         "gate": "z3", "passed": True, "detail": "max |z| 0.62",
         "outcomes": [outcome, dict(outcome, label="edge", z_score="nan",
                                    point=12345678.9, target=None)]},
        {"type": "test_result", "kind": "Z", "effect": 0.24, "variance": 0.0036,
         "statistic": 4.0, "p_value": 6.334248366623996e-05,
         "metadata": {"survey": "survey", "proxy": "age_lt26", "periods": "all"}},
        {"type": "coverage_estimate", "period": "2015-01", "role": "published_constant",
         "value": 0.9499, "variance": 1e-6, "ci_low": 0.9479, "ci_high": 0.9519,
         "ci_clipped": False, "inputs": {}},
        {"type": "coverage_summary", "column": "published_constant", "minimum": 0.9,
         "first_quartile": 0.92, "median": 0.94, "mean": 0.935,
         "third_quartile": 0.95, "maximum": 0.951},
        {"type": "verification_check", "name": "z_calibration", "scenario": "z",
         "replicates": 2, "seed": 8, "parameters": {}, "gate": "calibration",
         "passed": False, "detail": "rejection rate 0.5 outside [0.03, 0.07]",
         "outcomes": []},
        {"type": "test_result", "kind": "B", "effect": -0.0123456789,
         "variance": 0.0004, "statistic": "-inf", "p_value": 1.0,
         "metadata": {"survey": "survey", "proxy": "a_much_longer_proxy_label",
                      "periods": "2015-01,2015-02,2015-03", "beta_hat": "0.98"}},
        {"type": "coverage_estimate", "period": "2015-02", "role": "unbiased_benchmark",
         "value": 0.999, "variance": 1e-4, "ci_low": 0.979, "ci_high": 1.0,
         "ci_clipped": True, "inputs": {}},
        {"type": "coverage_summary", "column": "unbiased_benchmark", "minimum": 0.99,
         "first_quartile": 0.991, "median": 0.995, "mean": 0.9945,
         "third_quartile": 0.998, "maximum": 0.999},
        {"type": "mse_estimate", "period": "2015-01", "value": 1.5625e-4,
         "is_negative": False, "theta_star": 100.0125, "theta_audit": 100.0,
         "audit_variance": 0.0},
        {"type": "unknown_row", "value": 1.0},
    ]
    return report.build_document("report", {"alpha": 0.95, "paths": ["a.csv"]}, results,
                                 warnings=["dropped 1 household", "second warning"])


# emit_table's output for _every_row_type_doc, byte for byte: a change to any
# section's columns, formats or order shows here
EVERY_ROW_TYPE_TABLE = """\
indexaudit report report (v0.1.0)

configuration:
  alpha = 0.95
  paths = ['a.csv']

warnings:
  ! dropped 1 household
  ! second warning

survey  proxy                      periods                  test  effect     statistic  p-value
------  -------------------------  -----------------------  ----  ---------  ---------  -------
survey  age_lt26                   all                      Z     0.240000   4.00000    0.000
survey  a_much_longer_proxy_label  2015-01,2015-02,2015-03  B     -0.012346  -inf       1.000

period   estimator           coverage  ci low  ci high  clipped
-------  ------------------  --------  ------  -------  -------
2015-01  published_constant  0.950     0.948   0.952
2015-02  unbiased_benchmark  0.999     0.979   1.000    yes

statistic       published_constant  unbiased_benchmark
--------------  ------------------  ------------------
Minimum         0.900               0.990
First Quartile  0.920               0.991
Median          0.940               0.995
Mean            0.935               0.995
Third Quartile  0.950               0.998
Maximum         0.951               0.999

period   published  audit     mse estimate  negative
-------  ---------  --------  ------------  --------
2015-02  100.0125   100.0000  -3.250e-04    yes
2015-01  100.0125   100.0000  1.563e-04

check                       gate         status  detail
--------------------------  -----------  ------  ---------------------------------------
coverage_constant_unbiased  z3           pass    max |z| 0.62
z_calibration               calibration  FAIL    rejection rate 0.5 outside [0.03, 0.07]

oracle            empirical    target  z
----------------  -----------  ------  ------
coverage_plug_in  0.9487       0.95    -0.619
edge              1.23457e+07          nan

scenario    empirical  target  z    replicates
----------  ---------  ------  ---  ----------
degenerate  0          0       inf  2

wrote out.csv (36 rows, sha256 abababababababababababababababababababababababababababababababab)
"""


def test_table_bytes_for_every_row_type():
    assert report.emit_table(_every_row_type_doc()) == EVERY_ROW_TYPE_TABLE
