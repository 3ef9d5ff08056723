"""The column-wise machine-report renderer against the encoder it replaced
(``report_oracle``): identical bytes, or the same exception and message.
The result rows are rendered a block at a time; the generated documents
hold at most four rows, so blocks of one and two rows cross block seams."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import report_oracle
from indexaudit import report
from indexaudit.cli import RunConfig, run_command

# characters that JSON escapes, that the templates must escape, that split
# lines, and that take more than one UTF-8 byte
SPECIAL = ["%", "%s", "%%", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", '"', "\\", "/",
           "é", "€", " ", "𝄞", " ", ""]
text = st.lists(st.sampled_from(SPECIAL) | st.characters(), max_size=4).map("".join)
# keys that collide after str(): 1 and "1", None and "None", 1.5 and "1.5" ...
colliding = st.sampled_from([1, "1", 0, "0", True, "True", None, "None", 1.5, "1.5",
                             -0.0, "-0.0", math.nan, "nan", (1, 2), "(1, 2)"])
keys = st.sampled_from(["a", "b", "type", "%d", "k\n"]) | text | colliding
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1), floats, text,
    floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
)
unserialisable = st.sampled_from([1j, b"x", {1, 2}, np.bool_(True), np.array([1.0]), object()])


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(keys, children, max_size=4)
            # rows that share some keys and not others, as report results do
            | st.lists(st.dictionaries(st.sampled_from(["a", "b", "%"]), children,
                                       max_size=3), max_size=4))


values = st.recursive(scalars, containers, max_leaves=12)
odd_values = st.recursive(scalars | unserialisable, containers, max_leaves=8)


def same_outcome(doc, rows):
    try:
        want = report_oracle.emit_machine(doc)
    except Exception as exc:  # the renderer must raise the same
        with pytest.raises(type(exc)) as caught:
            emit_in_blocks(doc, rows)
        assert str(caught.value) == str(exc)
        return
    assert emit_in_blocks(doc, rows) == want


def emit_in_blocks(doc, rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_ROWS", rows)
        return report.emit_machine(doc)


BLOCKS = pytest.mark.parametrize("rows", [report._ROWS, 1, 2])


@BLOCKS
@settings(max_examples=200, deadline=None)
@given(command=text, config=st.dictionaries(keys, values, max_size=4),
       results=st.lists(values, max_size=4), warnings=st.lists(text, max_size=2),
       meta=st.dictionaries(keys, values, max_size=2))
# UTF-8 cannot encode a lone surrogate; the error names its position in the
# whole text, not in the block that holds it
@example(command="", config={}, results=[{"a": "é"}, {"a": "\ud800"}], warnings=[], meta={})
def test_renderer_matches_reference_encoder(rows, command, config, results, warnings, meta):
    same_outcome(report.ReportDocument(command=command, config=config, results=results,
                                       warnings=warnings, meta=meta), rows)


@BLOCKS
@settings(max_examples=150, deadline=None)
@given(results=st.lists(odd_values, max_size=4),
       config=st.dictionaries(keys, odd_values, max_size=3))
# row 0's "b" comes first in the document, before row 1's "a"
@example(results=[{"a": 1, "b": 1j}, {"a": b"x", "b": 2}], config={})
def test_unserialisable_values_raise_the_reference_error(rows, results, config):
    # the first value the reference meets in document order names the error
    same_outcome(report.build_document("x", config, results), rows)


@BLOCKS
def test_empty_and_degenerate_documents(rows):
    for results in ([], [{}], [[]], [()], [[[]], {"": {}}], [{"a": 1}, {"a": {}}, {"a": []}]):
        same_outcome(report.build_document("", {}, results), rows)


@pytest.mark.parametrize("command, extra", [
    ("ztest", ["--each-period"]),
    ("report", ["--proxy", "age_68plus"]),
    ("verify", []),
])
def test_real_report_shapes_match(fixture_dir, command, extra):
    if command == "verify":
        config = RunConfig(command="verify", seed=5, scale=0.01, jobs=2)
    else:
        config = RunConfig(
            command=command, prices_path=str(fixture_dir / "prices.csv"),
            weights_path=str(fixture_dir / "weights.csv"),
            survey_micro_path=str(fixture_dir / "ces_micro.csv"),
            each_period="--each-period" in extra,
            proxy_sources=tuple(extra[1:]) if "--proxy" in extra else ())
    doc, _ = run_command(config)
    assert doc.results
    # the reference encoder reads the rows as the dicts they stand for
    rows = report.ReportDocument(doc.command, doc.config, list(doc.results), doc.warnings,
                                 doc.meta)
    assert report.emit_machine(doc) == report_oracle.emit_machine(rows)


def test_emission_holds_the_report_and_one_block():
    # 20,000 rows shaped as ztest --each-period's, ~7 MB of report: the
    # traced peak is the report's bytes (the buffer grows by up to an
    # eighth) and one block's text, not several copies of the report
    rng = np.random.default_rng(20)
    effects, variances = rng.normal(size=20_000).tolist(), rng.uniform(0.1, 2.0, 20_000).tolist()
    results = [{
        "type": "test_result", "kind": "Z", "effect": effect, "variance": variance,
        "statistic": effect / math.sqrt(variance), "p_value": variance / 2.0,
        "metadata": {"survey": "survey", "proxy": f"proxy_{i % 16}",
                     "periods": f"2019-{i % 12 + 1:02d}", "subset": f"p{i // 16}"},
    } for i, (effect, variance) in enumerate(zip(effects, variances))]
    doc = report.build_document("ztest", {"each_period": True}, results)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        payload = report.emit_machine(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.25 * len(payload) + 2 * 2 ** 20


# --- result rows held as columns ------------------------------------------------------


@BLOCKS
def test_an_unserialisable_column_value_is_named_in_document_order(rows):
    # column "a" is rendered first, but row 0's "b" comes first in the document
    columns = report.Columns({"a": [1, b"x"], "b": [1j, 2]})
    dicts = [{"a": 1, "b": 1j}, {"a": b"x", "b": 2}]
    with pytest.raises(TypeError) as want:
        report_oracle.emit_machine(report.build_document("x", {}, dicts))
    with pytest.raises(TypeError) as got:
        emit_in_blocks(report.build_document("x", {}, report.Rows(columns)), rows)
    assert str(got.value) == str(want.value) == "Object of type complex is not JSON serializable"


column_keys = st.sampled_from(["a", "b", "%", "%s", "é", "k\n"]) | text
ABSENT = object()


def table(draw, rows: int, depth: int):
    """Columns of ``rows`` rows and the dict rows they stand for: per-row
    arrays and lists, Coded columns whose negative codes drop the key, and
    nested Columns for dict values."""
    columns, dicts = {}, [{} for _ in range(rows)]
    for key in draw(st.lists(column_keys, min_size=1, max_size=4, unique=True)):
        shape = draw(st.sampled_from(["array", "list", "coded"] + ["nested"] * (depth < 2)))
        if shape == "array":
            held = draw(st.lists(floats, min_size=rows, max_size=rows))
            column = np.array(held, dtype=float)
        elif shape == "list":
            column = held = draw(st.lists(values, min_size=rows, max_size=rows))
        elif shape == "coded":
            distinct = draw(st.lists(scalars, min_size=1, max_size=4))
            if draw(st.booleans()) and all(type(value) is float for value in distinct):
                distinct = np.array(distinct)
            codes = draw(st.lists(st.integers(-1, len(distinct) - 1), min_size=rows,
                                  max_size=rows))
            column = report.Coded(distinct, np.array(codes, dtype=int))
            held = [ABSENT if code < 0 else
                    distinct[code].item() if isinstance(distinct, np.ndarray) else distinct[code]
                    for code in codes]
        else:
            column, held = table(draw, rows, depth + 1)
        columns[key] = column
        for row, value in zip(dicts, held):
            if value is not ABSENT:
                row[key] = value
    return report.Columns(columns), dicts


@st.composite
def column_parts(draw):
    """Result rows in parts: Columns, and lists of dict rows between them."""
    parts, dicts = [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)):
            part, held = table(draw, draw(st.integers(0, 5)), 0)
        else:
            part = held = draw(st.lists(st.dictionaries(st.sampled_from(["a", "%"]), values,
                                                        max_size=2), max_size=3))
        parts.append(part)
        dicts += held
    return report.Rows(*parts), dicts


@BLOCKS
@settings(max_examples=150, deadline=None)
@given(parts=column_parts())
@example(parts=(report.Rows(report.Columns({
    "%d": np.array([math.inf, -0.0]), "é€": report.Coded([math.nan, "x\n%"], np.array([1, -1])),
    "m": report.Columns({"%": report.Coded(["𝄞"], np.array([-1, 0]))}),
})), [{"%d": math.inf, "é€": "x\n%", "m": {}}, {"%d": -0.0, "m": {"%": "𝄞"}}]))
def test_columns_render_as_their_dict_rows(rows, parts):
    # the bytes json.dumps(_json_safe(rows), sort_keys=True, indent=2,
    # ensure_ascii=False) gives for the dict rows the columns stand for
    results, dicts = parts
    assert len(results) == len(dicts)
    assert repr(list(results)) == repr(dicts)
    doc = report.build_document("x", {}, results)
    assert emit_in_blocks(doc, rows) == report_oracle.emit_machine(
        report.build_document("x", {}, dicts))
