import csv
import filecmp
import io
import os
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import build_fixtures
import micro_oracle
from indexaudit import dataio
from indexaudit.core import PriceSeries, WeightVector
from indexaudit.errors import ConfigError, ValidationError
from indexaudit.survey import HouseholdPanel, WeightEstimate


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- prices ---------------------------------------------------------------------


def test_prices_round_trip(tmp_path, tiny_prices):
    path = tmp_path / "prices.csv"
    dataio.write_prices(path, tiny_prices)
    back = dataio.load_prices(path)
    np.testing.assert_array_equal(back.values, tiny_prices.values)
    assert back.group_labels == tiny_prices.group_labels
    assert back.period_labels == tiny_prices.period_labels


# labels the writer quotes (a comma, a quote, a line end), one that
# str.splitlines would split at (U+0085), and the empty label; cells are
# read stripped, so no label starts or ends with whitespace
LABELS = st.text(st.sampled_from(["a", "é", " ", ",", '"', "\x85", "\n"]),
                 max_size=4).map(str.strip)
AMOUNTS = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def price_panels(draw):
    groups = draw(st.lists(LABELS, min_size=2, max_size=4, unique=True))
    periods = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    cells = len(groups) * len(periods)
    values = draw(st.lists(AMOUNTS.filter(bool), min_size=cells, max_size=cells))
    return PriceSeries(np.reshape(values, (len(groups), len(periods))),
                       tuple(groups), tuple(periods))


@settings(max_examples=100, deadline=None)
@given(price_panels())
def test_prices_round_trip_bit_for_bit(tmp_path_factory, prices):
    path = tmp_path_factory.mktemp("prices") / "prices.csv"
    dataio.write_prices(path, prices)
    back = dataio.load_prices(path)
    assert (back.group_labels, back.period_labels) == (prices.group_labels,
                                                       prices.period_labels)
    assert back.values.tobytes() == prices.values.tobytes()


def test_prices_keep_first_appearance_order(tmp_path):
    # the last line needs no line end
    for end in ("\n", ""):
        path = write(tmp_path, "p.csv",
                     "period,group,index\n"
                     "arch,zebra,1.5\n"
                     "arch,apple,2.5\n"
                     "base,zebra,1.25\n"
                     "base,apple,2.75" + end)
        prices = dataio.load_prices(path)
        assert prices.group_labels == ("zebra", "apple")
        assert prices.period_labels == ("arch", "base")
        np.testing.assert_array_equal(prices.values, [[1.5, 1.25], [2.5, 2.75]])


def test_prices_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        dataio.load_prices(tmp_path / "nope.csv")


def test_prices_header_and_cell_errors(tmp_path):
    with pytest.raises(ValidationError, match="empty file"):
        dataio.load_prices(write(tmp_path, "a.csv", ""))
    with pytest.raises(ValidationError, match="header must contain"):
        dataio.load_prices(write(tmp_path, "b.csv", "period,label,index\nx,y,1\n"))
    # a header of one field, or a blank first line, is a header of one column
    with pytest.raises(ValidationError, match="; got period group index$"):
        dataio.load_prices(write(tmp_path, "b1.csv", "period group index\nx,y,1\n"))
    with pytest.raises(ValidationError, match="; got $"):
        dataio.load_prices(write(tmp_path, "b2.csv", "\nperiod,group,index\nx,y,1\n"))
    with pytest.raises(ValidationError, match=r"b3\.csv: duplicated header column"):
        dataio.load_prices(write(tmp_path, "b3.csv", "period,group,index,index\nx,y,1,1\n"))
    with pytest.raises(ValidationError, match="no data rows"):
        dataio.load_prices(write(tmp_path, "c.csv", "period,group,index\n"))
    with pytest.raises(ValidationError, match=r"d\.csv:3: expected 3 fields"):
        dataio.load_prices(write(tmp_path, "d.csv",
                                 "period,group,index\nx,a,1.0\nx,b\n"))
    with pytest.raises(ValidationError, match=r"e\.csv:3: duplicate cell"):
        dataio.load_prices(write(tmp_path, "e.csv",
                                 "period,group,index\nx,a,1.0\nx,a,2.0\n"))
    with pytest.raises(ValidationError, match="not a number: 'abc'"):
        dataio.load_prices(write(tmp_path, "f.csv",
                                 "period,group,index\nx,a,abc\n"))
    with pytest.raises(ValidationError, match="not rectangular"):
        dataio.load_prices(write(tmp_path, "g.csv",
                                 "period,group,index\n"
                                 "x,a,1.0\nx,b,2.0\ny,a,1.1\n"))
    # panel-level validation failures carry the file name
    with pytest.raises(ValidationError, match=r"h\.csv: .*non-positive"):
        dataio.load_prices(write(tmp_path, "h.csv",
                                 "period,group,index\n"
                                 "x,a,1.0\nx,b,-2.0\n"))


def test_prices_skip_blank_lines(tmp_path):
    path = write(tmp_path, "p.csv",
                 "period,group,index\n\nx,a,1.0\n\nx,b,2.0\n")
    assert dataio.load_prices(path).n_groups == 2


# --- weights --------------------------------------------------------------------


def test_weights_round_trip(tmp_path, food_weights):
    path = tmp_path / "w.csv"
    dataio.write_weights(path, food_weights)
    back = dataio.load_weights(path, food_weights["age_68plus"].group_labels)
    assert set(back) == set(food_weights)
    for source in food_weights:
        np.testing.assert_array_equal(back[source].w, food_weights[source].w)
        assert back[source].label == source


def test_weights_take_group_order_from_file_when_unspecified(tmp_path):
    path = write(tmp_path, "w.csv", "source,group,weight\n"
                 "s,b,0.25\ns,a,0.75\nt,c,0.5\nt,a,0.25\nt,b,0.25\ns,c,0.0\n")
    back = dataio.load_weights(path)
    assert back["s"].group_labels == back["t"].group_labels == ("b", "a", "c")
    np.testing.assert_array_equal(back["s"].w, [0.25, 0.75, 0.0])
    np.testing.assert_array_equal(back["t"].w, [0.25, 0.25, 0.5])
    with pytest.raises(ValidationError, match="source 't' is missing weights for d"):
        dataio.load_weights(write(tmp_path, "x.csv", "source,group,weight\n"
                                  "s,a,0.5\ns,b,0.25\ns,d,0.25\nt,a,0.5\nt,b,0.5\n"))


def test_weights_errors(tmp_path):
    with pytest.raises(ValidationError, match="unknown group 'c'"):
        dataio.load_weights(write(tmp_path, "a.csv",
                                  "source,group,weight\ns,c,0.5\n"), ["a", "b"])
    with pytest.raises(ValidationError, match="duplicate weight"):
        dataio.load_weights(write(tmp_path, "b.csv",
                                  "source,group,weight\ns,a,0.5\ns,a,0.4\n"),
                            ["a", "b"])
    with pytest.raises(ValidationError, match="missing weights for b"):
        dataio.load_weights(write(tmp_path, "c.csv",
                                  "source,group,weight\ns,a,0.5\n"), ["a", "b"])
    with pytest.raises(ValidationError, match=r"d\.csv: .*negative"):
        dataio.load_weights(write(tmp_path, "d.csv",
                                  "source,group,weight\ns,a,0.5\ns,b,-0.1\n"),
                            ["a", "b"])
    with pytest.raises(ValidationError,
                       match=r"e\.csv:3: column 'weight' is not a number: 'abc'"):
        dataio.load_weights(write(tmp_path, "e.csv",
                                  "source,group,weight\ns,a,0.5\ns,b,abc\n"),
                            ["a", "b"])


# --- households -----------------------------------------------------------------


def test_households_round_trip_with_strata(tmp_path):
    records = HouseholdPanel(("h1", "h2"), np.array([[1.0, 2.0], [3.0, 0.5]]),
                             ("north", "south"))
    path = tmp_path / "hh.csv"
    dataio.write_households(path, records, ["a", "b"])
    back = dataio.load_households(path, ["a", "b"])
    assert back.household_ids == ("h1", "h2")
    assert back.strata == ("north", "south")
    np.testing.assert_array_equal(back.expenditures[0], [1.0, 2.0])


def test_households_without_stratum_column(tmp_path):
    records = HouseholdPanel(("h1",), np.array([[1.0, 2.0]]))
    path = tmp_path / "hh.csv"
    dataio.write_households(path, records, ["a", "b"])
    assert path.read_text().splitlines()[0] == "household_id,group,expenditure"
    back = dataio.load_households(path)
    assert back.strata == (None,)


@st.composite
def household_panels(draw):
    groups = draw(st.lists(LABELS, min_size=2, max_size=3, unique=True))
    ids = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    cells = len(ids) * len(groups)
    # zero cells are written and read like any other amount
    amounts = draw(st.lists(st.just(0.0) | AMOUNTS, min_size=cells, max_size=cells))
    # no stratum column, or one where an untagged household's cell is empty
    strata = draw(st.none() | st.lists(st.none() | LABELS.filter(bool),
                                       min_size=len(ids), max_size=len(ids)))
    return HouseholdPanel(tuple(ids), np.reshape(amounts, (len(ids), len(groups))),
                          strata), groups


@settings(max_examples=100, deadline=None)
@given(household_panels())
def test_households_round_trip_bit_for_bit(tmp_path_factory, case):
    panel, groups = case
    path = tmp_path_factory.mktemp("households") / "households.csv"
    dataio.write_households(path, panel, groups)
    back = dataio.load_households(path, groups)
    assert (back.household_ids, back.strata) == (panel.household_ids, panel.strata)
    assert back.expenditures.tobytes() == panel.expenditures.tobytes()


# labels csv.writer quotes: a comma, a quote, a line end, an empty id
SPLIT_IDS = ["h1", "h,2", 'h"3', "h\n4", "", " h5 "]
SPLIT_GROUPS = ["a", "b,c", 'd"e']
SPLIT_STRATA = ["r1", None, "r,2", 'r"3']


def split_panel(n_households, with_strata):
    rng = np.random.default_rng(n_households)
    # amounts from subnormal to near the float maximum, and exact zeros
    amounts = rng.random((n_households, 3)) * 10.0 ** rng.integers(-320, 300, (n_households, 3))
    amounts[rng.random((n_households, 3)) < 0.1] = 0.0
    return HouseholdPanel(
        tuple(f"{SPLIT_IDS[i % len(SPLIT_IDS)]}{i}" for i in range(n_households)),
        amounts,
        tuple(SPLIT_STRATA[i % len(SPLIT_STRATA)] for i in range(n_households))
        if with_strata else None)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(',"\r\n \t\x00a\x85\u2028é') | st.characters(), max_size=6))
def test_a_field_is_spelled_as_csv_writer_spells_it(text):
    # the writer passes a field that needs no quotes through as it is
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["x", text, "y"])
    assert buffer.getvalue() == f"x,{dataio._csv_field(text)},y\r\n"


def force_parts(monkeypatch, parts):
    """Make write_households split any panel into ``parts`` ranges, or one
    per amount where it has fewer amounts."""
    monkeypatch.setattr(dataio, "_VALUES_PER_PART", 1)
    monkeypatch.setattr(dataio.os, "sched_getaffinity", lambda pid: set(range(parts)))


def assert_written_as_reference(tmp_path, panel, parts):
    values = len(panel) * len(SPLIT_GROUPS)
    assert dataio._part_count(values, dataio._VALUES_PER_PART) == min(parts, values)
    got, want = tmp_path / "split.csv", tmp_path / "reference.csv"
    dataio.write_households(got, panel, SPLIT_GROUPS)
    micro_oracle.write_households(want, panel, SPLIT_GROUPS)
    assert got.read_bytes() == want.read_bytes()
    # no temporary file is left beside the output, and no child unreaped
    assert sorted(path.name for path in tmp_path.iterdir()) == ["reference.csv",
                                                                "split.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits the writer")
@pytest.mark.parametrize("with_strata", [False, True])
@pytest.mark.parametrize("n_households", [1, 2, 5, 50])
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_split_writer_writes_the_reference_bytes(tmp_path, monkeypatch, parts,
                                                 n_households, with_strata):
    force_parts(monkeypatch, parts)
    assert_written_as_reference(tmp_path, split_panel(n_households, with_strata), parts)


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits the writer")
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.booleans())
def test_split_writer_matches_reference_for_any_split(tmp_path_factory, n_households,
                                                      parts, with_strata):
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_parts(monkeypatch, parts)
        assert_written_as_reference(tmp_path_factory.mktemp("split"),
                                    split_panel(n_households, with_strata), parts)


def test_writer_splits_only_large_panels_of_a_single_threaded_linux_process(monkeypatch):
    monkeypatch.setattr(dataio.os, "sched_getaffinity", lambda pid: set(range(4)))
    linux = sys.platform == "linux"
    assert [dataio._part_count(values, dataio._VALUES_PER_PART)
            for values in (1, 65_535, 65_536, 131_072, 200_001, 10**9)] == (
        [1, 1, 1, 2, 3, 4] if linux else [1] * 6)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        assert dataio._part_count(10**9, dataio._VALUES_PER_PART) == 1
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()


def fail_on_first_household(monkeypatch, panel):
    """Make this process, and no forked child, fail on the panel's first
    household."""
    writer, quote = os.getpid(), dataio._csv_field

    def field(text):
        if os.getpid() == writer and text == panel.household_ids[0]:
            raise RuntimeError("the first range fails")
        return quote(text)

    monkeypatch.setattr(dataio, "_csv_field", field)


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits the writer")
def test_a_failure_in_the_writing_process_reaps_every_child(tmp_path, monkeypatch):
    force_parts(monkeypatch, 3)
    panel = split_panel(9, True)
    fail_on_first_household(monkeypatch, panel)
    with pytest.raises(RuntimeError, match="the first range fails"):
        dataio.write_households(tmp_path / "split.csv", panel, SPLIT_GROUPS)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("text, result", [
    ('"household_id",group,expenditure\nh1,a,1\nh1,b,2\n', [[1.0, 2.0]]),
    ("household_id,group,expenditure\nh1,a,\udcff\n", "not UTF-8 text: invalid start byte"),
])
def test_a_pipe_the_direct_split_cannot_read_is_read_once(tmp_path, text, result):
    # the csv module reads on from the pipe; one that cannot seek names the
    # bytes that are not UTF-8 where it meets them
    fifo = tmp_path / "micro.csv"
    os.mkfifo(fifo)
    loaded = {}

    def load():
        try:
            loaded["result"] = dataio.load_households(fifo, ["a", "b"]).expenditures.tolist()
        except ValidationError as exc:
            loaded["result"] = str(exc)

    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    with fifo.open("wb") as pipe:
        pipe.write(text.encode("utf-8", "surrogateescape"))
    loader.join(timeout=30)
    assert not loader.is_alive()
    assert loaded["result"] == (result if isinstance(result, list) else f"{fifo}: {result}")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_failed_write_to_a_pipe_leaves_the_pipe(tmp_path, monkeypatch):
    force_parts(monkeypatch, 2)
    panel = split_panel(4, False)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # an open reader lets the writer open the pipe without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        dataio.write_households(fifo, panel, SPLIT_GROUPS)
        micro_oracle.write_households(tmp_path / "reference.csv", panel, SPLIT_GROUPS)
        assert os.read(reader, 1 << 16) == (tmp_path / "reference.csv").read_bytes()
        fail_on_first_household(monkeypatch, panel)
        with pytest.raises(RuntimeError, match="the first range fails"):
            dataio.write_households(fifo, panel, SPLIT_GROUPS)
    finally:
        os.close(reader)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo", "reference.csv"]


# a lone surrogate, as the command line spells a byte that is not UTF-8:
# UTF-8 cannot encode it, so each writer fails after its first rows
ODD = "\udcff"


@pytest.mark.parametrize("write", [
    lambda path: dataio.write_prices(path, PriceSeries(np.ones((2, 2)), ("a", "b"),
                                                       ("t0", ODD))),
    lambda path: dataio.write_weights(path, {"ok": WeightVector([0.5, 0.5], label="ok"),
                                             ODD: WeightVector([0.5, 0.5], label="odd")}),
    lambda path: dataio.write_weight_estimate(path, WeightEstimate(
        WeightVector([0.5, 0.5], label="survey"), np.zeros((2, 2)), 10), ("a", ODD)),
], ids=["prices", "weights", "weight estimate"])
def test_a_writer_that_fails_mid_file_leaves_no_file(tmp_path, write):
    with pytest.raises(UnicodeEncodeError):
        write(tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def test_households_sum_repeated_cells(tmp_path):
    path = write(tmp_path, "hh.csv",
                 "household_id,group,expenditure\n"
                 "h1,a,1.0\nh1,a,2.5\nh1,b,1.0\n")
    back = dataio.load_households(path, ["a", "b"])
    np.testing.assert_allclose(back.expenditures[0], [3.5, 1.0])


def test_households_infer_group_order_when_unspecified(tmp_path):
    path = write(tmp_path, "hh.csv",
                 "household_id,group,expenditure\n"
                 "h1,beta,1.0\nh1,alpha,2.0\nh2,alpha,1.0\nh2,beta,4.0\n")
    back = dataio.load_households(path)
    np.testing.assert_array_equal(back.expenditures, [[1.0, 2.0], [4.0, 1.0]])


def test_households_errors(tmp_path):
    with pytest.raises(ValidationError, match="two strata"):
        dataio.load_households(write(
            tmp_path, "a.csv",
            "household_id,group,expenditure,stratum\n"
            "h1,a,1.0,x\nh1,b,1.0,y\n"))
    with pytest.raises(ValidationError, match="negative expenditure"):
        dataio.load_households(write(
            tmp_path, "b.csv",
            "household_id,group,expenditure\nh1,a,-1.0\n"))
    with pytest.raises(ValidationError, match="unknown group"):
        dataio.load_households(write(
            tmp_path, "c.csv",
            "household_id,group,expenditure\nh1,zzz,1.0\n"), ["a", "b"])


# --- weight estimates --------------------------------------------------------------


def test_weight_estimate_round_trip(tmp_path, food_estimate, food_prices):
    path = tmp_path / "est.csv"
    dataio.write_weight_estimate(path, food_estimate, food_prices.group_labels)
    back = dataio.load_weight_estimate(path, food_prices.group_labels)
    np.testing.assert_array_equal(back.point.w, food_estimate.point.w)
    np.testing.assert_array_equal(back.covariance, food_estimate.covariance)
    assert back.n_households == food_estimate.n_households


def test_weight_estimate_accepts_either_triangle(tmp_path):
    text = ("kind,row_group,col_group,value\n"
            "weight,a,,0.5\nweight,b,,0.5\n"
            "cov,a,a,0.25\ncov,b,a,-0.25\ncov,b,b,0.25\n")
    est = dataio.load_weight_estimate(write(tmp_path, "e.csv", text), ["a", "b"])
    np.testing.assert_array_equal(est.covariance,
                                  [[0.25, -0.25], [-0.25, 0.25]])
    assert est.n_households is None


def test_weight_estimate_errors(tmp_path):
    base = "kind,row_group,col_group,value\nweight,a,,0.5\nweight,b,,0.5\n"
    with pytest.raises(ValidationError, match="disagree across the diagonal"):
        dataio.load_weight_estimate(write(
            tmp_path, "a.csv",
            base + "cov,a,a,0.25\ncov,a,b,-0.2\ncov,b,a,-0.25\ncov,b,b,0.25\n"),
            ["a", "b"])
    with pytest.raises(ValidationError, match=r"missing covariance entry \('a', 'b'\)"):
        dataio.load_weight_estimate(write(
            tmp_path, "b.csv", base + "cov,a,a,0.25\ncov,b,b,0.25\n"),
            ["a", "b"])
    with pytest.raises(ValidationError, match="unknown kind 'weights'"):
        dataio.load_weight_estimate(write(
            tmp_path, "c.csv", "kind,row_group,col_group,value\nweights,a,,0.5\n"),
            ["a", "b"])
    with pytest.raises(ValidationError, match="not an integer"):
        dataio.load_weight_estimate(write(
            tmp_path, "d.csv", base + "cov,a,a,0.25\ncov,a,b,-0.25\ncov,b,b,0.25\n"
            + "households,,,12.5\n"), ["a", "b"])
    with pytest.raises(ValidationError, match="missing weight rows for b"):
        dataio.load_weight_estimate(write(
            tmp_path, "e.csv",
            "kind,row_group,col_group,value\nweight,a,,1.0\ncov,a,a,0.0\n"),
            ["a", "b"])
    with pytest.raises(ValidationError, match=r"f\.csv: .*not positive semidefinite"):
        # estimate-level validation failures carry the file name
        dataio.load_weight_estimate(write(
            tmp_path, "f.csv",
            base + "cov,a,a,-0.25\ncov,a,b,0.25\ncov,b,b,-0.25\n"),
            ["a", "b"])
    # a row's own error names its line
    cov = "cov,a,a,0.25\ncov,a,b,-0.25\ncov,b,b,0.25\n"
    for name, rows, message in [
        ("g", "weight,c,,0.5\n", ":4: unknown group 'c'"),
        ("h", "cov,a,c,0.5\n", ":4: unknown group 'c'"),
        ("i", "weight,b,,0.5\n", ":4: duplicate weight for 'b'"),
        ("j", cov + "cov,a,b,-0.25\n", r":7: duplicate covariance entry \('a', 'b'\)"),
        ("k", cov + "households,,,1000\nhouseholds,,,5\n", ":8: duplicate households row"),
        ("l", "cov,a,a,x\n", ":4: column 'value' is not a number: 'x'"),
    ]:
        with pytest.raises(ValidationError, match=rf"{name}\.csv{message}$"):
            dataio.load_weight_estimate(write(tmp_path, f"{name}.csv", base + rows),
                                        ["a", "b"])
    with pytest.raises(ValidationError, match=r"m\.csv:2: column 'value' is not a number"):
        dataio.load_weight_estimate(write(
            tmp_path, "m.csv", "kind,row_group,col_group,value\nweight,a,,abc\n"), ["a"])


# --- committed fixtures stay in sync with their builder ------------------------------


def test_committed_fixtures_match_builder_output(tmp_path, fixture_dir):
    build_fixtures.build_all(tmp_path)
    for name in ("prices.csv", "weights.csv", "survey_estimate.csv",
                 "ces_micro.csv"):
        assert filecmp.cmp(tmp_path / name, fixture_dir / name, shallow=False), \
            f"{name} drifted from its builder; run tests/build_fixtures.py"


# --- byte-order mark ------------------------------------------------------------


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("name, loader", [
    ("prices.csv", "load_prices"),
    ("weights.csv", "load_weights"),
    ("survey_estimate.csv", "load_weight_estimate"),
    ("ces_micro.csv", "load_households"),
])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, fixture_dir, monkeypatch,
                                              food_prices, name, loader, quoted, parts):
    # micro data is read in byte ranges where it may be
    monkeypatch.setattr(dataio, "_BYTES_PER_PART", 1)
    monkeypatch.setattr(dataio.os, "sched_getaffinity", lambda pid: set(range(parts)))

    def load(path):
        if loader == "load_prices":
            return dataio.load_prices(path)
        return getattr(dataio, loader)(path, food_prices.group_labels)

    text = (fixture_dir / name).read_text(encoding="utf-8")
    if quoted:
        # a quoted header cell sends the file through the csv module
        text = '"' + text.replace(",", '",', 1)
    plain = write(tmp_path, "plain.csv", text)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    reader, calls = csv.reader, []
    monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))

    def loaded(path):
        calls.clear()
        return pickle.dumps(load(path)), len(calls)

    (marked_bytes, marked_reads), (plain_bytes, plain_reads) = loaded(marked), loaded(plain)
    assert marked_bytes == plain_bytes
    # a quoted file reaches the csv module once per load, a quote-free one never
    assert [marked_reads, plain_reads] == ([1, 1] if quoted else [0, 0])
