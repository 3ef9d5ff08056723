import filecmp
import pickle
from pathlib import Path

import numpy as np
import pytest

import build_fixtures
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


def test_prices_keep_first_appearance_order(tmp_path):
    path = write(tmp_path, "p.csv",
                 "period,group,index\n"
                 "arch,zebra,1.5\n"
                 "arch,apple,2.5\n"
                 "base,zebra,1.25\n"
                 "base,apple,2.75\n")
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


# --- committed fixtures stay in sync with their builder ------------------------------


def test_committed_fixtures_match_builder_output(tmp_path, fixture_dir):
    build_fixtures.build_all(tmp_path)
    for name in ("prices.csv", "weights.csv", "survey_estimate.csv",
                 "ces_micro.csv"):
        assert filecmp.cmp(tmp_path / name, fixture_dir / name, shallow=False), \
            f"{name} drifted from its builder; run tests/build_fixtures.py"


# --- byte-order mark ------------------------------------------------------------


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("name, loader", [
    ("prices.csv", "load_prices"),
    ("weights.csv", "load_weights"),
    ("survey_estimate.csv", "load_weight_estimate"),
    ("ces_micro.csv", "load_households"),
])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, fixture_dir, monkeypatch,
                                              food_prices, name, loader, quoted):
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
    read_columns, fallbacks = dataio._read_columns, []

    def counted(*args, **kwargs):
        fallbacks.append(args[0])
        return read_columns(*args, **kwargs)

    monkeypatch.setattr(dataio, "_read_columns", counted)
    assert pickle.dumps(load(marked)) == pickle.dumps(load(plain))
    assert fallbacks == ([marked, plain] if quoted else [])
