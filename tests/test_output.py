import csv
import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_config
from uavqkd import analytics, config, output
from uavqkd.config import build_context
from uavqkd.errors import LinearizationWarning
from uavqkd.sweep import SweepSpec, sweep


@pytest.fixture
def report(baseline_ctx):
    return analytics.evaluate(baseline_ctx)


class TestRows:
    def test_single_report_one_csv_data_row(self, report):
        text = output.emit(report, "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(output.PERF_COLUMNS)

    def test_sweep_rows_engine_both(self, baseline_cfg):
        cfg = replace(baseline_cfg, n_slots=20_000)
        values = tuple(np.linspace(0.05, 0.3, 20).tolist())
        result = sweep(cfg, SweepSpec(axis="wz", values=values, engine="both"))
        rows = list(csv.DictReader(io.StringIO(output.emit(result, "csv"))))
        assert len(rows) == 40
        assert {r["method"] for r in rows} == {"analytic", "monte_carlo"}
        assert all(r["axis"] == "wz" for r in rows)

    def test_columns_give_the_rows_of_each_point_alone(self, baseline_cfg):
        values = [0.05, 0.1, 0.2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            columns = analytics.evaluate(config._derive(baseline_cfg, {"wz": np.array(values)}))
            alone = [analytics.evaluate(build_context(replace(baseline_cfg, wz=v))) for v in values]
        rows = output.perf_rows(columns, "wz", values, "", [None] * 3)
        assert rows == [output.perf_rows(r, "wz", [v])[0] for r, v in zip(alone, values)]
        assert all(type(row[c]) is float for row in rows for c in ("p_detect", "key_rate_bps", "qber"))
        assert set(rows[0]) == set(output.PERF_COLUMNS)

    def test_one_value_per_row(self, report):
        with pytest.raises(ValueError):
            output.perf_rows(report, "wz", [0.05, 0.1])


class TestRender:
    def test_json_round_trip_bit_identical(self, report):
        text = output.emit(report, "json")
        parsed = json.loads(text)[0]
        assert parsed["p_detect"] == report.p_detect
        assert parsed["key_rate_bps"] == report.key_rate
        assert parsed["qber"] == report.qber

    def test_csv_round_trip_bit_identical(self, report):
        text = output.emit(report, "csv")
        row = next(csv.DictReader(io.StringIO(text)))
        assert float(row["p_detect"]) == report.p_detect
        assert float(row["qber"]) == report.qber

    def test_table_format(self, report):
        text = output.emit(report, "table")
        lines = text.strip().splitlines()
        assert lines[0].split()[:2] == ["axis", "axis_value"]
        assert len(lines) == 2

    def test_unknown_format(self, report):
        with pytest.raises(ValueError):
            output.emit(report, "xml")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_no_rows_render_as_empty_text(self, fmt):
        assert output.render([], fmt, output.PERF_COLUMNS) == ""

    def test_raw_rows(self):
        rows = [{"a": 1.5, "b": None}, {"a": 2.0, "b": "x"}]
        text = output.render(rows, "csv", ["a", "b"])
        assert text.splitlines()[0] == "a,b"
        assert len(text.strip().splitlines()) == 3
