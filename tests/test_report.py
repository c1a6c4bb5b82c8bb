import csv
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieboxford.report import (
    Table,
    canonical_json,
    canonical_value,
    config_digest,
    write_manifest,
    write_reports,
)
from oracles import read_jsonl

RECORDS = [
    {"state_id": "s000", "bound_id": "contact_direct", "lhs": -0.2820947917738772, "status": "holds"},
    {"state_id": "s001", "bound_id": "contact_direct", "lhs": -1.5e-11, "status": "holds"},
]


class TestWriteReports:
    def test_empty_records_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_reports([], path)
        assert path.read_text() == "\n"

    def test_single_row_twelve_digits(self, tmp_path):
        path = tmp_path / "one.csv"
        write_reports(RECORDS[:1], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bound_id,lhs,state_id,status"
        assert "-0.282094791774" in lines[1]  # 12 significant digits

    def test_byte_identical_on_rewrite(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_reports(RECORDS, a)
        write_reports(RECORDS, b)
        assert a.read_bytes() == b.read_bytes()
        aj, bj = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reports(RECORDS, aj)
        write_reports(RECORDS, bj)
        assert aj.read_bytes() == bj.read_bytes()

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_reports(RECORDS, path)
        back = read_jsonl(path)
        assert back[0]["state_id"] == "s000"
        assert back[0]["lhs"] == float(f"{RECORDS[0]['lhs']:.12g}")
        # a second write of the parsed records is byte-identical (fixed point)
        again = tmp_path / "r2.jsonl"
        write_reports(back, again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(allow_nan=False, allow_infinity=False, width=64),
        name=st.text(alphabet="abcdef,\" '", min_size=0, max_size=12),
    )
    def test_round_trip_arbitrary_floats_and_quoting(self, x, name):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.jsonl"
            write_reports([{"x": x, "name": name}], path)
            back = read_jsonl(path)[0]
        assert back["x"] == float(f"{x:.12g}")
        assert back["name"] == name

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(width=64))
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=sys.float_info.max)
    @example(x=math.inf)
    @example(x=-math.inf)
    @example(x=math.nan)
    def test_csv_float_cell_is_the_twelve_digit_rounding(self, x):
        # one formatting pass gives the cell of rounding to 12 digits and
        # formatting the rounded float again
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            write_reports([{"x": x}], path)
            cell = path.read_text().splitlines()[1]
        if math.isnan(x):
            assert cell == "nan"
        elif math.isinf(x):
            assert cell == ("inf" if x > 0 else "-inf")
        else:
            assert cell == f"{float(f'{x:.12g}'):.12g}"

    def test_jsonl_lines_are_canonical_json(self, tmp_path):
        # the writer's direct float and string paths, and its fallback for
        # everything else, give the lines of canonical_json
        rows = [
            {"lhs": -0.1 - 0.2, "slack": math.nan, "Label": 'c="1,2" é', "n": 3, "ok": True,
             "none": None, "f32": np.float32(0.1), "f64": np.float64(1 / 3), "i64": np.int64(-7),
             "nested": {"z": [math.inf, 0.1 + 0.2], 2: -math.inf, "a": (np.float64(2.5), None)}},
            {"lhs": 5e-324, "slack": math.inf, "Label": "", "n": -0, "ok": False,
             "none": None, "f32": np.float32(-math.inf), "f64": np.float64(-math.inf), "i64": np.int64(0),
             "nested": []},
            {"lhs": -0.0, "slack": -math.inf, "Label": "s\n\t\\", "n": 2**70, "ok": True,
             "none": None, "f32": np.float32(math.nan), "f64": np.float64(1e300), "i64": np.int64(2**62),
             "nested": {}},
        ]
        path = tmp_path / "c.jsonl"
        write_reports(rows, path)
        assert path.read_text(encoding="utf-8").splitlines() == [canonical_json(r) for r in rows]

    def test_table_formats_each_float_once_for_both_files(self, tmp_path):
        # where f"{v:.12g}" and repr of the rounded float part ways: integral
        # values, -0.0, exponents from 1e12 to 1e16 and subnormals, nan and
        # +-inf; a float column (numpy array) and a list of numpy scalars
        values = [
            3.0, -0.0, 0.0, -2.0, 1e-5, 1.5e-5, 0.0001, 1e12, 1.234567891234e12, 9.99999999999e15,
            123456789012345.6, 1e16, 2.5e17, 5e-324, 1e-310, 0.1 + 0.2, -1 / 3,
            math.nan, math.inf, -math.inf,
        ]
        scalars = [np.float64(v) for v in values]
        table = Table({"x": np.array(values), "y": scalars})
        write_reports(table, tmp_path / "t.csv")
        write_reports(table, tmp_path / "t.jsonl")
        cells = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
        expect = [f"{canonical_value(v):.12g}" if math.isfinite(v) else canonical_value(v) for v in values]
        assert cells == [[e, e] for e in expect]
        lines = (tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines == [canonical_json({"x": v, "y": s}) for v, s in zip(values, scalars)]
        # the same bytes as the records' own write
        records = [{"x": v, "y": s} for v, s in zip(values, scalars)]
        for suffix in ("csv", "jsonl"):
            write_reports(records, tmp_path / f"r.{suffix}")
            assert (tmp_path / f"r.{suffix}").read_bytes() == (tmp_path / f"t.{suffix}").read_bytes()

    def test_string_columns_format_as_each_cell_alone(self, tmp_path):
        # a column of plain str is its own CSV cells; a mixed one (str with
        # None, bool, float or a str subclass, whose CSV cell is its str())
        # is formatted cell by cell; both give the cells of the written rules
        class Tag(str):
            def __str__(self):
                return "tag:" + self

        labels = ["s000", 'a,"b"', "", "s000", "é\n", "null"]
        mixed = ["s000", None, True, 0.1 + 0.2, False, math.nan, -0.0, Tag("x"), "s000", ""]
        csv_cell = {None: "", True: "true", False: "false"}
        for column in (labels, mixed, ["s000", Tag("x")]):
            table = Table({"v": column})
            write_reports(table, tmp_path / "t.csv")
            write_reports(table, tmp_path / "t.jsonl")
            with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
                cells = [row[0] for row in list(csv.reader(fh))[1:]]
            expect = [
                f"{v:.12g}" if isinstance(v, float) else str(v) if isinstance(v, str) else csv_cell[v]
                for v in column
            ]
            assert cells == expect
            lines = (tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines()
            assert lines == [canonical_json({"v": v}) for v in column]

    def test_heterogeneous_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_reports([{"a": 1}, {"b": 2}], tmp_path / "bad.csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_reports(RECORDS, tmp_path / "bad.xml")

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            write_reports(RECORDS, "/proc/definitely/not/writable.csv")

    def test_csv_quoting_of_commas(self, tmp_path):
        path = tmp_path / "q.csv"
        write_reports([{"label": "gamma=1,alpha=2", "v": 1}], path)
        assert '"gamma=1,alpha=2"' in path.read_text()


class TestManifest:
    def test_digest_stability_and_sensitivity(self):
        cfg = {"seed": 1, "verify": {"n_states": 5}}
        assert config_digest(cfg) == config_digest({"verify": {"n_states": 5}, "seed": 1})
        assert config_digest(cfg) != config_digest({"seed": 2, "verify": {"n_states": 5}})

    def test_manifest_fields(self, tmp_path):
        write_manifest({"seed": 3}, tmp_path / "m.json")
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["toolkit_version"]
        assert "bounds" in manifest["module_list"]
        assert manifest["config_digest"] == config_digest({"seed": 3})

    def test_canonical_json_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
