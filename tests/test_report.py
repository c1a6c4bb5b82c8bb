import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieboxford.report import (
    canonical_json,
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
