import csv
import dataclasses
import json
import math

import pytest

from lieboxford import bounds, states
from lieboxford.cli import main


def write_config(tmp_path, **overrides):
    config = {
        "seed": 17,
        "out": str(tmp_path / "out"),
        "verify": {"n_states": 2},
        "moments": {
            "families": ["convex_soft_coulomb"],
            "parameters": [1.0],
            "gamma_span": [1e-3, 1e3],
            "n_gamma": 60,
        },
        "optimize": {
            "potentials": [{"family": "contact", "params": {}}],
            "families": ["equal_gaussian_pair"],
            "budget": 60,
        },
        "hubbard": {
            "n_grid": 40,
            "kappa_grid": 40,
            "n_occupations": 50,
            "t": 1.0,
            "u_over_t": [0.0, 2.0],
        },
        "maximal": {"n_profiles": 4, "p": 2.0, "grid_points": 400},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in config:
            config[key].update(value)
        else:
            config[key] = value
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestExitCodes:
    def test_verify_passes(self, tmp_path, capsys):
        assert main(["verify", "--config", str(write_config(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "out" / "bound_reports.csv").exists()
        assert (tmp_path / "out" / "bound_reports.jsonl").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_verify_rejects_conjectured_bound_in_proven_set(self, tmp_path, capsys):
        cfg = write_config(tmp_path, verify={"n_states": 2, "bounds": ["contact_direct", "rasanen"]})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "conjectured" in capsys.readouterr().err

    def test_verify_rejects_unknown_bound(self, tmp_path):
        cfg = write_config(tmp_path, verify={"n_states": 2, "bounds": ["no_such"]})
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_verify_empty_state_list(self, tmp_path):
        cfg = write_config(tmp_path, verify={"n_states": 0})
        assert main(["verify", "--config", str(cfg)]) == 0
        header = (tmp_path / "out" / "bound_reports.csv").read_text().splitlines()
        assert len(header) == 1  # header-only report

    def test_moments_passes_and_emits_discrepancies(self, tmp_path):
        assert main(["moments", "--config", str(write_config(tmp_path))]) == 0
        ledger = (tmp_path / "out" / "discrepancies.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in ledger]
        ids = {r["id"] for r in records}
        assert "homogeneous_window_quadratic_coefficient" in ids
        assert "convex_soft_coulomb_c2_ambiguity" in ids

    def test_moments_rejects_bare_coulomb(self, tmp_path, capsys):
        cfg = write_config(tmp_path, moments={"families": ["coulomb"], "parameters": [1.0]})
        assert main(["moments", "--config", str(cfg)]) == 2
        assert "diverges" in capsys.readouterr().err

    def test_optimize(self, tmp_path):
        assert main(["optimize", "--config", str(write_config(tmp_path))]) == 0
        assert (tmp_path / "out" / "constant_table.csv").exists()

    def test_hubbard(self, tmp_path, capsys):
        assert main(["hubbard", "--config", str(write_config(tmp_path))]) == 0
        assert "PASS hubbard" in capsys.readouterr().out
        assert (tmp_path / "out" / "hubbard_grid.csv").exists()

    def test_maximal(self, tmp_path, capsys):
        assert main(["maximal", "--config", str(write_config(tmp_path))]) == 0
        assert "PASS maximal" in capsys.readouterr().out

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("verify", {"seed": "x"}),
            ("verify", {"verify": {"n_states": "abc"}}),
            ("verify", {"verify": {"n_states": -3}}),
            ("optimize", {"optimize": {"families": ["nope"]}}),
            ("optimize", {"optimize": {"budget": 10}}),
            ("maximal", {"maximal": {"n_profiles": 0}}),
            ("maximal", {"maximal": {"p": 1}}),
            ("maximal", {"maximal": {"p": "x"}}),
            ("moments", {"moments": {"gamma_span": [1e-3]}}),
            ("moments", {"moments": {"gamma_span": [0, 1]}}),
            ("moments", {"moments": {"parameters": ["a"]}}),
            ("moments", {"moments": {"parameters": [-1.0]}}),
            ("hubbard", {"hubbard": {"u_over_t": ["x"]}}),
            ("hubbard", {"hubbard": {"t": -1}}),
            ("optimize", {"optimize": {"potentials": [1]}}),
            ("optimize", {"optimize": {"potentials": "x"}}),
            ("optimize", {"optimize": {"potentials": 5}}),
            ("optimize", {"optimize": {"potentials": [{"family": "contact", "params": 1}]}}),
            # e_LW(1e308) rounds to the end 0 of [-4/pi, 0]: kappa has no bracket
            ("hubbard", {"hubbard": {"u_over_t": [2.0, 1e308]}}),
            ("hubbard", {"hubbard": {"u_over_t": [math.inf]}}),
            # nan**0 = 1 would pass every profile
            ("maximal", {"maximal": {"p": math.inf}}),
            ("verify", {"tolerance": math.inf}),
            ("moments", {"moments": {"gamma_span": [1e-3, math.inf]}}),
            ("optimize", {"optimize": {"potentials": [{"family": "convex_soft_coulomb", "params": {"epsilon": math.inf}}]}}),
            ("verify", {"verify": {"n_state": 1}}),
            ("verify", {"verfy": {}}),
            ("verify", {"out": 5}),
            # a JSON integer too large for a float
            ("optimize", {"optimize": {"potentials": [{"family": "convex_soft_coulomb", "params": {"epsilon": 10**400}}]}}),
            # booleans and numeric strings are not numbers; counts are integral
            ("maximal", {"maximal": {"n_profiles": True}}),
            ("maximal", {"maximal": {"n_profiles": "2"}}),
            ("maximal", {"maximal": {"n_profiles": 2.5}}),
        ],
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, recwarn, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_out_under_a_regular_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        for out in (tmp_path / "file" / "out", tmp_path / "file"):
            cfg = write_config(tmp_path, out=str(out))
            assert main(["maximal", "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: ")
            # rejected before the command ran: no verdict line was printed
            assert not [line for line in captured.out.splitlines() if line.startswith(("PASS", "FAIL"))]

    def test_reference_violation_keeps_exit_zero(self, tmp_path, monkeypatch, capsys):
        row = dataclasses.replace(bounds.BOUNDS["rasanen"], rhs=lambda profile, spec: 1e9)
        monkeypatch.setitem(bounds.BOUNDS, "rasanen", row)
        cfg = write_config(tmp_path, verify={"n_states": 2, "bounds": ["contact_direct"]})
        assert main(["verify", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "reference_bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(r["state_id"] for r in rows) == ["s000", "s001"]
        assert {r["status"] for r in rows} == {"violated"}
        assert "held on 0/2 states" in capsys.readouterr().out

    def test_maximal_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(states, "maximal_function", lambda profile: profile.scaled(5.0))
        assert main(["maximal", "--config", str(write_config(tmp_path))]) == 1
        with open(tmp_path / "out" / "maximal_ratios.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["status"] for r in rows} == {"fail"}
        assert "FAIL maximal" in capsys.readouterr().out

    def test_optimize_cross_check_violation_exits_one(self, tmp_path, monkeypatch):
        row = dataclasses.replace(bounds.BOUNDS["log_pointwise"], rhs=lambda profile, spec: 1e9)
        monkeypatch.setitem(bounds.BOUNDS, "log_pointwise", row)
        potential = {"family": "convex_soft_coulomb", "params": {"epsilon": 1.0}}
        cfg = write_config(tmp_path, optimize={"potentials": [potential], "budget": 50})
        assert main(["optimize", "--config", str(cfg)]) == 1
        with open(tmp_path / "out" / "constant_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["cross_check_failures"]) > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moment_grid_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, moments={"n_gamma": 2, "gamma_span": [1e-3, 1e300]})
        assert main(["moments", "--config", str(cfg)]) == 1
        with open(tmp_path / "out" / "moment_certifications.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "fail" in {r["status"] for r in rows}
        fitted = [r for r in rows if r["variant"] == "grid_fitted_empirical"]
        assert fitted and "pass" not in {r["status"] for r in fitted}
        assert "Traceback" not in capsys.readouterr().err


class TestDeterminism:
    def test_identical_seed_byte_identical_reports(self, tmp_path):
        cfg_a = write_config(tmp_path / "a", out=str(tmp_path / "a" / "out"))
        cfg_b = write_config(tmp_path / "b", out=str(tmp_path / "b" / "out"))
        assert main(["verify", "--config", str(cfg_a)]) == 0
        assert main(["verify", "--config", str(cfg_b)]) == 0
        for name in ("bound_reports.csv", "bound_reports.jsonl"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            assert a == b

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "o2")]) == 0
        base = (tmp_path / "out") if (tmp_path / "out").exists() else None
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_jobs_flag_gives_same_reports(self, tmp_path):
        cfg_a = write_config(tmp_path / "serial", out=str(tmp_path / "serial" / "out"))
        cfg_b = write_config(tmp_path / "par", out=str(tmp_path / "par" / "out"))
        assert main(["verify", "--config", str(cfg_a)]) == 0
        assert main(["verify", "--config", str(cfg_b), "--jobs", "2"]) == 0
        a = (tmp_path / "serial" / "out" / "bound_reports.csv").read_bytes()
        b = (tmp_path / "par" / "out" / "bound_reports.csv").read_bytes()
        assert a == b
