import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lieboxford
from lieboxford import bounds, cli, explore, report, states
from lieboxford.cli import main
from oracles import scaled_profile


SUBNORMAL_MAX = math.nextafter(sys.float_info.min, 0.0)


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

    def test_hubbard_without_occupation_cases(self, tmp_path):
        cfg = write_config(tmp_path, hubbard={"n_occupations": 0})
        assert main(["hubbard", "--config", str(cfg)]) == 0

    def test_maximal(self, tmp_path, capsys):
        assert main(["maximal", "--config", str(write_config(tmp_path))]) == 0
        assert "PASS maximal" in capsys.readouterr().out

    def test_maximal_at_large_p(self, tmp_path, capsys):
        # rho^p of a density above 1 overflows at p = 1000; the ratio is near 1, M_p near 2
        cfg = write_config(tmp_path, maximal={"n_profiles": 3, "p": 1000})
        assert main(["maximal", "--config", str(cfg)]) == 0
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
            # every command validates the tolerance, used or not
            ("optimize", {"tolerance": "x"}),
            ("optimize", {"tolerance": -1.0}),
            ("maximal", {"tolerance": "x"}),
            ("hubbard", {"tolerance": -1.0}),
            ("moments", {"tolerance": math.inf}),
            # a potential parameter is a number too: float() would read 1.0 and 0.5
            ("optimize", {"optimize": {"potentials": [{"family": "soft_coulomb", "params": {"epsilon": True}}]}}),
            ("optimize", {"optimize": {"potentials": [{"family": "soft_coulomb", "params": {"epsilon": "0.5"}}]}}),
            # a family is a name: a list or an object is not looked up
            ("optimize", {"optimize": {"potentials": [{"family": ["soft_coulomb"], "params": {}}]}}),
            ("optimize", {"optimize": {"potentials": [{"family": {"name": "contact"}, "params": {}}]}}),
            # the contact potential has no curvature moments
            ("moments", {"moments": {"families": ["contact"]}}),
            ("moments", {"moments": {"families": ["convex_soft_coulomb", "contact"]}}),
            # every count has a maximum, checked before anything is built:
            # above it a run would raise, exhaust memory or run for hours
            ("verify", {"verify": {"n_states": 20_001}}),
            ("verify", {"verify": {"n_states": 1e300}}),
            ("optimize", {"optimize": {"budget": 40_001}}),
            ("optimize", {"optimize": {"budget": 2**53 + 1}}),
            ("moments", {"moments": {"n_gamma": 20_001}}),
            ("moments", {"moments": {"n_gamma": 1e16}}),
            ("hubbard", {"hubbard": {"n_grid": 20_001}}),
            ("hubbard", {"hubbard": {"n_grid": 1e300}}),
            ("hubbard", {"hubbard": {"kappa_grid": 20_001}}),
            ("hubbard", {"hubbard": {"n_occupations": 100_001}}),
            ("hubbard", {"hubbard": {"n_occupations": 2**53 + 1}}),
            ("maximal", {"maximal": {"n_profiles": 10_001}}),
            ("maximal", {"maximal": {"n_profiles": 2**53 + 1}}),
            ("maximal", {"maximal": {"grid_points": (1 << 17) + 1}}),
            # a subnormal potential parameter is out of range: its integrals are not finite
            ("optimize", {"optimize": {"potentials": [{"family": "soft_coulomb", "params": {"epsilon": 1e-310}}]}}),
            ("optimize", {"optimize": {"potentials": [{"family": "convex_soft_coulomb", "params": {"epsilon": 1e-310}}]}}),
            ("optimize", {"optimize": {"potentials": [{"family": "regularized_coulomb", "params": {"beta": 1e-310}}]}}),
            ("optimize", {"optimize": {"potentials": [{"family": "homogeneous", "params": {"epsilon": 1e-310}}]}}),
            ("optimize", {"optimize": {"potentials": [{"family": "soft_coulomb", "params": {"epsilon": 5e-324}}]}}),
            ("optimize", {"optimize": {"potentials": [{"family": "soft_coulomb", "params": {"epsilon": SUBNORMAL_MAX}}]}}),
            ("moments", {"moments": {"parameters": [1e-310]}}),
        ],
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, recwarn, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_smallest_normal_potential_parameter_runs(self, tmp_path, capsys):
        entry = {"family": "soft_coulomb", "params": {"epsilon": sys.float_info.min}}
        cfg = write_config(tmp_path, optimize={"potentials": [entry]})
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_malformed_tolerance_flag_is_a_config_error(self, tmp_path, capsys):
        assert main(["hubbard", "--tolerance", "-1", "--config", str(write_config(tmp_path))]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

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
        monkeypatch.setattr(states, "maximal_function", lambda profile: scaled_profile(profile, 5.0))
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

    def test_optimize_hands_its_tolerance_to_every_cross_check(self, tmp_path, monkeypatch):
        seen = []

        def recorded(*args, tol_scale, **kwargs):
            seen.append(tol_scale)
            return bounds.verify_bound(*args, tol_scale=tol_scale, **kwargs)

        monkeypatch.setattr(explore, "verify_bound", recorded)
        potential = {"family": "convex_soft_coulomb", "params": {"epsilon": 1.0}}
        cfg = write_config(tmp_path, optimize={"potentials": [potential], "budget": 50})
        assert main(["optimize", "--config", str(cfg), "--tolerance", "1e-3"]) == 0
        assert seen
        assert set(seen) == {1e-3}

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

    def test_tiny_moment_grid_passes(self, tmp_path, capsys):
        # the second moment is O(gamma^3) or smaller here, far below its by-parts terms
        families = ["convex_soft_coulomb", "regularized_coulomb"]
        cfg = write_config(
            tmp_path, moments={"families": families, "n_gamma": 20, "gamma_span": [1e-12, 1e-8]}
        )
        assert main(["moments", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_underflowing_moment_grid_fails(self, tmp_path, capsys):
        # the second moment underflows to 0, so the fitted c1 is 0 and its rows fail
        families = ["convex_soft_coulomb", "regularized_coulomb"]
        cfg = write_config(
            tmp_path, moments={"families": families, "n_gamma": 20, "gamma_span": [1e-300, 1e-200]}
        )
        assert main(["moments", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "moment_certifications.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fitted = [r for r in rows if r["variant"] == "grid_fitted_empirical"]
        assert len(fitted) == 2
        assert all(r["status"] == "fail" and r["max_rel_violation"] == "nan" for r in fitted)
        assert {r["status"] for r in rows if r not in fitted} == {"pass"}

    def test_extreme_length_scales_fail_quietly(self, tmp_path, capsys):
        # 1e-300: the squares in v' and v'' underflow to 0; 1e300: r^2 v'' overflows
        cfg = write_config(tmp_path, moments={"parameters": [1e-300, 1e300]})
        assert main(["moments", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ""

    def test_huge_beta_fails_quietly(self, tmp_path, capsys):
        # beta**2 and beta**3 overflow to inf, so v' and v'' are 0 and the rows fail
        cfg = write_config(tmp_path, moments={"families": ["regularized_coulomb"], "parameters": [1e300]})
        assert main(["moments", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "moment_certifications.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 and {r["status"] for r in rows} == {"fail"}

    @pytest.mark.parametrize(
        "parameter, span, end",
        [(1e-100, [1e-300, 1.0], r"\[0, "), (1e10, [1e-3, 1e300], r", inf\]")],
        ids=["underflow", "overflow"],
    )
    def test_gamma_span_end_outside_the_doubles(self, tmp_path, capsys, parameter, span, end):
        moments = {"families": ["convex_soft_coulomb"], "parameters": [parameter], "gamma_span": span}
        cfg = write_config(tmp_path, moments=moments)
        assert main(["moments", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: moments.gamma_span")
        assert f"convex_soft_coulomb(epsilon={parameter:g})" in err
        assert re.search(end, err)
        assert not (tmp_path / "out").exists()


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


class TestJobs:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool by one that records max_workers and maps in this process."""
        created = []

        class InProcessPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        # cmd_verify imports the pool class when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        # many usable CPUs, whatever this host has, unless a test says otherwise
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        return created

    def test_pool_never_exceeds_the_states(self, tmp_path, pools):
        cfg_a = write_config(tmp_path / "serial", out=str(tmp_path / "serial" / "out"))
        cfg_b = write_config(tmp_path / "par", out=str(tmp_path / "par" / "out"))
        assert main(["verify", "--config", str(cfg_a)]) == 0
        assert pools == []
        assert main(["verify", "--config", str(cfg_b), "--jobs", "500"]) == 0
        assert pools == [2]  # two states, two workers
        a = (tmp_path / "serial" / "out" / "bound_reports.csv").read_bytes()
        b = (tmp_path / "par" / "out" / "bound_reports.csv").read_bytes()
        assert a == b


    @pytest.mark.parametrize("cpus, workers", [(3, [3]), (1, [])])
    def test_pool_never_exceeds_the_usable_cpus(self, tmp_path, monkeypatch, pools, cpus, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write_config(tmp_path, verify={"n_states": 5})
        assert main(["verify", "--config", str(cfg), "--jobs", "5000"]) == 0
        assert pools == workers

    def test_pool_reads_the_cpu_count_without_an_affinity_mask(self, tmp_path, monkeypatch, pools):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = write_config(tmp_path, verify={"n_states": 5})
        assert main(["verify", "--config", str(cfg), "--jobs", "5000"]) == 0
        assert pools == [2]


class TestVerifySummary:
    def test_each_bound_line_names_its_tightest_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, verify={"n_states": 4})
        assert main(["verify", "--config", str(cfg)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        with open(tmp_path / "out" / "bound_reports.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        bound_ids = sorted({r["bound_id"] for r in records})
        assert len(lines) == len(bound_ids)
        for line, bound_id in zip(lines, bound_ids):
            worst = min((r for r in records if r["bound_id"] == bound_id), key=lambda r: r["slack"])
            assert line.startswith(f"PASS {bound_id}: ")
            assert line.endswith(f"min slack {worst['slack']:.3e} ({worst['state_id']})")


def _package_env():
    src = str(Path(lieboxford.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cold_start_loads_no_scipy():
    # the package carries its own erfcx, J0, J1 and Fermi weight; scipy's
    # import was most of the set-up time and ~19 MB of resident memory
    probe = "import sys, lieboxford.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_every_battery_runs_without_scipy(tmp_path):
    # a meta-path hook makes any scipy import raise inside the child
    cfg = write_config(
        tmp_path,
        moments={"families": ["convex_soft_coulomb", "regularized_coulomb"], "n_gamma": 20},
        maximal={"n_profiles": 2},
    )
    probe = f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
from lieboxford.cli import main

codes = [main([cmd, "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r} + "/" + cmd])
         for cmd in ("verify", "moments", "hubbard", "maximal")]
print(codes)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0]"


def test_runs_load_neither_numpy_random_nor_hashlib(tmp_path):
    # the seeded streams are the package's PCG64 port and the manifest's
    # SHA-256 is the interpreter's own, so a run loads neither numpy.random
    # (its extension modules, and secrets -> hmac -> hashlib) nor OpenSSL
    cfg = write_config(tmp_path)
    commands = ("moments", "hubbard", "maximal", "optimize")
    probe = f"""
import sys
from lieboxford import cli

codes = [cli.main([cmd, "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r} + "/" + cmd]) for cmd in {commands!r}]
print(codes, sorted(m for m in ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib") if m in sys.modules))
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] []"
    for cmd in commands:
        config = cli._load_config(str(cfg))
        config["out"] = str(tmp_path / cmd)
        digest = hashlib.sha256(report.canonical_json(config).encode("utf-8")).hexdigest()
        assert json.loads((tmp_path / cmd / "manifest.json").read_text())["config_digest"] == digest


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_default_maximal_run_takes_few_page_faults(tmp_path):
    # measured with a bytecode cache: compiling from source frees large
    # mapped blocks, which raises glibc's heap trim threshold and hides a
    # heap top that is trimmed and faulted in again between blocks, so the
    # first run compiles every module it imports into a temporary cache and
    # the second, which reads it, is counted.  The default run takes a few
    # hundred minor page faults after its first profile; block temporaries
    # freed at every step took 15-25 thousand
    probe = """
import resource
import sys
from lieboxford import cli

faults = []
ratio = cli.maximal_norm_ratio

def counted(profile, p):
    value = ratio(profile, p)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return value

cli.maximal_norm_ratio = counted
code = cli.main(["maximal", "--out", sys.argv[1]])
print(code, len(faults), faults[-1] - faults[0])
"""
    env = dict(_package_env(), PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for run in ("compiles", "cached"):
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / run)], env=env, capture_output=True, text=True, check=True
        )
    assert any((tmp_path / "pycache").rglob("states*.pyc"))
    code, profiles, faults = map(int, out.stdout.strip().splitlines()[-1].split())
    assert (code, profiles) == (0, 100)
    assert faults < 1000  # after the first profile
