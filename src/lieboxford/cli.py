"""Command-line front end: verify | moments | optimize | hubbard | maximal.

Each subcommand reads one JSON config (plus flag overrides), validates its
section, runs the corresponding module battery and returns its reports as
``({file name: records}, failures)``; it writes nothing.  ``main`` alone
writes the reports and a run manifest to the output directory and exits 0 on
all-pass, 1 on a violated check, 2 on a configuration error, so a config
error leaves no output behind.  Identical config and seed give
byte-identical report files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import explore as explore_mod
from . import hubbard as hubbard_mod
from . import potentials as potentials_mod
from . import report as report_mod
from .numerics import NoBracket, rng_stream
from .states import (
    DensityProfile,
    UniformGrid,
    maximal_norm_ratio,
    maximal_operator_norm_bound,
    random_state_suite,
)

DEFAULT_CONFIG = {
    "seed": 20240801,
    "out": "reports",
    "tolerance": 1e-6,
    "verify": {"n_states": 200, "bounds": list(bounds_mod.PROVEN_BOUND_IDS)},
    "moments": {
        "families": ["convex_soft_coulomb", "regularized_coulomb"],
        "parameters": [0.1, 1.0, 10.0],
        "gamma_span": [1e-4, 1e4],
        "n_gamma": 200,
    },
    "optimize": {
        "potentials": [{"family": "contact", "params": {}}],
        "families": ["separated_gaussian_pair", "antisymmetric_gaussian_pair", "correlated_pair"],
        "budget": 400,
    },
    "hubbard": {
        "n_grid": 200,
        "kappa_grid": 200,
        "n_occupations": 1000,
        "t": 1.0,
        "u_over_t": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 50.0, 100.0],
    },
    "maximal": {"n_profiles": 100, "p": 2.0, "grid_points": 1024},
}


class ConfigError(ValueError):
    pass


def _number(value, name: str, kind=int, minimum=None, above=None, maximum=None):
    """``kind(value)`` of a JSON number, finite, at least ``minimum``, more than
    ``above`` and at most ``maximum``.

    Booleans and strings are not numbers, and an integer field takes no
    fractional part; anything else is a ConfigError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        number = kind(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if minimum is not None and not number >= minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    if above is not None and not number > above:
        raise ConfigError(f"{name} must be more than {above}, got {value!r}")
    if maximum is not None and not number <= maximum:
        raise ConfigError(f"{name} must be at most {maximum}, got {value!r}")
    return number


def _numbers(value, name: str, kind=float, **limits) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [_number(v, name, kind, **limits) for v in value]


def _names(value, name: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name} must be a list of names, got {value!r}")
    return value


def _check_out(out: Path) -> None:
    """Reject, before any computation, an output directory that cannot be made.

    ``out`` must be a directory if it exists, and so must its nearest existing
    ancestor if it does not; nothing is created here.
    """
    probe = out
    while not probe.exists() and probe != probe.parent:
        probe = probe.parent
    if probe.exists() and not probe.is_dir():
        raise ConfigError(f"cannot write reports to {out}: {probe} is not a directory")


def _load_config(path: str | None) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        for key, value in user.items():
            if key not in config:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(config[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be a JSON object")
                unknown = sorted(set(value) - set(config[key]))
                if unknown:
                    raise ConfigError(f"unknown keys {unknown} in config section {key!r}")
                config[key].update(value)
            else:
                config[key] = value
    return config


def cmd_verify(config, jobs: int = 1) -> tuple[dict, int]:
    section = config["verify"]
    requested = _names(section["bounds"], "verify.bounds")
    unknown = [b for b in requested if b not in bounds_mod.BOUNDS]
    if unknown:
        raise ConfigError(f"unknown bounds in config: {unknown}")
    conjectured = [b for b in requested if not bounds_mod.BOUNDS[b].proven]
    if conjectured:
        raise ConfigError(
            f"conjectured bounds {conjectured} cannot join the verification suite "
            "(verify reports them in reference_bounds.csv instead)"
        )
    n_states = _number(section["n_states"], "verify.n_states", minimum=0, maximum=20_000)
    states = random_state_suite(n_states, config["seed"])
    # the conjectured forms ride along for reference only; their status never
    # enters the exit code
    specs = [s for s in bounds_mod.bound_specs() if s.bound_id in requested or not s.proven]
    tol = config["tolerance"]

    # one worker per chunk, never more workers than states or usable CPUs
    # (the affinity mask where the platform has one)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(states), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import

        chunks = [states[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            run = functools.partial(bounds_mod.run_suite, specs=specs, tol_scale=tol)
            everything = report_mod.Table.concat(list(pool.map(run, chunks)))
        # each part is in REPORT_ORDER, so a stable sort by state restores it
        everything = everything.take(np.argsort(everything.columns["state_id"], kind="stable"))
    else:
        everything = bounds_mod.run_suite(states, specs, tol_scale=tol)
    proven = np.isin(everything.columns["bound_id"], bounds_mod.PROVEN_BOUND_IDS)
    reports = everything.take(np.flatnonzero(proven))
    ref_reports = everything.take(np.flatnonzero(~proven))

    failures = 0
    for bound_id, rows, holds in _by_bound(reports):
        failures += len(rows) - int(holds.sum())
        slack = reports.columns["slack"][rows]
        worst = int(np.argmin(slack))  # the first of the least, in row order
        print(
            f"{'PASS' if holds.all() else 'FAIL'} {bound_id}: {len(rows)} checks, "
            f"min slack {slack[worst]:.3e} ({reports.columns['state_id'][rows[worst]]})"
        )
    for bound_id, rows, holds in _by_bound(ref_reports):
        print(
            f"NOTE {bound_id} (conjectured, reference only): held on "
            f"{int(holds.sum())}/{len(rows)} states"
        )
    return {
        "bound_reports.csv": reports,
        "bound_reports.jsonl": reports,
        "reference_bounds.csv": ref_reports,
    }, failures


def _by_bound(table):
    """(bound_id, its row indices, whether each of those rows holds) per bound id of the table, sorted."""
    bound_ids = np.array(table.columns["bound_id"], dtype=str)
    holds = np.array(table.columns["status"]) == "holds"
    for bound_id in sorted(set(table.columns["bound_id"])):
        rows = np.flatnonzero(bound_ids == bound_id)
        yield bound_id, rows, holds[rows]


def cmd_moments(config) -> tuple[dict, int]:
    section = config["moments"]
    span = _numbers(section["gamma_span"], "moments.gamma_span", above=0.0)
    if len(span) != 2:
        raise ConfigError(f"moments.gamma_span must be [lo, hi], got {span!r}")
    n_gamma = _number(section["n_gamma"], "moments.n_gamma", minimum=1, maximum=20_000)
    parameters = _numbers(section["parameters"], "moments.parameters")
    rows = []
    for family in _names(section["families"], "moments.families"):
        if family == "contact":
            raise ConfigError("moments.families: the contact potential has no curvature moments to certify")
        # unknown families (bare Coulomb included) get their error from from_config
        names = potentials_mod._FAMILY_MAP.get(family, (None, ()))[1]
        for param in parameters:
            pot = potentials_mod.from_config({"family": family, "params": dict.fromkeys(names, param)})
            try:
                grid = potentials_mod.default_gamma_grid(pot, n_gamma, span)
            except ValueError as err:
                raise ConfigError(f"moments.gamma_span: {err}") from None
            rows.extend(potentials_mod.certify_moment_bounds(pot, grid))
    failures = sum(row["status"] == "fail" for row in rows)
    for row in rows:
        print(f"{row['status'].upper():4s} {row['potential']} {row['variant']}")
    return {
        "moment_certifications.csv": rows,
        "discrepancies.jsonl": bounds_mod.discrepancy_records(),
    }, failures


def cmd_optimize(config) -> tuple[dict, int]:
    section = config["optimize"]
    families = _names(section["families"], "optimize.families")
    unknown = [f for f in families if f not in explore_mod.TEMPLATES]
    if unknown:
        raise ConfigError(f"unknown optimize families: {unknown}")
    budget = _number(section["budget"], "optimize.budget", minimum=explore_mod.MIN_BUDGET, maximum=40_000)
    entries = section["potentials"]
    if not isinstance(entries, list):
        raise ConfigError(f"optimize.potentials must be a list of objects, got {entries!r}")
    potentials = [potentials_mod.from_config(entry) for entry in entries]
    rows = explore_mod.constant_table(potentials, families, budget, config["seed"], config["tolerance"])
    failures = sum(row["cross_check_failures"] for row in rows)
    for row in rows:
        status = "FAIL" if row["cross_check_failures"] else "PASS"
        print(f"{status} {row['potential']:32s} {row['family']:28s} ratio {row['best_ratio']:.6f}")
    return {"constant_table.csv": rows, "constant_table.jsonl": rows}, failures


def cmd_hubbard(config) -> tuple[dict, int]:
    section = config["hubbard"]
    t = _number(section["t"], "hubbard.t", float, above=0.0)
    ratios = _numbers(section["u_over_t"], "hubbard.u_over_t", minimum=0.0)
    n_occupations = _number(section["n_occupations"], "hubbard.n_occupations", minimum=0, maximum=100_000)
    n_vals = np.linspace(0.0, 1.0, _number(section["n_grid"], "hubbard.n_grid", minimum=1, maximum=20_000))
    k_vals = np.linspace(1.0, 2.0, _number(section["kappa_grid"], "hubbard.kappa_grid", minimum=1, maximum=20_000))
    kappas = []
    for ratio in ratios:
        try:
            kappas.append(hubbard_mod.kappa_of_u(ratio))
        except NoBracket as err:
            # e_LW(U/t) is within rounding of 0 beyond U/t ~ 3.6e16, where
            # kappa(U/t) -> 1 cannot be resolved in double precision
            raise ConfigError(f"hubbard.u_over_t value {ratio!r} is too large: {err}") from None
    min_f = hubbard_mod.min_excess_factor(n_vals, k_vals)

    rows = []
    n_row = np.linspace(0.0, 1.0, 21)
    for ratio, kappa in zip(ratios, kappas):
        u = ratio * t
        e_xc = hubbard_mod.exchange_correlation(n_row, t, u, kappa)
        for n, f, e, xc, slack in zip(
            n_row.tolist(),
            hubbard_mod.energy_excess_factor(n_row, kappa).tolist(),
            hubbard_mod.energy_per_site(n_row, t, u, kappa).tolist(),
            e_xc.tolist(),
            (e_xc + u * n_row**2 / 4.0).tolist(),
        ):
            rows.append({"n": n, "kappa": kappa, "f": f, "e": e, "e_xc": xc, "slack": slack})

    min_slack, failures = hubbard_mod.occupation_sweep(rng_stream(config["seed"], 7), n_occupations, t)

    checks = {
        "min_f": min_f,
        "f_at_kappa_2": float(np.max(np.abs(hubbard_mod.energy_excess_factor(n_vals, 2.0)))),
        "half_filled_free_energy_error": abs(
            float(hubbard_mod.energy_per_site(1.0, t, 0.0, 2.0)) + 4 * t / math.pi
        ),
        "min_occupation_slack": min_slack,
    }
    ok = min_f >= -1e-12 and not failures and checks["f_at_kappa_2"] == 0.0
    print(f"{'PASS' if ok else 'FAIL'} hubbard: min f {min_f:.3e}, min slack {min_slack:.3e}")
    return {"hubbard_grid.csv": rows, "hubbard_checks.jsonl": [checks]}, int(not ok)


def cmd_maximal(config) -> tuple[dict, int]:
    section = config["maximal"]
    # the maximal operator is bounded on L^p for p > 1 only
    p = _number(section["p"], "maximal.p", float, above=1.0)
    n_pts = _number(section["grid_points"], "maximal.grid_points", minimum=2, maximum=1 << 17)
    n_profiles = _number(section["n_profiles"], "maximal.n_profiles", minimum=1, maximum=10_000)
    bound = maximal_operator_norm_bound(p)
    rng = rng_stream(config["seed"], 3)
    rows, failures = [], 0
    for k in range(n_profiles):
        grid = UniformGrid(-10.0, 20.0 / (n_pts - 1), n_pts)
        bumps = sum(
            a * np.exp(-((grid.x - c) ** 2) / (2 * w**2))
            for a, c, w in zip(rng.uniform(0.1, 3, 4), rng.uniform(-6, 6, 4), rng.uniform(0.2, 2, 4))
        )
        prof = DensityProfile(grid, bumps, float(np.trapezoid(bumps, dx=grid.dx)))
        ratio = maximal_norm_ratio(prof, p)
        ok = ratio <= bound
        failures += not ok
        rows.append(
            {
                "profile_id": f"p{k:03d}",
                "p": p,
                "ratio": ratio,
                "bound": bound,
                "status": "pass" if ok else "fail",
            }
        )
    worst = max(r["ratio"] for r in rows)
    print(f"{'FAIL' if failures else 'PASS'} maximal: {len(rows)} profiles, max ratio {worst:.4f}, bound {bound:.4f}")
    return {"maximal_ratios.csv": rows}, failures


_COMMANDS = {
    "verify": cmd_verify,
    "moments": cmd_moments,
    "optimize": cmd_optimize,
    "hubbard": cmd_hubbard,
    "maximal": cmd_maximal,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lieboxford",
        description="Verification toolkit for one-dimensional Lieb-Oxford bounds",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for verify")
    parser.add_argument("--tolerance", type=float, default=None, help="relative slack tolerance")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        config["seed"] = _number(config["seed"], "seed", minimum=0)
        if args.out is not None:
            config["out"] = args.out
        if args.tolerance is not None:
            config["tolerance"] = args.tolerance
        config["tolerance"] = _number(config["tolerance"], "tolerance", float, minimum=0.0)
        if not isinstance(config["out"], str):
            raise ConfigError(f"out must be a directory name, got {config['out']!r}")
        out = Path(config["out"])
        _check_out(out)
        if args.command == "verify":
            files, failures = cmd_verify(config, jobs=max(1, args.jobs))
        else:
            files, failures = _COMMANDS[args.command](config)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, records in files.items():
                report_mod.write_reports(records, out / name)
            report_mod.write_manifest(config, out / "manifest.json")
        except OSError as err:
            raise ConfigError(f"cannot write reports to {out}: {err}") from None
    except (ConfigError, potentials_mod.UnsupportedPotential) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(f"wrote {len(files)} report files to {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
