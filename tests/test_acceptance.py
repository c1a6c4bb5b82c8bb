"""Acceptance battery: one test per criterion, one PASS line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the criterion lines
as they complete.  The soundness suite (criterion 1) is computed once and
shared with the saturation check (criterion 2).
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.special

from lieboxford.bounds import proven_bound_specs, run_suite
from lieboxford.cli import main as cli_main
from lieboxford.explore import SearchProblem, maximize_ratio, template_by_name
from lieboxford.hubbard import (
    HubbardPoint,
    OccupationVector,
    energy_excess_factor,
    energy_per_site,
    kappa_of_u,
    verify_site_occupation_bound,
)
from lieboxford.numerics import Interval, integrate_1d, rng_stream
from lieboxford.potentials import (
    ConvexSoftCoulomb,
    Homogeneous,
    MomentBoundConstants,
    RegularizedCoulomb,
    SoftCoulomb,
    certified_constants,
    certify_moment_bounds,
)
from lieboxford.states import (
    DensityProfile,
    UniformGrid,
    maximal_norm_ratio,
    random_state_suite,
)
from oracles import erfcx_sandwich, integrate_1d_components

SUITE_SEED = 20240801
N_SUITE_STATES = 200


def _report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}", flush=True)


@pytest.fixture(scope="module")
def soundness():
    states = random_state_suite(N_SUITE_STATES, SUITE_SEED)
    start = time.time()
    reports = run_suite(states, proven_bound_specs(), tol_scale=1e-6)
    elapsed = time.time() - start
    return states, reports, elapsed


def test_criterion_1_soundness_suite(soundness):
    states, reports, elapsed = soundness
    assert len(states) == N_SUITE_STATES
    by_bound = {}
    for r in reports:
        by_bound.setdefault(r.bound_id, []).append(r)
    assert set(by_bound) == {
        "contact_direct", "cauchy_schwarz", "maximal_cs", "moment_split",
        "log_pointwise", "log_global", "lifted", "lundholm", "homogeneous_window",
    }
    violations = [r for r in reports if not r.holds]
    assert violations == []
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s, target < 5 min"
    _report(
        1,
        f"{len(reports)} checks over {N_SUITE_STATES} states, 0 violations, "
        f"{elapsed:.0f}s",
    )


def test_criterion_2_contact_saturation(soundness):
    states, reports, _ = soundness
    anti_ids = {
        sid
        for sid, s in states
        if s.n_particles == 2 and s.symmetry == "antisymmetric"
    }
    assert len(anti_ids) >= 20
    checked = 0
    for r in reports:
        if r.bound_id == "contact_direct" and r.state_id in anti_ids:
            # slack = I_xc - (-(1/2) int rho^2) = I_xc + (1/2) int rho^2
            assert abs(r.slack) <= 1e-8, f"{r.state_id}: |slack| = {abs(r.slack):.2e}"
            checked += 1
    assert checked == len(anti_ids)
    _report(2, f"saturation |I_xc + (1/2) int rho^2| <= 1e-8 on {checked} antisymmetric pairs")


def test_criterion_3_moment_closed_forms():
    p = Homogeneous(0.5)
    assert p.second_moment(1.0) == pytest.approx(1.5, rel=1e-12)
    assert p.first_moment_tail(1.0) == pytest.approx(1.5, rel=1e-12)

    rng = rng_stream(SUITE_SEED, 31)
    makers = [ConvexSoftCoulomb, RegularizedCoulomb, SoftCoulomb, Homogeneous]
    for trial in range(50):
        cls = makers[int(rng.integers(len(makers)))]
        param = (
            float(rng.uniform(0.15, 0.85)) if cls is Homogeneous else float(rng.uniform(0.3, 2.5))
        )
        pot = cls(param)
        gamma = float(10 ** rng.uniform(-1.0, 1.0))
        second = integrate_1d(lambda r: pot.deriv2(r) * r * r, Interval(0.0, gamma))
        tail = integrate_1d_components(lambda r: pot.deriv2(r) * r, (gamma, math.inf))
        assert pot.second_moment(gamma) == pytest.approx(second, rel=1e-8, abs=1e-10)
        assert pot.first_moment_tail(gamma) == pytest.approx(tail, rel=1e-8, abs=1e-10)
    _report(3, "closed forms match quadrature to 1e-8 over 50 random triples; anchors 3/2, 3/2")


def test_criterion_4_moment_certification():
    grid_span = (1e-4, 1e4)
    for eps in (0.1, 1.0, 10.0):
        p = ConvexSoftCoulomb(eps)
        primary = certified_constants(p)["primary"]
        assert primary.c1 == 2.0 and primary.c3 == 2.0
        assert primary.c2 == pytest.approx(math.sqrt(2.0) / eps)
        assert certify_moment_bounds(p, primary, np.geomspace(*grid_span, 200) * eps).passed
    for beta in (0.1, 1.0, 10.0):
        p = RegularizedCoulomb(beta)
        primary = certified_constants(p)["primary"]
        assert primary.c1 == 4.0 and primary.c3 == 4.0
        assert primary.c2 == pytest.approx(math.sqrt(math.pi) / (4 * beta))
        grid = np.geomspace(*grid_span, 200) * beta
        assert certify_moment_bounds(p, primary, grid).passed
        tight = MomentBoundConstants(primary.c1, primary.c2, 3.0)
        assert certify_moment_bounds(p, tight, grid).passed
    _report(4, "constants (2, sqrt2/eps, 2) and (4, sqrt(pi)/4beta, 4) certified; tail constant 3 too")


def test_criterion_5_erfcx_sandwich():
    x = np.concatenate([[0.0], np.geomspace(1e-6, 50.0, 499)])
    assert len(x) == 500
    lo, hi = erfcx_sandwich(x)
    val = scipy.special.erfcx(x)
    assert np.all(val >= lo)
    assert np.all(val <= hi)
    assert abs(hi[0] - val[0]) <= 1e-12  # equality of the upper bound at x = 0
    _report(5, "two-sided erfcx bound on 500 log-spaced points; upper bound tight at 0")


def test_criterion_6_maximal_operator():
    rng = rng_stream(SUITE_SEED, 33)
    worst = 0.0
    for _ in range(100):
        grid = UniformGrid(-10.0, 20.0 / 1023, 1024)
        bumps = sum(
            a * np.exp(-((grid.x - c) ** 2) / (2 * w**2))
            for a, c, w in zip(rng.uniform(0.1, 3, 4), rng.uniform(-6, 6, 4), rng.uniform(0.2, 2, 4))
        )
        prof = DensityProfile(grid, bumps, float(np.trapezoid(bumps, dx=grid.dx)))
        worst = max(worst, maximal_norm_ratio(prof, 2.0))
    assert worst <= 4.0

    dx = 5e-3
    span = 400.0
    n = int(round((2 * span + 1) / dx)) + 1
    grid = UniformGrid(-span, dx, n)
    vals = ((grid.x >= -1e-12) & (grid.x <= 1 + 1e-12)).astype(float)
    indicator = DensityProfile(grid, vals, 1.0)
    ratio = maximal_norm_ratio(indicator, 2.0)
    assert ratio == pytest.approx(math.sqrt(1.5), abs=1e-3)

    # M_2^2 = 16 is exactly the gap between the two Cauchy-Schwarz routes
    from lieboxford.bounds import rhs_cauchy_schwarz, rhs_maximal_cs
    from lieboxford.potentials import ApproxContact

    prof = DensityProfile(UniformGrid(0.0, 1e-3, 1001), np.full(1001, 2.0), 2.0, square_integral=4.0)
    assert rhs_cauchy_schwarz(prof, ApproxContact(0.5)) / rhs_maximal_cs(prof, ApproxContact(0.5)) == 1 / 16
    _report(
        6,
        f"max L2 ratio {worst:.4f} <= 4 over 100 profiles; indicator ratio "
        f"{ratio:.6f} = sqrt(1.5) +/- 1e-3; route gap exactly 16",
    )


def test_criterion_7_optimizer_reaches_saturation():
    from lieboxford.potentials import Contact

    problem = SearchProblem(Contact(), template_by_name("separated_gaussian_pair"), 2000)
    first = maximize_ratio(problem, seed=SUITE_SEED)
    second = maximize_ratio(problem, seed=SUITE_SEED)
    assert first.best_ratio >= 0.49
    assert first.evaluations_used <= 2000
    assert first.best_theta == second.best_theta
    assert first.trace == second.trace
    _report(
        7,
        f"contact search ratio {first.best_ratio:.4f} >= 0.49 in "
        f"{first.evaluations_used} evaluations, deterministic per seed",
    )


def test_criterion_8_hubbard():
    n_vals = np.linspace(0.0, 1.0, 200)
    k_vals = np.linspace(1.0, 2.0, 200)
    f_grid = energy_excess_factor(n_vals[:, None], k_vals[None, :])
    assert float(np.min(f_grid)) >= -1e-12
    assert np.all(energy_excess_factor(n_vals, 2.0) == 0.0)

    rng = rng_stream(SUITE_SEED, 35)
    min_slack = math.inf
    for _ in range(10_000):
        occ = OccupationVector(tuple(rng.uniform(0, 2, size=int(rng.integers(1, 13)))))
        rep = verify_site_occupation_bound(
            occ, 1.0, float(rng.uniform(0, 8)), float(rng.uniform(1, 2))
        )
        min_slack = min(min_slack, rep["slack"])
        assert rep["holds"]
    assert min_slack >= -1e-10

    for t in (0.7, 1.0, 2.3):
        assert energy_per_site(HubbardPoint(1.0, t, 0.0, 2.0)) == pytest.approx(
            -4 * t / math.pi, rel=1e-12
        )
    u, t, kappa = 2.5, 1.0, kappa_of_u(2.5)
    for n in np.linspace(1.0, 2.0, 41):
        delta = energy_per_site(HubbardPoint(float(n), t, u, kappa)) - energy_per_site(
            HubbardPoint(float(2 - n), t, u, kappa)
        )
        assert delta == pytest.approx(u * (n - 1), abs=1e-12)
    _report(
        8,
        f"min f on 200x200 grid {float(np.min(f_grid)):.1e} >= -1e-12; "
        f"10^4 occupation checks min slack {min_slack:.2e}; energy anchors to 1e-12",
    )


def test_criterion_9_discrepancy_ledger(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 5,
                "out": str(tmp_path / "out"),
                "moments": {
                    "families": ["convex_soft_coulomb", "regularized_coulomb"],
                    "parameters": [0.1, 1.0, 10.0],
                    "gamma_span": [1e-4, 1e4],
                    "n_gamma": 200,
                },
            }
        )
    )
    assert cli_main(["moments", "--config", str(config)]) == 0

    ledger = [
        json.loads(line)
        for line in (tmp_path / "out" / "discrepancies.jsonl").read_text().splitlines()
    ]
    window = [r for r in ledger if r["id"] == "homogeneous_window_quadratic_coefficient"]
    amb = [r for r in ledger if r["id"] == "convex_soft_coulomb_c2_ambiguity"]
    assert window and amb
    half = [r for r in window if r["parameter"] == 0.5][0]
    assert half["value_a"] == pytest.approx(-0.5)   # published 1/eps + eps - 3
    assert half["value_b"] == pytest.approx(0.75)   # computed 1/eps + (eps-3)/2
    assert half["verified"] == "value_b"

    # both c2 alternates certified where valid
    rows = (tmp_path / "out" / "moment_certifications.csv").read_text().splitlines()
    assert any("secondary_c2" in row and ",pass," in row for row in rows)
    assert any("tight_c3" in row and ",pass," in row for row in rows)
    _report(9, "cmd_moments emits both discrepancies machine-readably; alternates certified")


def test_criterion_10_byte_determinism(tmp_path):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        config = tmp_path / f"{run}.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 424242,
                    "out": str(out),
                    "verify": {"n_states": 6},
                    "hubbard": {
                        "n_grid": 50,
                        "kappa_grid": 50,
                        "n_occupations": 200,
                        "t": 1.0,
                        "u_over_t": [0.0, 1.0, 8.0],
                    },
                }
            )
        )
        assert cli_main(["verify", "--config", str(config)]) == 0
        assert cli_main(["hubbard", "--config", str(config)]) == 0
        outputs.append(
            {
                name: (out / name).read_bytes()
                for name in ("bound_reports.csv", "bound_reports.jsonl", "hubbard_grid.csv")
            }
        )
    assert outputs[0] == outputs[1]
    _report(10, "byte-identical report files across repeated runs with identical config and seed")
