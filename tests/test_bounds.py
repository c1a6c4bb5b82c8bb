import math

import numpy as np
import pytest
from hypothesis import given, settings

from lieboxford import bounds
from lieboxford.bounds import (
    BOUNDS,
    PROVEN_BOUND_IDS,
    REPORT_ORDER,
    BoundSpec,
    IncompatibleSpec,
    StateFunctionals,
    default_suite_potentials,
    discrepancy_records,
    floor_settles,
    homogeneous_window_coefficients,
    lundholm_coefficient,
    proven_bound_specs,
    rhs_cauchy_schwarz,
    rhs_contact_direct,
    rhs_lifted,
    rhs_log_global,
    rhs_log_pointwise,
    rhs_lundholm,
    rhs_maximal_cs,
    rhs_moment_split,
    rhs_rasanen,
    run_suite,
    verify_bound,
)
from lieboxford.cli import DEFAULT_CONFIG
from lieboxford.energies import interaction_energies
from lieboxford.potentials import (
    ApproxContact,
    Contact,
    ConvexSoftCoulomb,
    Homogeneous,
    MomentBoundConstants,
    RegularizedCoulomb,
    SoftCoulomb,
    certified_constants,
)
from oracles import ShiftedPotential, dilated
from lieboxford.states import (
    DensityProfile,
    GaussianProduct,
    UniformGrid,
    density,
    density_power_integral,
    random_state_suite,
)
from test_energies import SUITE_KINDS
from test_states import trial_states

TOL = DEFAULT_CONFIG["tolerance"]


def uniform_profile(value, lo=0.0, hi=1.0, n=1001):
    # int rho^2 in closed form, as density() gives it for a trial state
    grid = UniformGrid(lo, (hi - lo) / (n - 1), n)
    return DensityProfile(grid, np.full(n, float(value)), value * (hi - lo), value**2 * (hi - lo))


def zero_profile(n=101):
    grid = UniformGrid(0.0, 0.01, n)
    return DensityProfile(grid, np.zeros(n), 0.0, 0.0)


UNIFORM2 = uniform_profile(2.0)  # rho = 2 on [0, 1], N = 2
GAUSS_PAIR_PROFILE = density(GaussianProduct((0.0, 0.0), 1.0))


class TestRhsEvaluators:
    def test_contact_direct(self):
        assert rhs_contact_direct(UNIFORM2) == pytest.approx(-2.0, rel=1e-12)
        assert rhs_contact_direct(GAUSS_PAIR_PROFILE) == pytest.approx(
            -1 / math.sqrt(math.pi), rel=1e-9
        )
        assert rhs_contact_direct(zero_profile()) == 0.0

    def test_cauchy_schwarz_and_maximal(self):
        p = ApproxContact(0.7)
        assert rhs_cauchy_schwarz(UNIFORM2, p) == pytest.approx(-4.0, rel=1e-12)
        assert rhs_maximal_cs(UNIFORM2, p) == pytest.approx(-64.0, rel=1e-12)
        # the maximal-function route is exactly 16x weaker
        assert rhs_cauchy_schwarz(UNIFORM2, p) / rhs_maximal_cs(UNIFORM2, p) == 1 / 16
        assert rhs_cauchy_schwarz(zero_profile(), p) == 0.0

    def test_moment_split_anchors(self):
        sigma = 0.5
        p = ApproxContact(sigma)
        # gamma = 0: no quadratic term, full tail 2/sigma
        assert rhs_moment_split(UNIFORM2, p, 0.0) == pytest.approx(-0.5 * 2 * 2 / sigma)
        # gamma beyond sigma: the doubled contact-direct constant
        assert rhs_moment_split(UNIFORM2, p, 10.0) == pytest.approx(-4.0, rel=1e-12)
        hom = Homogeneous(0.5)
        assert rhs_moment_split(UNIFORM2, hom, 1.0) == pytest.approx(-4.5, rel=1e-12)

    def test_moment_split_dominance(self):
        # max over a gamma grid is at least the gamma -> inf value
        p = ApproxContact(0.5)
        grid = np.geomspace(1e-2, 1e2, 20)
        best = max(rhs_moment_split(UNIFORM2, p, g) for g in grid)
        assert best >= rhs_moment_split(UNIFORM2, p, 1e9) - 1e-12

    def test_log_pointwise_a1_values(self):
        csc = certified_constants(ConvexSoftCoulomb(1.0))["primary"]
        reg = certified_constants(RegularizedCoulomb(1.0))["primary"]
        a1 = lambda c: c.c1 * (math.log(2) + 3) + c.c3
        assert a1(csc) == pytest.approx(2 * (math.log(2) + 4), rel=1e-14)
        assert a1(reg) == pytest.approx(4 * (math.log(2) + 4), rel=1e-14)
        assert rhs_log_pointwise(zero_profile(), csc) == 0.0

    def test_log_global_anchor(self):
        # int rho^2 = 1, N = 2: RHS = -(1/2)[4 + 2 ln(1 + sqrt(2))]
        prof = uniform_profile(0.5, 0.0, 4.0)
        assert prof.square_integral == 1.0
        constants = certified_constants(ConvexSoftCoulomb(1.0))["primary"]
        val = rhs_log_global(prof, constants, alpha=1.0)
        assert val == pytest.approx(-0.5 * (4 + 2 * math.log(1 + math.sqrt(2))), rel=1e-9)
        assert val == pytest.approx(-2.8814, abs=2e-4)

    def test_log_global_degrades_with_alpha(self):
        constants = certified_constants(ConvexSoftCoulomb(1.0))["primary"]
        assert rhs_log_global(UNIFORM2, constants, 1e6) < rhs_log_global(UNIFORM2, constants, 10.0)

    def test_lifted_consistent_with_log_global(self):
        constants = certified_constants(RegularizedCoulomb(1.0))["primary"]
        prof = UNIFORM2
        for c in (0.5, 1.0, 3.0):
            alpha = c * prof.n_particles / (constants.c1 * constants.c2)
            assert rhs_lifted(prof, constants, c) <= rhs_log_global(prof, constants, alpha) + 1e-12

    def test_lifted_formula(self):
        constants = MomentBoundConstants(4.0, math.sqrt(math.pi) / 4.0, 4.0)
        c = 2.0
        expect = -(4 * constants.c2 * 4 / (2 * c)) * 4.0 - 0.5 * c * 2.0
        assert rhs_lifted(UNIFORM2, constants, c) == pytest.approx(expect, rel=1e-12)

    def test_lundholm(self):
        assert lundholm_coefficient(0.5) == pytest.approx(2**1.5 * 2.25 / 0.25, rel=1e-14)
        assert lundholm_coefficient(0.5) == pytest.approx(25.4558441227, abs=1e-6)
        assert lundholm_coefficient(1e-4) > 1e4  # blows up toward the bare Coulomb limit
        assert rhs_lundholm(zero_profile(), 0.5) == 0.0
        assert rhs_lundholm(UNIFORM2, 0.5) == pytest.approx(
            -lundholm_coefficient(0.5) * density_power_integral(UNIFORM2, 1.5), rel=1e-12
        )

    def test_homogeneous_window_variants(self):
        coefs = homogeneous_window_coefficients(0.5)
        assert coefs["stated_quadratic_coefficient"] == pytest.approx(-0.5)
        assert coefs["computed_quadratic_coefficient"] == pytest.approx(0.75)
        assert coefs["discrepant"]
        assert coefs["linear_coefficient"] == 0.75
        # only the computed variant is verified: -(0.75) * 4 - 0.75 * 2 = -4.5,
        # matching the moment split
        assert rhs_moment_split(UNIFORM2, Homogeneous(0.5), 1.0) == pytest.approx(-4.5, rel=1e-12)

    def test_rasanen_defaults_and_zero_crossing(self):
        eps = 1.0
        k1 = 1.5 - 0.577
        k2 = 2 / math.pi
        assert k1 == pytest.approx(0.923)
        # integrand vanishes where the log term equals -K1
        rho_star = k2 * math.exp(k1) / eps
        prof = uniform_profile(rho_star, 0.0, 2.0 / rho_star)
        assert rhs_rasanen(prof, eps) == pytest.approx(0.0, abs=1e-10)
        assert rhs_rasanen(zero_profile(), eps) == 0.0


# the bounds whose right-hand side is quadratic in int rho^2
QUADRATIC_BOUND_IDS = {
    "contact_direct", "cauchy_schwarz", "maximal_cs", "moment_split",
    "log_global", "lifted", "homogeneous_window",
}


class TestOneSquareIntegral:
    @pytest.mark.parametrize("kind", SUITE_KINDS)
    def test_profile_reads_c0_like_the_energies(self, kind):
        state = SUITE_KINDS[kind]
        prof = density(state)
        assert prof.square_integral == float(state.correlations(0.0)[1])
        assert rhs_contact_direct(prof) == -0.5 * float(state.correlations(0.0)[1])
        # the grid rule is the independent reference for int rho^2
        grid = density_power_integral(prof, 2.0)
        assert abs(prof.square_integral - grid) <= 1e-11 * grid

    @pytest.mark.parametrize("kind", SUITE_KINDS)
    def test_homogeneous_window_is_the_unit_moment_split(self, kind):
        # the window bound is the moment split at gamma = 1, and the ledger's
        # coefficients give its bits too
        prof = density(SUITE_KINDS[kind])
        for eps in (0.1, 0.25, 0.5, 0.75, 0.9):
            coefs = homogeneous_window_coefficients(eps)
            ledger = (
                -coefs["computed_quadratic_coefficient"] * prof.square_integral
                - coefs["linear_coefficient"] * prof.n_particles
            )
            assert rhs_moment_split(prof, Homogeneous(eps), 1.0) == ledger, eps

    def test_quadratic_rhs_needs_the_closed_form(self):
        prof = density(SUITE_KINDS["gauss3a"])
        bare = DensityProfile(prof.grid, prof.values, prof.n_particles)
        for spec in bounds.bound_specs():
            if spec.bound_id in QUADRATIC_BOUND_IDS:
                with pytest.raises(ValueError, match="no state"):
                    spec.definition.rhs(bare, spec)
            else:  # log_pointwise, lundholm, rasanen integrate the grid
                assert spec.definition.rhs(bare, spec) == spec.definition.rhs(prof, spec)
        assert {s.bound_id for s in bounds.bound_specs()} - QUADRATIC_BOUND_IDS == {
            "log_pointwise", "lundholm", "rasanen",
        }


LOG_POINTWISE_SPECS = [
    BoundSpec("log_pointwise", ConvexSoftCoulomb(1.0)),
    BoundSpec("log_pointwise", RegularizedCoulomb(1.0)),
]


def _floor_and_integral(prof, spec):
    row = spec.definition
    fn, *args = row.grid_integral(spec)
    return row.grid_floor(prof, spec), fn(prof, *args)


def _at(functionals, spec, value):
    """The spec's rhs with its grid integral set to ``value``."""
    grid = {spec.definition.grid_integral(spec): value}
    return spec.definition.rhs(StateFunctionals(functionals.n_particles, functionals.square_integral, grid), spec)


class TestGridFloor:
    """A search incumbent's grid check settles at its row's floor only where the full check holds."""

    @pytest.mark.parametrize("seed", [DEFAULT_CONFIG["seed"], 7])
    def test_log_pointwise_floor_below_the_grid_integral_on_the_default_states(self, seed):
        for sid, state in random_state_suite(200, seed):
            prof = density(state)
            for spec in LOG_POINTWISE_SPECS:
                floor, integral = _floor_and_integral(prof, spec)
                assert 0.0 < floor <= integral, (sid, spec.potential_label)

    @settings(max_examples=25, deadline=None)
    @given(trial_states())
    def test_log_pointwise_floor_below_the_grid_integral(self, state):
        prof = density(state)
        for spec in LOG_POINTWISE_SPECS:
            floor, integral = _floor_and_integral(prof, spec)
            assert 0.0 < floor <= integral

    def test_grid_rows_decrease_in_their_integral(self):
        # so the rhs at a floor below the integral is at least the full rhs
        functionals = StateFunctionals(2.0, 0.4, {})
        seen = set()
        for spec in bounds.bound_specs():
            if spec.definition.grid_integral(spec) is None:
                continue
            seen.add(spec.bound_id)
            for g in (1e-6, 0.3, 2.0, 50.0):
                assert _at(functionals, spec, 2 * g) < _at(functionals, spec, g), (spec, g)
        assert seen == {"log_pointwise", "lundholm", "rasanen"}

    @pytest.mark.parametrize("kind", SUITE_KINDS)
    def test_a_settled_check_holds_in_full(self, kind):
        prof = density(SUITE_KINDS[kind])
        functionals = StateFunctionals(prof.n_particles, prof.square_integral, {})
        for spec in LOG_POINTWISE_SPECS:
            floor_rhs = _at(functionals, spec, _floor_and_integral(prof, spec)[0])
            assert floor_settles(spec, functionals, floor_rhs)
            assert not floor_settles(spec, functionals, math.nextafter(floor_rhs, -math.inf))
            assert floor_rhs >= spec.definition.rhs(prof, spec)

    @pytest.mark.parametrize("kind", SUITE_KINDS)
    def test_a_row_without_a_grid_integral_reads_its_bits_from_n_and_c0(self, kind):
        # so a search incumbent's report on one state's functionals is its
        # report on the profile
        prof = density(SUITE_KINDS[kind])
        functionals = StateFunctionals(SUITE_KINDS[kind].n_particles, prof.square_integral, {})
        for spec in bounds.bound_specs():
            if spec.definition.grid_integral(spec) is None:
                assert spec.definition.rhs(functionals, spec) == spec.definition.rhs(prof, spec), spec

    def test_only_log_pointwise_has_a_floor(self):
        # a row without one never settles: lundholm's int rho^(2-eps) has no
        # floor in N and int rho^2, and a row with no grid integral is exact
        functionals = StateFunctionals(2, 0.4, {})
        floored = set()
        for spec in bounds.bound_specs():
            if spec.definition.grid_floor(functionals, spec) is not None:
                floored.add(spec.bound_id)
            else:
                assert not floor_settles(spec, functionals, math.inf)
        assert floored == {"log_pointwise"}


def test_contact_direct_slack_is_rounding_on_antisymmetric_states():
    # <delta> = h(0)/2 vanishes for an antisymmetric state, and the Hartree
    # term and the RHS are the same C(0)/2, so the slack is the rounding of
    # h(0): 8.9e-15 at most on these states, 4.6e-13 with a grid int rho^2
    suite = random_state_suite(200, DEFAULT_CONFIG["seed"])
    anti = [(sid, s) for sid, s in suite if s.symmetry == "antisymmetric"]
    assert len(anti) == 111
    reports = run_suite(anti, [BoundSpec("contact_direct", Contact())], tol_scale=TOL)
    assert max(abs(r["slack"]) for r in reports) <= 5e-14


class TestBoundSpecValidation:
    def test_incompatible_pairs(self):
        with pytest.raises(IncompatibleSpec):
            BoundSpec("contact_direct", ConvexSoftCoulomb(1.0))
        with pytest.raises(IncompatibleSpec):
            BoundSpec("log_pointwise", ApproxContact(0.5))
        with pytest.raises(IncompatibleSpec):
            BoundSpec("lundholm", RegularizedCoulomb(1.0))
        with pytest.raises(IncompatibleSpec):
            BoundSpec("unknown_bound", Contact())

    def test_parameter_validation(self):
        with pytest.raises(IncompatibleSpec):
            BoundSpec("moment_split", ApproxContact(0.5))  # missing gamma
        with pytest.raises(IncompatibleSpec):
            BoundSpec("moment_split", Homogeneous(0.5), gamma=0.0)
        with pytest.raises(IncompatibleSpec):
            BoundSpec("lifted", ConvexSoftCoulomb(1.0), shift=-1.0)
        with pytest.raises(IncompatibleSpec):
            BoundSpec("log_global", ConvexSoftCoulomb(1.0), alpha=0.0)

    def test_rasanen_not_proven(self):
        spec = BoundSpec("rasanen", SoftCoulomb(1.0))
        assert not spec.proven
        assert BoundSpec("contact_direct", Contact()).proven


# Which bound applies to which potential family, as the table stated it when
# it replaced the per-bound isinstance checks.
APPLICABILITY = {
    "contact_direct": {"contact"},
    "cauchy_schwarz": {"approx_contact"},
    "maximal_cs": {"approx_contact"},
    "moment_split": {"approx_contact", "convex_soft_coulomb", "regularized_coulomb", "homogeneous"},
    "log_pointwise": {"convex_soft_coulomb", "regularized_coulomb"},
    "log_global": {"convex_soft_coulomb", "regularized_coulomb"},
    "lifted": {"convex_soft_coulomb", "regularized_coulomb"},
    "lundholm": {"homogeneous"},
    "homogeneous_window": {"homogeneous"},
    "rasanen": {"soft_coulomb"},
}
VALID_PARAMS = {"moment_split": {"gamma": 1.0}, "lifted": {"shift": 1.0}}

GAMMA_LABELS = [
    f"gamma={g}"
    for g in (
        "0.01", "0.0162378", "0.0263665", "0.0428133", "0.0695193", "0.112884", "0.183298",
        "0.297635", "0.483293", "0.78476", "1.27427", "2.06914", "3.35982", "5.45559",
        "8.85867", "14.3845", "23.3572", "37.9269", "61.5848", "100",
    )
]


def _log_battery(label):
    return (
        [("log_pointwise", label, "")]
        + [("log_global", label, f"alpha={a}") for a in ("0.1", "1", "10", "N")]
        + [("lifted", label, "c=0.5"), ("lifted", label, "c=2")]
        + [("moment_split", label, g) for g in GAMMA_LABELS]
    )


def _homogeneous_battery(eps, sweep=False):
    label = f"homogeneous(epsilon={eps})"
    rows = [("lundholm", label, ""), ("homogeneous_window", label, "")]
    return rows + ([("moment_split", label, g) for g in GAMMA_LABELS] if sweep else [])


# the proven battery in order: (bound_id, potential label, params label)
PINNED_BATTERY = (
    [
        ("contact_direct", "contact()", ""),
        ("cauchy_schwarz", "approx_contact(sigma=0.5)", ""),
        ("maximal_cs", "approx_contact(sigma=0.5)", ""),
    ]
    + [("moment_split", "approx_contact(sigma=0.5)", g) for g in GAMMA_LABELS]
    + _log_battery("convex_soft_coulomb(epsilon=1)")
    + _log_battery("regularized_coulomb(beta=1)")
    + _homogeneous_battery("0.1")
    + _homogeneous_battery("0.5", sweep=True)
    + _homogeneous_battery("0.9")
)


class TestBoundTable:
    def test_proven_battery_is_pinned(self):
        got = [(s.bound_id, s.potential_label, s.params_label) for s in proven_bound_specs()]
        assert len(PINNED_BATTERY) == 103
        assert got == PINNED_BATTERY

    def test_proven_ids_keep_their_order(self):
        assert PROVEN_BOUND_IDS == (
            "contact_direct", "cauchy_schwarz", "maximal_cs", "moment_split",
            "log_pointwise", "log_global", "lifted", "lundholm", "homogeneous_window",
        )
        assert [row.id for row in BOUNDS.values() if not row.proven] == ["rasanen"]

    def test_applicability_per_family(self):
        potentials = [
            Contact(), ApproxContact(0.5), SoftCoulomb(1.0), ConvexSoftCoulomb(1.0),
            RegularizedCoulomb(1.0), Homogeneous(0.5), ShiftedPotential(SoftCoulomb(1.0), 0.5),
        ]
        accepted = {}
        for bound_id in BOUNDS:
            accepted[bound_id] = set()
            for p in potentials:
                try:
                    BoundSpec(bound_id, p, **VALID_PARAMS.get(bound_id, {}))
                except IncompatibleSpec:
                    continue
                accepted[bound_id].add(p.family)
        assert accepted == APPLICABILITY


def verify_one(state, spec, sid="state"):
    return run_suite([(sid, state)], [spec], tol_scale=TOL)[0]


class TestVerify:
    def test_contact_holds_with_positive_slack(self):
        state = GaussianProduct((0.0, 0.0), 1.0, "symmetric")
        report = verify_one(state, BoundSpec("contact_direct", Contact()))
        assert report["status"] == "holds"
        assert report["slack"] == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-7)

    def test_contact_saturation_for_antisymmetric(self):
        state = GaussianProduct((-0.9, 0.7), 0.8, "antisymmetric")
        report = verify_one(state, BoundSpec("contact_direct", Contact()))
        assert report["status"] == "holds"
        assert abs(report["slack"]) <= 1e-8

    def test_log_pointwise_batch_on_random_pairs(self):
        reg = RegularizedCoulomb(1.0)
        spec = BoundSpec("log_pointwise", reg)
        for sid, state in random_state_suite(8, 99):
            assert verify_one(state, spec, sid)["status"] == "holds"

    def test_scaling_covariance_of_contact_direct(self):
        state = GaussianProduct((0.4, -0.4), 1.0, "symmetric")
        base = verify_one(state, BoundSpec("contact_direct", Contact()))
        for lam in (0.5, 2.0):
            scaled = verify_one(dilated(state, lam), BoundSpec("contact_direct", Contact()))
            assert scaled["lhs"] == pytest.approx(lam * base["lhs"], rel=1e-7)
            assert scaled["rhs"] == pytest.approx(lam * base["rhs"], rel=1e-7)

    def test_report_record_shape(self):
        state = GaussianProduct((0.0, 0.0), 1.0)
        rec = verify_one(state, BoundSpec("contact_direct", Contact()))
        assert set(rec) == {
            "state_id", "bound_id", "potential", "params", "lhs", "rhs", "slack", "status",
        }


class TestSuite:
    def test_small_suite_all_hold(self):
        reports = run_suite(random_state_suite(4, 7), tol_scale=TOL)
        assert reports
        assert all(r["status"] == "holds" for r in reports)
        # deterministic ordering
        keys = [(r["state_id"], r["bound_id"], r["potential"], r["params"]) for r in reports]
        assert keys == sorted(keys)

    def test_moments_priced_once_per_potential(self, monkeypatch):
        # the 20 moment_split gammas of RegularizedCoulomb(1) cost one int_0^g v
        # for the whole grid, however many states share them
        calls = []
        integral_to = RegularizedCoulomb._integral_to

        def counted(p, gamma):
            calls.append(np.atleast_1d(gamma).tolist())
            return integral_to(p, gamma)

        monkeypatch.setattr(RegularizedCoulomb, "_integral_to", counted)
        reports = run_suite(random_state_suite(3, 7), tol_scale=TOL)
        assert {r["state_id"] for r in reports} == {"s000", "s001", "s002"}
        assert calls == [np.geomspace(1e-2, 1e2, 20).tolist()]

    @pytest.mark.parametrize("kind", SUITE_KINDS)
    def test_table_rows_are_the_one_state_rows(self, kind):
        # every default spec, proven and reference, on one state of each kind:
        # the columnar table gives verify_bound's row bit for bit, in REPORT_ORDER
        state = SUITE_KINDS[kind]
        specs = bounds.bound_specs()
        assert {(s.bound_id, s.params_label) for s in specs} >= {
            ("log_global", "alpha=N"), ("homogeneous_window", ""), ("rasanen", ""),
        }
        table = list(run_suite([(kind, state)], specs, tol_scale=TOL))
        profile = density(state)
        potentials = list(dict.fromkeys(s.potential for s in specs))
        breakdowns = dict(zip(potentials, interaction_energies([(state, potentials)])[0]))
        one_state = [
            verify_bound(s, profile, breakdowns[s.potential], kind, tol_scale=TOL) for s in specs
        ]

        def bits(row):
            return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}

        assert len(table) == len(specs)
        assert [bits(r) for r in table] == [bits(r) for r in sorted(one_state, key=REPORT_ORDER)]
        assert [REPORT_ORDER(r) for r in table] == sorted(REPORT_ORDER(r) for r in table)

    def test_default_specs_cover_all_bound_ids(self):
        ids = {s.bound_id for s in proven_bound_specs()}
        assert ids == {
            "contact_direct", "cauchy_schwarz", "maximal_cs", "moment_split",
            "log_pointwise", "log_global", "lifted", "lundholm", "homogeneous_window",
        }
        pots = default_suite_potentials()
        assert {p.family for p in pots.values()} >= {
            "contact", "approx_contact", "convex_soft_coulomb",
            "regularized_coulomb", "homogeneous",
        }

    def test_discrepancy_records_machine_readable(self):
        records = discrepancy_records()
        ids = {r["id"] for r in records}
        assert ids == {
            "homogeneous_window_quadratic_coefficient",
            "convex_soft_coulomb_c2_ambiguity",
        }
        win = [r for r in records if r["id"].startswith("homogeneous")][0]
        assert win["discrepant"]
        assert win["value_a"] != win["value_b"]
        keys = {frozenset(r) for r in records}
        assert len(keys) == 1  # homogeneous schema, one file
