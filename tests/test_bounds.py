import math

import numpy as np
import pytest

from lieboxford import bounds
from lieboxford.bounds import (
    BOUNDS,
    PROVEN_BOUND_IDS,
    BoundSpec,
    IncompatibleSpec,
    default_suite_potentials,
    discrepancy_records,
    homogeneous_window_coefficients,
    lundholm_coefficient,
    proven_bound_specs,
    rhs_cauchy_schwarz,
    rhs_contact_direct,
    rhs_homogeneous_window,
    rhs_lifted,
    rhs_log_global,
    rhs_log_pointwise,
    rhs_lundholm,
    rhs_maximal_cs,
    rhs_moment_split,
    rhs_rasanen,
    run_suite,
)
from lieboxford.energies import indirect_energy
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
from oracles import ShiftedPotential
from lieboxford.states import (
    DensityProfile,
    GaussianProduct,
    UniformGrid,
    density,
    random_state_suite,
)


def uniform_profile(value, lo=0.0, hi=1.0, n=1001):
    grid = UniformGrid(lo, (hi - lo) / (n - 1), n)
    return DensityProfile(grid, np.full(n, float(value)), value * (hi - lo))


def zero_profile(n=101):
    grid = UniformGrid(0.0, 0.01, n)
    return DensityProfile(grid, np.zeros(n), 0.0)


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
        assert prof.power_integral(2.0) == pytest.approx(1.0, rel=1e-12)
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
            -lundholm_coefficient(0.5) * UNIFORM2.power_integral(1.5), rel=1e-12
        )

    def test_homogeneous_window_variants(self):
        coefs = homogeneous_window_coefficients(0.5)
        assert coefs["stated_quadratic_coefficient"] == pytest.approx(-0.5)
        assert coefs["computed_quadratic_coefficient"] == pytest.approx(0.75)
        assert coefs["discrepant"]
        both = rhs_homogeneous_window(UNIFORM2, 0.5)
        # computed variant: -(0.75) * 4 - 0.75 * 2 = -4.5, matching the moment split
        assert both["computed"] == pytest.approx(-4.5, rel=1e-12)
        assert both["stated"] == pytest.approx(0.5 * 4 - 0.75 * 2, rel=1e-12)

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
        got = [(s.bound_id, s.potential.label(), s.params_label()) for s in proven_bound_specs()]
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
    return run_suite([(sid, state)], [spec])[0]


class TestVerify:
    def test_contact_holds_with_positive_slack(self):
        state = GaussianProduct((0.0, 0.0), 1.0, "symmetric")
        report = verify_one(state, BoundSpec("contact_direct", Contact()))
        assert report.holds
        assert report.slack == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-7)

    def test_contact_saturation_for_antisymmetric(self):
        state = GaussianProduct((-0.9, 0.7), 0.8, "antisymmetric")
        report = verify_one(state, BoundSpec("contact_direct", Contact()))
        assert report.holds
        assert abs(report.slack) <= 1e-8

    def test_log_pointwise_batch_on_random_pairs(self):
        reg = RegularizedCoulomb(1.0)
        spec = BoundSpec("log_pointwise", reg)
        for sid, state in random_state_suite(8, 99):
            assert verify_one(state, spec, sid).holds

    def test_scaling_covariance_of_contact_direct(self):
        state = GaussianProduct((0.4, -0.4), 1.0, "symmetric")
        base = verify_one(state, BoundSpec("contact_direct", Contact()))
        for lam in (0.5, 2.0):
            scaled = verify_one(state.dilated(lam), BoundSpec("contact_direct", Contact()))
            assert scaled.lhs == pytest.approx(lam * base.lhs, rel=1e-7)
            assert scaled.rhs == pytest.approx(lam * base.rhs, rel=1e-7)

    def test_report_record_shape(self):
        state = GaussianProduct((0.0, 0.0), 1.0)
        rec = verify_one(state, BoundSpec("contact_direct", Contact())).to_record()
        assert set(rec) == {
            "state_id", "bound_id", "potential", "params", "lhs", "rhs", "slack", "status",
        }


class TestSuite:
    def test_small_suite_all_hold(self):
        reports = run_suite(random_state_suite(4, 7))
        assert reports
        assert all(r.holds for r in reports)
        # deterministic ordering
        keys = [(r.state_id, r.bound_id, r.potential, r.params) for r in reports]
        assert keys == sorted(keys)

    def test_moments_computed_once_per_potential_and_gamma(self, monkeypatch):
        # the 20 moment_split gammas of RegularizedCoulomb(1) cost one int_0^g v
        # each, however many states share them
        calls = []
        integral_to = RegularizedCoulomb._integral_to

        def counted(p, gamma):
            calls.append(gamma)
            return integral_to(p, gamma)

        monkeypatch.setattr(RegularizedCoulomb, "_integral_to", counted)
        bounds._moments.cache_clear()
        reports = run_suite(random_state_suite(3, 7))
        assert {r.state_id for r in reports} == {"s000", "s001", "s002"}
        assert len(calls) == 20

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
